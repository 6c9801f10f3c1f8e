"""Greedy sampling (with replacement until k distinct nodes) and its coupled
pre/post-split variant.

Draws come from an alias table (O(1) per draw after a loop-free O(N log N)
build, cached per distribution) fed by counter-based Philox streams, so identical
(seed, stream_id) inputs replay bit-identical sequences.  `greedy_runs` is
the block-vectorized kernel behind every Monte Carlo path, and
`AliasTable.draw` its one draw layout.  The stream plan (`as_stream` and the
`*_stream` derivations) is the one place that says which stream each chunk,
sweep point, FPC round and subsample draws from.  A split-node draw takes
its part by `SplitSpec.part`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, SamplingError
from .weights import SamplingDistribution, SplitSpec, _check_k

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer; used only to derive well-separated stream ids
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(eq=False)
class RngStream:
    """A named, reproducible random stream.

    The (seed, stream_id) pair keys a Philox counter-based generator, so the
    stream replays exactly across processes and does not depend on what
    sibling streams consume.  The stream is stateful: repeated draws continue
    the same sequence.
    """

    seed: int
    stream_id: int = 0

    @cached_property
    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.stream_id & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *indices: int) -> "RngStream":
        """Derive an independent substream; deterministic in the indices."""
        sid = self.stream_id & _MASK64
        for i in indices:
            sid = _mix64(sid ^ _mix64(int(i) & _MASK64))
        return RngStream(self.seed, sid)


# ---------------------------------------------------------------------------
# the stream plan: every stream that a run derives from its seed; the stream
# ids are part of STREAM_LAYOUT
# ---------------------------------------------------------------------------


def as_stream(seed) -> RngStream:
    """An RngStream as is, or stream 0 of an integer seed."""
    return seed if isinstance(seed, RngStream) else RngStream(int(seed), 0)


def chunk_stream(rng: RngStream, i: int) -> RngStream:
    """Chunk i of an estimate's runs."""
    return rng.child(i)


def retained_stream(rng: RngStream) -> RngStream:
    """The pick of an estimate's retained subsample."""
    return rng.child(0x5E1EC7)


def sweep_stream(rng: RngStream, j: int) -> RngStream:
    """Sweep point j: stream id + j, so a one-point sweep is a plain estimate."""
    return RngStream(rng.seed, rng.stream_id + j)


def round_stream(rng: RngStream, t: int) -> RngStream:
    """The quorums of FPC round t."""
    return rng.child(t)


def threshold_stream(rng: RngStream, t: int) -> RngStream:
    """The shared threshold of FPC round t."""
    return rng.child(0x7EED, t)


class AliasTable:
    """Vose alias table over a fixed probability vector, built loop-free."""

    def __init__(self, probs: np.ndarray):
        n = int(probs.size)
        scaled = np.asarray(probs, dtype=float) * n
        light = np.flatnonzero(scaled < 1.0)[::-1]  # Vose's loop pops both lists
        heavy = np.flatnonzero(scaled >= 1.0)[::-1]  # in descending index order
        d_hi, d_lo = _prefix_sums(1.0 - scaled[light])  # running deficit D
        e_hi, e_lo = _prefix_sums(scaled[heavy] - 1.0)  # running excess E
        d, e = d_hi + d_lo, e_hi + e_lo
        self.size, self.prob, self.alias = n, np.ones(n), np.arange(n, dtype=np.int64)
        # one merge: c[i] counts the heavies j with E_j < D_i
        c = np.searchsorted(e, d, side="left")
        # light 0 takes heavy 0 and light i the first heavy with E_j >= D_(i-1);
        # the donors grow, so the fed lights are a prefix and unfed ones keep 1
        donor = np.concatenate(([0], c))[:-1]
        m = int(np.searchsorted(donor, heavy.size))
        self.prob[light[:m]] = scaled[light[:m]]
        self.alias[light[:m]] = heavy[donor[:m]]
        # heavy j but the last: light i = #{c <= j}, the first with D_i > E_j,
        # cuts it to 1 - (D_i - E_j); the cut heavies are a prefix too
        i = np.cumsum(np.bincount(c, minlength=heavy.size))[:heavy.size - 1]
        i = i[:np.searchsorted(i, light.size)]
        j = i.size
        cut = 1.0 - ((d_hi[i] - e_hi[:j]) + (d_lo[i] - e_lo[:j]))  # hi - hi exact
        self.prob[heavy[:j]] = np.clip(cut, 0.0, 1.0)  # exact ties give about -4e-16
        self.alias[heavy[:j]] = heavy[1:j + 1]

    def draw(self, gen: np.random.Generator, shape) -> np.ndarray:
        """Array of draws using one uniform each: its integer part picks the
        column and its fraction the accept test.  (1 - 2**-53) * size rounds
        below size, so the column index stays in range."""
        u = gen.random(shape) * self.size
        idx = u.astype(np.int64)
        return np.where(u - idx < self.prob[idx], idx, self.alias[idx])


def _prefix_sums(x: np.ndarray) -> tuple:
    """Running sums of x as hi + lo: np.cumsum and its summed TwoSum errors."""
    hi = np.cumsum(x)
    prev = np.concatenate(([0.0], hi[:-1]))
    step = hi - prev
    return hi, np.cumsum((prev - (hi - step)) + (x - step))


def _alias_table(p: SamplingDistribution) -> AliasTable:
    table = p.__dict__.get("_alias_table")
    if table is None:
        table = AliasTable(p.probs)
        p.__dict__["_alias_table"] = table
    return table


# ---------------------------------------------------------------------------
# block-vectorized kernel
# ---------------------------------------------------------------------------

STREAM_LAYOUT = 3  # version of the seed -> draws layout that greedy_runs defines
BLOCK_ROWS = 512  # runs per block
BLOCK_CELLS = 1 << 19  # draws per matrix; bounds a block's memory when runs are long


@dataclass(eq=False)
class GreedyRuns:
    """Outcomes of many greedy runs, one array entry per run.

    v is the draw count and y the number of draws of the tracked nodes.
    Coupled runs add the post-split run on the same draws (v_post; y_post
    counts draws of any part) and the pre-split run's extra draws K and
    extra split-node hits L after the post-split run stopped.  totals[j]
    sums the j-th per-node value vector over each run's draws.
    """

    v: np.ndarray
    y: np.ndarray
    v_post: np.ndarray | None = None
    y_post: np.ndarray | None = None
    K: np.ndarray | None = None
    L: np.ndarray | None = None
    totals: np.ndarray | None = None


def greedy_runs(p: SamplingDistribution, k: int, rng: RngStream, n_runs: int,
                track=0, split: SplitSpec | None = None, totals=()) -> GreedyRuns:
    """n_runs greedy samples off one stream, in blocks of consecutive runs.

    A block draws a (rows x width) matrix; row r holds run r's draws in
    order.  Rows short of k distinct nodes are extended with further draws
    from the same stream, never redrawn, so every run sees an i.i.d.
    sequence whatever the width, which follows the previous block's 90th
    percentile draw count.  Blocks hold up to BLOCK_ROWS rows and, like the
    groups of rows extended together, at most BLOCK_CELLS draws unless a
    single row needs more.

    `track` is a node index or range counted into y.  With a split, each
    in-run split-node draw takes a part by its own uniform, in row-major
    order; the post-split run is counted from those draws (_post_split).
    `totals` holds per-node value vectors to sum over each run's draws.
    """
    k = _check_k(p, k)
    if split is not None:
        split.check(p.probs, p.source_f)
    n_runs = int(n_runs)
    if n_runs < 0:
        raise InvalidParameterError("n_runs must be >= 0")
    if not isinstance(track, range):
        track = range(int(track), int(track) + 1)
    values = [np.asarray(t, dtype=float) for t in totals]
    counts = [np.empty(n_runs, dtype=np.int64) for _ in range(2 if split is None else 6)]
    out = GreedyRuns(*counts, totals=np.empty((len(values), n_runs)))
    blocks = _Blocks(_alias_table(p), k, rng.generator, track, split, values, out)
    width = k + k // 2 + 8
    start = 0
    while start < n_runs:
        size = max(1, min(BLOCK_ROWS, BLOCK_CELLS // width))
        rows = np.arange(start, min(start + size, n_runs))
        blocks.finish(rows, blocks.table.draw(blocks.gen, (rows.size, width)))
        width = _p90(out.v[rows])
        start += rows.size
    return out


class _Blocks:
    """What the blocks of one greedy_runs call share: table, stream, options
    and the output arrays their rows are recorded into."""

    def __init__(self, table, k, gen, track, split, values, out):
        self.table, self.k, self.gen = table, k, gen
        self.track, self.split, self.values, self.out = track, split, values, out

    def finish(self, rows, draws):
        """Record every row once it has k distinct nodes, doubling the width
        of the others; a group too wide for BLOCK_CELLS goes on in parts."""
        while True:
            first = _first_columns(draws, self.table.size)
            v = _kth_stop(first, self.k)
            done = v > 0
            self.record(rows[done], v[done], draws[done], first[done])
            if done.all():
                return
            rows, draws = rows[~done], draws[~done]
            group = max(1, BLOCK_CELLS // (2 * draws.shape[1]))
            if group < rows.size:
                for i in range(0, rows.size, group):
                    self.finish(rows[i:i + group], draws[i:i + group])
                return
            more = self.table.draw(self.gen, draws.shape)
            draws = np.concatenate([draws, more], axis=1)

    def record(self, rows, v, draws, first):
        """Store finished rows' outcomes, checking the coupling on the way."""
        out, split, t = self.out, self.split, self.track
        in_run = np.arange(draws.shape[1]) < v[:, None]
        out.v[rows] = v
        for j, value in enumerate(self.values):
            out.totals[j, rows] = np.where(in_run, value[draws], 0.0).sum(axis=1)
        if split is None or t != range(split.node, split.node + 1):
            out.y[rows] = np.count_nonzero(in_run & (draws >= t.start) & (draws < t.stop), axis=1)
        if split is None:
            return
        v_post, hr, hc = _post_split(in_run, draws, first, self.k, split, self.gen)
        out.v_post[rows] = v_post
        if not ((v_post > 0) & (v_post <= v)).all():
            raise SamplingError("a post-split run outlasted its pre-split run")
        before = hc < v_post[hr]
        out.K[rows] = K = v - v_post
        out.L[rows] = L = np.bincount(hr[~before], minlength=rows.size)
        if not ((L >= 0) & (L <= K)).all():
            raise SamplingError("coupled runs broke 0 <= L <= K")
        out.y_post[rows] = y_post = np.bincount(hr[before], minlength=rows.size)
        if t == range(split.node, split.node + 1):
            out.y[rows] = y_post + L  # every in-run draw of the split node


def _post_split(in_run, draws, first, k, split, gen):
    """Stop points of finished rows' post-split runs, which are never built,
    and the row and column of each in-run split-node draw.  Each such draw
    takes a part by its own uniform, in row-major order; the parts' first
    columns join the rows' first occurrences (`first`), less the earliest of
    them: the node's own, which `first` holds already."""
    hr, hc = np.nonzero(in_run & (draws == split.node))
    n, w = draws.shape
    parts = np.full((n, split.r), w, dtype=first.dtype)
    pick = split.part(gen.random(hr.size))
    np.minimum.at(parts, (hr, pick), hc.astype(parts.dtype))
    parts[np.arange(n), parts.argmin(axis=1)] = w
    kth = np.partition(np.concatenate([first, parts], axis=1), k - 1, axis=1)[:, k - 1]
    return kth + 1, hr, hc


def _p90(v: np.ndarray) -> int:
    """int(np.quantile(v, 0.9)), numpy's linear method, without its per-call overhead."""
    x = (v.size - 1) * 0.9
    lo, t = int(x), x - int(x)
    a, b = np.sort(v)[[lo, min(lo + 1, v.size - 1)]]
    return int(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))


def _first_columns(draws: np.ndarray, n: int) -> np.ndarray:
    """Per row, each node's first column, and the width w in the other cells.

    Draws are nodes below n, or -1 past a run.  The draw d in column c of a
    width-w row becomes the key d * w + c: one plain sort lines a row up by
    node, then column, and a key whose node key // w is new is a first one."""
    w = draws.shape[1]
    keys = draws.astype(np.int32 if (n + 1) * w < 2**31 else np.int64)
    keys *= w
    keys += np.arange(w, dtype=keys.dtype)
    keys.sort(axis=1)
    node = keys // w
    head = np.ones(keys.shape, dtype=bool)
    np.not_equal(node[:, 1:], node[:, :-1], out=head[:, 1:])
    return np.where(head, keys - node * w, w)


def _kth_stop(first: np.ndarray, k: int) -> np.ndarray:
    """Per row, 1 + the k-th smallest entry of `first`, or 0 if that is the width."""
    kth = np.partition(first, k - 1, axis=1)[:, k - 1]
    return np.where(kth < first.shape[1], kth + 1, 0)
