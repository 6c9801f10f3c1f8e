"""Greedy sampling (with replacement until k distinct nodes) and its coupled
pre/post-split variant.

Draws come from an alias table (O(1) per draw after a loop-free O(N log N)
build, cached per distribution) fed by counter-based Philox streams, so identical
(seed, stream_id) inputs replay bit-identical sequences.  `greedy_runs` is
the block-vectorized kernel behind every Monte Carlo path, finishing each
block's rows in one loop over a stack of row groups, and `AliasTable.draw`
its one draw layout.  The stream plan (`as_stream` and the
`*_stream` derivations) is the one place that says which stream each chunk,
sweep point, FPC round and subsample draws from.  A split-node draw takes
its part by `SplitSpec.part`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, SamplingError
from .weights import SamplingDistribution, SplitSpec, _check_count, _check_k, _check_node

_MASK64 = (1 << 64) - 1
_ALIAS_PASS = 1 << 14  # nodes per pass of the alias build, and heavies per slice of E


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
    return seed if isinstance(seed, RngStream) else RngStream(_check_count(seed, "seed"), 0)


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
    """Vose alias table over a fixed probability vector, built with no per-node
    loop, in passes over slices of _ALIAS_PASS nodes: beside the table (8N
    bytes of cut points, 4N of int32 aliases) only the class mask (1 byte a
    node) and the heavies' int32 list span N.  At N = 10^6 (Zipf 0.8 under
    power:0.5) the build's traced peak is 1.98 x 8N bytes, the table included.

    Lights (scaled mass below 1) and heavies are taken in descending index
    order, as Vose's loop pops them; E is the heavies' running excess and D
    the lights' running deficit, both carried as hi + lo so the cut points are
    exact.  Heavy j is cut by the first light i with D_i > E_j, to
    1 - (D_i - E_j), and aliases heavy j + 1; light i aliases the first heavy
    with E_j >= D_(i-1).  Each pass finds both pairings with one search: the
    heavies it reaches, E_j below its last D, searched in its D.  E is made
    _ALIAS_PASS heavies at a time, as the passes reach them.

    Neither E nor D falls, so both can be searched and a pass stops at its
    first E_j >= D_last.  Take E (D is alike): hi_j = fl(hi_(j-1) + x_j)
    with x_j = s_j - 1 >= 0, t_j = hi_(j-1) + x_j - hi_j exactly (TwoSum)
    and lo_j = fl(lo_(j-1) + t_j).  Where hi stays, t_j = x_j >= 0 and lo
    cannot fall.  Where hi rises, rounding to nearest puts x_j at least half
    way to hi_j, so x_j >= ulp(hi_j) / 4, while lo sums j errors of at most
    ulp(hi_j) / 2 and so rounds by at most j 2**-54 ulp(hi_j) < x_j for
    j < 2**52.  Either way the exact hi_j + lo_j >= hi_(j-1) + lo_(j-1),
    and rounding their sum keeps that order.
    """

    def __init__(self, probs: np.ndarray):
        n = int(probs.size)
        self.size, self.prob = n, np.asarray(probs, dtype=float) * n
        index = np.int32 if n < 2**31 else np.int64
        scaled, self.alias = self.prob, np.arange(n, dtype=index)
        light = scaled < 1.0  # the classes; scaled itself becomes the cut points
        heavy, at = np.empty(n - int(np.count_nonzero(light)), index), 0
        for a, b in _slices(n):
            h = np.flatnonzero(~light[a:b])[::-1]
            heavy[at:at + h.size] = h + a
            at += h.size
        cuts = heavy.size - 1  # heavy j but the last can be cut
        carry = e_carry = (0.0, 0.0)
        c0 = e0 = e1 = 0  # the pass's first heavy; E is made for heavies [e0, e1)
        e_hi = e_lo = e = np.empty(0)
        for a, b in _slices(n):
            lights = np.flatnonzero(light[a:b])[::-1] + a
            if lights.size == 0:
                continue
            d_hi, d_lo = _prefix_sums(1.0 - scaled[lights], carry)  # running deficit D
            carry, d = (d_hi[-1], d_lo[-1]), d_hi + d_lo
            # the pass reaches heavies [c0, c1), those with E_j < D_last: light
            # i = #{D <= E_j} cuts heavy j, and light i takes heavy c[i] = c0 +
            # #{reached heavies cut before light i}
            c = np.zeros(lights.size, np.int64)
            c[0] = c1 = c0
            while True:
                if c1 == e1 < heavy.size:  # the next slice of E
                    e0, e1 = e1, min(e1 + _ALIAS_PASS, heavy.size)
                    e_hi, e_lo = _prefix_sums(scaled[heavy[e0:e1]] - 1.0, e_carry)
                    e_carry, e = (e_hi[-1], e_lo[-1]), e_hi + e_lo
                j, c1 = c1, e0 + int(np.searchsorted(e, d[-1], side="left"))
                i = np.searchsorted(d, e[j - e0:c1 - e0], side="right")
                c[1:] += np.bincount(i, minlength=lights.size)[:-1]
                stop = max(j, min(c1, cuts))
                i = i[:stop - j]
                cut = 1.0 - ((d_hi[i] - e_hi[j - e0:stop - e0])
                             + (d_lo[i] - e_lo[j - e0:stop - e0]))  # hi - hi exact
                h = heavy[j:stop + 1]  # heavy j and j + 1
                scaled[h[:-1]] = np.clip(cut, 0.0, 1.0, out=cut)  # exact ties give about -4e-16
                self.alias[h[:-1]] = h[1:]
                if c1 < e1 or e1 == heavy.size:
                    break
            np.cumsum(c, out=c)  # the donors grow, so the fed lights are a prefix
            m = int(np.searchsorted(c, heavy.size))
            self.alias[lights[:m]] = heavy[c[:m]]
            scaled[lights[m:]] = 1.0
            c0 = c1
        scaled[heavy[min(c0, cuts):]] = 1.0  # the last heavy and those no light reached

    def draw(self, gen: np.random.Generator, shape) -> np.ndarray:
        """Array of draws using one uniform each: its integer part picks the
        column and its fraction the accept test.  (1 - 2**-53) * size rounds
        below size, so the column index stays in range."""
        u = gen.random(shape) * self.size
        idx = u.astype(np.int64)
        return np.where(u - idx < self.prob[idx], idx, self.alias[idx])


def _prefix_sums(x: np.ndarray, carry=(0.0, 0.0)) -> tuple:
    """Running sums of x as hi + lo: np.cumsum and its summed TwoSum errors, on
    from carry, the (hi, lo) of the sums before x, with the bits of one pass
    over both.  x is scratch, overwritten by lo, so callers pass a temporary."""
    buf = np.empty(x.size + 1)
    buf[0], buf[1:] = carry[0], x
    hi, prev = np.cumsum(buf, out=buf)[1:], buf[:-1]
    step = hi - prev
    x -= step
    x += np.subtract(prev, np.subtract(hi, step, out=step), out=step)  # prev - (hi - step)
    x[:1] += carry[1]
    return hi, np.cumsum(x, out=x)


def _slices(n: int):
    """(start, stop) of the slices of _ALIAS_PASS nodes, last slice first."""
    for b in range(n, 0, -_ALIAS_PASS):
        yield max(0, b - _ALIAS_PASS), b


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
    percentile draw count.  A block holds up to BLOCK_ROWS rows and at most
    BLOCK_CELLS draws unless a single row needs more.  Its short rows, kept on
    a stack of groups, double their width, or go on in parts of
    max(1, BLOCK_CELLS // (2 * width)) rows if that would pass BLOCK_CELLS,
    each part finished, extensions included, before the next.

    `track` is a node index or range of nodes counted into y.  With a split,
    each in-run split-node draw takes a part by its own uniform, in row-major
    order; the post-split run is counted from those draws (_post_split).
    `totals` holds per-node value vectors, one value per node of p, to sum
    over each run's draws.
    """
    k = _check_k(k, p.support_size)
    if split is not None:
        split.check(p.probs, p.f)
    n_runs = _check_count(n_runs, "n_runs", 0)
    if not isinstance(track, range):
        i = _check_count(track, "tracked node")
        track = range(i, i + 1)
    _check_node(track.start, p.size, "tracked node")
    _check_node(track.stop - 1, p.size, "tracked node")
    values = [np.asarray(t, dtype=float) for t in totals]
    if any(value.shape != (p.size,) for value in values):
        raise InvalidParameterError(f"totals must hold one value per node ({p.size})")
    counts = [np.empty(n_runs, dtype=np.int64) for _ in range(2 if split is None else 6)]
    out = GreedyRuns(*counts, totals=np.empty((len(values), n_runs)))
    table, gen = _alias_table(p), rng.generator
    width = k + k // 2 + 8
    start = 0
    while start < n_runs:
        size = max(1, min(BLOCK_ROWS, BLOCK_CELLS // width))
        block = np.arange(start, min(start + size, n_runs))
        stack = [(block, table.draw(gen, (block.size, width)))]
        while stack:  # groups of rows, the one to finish next on top
            rows, draws = stack.pop()
            first = _first_columns(draws, table.size)
            v = _kth_stop(first, k)
            done = v > 0
            _record(out, rows[done], v[done], draws[done], first[done], k, gen, track, split,
                    values)
            rows, draws = rows[~done], draws[~done]
            group = max(1, BLOCK_CELLS // (2 * draws.shape[1]))
            if group < rows.size:  # too wide to double: parts, first on top
                stack += [(rows[i:i + group], draws[i:i + group])
                          for i in range(0, rows.size, group)][::-1]
            elif rows.size:
                stack.append((rows, np.concatenate([draws, table.draw(gen, draws.shape)], axis=1)))
        width = _p90(out.v[block])
        start += block.size
    return out


def _record(out, rows, v, draws, first, k, gen, t, split, values):
    """Store finished rows' outcomes, y counting the draws in the tracked range
    t, checking the coupling on the way."""
    in_run = np.arange(draws.shape[1]) < v[:, None]
    out.v[rows] = v
    for j, value in enumerate(values):
        out.totals[j, rows] = np.where(in_run, value[draws], 0.0).sum(axis=1)
    if split is None or t != range(split.node, split.node + 1):
        out.y[rows] = np.count_nonzero(in_run & (draws >= t.start) & (draws < t.stop), axis=1)
    if split is None:
        return
    v_post, hr, hc = _post_split(in_run, draws, first, k, split, gen)
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
    them: the node's own, which `first` holds already.  The joined matrix is
    wider than its fill value w, so a run left unfinished reads w + 1 > v."""
    hr, hc = np.nonzero(in_run & (draws == split.node))
    n, w = draws.shape
    parts = np.full((n, split.r), w, dtype=first.dtype)
    pick = split.part(gen.random(hr.size))
    np.minimum.at(parts, (hr, pick), hc.astype(parts.dtype))
    parts[np.arange(n), parts.argmin(axis=1)] = w
    return _kth_stop(np.concatenate([first, parts], axis=1), k), hr, hc


def _p90(v: np.ndarray) -> int:
    """int(np.quantile(v, 0.9)), numpy's linear method, without its per-call overhead."""
    x = (v.size - 1) * 0.9
    lo, t = int(x), x - int(x)
    a, b = np.sort(v)[[lo, min(lo + 1, v.size - 1)]]
    return int(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))


def _first_columns(draws: np.ndarray, n: int) -> np.ndarray:
    """Per row, each node's first column, and the width w in the other cells.

    Draws are alias draws, nodes below n.  The draw d in column c of a
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
