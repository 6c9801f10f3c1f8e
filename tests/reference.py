"""Independent references that the package is checked against.

None of this is part of `greedyvote`: the block kernel `sampler.greedy_runs`
is the package's one sampling path.  Here it meets a second, per-draw one:

- `greedy_sample` and `coupled_greedy_sample` run one sample at a time off
  a batched per-draw stream (`draw_batch`, `stream`) with its own layout,
  two uniforms per draw, and tally each run in a dict;
- `lockstep_coupled_runs` advances many coupled runs together, one draw per
  live run per step, with each run's seen-sets as rows of boolean matrices;
- `remap` builds a row's post-split image, the dense way the kernel no
  longer does;
- `TwoSearchAliasTable` pairs lights and heavies with two merges, one per
  direction, where `AliasTable` reads both pairings off one, in place;
- `interleaved_split_gain` samples independent mode chunk by chunk, each
  chunk's pre-split runs and then its post-split runs, with both networks'
  tables alive, where `estimate_split_gain` runs the two networks in turn;
- `enumeration_oracle` walks every short draw sequence, the brute-force
  ground truth of the exact engine, and `cells` keys a law's probabilities
  by their index for comparisons across supports;
- `voting_power_subsets` and `stop_law_subsets` are voting power and the
  draw-count law as signed sums over node subsets, the way the exact engine
  computed them before its sums of positive terms, and `split_gain_subsets`
  the split gain from the first;
- `voting_power_k2`, `split_gain_k2` and `tau_r_value` are k = 2 voting
  power, the split gain and the equal-split gain in closed form, where the
  package serves the first with `voting_power_exact` and the others with
  `split_gain`;
- `fpc_share_law` and `fpc_chain` are the law of a quorum's share of ones
  and the exact chain of `fpc.run_fpc` on a uniform network, its thresholds
  integrated out.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from greedyvote.errors import InvalidParameterError, ResourceLimitError, SamplingError
from greedyvote.exact import Law, _check_law_args, _truncated
from greedyvote.fairness import CHUNK_RUNS, GainEstimate, _summarize
from greedyvote.sampler import (
    AliasTable,
    RngStream,
    _alias_table,
    _prefix_sums,
    as_stream,
    chunk_stream,
    greedy_runs,
)
from greedyvote.weights import (
    SamplingDistribution,
    SplitSpec,
    WeightDistribution,
    WeightFunction,
    _check_k,
    _check_node,
    _fsum,
    apply_split,
    sampling_distribution,
)

ORACLE_MAX_NODES = 5
ORACLE_MAX_VMAX = 10


# ---------------------------------------------------------------------------
# the split mapping, dense
# ---------------------------------------------------------------------------


def remap(split: SplitSpec, nodes, u) -> np.ndarray:
    """Post-split index of every entry of `nodes`.

    Nodes before the split node keep their index and later ones shift by
    r - 1; each split-node entry becomes the part that its uniform selects.
    `u` holds one uniform per split-node entry, in row-major order.
    """
    nodes = np.asarray(nodes)
    out = np.where(nodes > split.node, nodes + (split.r - 1), nodes)
    out[nodes == split.node] = split.node + split.part(u)
    return out


# ---------------------------------------------------------------------------
# the alias build, two merges
# ---------------------------------------------------------------------------


class TwoSearchAliasTable(AliasTable):
    """The layout-3 alias table, each pairing found by its own searchsorted."""

    def __init__(self, probs: np.ndarray):
        n = int(probs.size)
        scaled = np.asarray(probs, dtype=float) * n
        light = np.flatnonzero(scaled < 1.0)[::-1]  # Vose's loop pops both lists
        heavy = np.flatnonzero(scaled >= 1.0)[::-1]  # in descending index order
        d_hi, d_lo = _prefix_sums(1.0 - scaled[light])  # running deficit D
        e_hi, e_lo = _prefix_sums(scaled[heavy] - 1.0)  # running excess E
        d, e = d_hi + d_lo, e_hi + e_lo
        self.size, self.prob, self.alias = n, np.ones(n), np.arange(n, dtype=np.int64)
        # light i takes the first heavy j with E_j >= D_(i-1); unfed lights keep 1
        donor = np.searchsorted(e, np.concatenate(([0.0], d))[:-1], side="left")
        fed = donor < heavy.size
        self.prob[light[fed]] = scaled[light[fed]]
        self.alias[light[fed]] = heavy[donor[fed]]
        # heavy j but the last: the first light i with D_i > E_j cuts it to 1 - (D_i - E_j)
        i = np.searchsorted(d, e[:-1], side="right")
        j = np.flatnonzero(i < light.size)
        cut = 1.0 - ((d_hi[i[j]] - e_hi[j]) + (d_lo[i[j]] - e_lo[j]))  # hi - hi exact
        self.prob[heavy[j]] = np.clip(cut, 0.0, 1.0)  # exact ties give about -4e-16
        self.alias[heavy[j]] = heavy[j + 1]


# ---------------------------------------------------------------------------
# independent split gain, one chunk at a time
# ---------------------------------------------------------------------------


def interleaved_split_gain(w: WeightDistribution, f: WeightFunction, k: int,
                           split: SplitSpec, n_runs: int, seed) -> GainEstimate:
    """Independent-mode split gain, chunk after chunk: the chunk's pre-split
    runs, then its post-split runs on the same stream."""
    p = sampling_distribution(w, f)
    p_hat = sampling_distribution(apply_split(w, split)[0], f)
    rng = as_stream(seed)
    values = []
    for ci, start in enumerate(range(0, n_runs, CHUNK_RUNS)):
        chunk_rng, count = chunk_stream(rng, ci), min(CHUNK_RUNS, n_runs - start)
        pre = greedy_runs(p, k, chunk_rng, count, track=split.node)
        post = greedy_runs(p_hat, k, chunk_rng, count, track=split.parts)
        values.append(post.y / post.v - pre.y / pre.v)
    return _summarize(np.concatenate(values), rng)


# ---------------------------------------------------------------------------
# per-draw stream
# ---------------------------------------------------------------------------


def draw_batch(table: AliasTable, gen: np.random.Generator, n: int) -> np.ndarray:
    """n draws, two uniforms each: a column, then the accept test."""
    idx = gen.integers(0, table.size, n)
    accept = gen.random(n) < table.prob[idx]
    return np.where(accept, idx, table.alias[idx])


def stream(table: AliasTable, gen: np.random.Generator, batch: int):
    """Draws one at a time, fetched in batches that double up to 4096."""
    while True:
        yield from draw_batch(table, gen, batch).tolist()
        batch = min(2 * batch, 4096)


# ---------------------------------------------------------------------------
# sample records
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GreedySample:
    """Outcome of one greedy sampling run.

    counts maps node index -> number of occurrences among the total_draws
    draws; exactly ``distinct`` nodes appear and the run stops the moment the
    last of them is first drawn, so that node's count is always 1.
    """

    counts: dict
    total_draws: int
    distinct: int
    last_node: int

    def validate(self):
        if sum(self.counts.values()) != self.total_draws:
            raise AssertionError("counts do not add up to total_draws")
        if len(self.counts) != self.distinct:
            raise AssertionError("distinct node count mismatch")
        if not (self.total_draws >= self.distinct >= 1):
            raise AssertionError("need total_draws >= distinct >= 1")
        if self.counts.get(self.last_node) != 1:
            raise AssertionError("final node must be drawn exactly once")


@dataclass(eq=False)
class CoupledSample:
    """Paired greedy samples sharing one draw stream, before and after a split.

    extra_draws counts the draws the pre-split run needed after the post-split
    run had already finished; extra_split_hits counts how many of those extra
    draws hit the split node.  Both are tallied during the run, independently
    of the identities they must satisfy.
    """

    pre: GreedySample
    post: GreedySample
    extra_draws: int
    extra_split_hits: int
    split: SplitSpec

    @property
    def K(self) -> int:
        return self.extra_draws

    @property
    def L(self) -> int:
        return self.extra_split_hits

    def validate(self):
        self.pre.validate()
        self.post.validate()
        if not (0 <= self.extra_split_hits <= self.extra_draws):
            raise AssertionError("need 0 <= L <= K")
        if self.pre.total_draws != self.post.total_draws + self.extra_draws:
            raise AssertionError("v_pre must equal v_post + K")
        node = self.split.node
        y_pre = self.pre.counts.get(node, 0)
        y_post = sum(self.post.counts.get(j, 0) for j in self.split.parts)
        if y_pre != y_post + self.extra_split_hits:
            raise AssertionError("split-node occurrences must satisfy Y_pre = Y_post + L")
        others = [u for u in self.pre.counts if u != node]
        moved = remap(self.split, np.array(others, dtype=np.int64), ()).tolist()
        for u, b in zip(others, moved):
            if self.pre.counts[u] < self.post.counts.get(b, 0):
                raise AssertionError(f"non-split node {u} gained occurrences post-split")


# ---------------------------------------------------------------------------
# scalar samplers
# ---------------------------------------------------------------------------


def greedy_sample(p: SamplingDistribution, k: int, rng: RngStream) -> GreedySample:
    """Sample with replacement until k distinct nodes have been seen."""
    k = _check_k(k, p.support_size)
    counts: dict = {}
    seen = 0
    draws = 0
    for a in stream(_alias_table(p), rng.generator, k + 16):
        draws += 1
        c = counts.get(a)
        if c is None:
            counts[a] = 1
            seen += 1
            if seen == k:
                return GreedySample(counts=counts, total_draws=draws,
                                    distinct=k, last_node=a)
        else:
            counts[a] = c + 1


def coupled_greedy_sample(p: SamplingDistribution, split: SplitSpec, k: int,
                          rng: RngStream) -> CoupledSample:
    """Run the pre- and post-split greedy samples off one shared draw stream.

    Every draw from the original distribution feeds both runs; a draw of the
    split node is forwarded to the post-split run as one of its parts, chosen
    with the split fractions.  The post-split run never needs more draws, so
    it stops first and the remaining draws are tallied as extra_draws /
    extra_split_hits.
    """
    split.check(p.probs, p.f)
    k = _check_k(k, p.support_size)
    node = split.node
    r = split.r
    cum = split.cum.tolist()
    gen = rng.generator

    pre_counts: dict = {}
    post_counts: dict = {}
    pre_seen = post_seen = 0
    v_pre = v_post = 0
    post_done, post_last = False, -1
    extra_draws = extra_hits = 0
    for a in stream(_alias_table(p), gen, k + 16):
        v_pre += 1
        c = pre_counts.get(a)
        if c is None:
            pre_counts[a] = 1
            pre_seen += 1
        else:
            pre_counts[a] = c + 1

        if not post_done:
            if a == node:
                b = node + bisect_right(cum, gen.random())
            elif a > node:
                b = a + r - 1
            else:
                b = a
            v_post += 1
            c = post_counts.get(b)
            if c is None:
                post_counts[b] = 1
                post_seen += 1
                if post_seen == k:
                    post_done = True
                    post_last = b
            else:
                post_counts[b] = c + 1
        else:
            extra_draws += 1
            if a == node:
                extra_hits += 1

        if pre_seen == k:
            break

    # the post-split prefix always holds at least as many distinct nodes,
    # so it must have finished by the time the pre-split run does
    if not post_done:
        raise SamplingError("the post-split run outlasted the pre-split run")
    pre = GreedySample(counts=pre_counts, total_draws=v_pre, distinct=k, last_node=a)
    post = GreedySample(counts=post_counts, total_draws=v_post, distinct=k,
                        last_node=post_last)
    return CoupledSample(
        pre=pre, post=post,
        extra_draws=extra_draws, extra_split_hits=extra_hits, split=split,
    )


# ---------------------------------------------------------------------------
# coupled runs in lockstep
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LockstepRuns:
    """Per run: the draws v and split-node hits y of the pre-split run and of
    its post-split twin, and the pre-split run's K draws and L split-node
    hits after the post-split run had stopped; each tallied on its own."""

    v_pre: np.ndarray
    v_post: np.ndarray
    y_pre: np.ndarray
    y_post: np.ndarray
    K: np.ndarray
    L: np.ndarray


def lockstep_coupled_runs(p: SamplingDistribution, split: SplitSpec, k: int,
                          rng: RngStream, n_runs: int) -> LockstepRuns:
    """n_runs coupled pre/post-split runs, every live run one draw per step.

    Each run's pre- and post-split seen-sets are rows of two boolean
    matrices, n_runs x N and n_runs x (N + r - 1).  A draw of the split node
    reaches the post-split run as the part its uniform selects (`remap`).
    Once the post-split run has k distinct nodes, the pre-split run's
    further draws count towards K, and those of the split node towards L,
    until it has k distinct nodes too.
    """
    split.check(p.probs, p.f)
    k = _check_k(k, p.support_size)
    table, gen, parts = _alias_table(p), rng.generator, split.parts
    pre_seen = np.zeros((n_runs, p.size), dtype=bool)
    post_seen = np.zeros((n_runs, p.size + split.r - 1), dtype=bool)
    pre_distinct, post_distinct, v_pre, v_post, y_pre, y_post, K, L = np.zeros(
        (8, n_runs), dtype=np.int64)
    live = np.arange(n_runs)
    while live.size:
        a = draw_batch(table, gen, live.size)
        hit = a == split.node
        v_pre[live] += 1
        y_pre[live] += hit
        pre_distinct[live] += ~pre_seen[live, a]
        pre_seen[live, a] = True
        on = post_distinct[live] < k  # the runs whose post-split run goes on
        rows = live[on]
        b = remap(split, a[on], gen.random(np.count_nonzero(hit[on])))
        v_post[rows] += 1
        y_post[rows] += (b >= parts.start) & (b < parts.stop)
        post_distinct[rows] += ~post_seen[rows, b]
        post_seen[rows, b] = True
        K[live[~on]] += 1
        L[live[~on]] += hit[~on]
        live = live[pre_distinct[live] < k]
    if (post_distinct < k).any():
        raise SamplingError("the post-split run outlasted the pre-split run")
    return LockstepRuns(v_pre=v_pre, v_post=v_post, y_pre=y_pre, y_post=y_post, K=K, L=L)


# ---------------------------------------------------------------------------
# brute-force enumeration
# ---------------------------------------------------------------------------


def enumeration_oracle(p: SamplingDistribution, k: int, v_max: int):
    """Brute-force ground truth: walk every draw sequence of length <= v_max
    that first reaches k distinct nodes on its final element.

    Returns the draw-count law and, for every node, the joint law of
    (occurrences, draw count).  Kept deliberately independent of the
    formula implementations in `greedyvote.exact`.
    """
    k, v_max = _check_law_args(p, k, v_max)
    n = p.size
    if n > ORACLE_MAX_NODES:
        raise ResourceLimitError(
            f"N={n} exceeds the oracle limit N <= {ORACLE_MAX_NODES}"
        )
    if v_max > ORACLE_MAX_VMAX:
        raise ResourceLimitError(
            f"v_max={v_max} exceeds the oracle limit v_max <= {ORACLE_MAX_VMAX}"
        )

    probs_list = p.probs.tolist()
    support = [u for u in range(n) if probs_list[u] > 0.0]
    v_probs: dict = {}
    joint: dict = {u: {} for u in range(n)}
    counts = [0] * n

    def walk(distinct: int, length: int, seq_prob: float):
        for a in support:
            q = seq_prob * probs_list[a]
            if counts[a] == 0:
                if distinct + 1 == k:
                    v = length + 1
                    v_probs[v] = v_probs.get(v, 0.0) + q
                    for u in range(n):
                        ell = counts[u] + (1 if u == a else 0)
                        key = (ell, v)
                        joint[u][key] = joint[u].get(key, 0.0) + q
                    continue
                if length + 1 >= v_max:
                    continue
                counts[a] = 1
                walk(distinct + 1, length + 1, q)
                counts[a] = 0
            else:
                if length + 1 >= v_max:
                    continue
                counts[a] += 1
                walk(distinct, length + 1, q)
                counts[a] -= 1

    walk(0, 0, 1.0)
    return _law(("v",), v_probs), {u: _law(("ell", "v"), joint[u]) for u in range(n)}


def _law(names: tuple, probs: dict) -> Law:
    """The law record of {key: probability}, its cells in the engine's order:
    v ascending, and the joint law's (ell, v) keys by v, then ell."""
    keys = sorted(probs, key=lambda key: key[::-1] if isinstance(key, tuple) else key)
    index = np.array(keys, dtype=np.int64).reshape(len(keys), len(names)).T
    return _truncated(names, tuple(index), np.array([probs[key] for key in keys]))


def cells(law: Law) -> dict:
    """A law's probabilities keyed by index: v, (ell, v) or u."""
    columns = [column.tolist() for column in law.index]
    keys = columns[0] if len(columns) == 1 else zip(*columns)
    return dict(zip(keys, law.probs.tolist()))


# ---------------------------------------------------------------------------
# voting power over node subsets
# ---------------------------------------------------------------------------


def _log_kernels(x: np.ndarray, comp: np.ndarray):
    """L(x) = -log(1 - x) / x and M(x) = (L(x) - 1) / x, with 1 - x given as comp.

    Below x = 1/2, M is its series sum_m x^m / (m + 2) (the quotient would
    cancel) and L = 1 + x M; from 1/2 up, the complement keeps log(1 - x)
    accurate as x nears 1.
    """
    small = x < 0.5
    xs = x[small]
    series = np.zeros_like(xs)
    for m in range(55, -1, -1):  # the tail after 56 terms is below 2^-56
        np.multiply(series, xs, out=series)
        np.add(series, 1.0 / (m + 2), out=series)
    L, M = np.empty_like(x), np.empty_like(x)
    M[small] = series
    L[small] = 1.0 + xs * series
    xb = x[~small]
    L[~small] = -np.log(comp[~small]) / xb
    M[~small] = (L[~small] - 1.0) / xb
    return L, M


def voting_power_subsets(p: SamplingDistribution, k: int, i: int):
    """Voting power of node i as a signed sum over the subsets S, |S| < k:

        p_i [sum_S c_S L(p_S) - sum_{S∋i} c_S M(p_S)].

    The terms cancel, so the result carries a rounding error of at most
    error_bound = (2N + 16) eps p_i sum|terms| + eps |value|: each term's
    relative error is 2N eps (p_S and 1 - p_S are sums of up to N
    probabilities) plus 16 eps (logarithm, series, products), and the sum is
    exactly rounded.  Returns (value, error_bound).
    """
    k = _check_k(k, p.support_size)
    i = _check_node(i, p.size)
    p_i = float(p.probs[i])
    support = np.flatnonzero(p.probs).tolist()
    n = len(support)
    subsets = [list(s) for size in range(k) for s in itertools.combinations(support, size)]
    x = np.array([_fsum(p.probs[s]) for s in subsets])
    comp = np.array([_fsum(np.delete(p.probs, s)) for s in subsets])
    coef = np.array([(-1) ** (k - 1 - len(s)) * math.comb(n - len(s) - 1, k - 1 - len(s))
                     for s in subsets], dtype=float)
    L, M = _log_kernels(x, comp)
    M[[i not in s for s in subsets]] = 0.0
    terms = coef * (L - M)
    value = p_i * _fsum(terms)
    error_bound = ((2 * n + 16) * p_i * _fsum(np.abs(terms)) + abs(value)) * sys.float_info.epsilon
    return value, error_bound


def split_gain_subsets(w: WeightDistribution, f: WeightFunction, k: int, split: SplitSpec):
    """The split gain from `voting_power_subsets`: the parts' summed power on
    the split network less the node's, with the sum of the r + 1 error bounds.
    Returns (value, error_bound)."""
    post = sampling_distribution(apply_split(w, split)[0], f)
    parts = [voting_power_subsets(post, k, j) for j in split.parts]
    before, bound = voting_power_subsets(sampling_distribution(w, f), k, split.node)
    return (math.fsum(v for v, _ in parts) - before,
            math.fsum([bound, *(b for _, b in parts)]))


# ---------------------------------------------------------------------------
# the draw-count law over node subsets
# ---------------------------------------------------------------------------


def stop_law_subsets(probs: np.ndarray, k: int, lo: int, hi: int) -> tuple:
    """P(V = v) and P(V >= v) for v = lo..hi (lo >= 1), V the draws from probs
    until k distinct nodes, as one sum over the subsets S of the support with
    |S| < k (Flajolet, Gardy & Thimonier 1992), N the support size:

        P(V >= v) = sum_S c_S p_S^(v-1),  c_S = sum_{t < k-|S|} (-1)^t C(N-|S|, t),

    and P(V = v) the same sum with terms c_S p_S^(v-1) (1 - p_S).  Masses are
    sums of positive probabilities, the complement's included, so neither
    loses digits when p_S nears 0 or 1; the signed terms still cancel.
    """
    nodes = probs[probs > 0].tolist()
    n, top = len(nodes), min(k - 1, len(nodes))
    size = np.zeros(sum(math.comb(n, j) for j in range(top + 1)), np.int8)
    rest, comp = np.zeros(size.size), np.zeros(size.size)
    filled = 1  # the empty set; node j appends S + {j} for each S filled so far
    for p_j in nodes:
        grow = size[:filled] < k - 1
        end = filled + int(np.count_nonzero(grow))
        size[filled:end] = size[:filled][grow] + 1
        rest[filled:end] = rest[:filled][grow] + p_j
        comp[filled:end] = comp[:filled][grow]
        comp[:filled] += p_j
        filled = end
    coef = [sum((-1) ** t * math.comb(n - s, t) for t in range(k - s)) for s in range(top + 1)]
    coef = np.array(coef, dtype=float)[size]
    with np.errstate(under="ignore"):
        powers = np.power(rest[:, None], np.arange(lo - 1, hi))
    return (coef * comp) @ powers, coef @ powers


# ---------------------------------------------------------------------------
# k = 2 closed forms
# ---------------------------------------------------------------------------


def _log_ratio(p: float) -> float:
    """log(1 - p) / p, the recurring series sum; continuous value -1 at 0."""
    if p == 0.0:
        return -1.0
    return math.log1p(-p) / p


def voting_power_k2(p: SamplingDistribution, i: int) -> float:
    """Expected occupancy share of node i when sampling until 2 distinct nodes.

    Closed form obtained by summing the geometric runs that precede the second
    distinct node; needs every probability strictly below 1 to terminate.
    """
    i = _check_node(i, p.size)
    _check_k(2, p.support_size)
    probs = p.probs.tolist()
    if any(q >= 1.0 for q in probs):
        raise InvalidParameterError(
            "a probability-1 node makes k=2 greedy sampling non-terminating"
        )
    p_i = probs[i]
    other_sum = _fsum([_log_ratio(q) + 1.0 for j, q in enumerate(probs) if j != i])
    return -p_i * other_sum + (1.0 - p_i) * _log_ratio(p_i) + 1.0


def split_gain_k2(p: SamplingDistribution, split: SplitSpec) -> float:
    """Total k=2 voting power gained by splitting one node as specified.

    At k = 2 it is positive for every genuine split (r >= 2), and equal
    parts maximize it: the scheme is robust to merging but not to
    splitting.  These are k = 2 facts; at k > 2 the best split can be
    unequal and a split can lose.
    """
    p_i = split.check(p.probs, p.f)
    if p_i >= 1.0:
        raise InvalidParameterError("split gain needs p_i < 1")
    r = split.r
    parts_sum = _fsum([_log_ratio(p_i * float(x)) for x in split.fractions])
    return (1.0 - p_i) * ((r - 1) + parts_sum - _log_ratio(p_i))


def tau_r_value(p: float, r: int) -> float:
    """k=2 gain from splitting a probability-p node into r equal parts."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie strictly inside (0, 1)")
    r = int(r)
    if r < 1:
        raise InvalidParameterError("r must be >= 1")
    return (1.0 - p) * (r + r * r * math.log1p(-p / r) / p - math.log1p(-p) / p - 1.0)


# ---------------------------------------------------------------------------
# FPC on a uniform network, as a chain on the count of ones
# ---------------------------------------------------------------------------


def fpc_share_law(n: int, m: int, k: int, cutoff: float = 1e-16) -> tuple:
    """The law of a quorum's share eta = Y / V on a uniform network of n nodes,
    m of them ones, under constant-one averaging: Y draws on ones among the V
    draws of a greedy run that stops at k distinct nodes.  A recursion over
    (ones seen, zeros seen, draws on ones) per draw count, stopped once the
    live mass is below cutoff.  Returns the atoms ascending, as the floats
    y / v the simulator compares, and their probabilities."""
    ones = np.arange(k + 1)
    a, b = ones[:, None, None], ones[None, :, None]
    live, atoms, masses = np.zeros((k + 1, k + 1, 1)), [], []
    live[0, 0, 0] = 1.0
    while live.sum() >= cutoff:
        v = live.shape[2]
        step = np.zeros((k + 1, k + 1, v + 1))
        step[:, :, 1:] += live * (a / n)  # a one seen before
        step[:, :, :-1] += live * (b / n)  # a zero seen before
        step[1:, :, 1:] += (live * ((m - a) / n))[:-1]  # a new one
        step[:, 1:, :-1] += (live * ((n - m - b) / n))[:, :-1]  # a new zero
        stopped = step[ones, k - ones]  # the k-th distinct node ends the run
        atoms.append(np.broadcast_to(np.arange(v + 1) / v, stopped.shape).ravel())
        masses.append(stopped.ravel())
        step[ones, k - ones] = 0.0
        live = step
    eta, where = np.unique(np.concatenate(atoms), return_inverse=True)
    probs = np.bincount(where, weights=np.concatenate(masses))
    return eta[probs > 0], probs[probs > 0]


def fpc_chain(n: int, k: int, theta: float, beta: float, ones: int, finality_l: int,
              max_rounds: int) -> Law:
    """The law of (final opinion, consensus round) of `fpc.run_fpc` on a uniform
    network of n nodes under constant-one averaging, from `ones` ones: final 0
    or 1 for all zeros or all ones, 2 for undecided; round 0 for no consensus.

    A chain on the count m of ones.  Round one moves m to Binomial(n, P(eta >=
    theta | m)).  Between atoms of eta, P(eta >= u) = P(eta > u) = q(u), so a
    later round moves m to Binomial(n, q(u)) averaged over u uniform on
    [beta, 1 - beta], a finite sum over the atoms.  With 0 < theta <= 1 the
    states 0 and n absorb, so the consensus round is the first unanimous round
    plus finality_l - 1, but at least finality_l, if within max_rounds.
    """
    from scipy.stats import binom

    if not (0.0 < theta <= 1.0 and 0.0 <= beta < 0.5):
        raise ValueError("the chain needs 0 < theta <= 1 and 0 <= beta < 0.5")
    counts = np.arange(n + 1)
    first, later = np.zeros((2, n + 1, n + 1))
    for m in counts:
        eta, probs = fpc_share_law(n, m, k)
        tail = np.r_[np.cumsum(probs[::-1])[::-1], 0.0]  # P(eta >= eta[i])
        # sums of ones read 1 + 4e-16, and binom.pmf is nan above 1
        first[m] = binom.pmf(counts, n, min(1.0, tail[np.searchsorted(eta, theta)]))
        cuts = np.unique(np.clip(np.r_[beta, eta, 1.0 - beta], beta, 1.0 - beta))
        q = np.minimum(1.0, tail[np.searchsorted(eta, cuts[:-1], side="right")])
        later[m] = np.diff(cuts) / (1.0 - 2.0 * beta) @ binom.pmf(counts, n, q[:, None])
    dist = [np.eye(n + 1)[ones]]
    for t in range(1, max_rounds + 1):
        dist.append(dist[-1] @ (first if t == 1 else later))
    cells: dict = {(2, 0): float(dist[-1][1:n].sum())}
    for final, m in ((0, 0), (1, n)):
        reached = [0.0] + [d[m] for d in dist]  # P(unanimous by round t), from t = -1
        for t in range(max_rounds + 1):
            c = max(t + finality_l - 1, finality_l)
            key = (final, c if c <= max_rounds else 0)
            cells[key] = cells.get(key, 0.0) + reached[t + 1] - reached[t]
    return _law(("final", "round"), {key: p for key, p in cells.items() if p > 0})
