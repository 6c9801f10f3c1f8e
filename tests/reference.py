"""Independent references that the package is checked against.

None of this is part of `greedyvote`: the block kernel `sampler.greedy_runs`
is the package's one sampling path.  Here it meets a second, per-draw one:

- `greedy_sample` and `coupled_greedy_sample` run one sample at a time off
  a batched per-draw stream (`draw_batch`, `stream`) with its own layout,
  two uniforms per draw, and tally each run in a dict;
- `remap` builds a row's post-split image, the dense way the kernel no
  longer does;
- `TwoSearchAliasTable` pairs lights and heavies with two merges, one per
  direction, where `AliasTable` reads both pairings off one;
- `enumeration_oracle` walks every short draw sequence, the brute-force
  ground truth of the exact engine.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from greedyvote.errors import ResourceLimitError, SamplingError
from greedyvote.exact import JointDistribution, VDistribution, _check_law_args
from greedyvote.sampler import AliasTable, RngStream, _alias_table, _prefix_sums
from greedyvote.weights import SamplingDistribution, SplitSpec, _check_k, _fsum

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
# per-draw stream
# ---------------------------------------------------------------------------


def draw_batch(table: AliasTable, gen: np.random.Generator, n: int) -> list:
    """n draws, two uniforms each: a column, then the accept test."""
    idx = gen.integers(0, table.size, n)
    accept = gen.random(n) < table.prob[idx]
    return np.where(accept, idx, table.alias[idx]).tolist()


def stream(table: AliasTable, gen: np.random.Generator, batch: int):
    """Draws one at a time, fetched in batches that double up to 4096."""
    while True:
        yield from draw_batch(table, gen, batch)
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
    k = _check_k(p, k)
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
    split.check(p.probs, p.source_f)
    k = _check_k(p, k)
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
    total = _fsum(list(v_probs.values()))
    v_dist = VDistribution(probs=v_probs, residual=1.0 - total, k=k, v_max=v_max)
    joints = {
        u: JointDistribution(probs=joint[u], node=u,
                             residual=1.0 - _fsum(list(joint[u].values())),
                             k=k, v_max=v_max)
        for u in range(n)
    }
    return v_dist, joints
