"""Exact (enumerative and closed-form) greedy-sampling distributions.

Everything here is deterministic arithmetic: the distribution of the number
of draws needed to see k distinct nodes, the joint law of (occurrences of a
node, number of draws), the distinct-count law for a fixed number of draws,
plus the k = 2 closed forms for voting power and split gain and their
equal-split limit curve.

Enumeration walks integer compositions (how many times each of the other
distinct nodes appears) and sums over node subsets with a small dynamic
program, so cost is bounded and checked up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError, UnsupportedConfigurationError
from .weights import SamplingDistribution, SplitSpec, _fsum

MAX_NODES = 14
MAX_K = 6
MAX_K_DISTINCT_COUNT = 10
# enumeration budget: number of compositions a single call may expand.  The
# worst permitted corner (N=14, k=6, v_max=24) expands ~1e5 compositions and
# ~5e7 arithmetic terms; anything costlier must go through Monte Carlo.
MAX_ENUMERATED_COMPOSITIONS = 200_000

ORACLE_MAX_NODES = 5
ORACLE_MAX_VMAX = 10


# ---------------------------------------------------------------------------
# distribution records
# ---------------------------------------------------------------------------


class _TruncatedLaw:
    """Probabilities over a truncated support plus the tail mass beyond it."""

    def __post_init__(self):
        total = _fsum(list(self.probs.values()))
        if self.residual < -1e-9:
            raise AssertionError(f"negative residual {self.residual}")
        self.residual = max(0.0, self.residual)
        if abs(total + self.residual - 1.0) > 1e-10:
            raise AssertionError("probabilities plus residual must be 1")


@dataclass(eq=False)
class VDistribution(_TruncatedLaw):
    """Truncated law of the total number of draws, plus the tail mass."""

    probs: dict
    residual: float
    k: int
    v_max: int

    def mean(self) -> float:
        """Expected draw count over the truncated support (lower bound)."""
        return _fsum([v * q for v, q in self.probs.items()])


@dataclass(eq=False)
class JointDistribution(_TruncatedLaw):
    """Truncated joint law of (occurrences of one node, total draws)."""

    probs: dict
    node: int
    residual: float
    k: int
    v_max: int

    def marginal_v(self) -> dict:
        out: dict = {}
        for (_, v), q in self.probs.items():
            out[v] = out.get(v, 0.0) + q
        return out


@dataclass(eq=False)
class UDistribution:
    """Law of the number of distinct nodes seen in exactly k draws."""

    probs: np.ndarray  # index u-1 holds P(u distinct), u = 1..k

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        self.probs = p
        if abs(_fsum(p) - 1.0) > 1e-10:
            raise AssertionError("distinct-count probabilities must sum to 1")


# ---------------------------------------------------------------------------
# composition and subset-sum machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple:
    """All ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        return ((),) if total == 0 else ()
    if parts == 1:
        return ((total,),) if total >= 1 else ()
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def _n_compositions(total: int, parts: int) -> int:
    if parts == 0:
        return 1 if total == 0 else 0
    if total < parts:
        return 0
    return math.comb(total - 1, parts - 1)


def _multinomial(n: int, parts) -> int:
    """Exact multinomial coefficient n! / prod(parts!) with sum(parts) = n."""
    res = 1
    rem = n
    for x in parts:
        res *= math.comb(rem, x)
        rem -= x
    return res


def _power_table(probs, max_exp: int) -> list:
    """pows[u][e] = probs[u] ** e for e = 0..max_exp, as plain float lists."""
    base = np.asarray(probs, dtype=float)
    with np.errstate(under="ignore"):
        table = np.power(base[:, None], np.arange(max_exp + 1)[None, :])
    return [row.tolist() for row in table]


def _ordered_subset_sum(nodes, exponents, pows) -> float:
    """Sum over ascending subsets A of `nodes` with |A| = len(exponents) of
    prod(p[a_r] ** exponents[r]), positions following the subset order."""
    m = len(exponents)
    dp = [0.0] * (m + 1)
    dp[0] = 1.0
    for u in nodes:
        pu = pows[u]
        for s in range(m, 0, -1):
            prev = dp[s - 1]
            if prev != 0.0:
                dp[s] += prev * pu[exponents[s - 1]]
    return dp[m]


def _ordered_subset_sum_with_last(nodes, exponents, pows, probs) -> float:
    """Like _ordered_subset_sum but additionally picks one node outside the
    subset (the run's final node) contributing a plain probability factor."""
    m = len(exponents)
    dp0 = [0.0] * (m + 1)  # final node not chosen yet
    dp1 = [0.0] * (m + 1)  # final node chosen
    dp0[0] = 1.0
    for u in nodes:
        pu = pows[u]
        p_u = probs[u]
        for s in range(m, -1, -1):
            base = dp0[s]
            if base != 0.0 and p_u != 0.0:
                dp1[s] += base * p_u
            if s > 0:
                w = pu[exponents[s - 1]]
                if w != 0.0:
                    prev1 = dp1[s - 1]
                    if prev1 != 0.0:
                        dp1[s] += prev1 * w
                    prev0 = dp0[s - 1]
                    if prev0 != 0.0:
                        dp0[s] += prev0 * w
    return dp1[m]


def _check_dimensions(n_nodes: int, k: int):
    if n_nodes > MAX_NODES:
        raise ResourceLimitError(
            f"N={n_nodes} exceeds the exact-computation limit N <= {MAX_NODES}"
        )
    if k > MAX_K:
        raise ResourceLimitError(
            f"k={k} exceeds the exact-computation limit k <= {MAX_K}"
        )


def _check_law_args(p: SamplingDistribution, k, v_max) -> tuple:
    k = int(k)
    v_max = int(v_max)
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if v_max < k:
        raise InvalidParameterError("v_max must be at least k")
    _check_dimensions(p.size, k)
    if k > p.support_size:
        raise InvalidParameterError(f"k={k} exceeds support size {p.support_size}")
    return k, v_max


def _check_v_budget(cost: int, v_max: int):
    if cost > MAX_ENUMERATED_COMPOSITIONS:
        raise ResourceLimitError(
            f"v_max={v_max} would expand {cost} compositions "
            f"(budget {MAX_ENUMERATED_COMPOSITIONS}); lower v_max"
        )


# ---------------------------------------------------------------------------
# exact distributions
# ---------------------------------------------------------------------------


def exact_v_distribution(p: SamplingDistribution, k: int, v_max: int) -> VDistribution:
    """P(total draws = v) for v = k..v_max, summing over which node ends the
    run, which k-1 other nodes precede it, and how often each appears."""
    k, v_max = _check_law_args(p, k, v_max)
    n = p.size
    _check_v_budget(sum(_n_compositions(v - 1, k - 1) for v in range(k, v_max + 1)),
                    v_max)

    probs_list = p.probs.tolist()
    pows = _power_table(probs_list, max(v_max - 1, 1))
    nodes = list(range(n))
    out: dict = {}
    for v in range(k, v_max + 1):
        acc = 0.0
        for x in _compositions(v - 1, k - 1):
            coef = float(_multinomial(v - 1, x))
            acc += coef * _ordered_subset_sum_with_last(nodes, x, pows, probs_list)
        out[v] = acc
    residual = 1.0 - _fsum(list(out.values()))
    return VDistribution(probs=out, residual=residual, k=k, v_max=v_max)


def _joint_cost(k: int, v_max: int) -> int:
    cost = 0
    for v in range(k, v_max + 1):
        cost += 2 * _n_compositions(v - 1, k - 1)  # no-occurrence + ends-the-run cases
        cost += _n_compositions(v - 2, k - 2)      # single occurrence, not last
        if k >= 3:
            if v >= k + 1:
                cost += math.comb(v - 3, k - 2)    # all multi-occurrence cases
        elif k == 2 and v >= 3:
            cost += 1
    return cost


def exact_joint_distribution(p: SamplingDistribution, k: int, i: int,
                             v_max: int) -> JointDistribution:
    """Joint law of (occurrences of node i, total draws), truncated at v_max.

    Three families of outcomes: node i never drawn; drawn exactly once
    (either somewhere before the final draw or as the final draw itself);
    drawn two or more times (necessarily before the final draw).
    """
    k, v_max = _check_law_args(p, k, v_max)
    i = int(i)
    n = p.size
    if not (0 <= i < n):
        raise InvalidParameterError(f"node {i} out of range for {n} nodes")

    probs_list = p.probs.tolist()
    p_i = probs_list[i]

    if k == 1:
        out = {(0, 1): 1.0 - p_i, (1, 1): p_i}
        if p_i == 0.0:
            out = {(0, 1): 1.0}
        elif p_i == 1.0:
            out = {(1, 1): 1.0}
        return JointDistribution(probs=out, node=i, residual=0.0, k=1, v_max=v_max)

    _check_v_budget(_joint_cost(k, v_max), v_max)

    pows = _power_table(probs_list, max(v_max - 1, 1))
    others = [u for u in range(n) if u != i]
    out = {}
    for v in range(k, v_max + 1):
        # never drawn: the whole run happens on the other nodes
        acc = 0.0
        for x in _compositions(v - 1, k - 1):
            coef = float(_multinomial(v - 1, x))
            acc += coef * _ordered_subset_sum_with_last(others, x, pows, probs_list)
        if acc != 0.0:
            out[(0, v)] = acc

        # drawn exactly once
        acc = 0.0
        if p_i != 0.0:
            for x in _compositions(v - 2, k - 2):  # once, before some other final node
                coef = float(_multinomial(v - 1, x + (1,)))
                acc += coef * p_i * _ordered_subset_sum_with_last(others, x, pows,
                                                                 probs_list)
            for x in _compositions(v - 1, k - 1):  # node i is the final draw
                coef = float(_multinomial(v - 1, x))
                acc += coef * p_i * _ordered_subset_sum(others, x, pows)
        if acc != 0.0:
            out[(1, v)] = acc

        # drawn ell >= 2 times (never the final draw then)
        if p_i != 0.0:
            if k == 2:
                ell = v - 1
                if ell >= 2:
                    val = pows[i][ell] * _ordered_subset_sum_with_last(
                        others, (), pows, probs_list)
                    if val != 0.0:
                        out[(ell, v)] = val
            else:
                for ell in range(2, v - k + 2):
                    acc = 0.0
                    for x in _compositions(v - ell - 1, k - 2):
                        coef = float(_multinomial(v - 1, x + (ell,)))
                        acc += coef * pows[i][ell] * _ordered_subset_sum_with_last(
                            others, x, pows, probs_list)
                    if acc != 0.0:
                        out[(ell, v)] = acc

    residual = 1.0 - _fsum(list(out.values()))
    return JointDistribution(probs=out, node=i, residual=residual, k=k, v_max=v_max)


def exact_u_distribution(p: SamplingDistribution, k: int) -> UDistribution:
    """P(u distinct nodes in exactly k draws with replacement), u = 1..k."""
    k = int(k)
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    n = p.size
    if n > MAX_NODES:
        raise ResourceLimitError(
            f"N={n} exceeds the exact-computation limit N <= {MAX_NODES}"
        )
    if k > MAX_K_DISTINCT_COUNT:
        raise ResourceLimitError(
            f"k={k} exceeds the distinct-count limit k <= {MAX_K_DISTINCT_COUNT}"
        )
    probs_list = p.probs.tolist()
    pows = _power_table(probs_list, k)
    nodes = list(range(n))
    out = np.zeros(k)
    for u in range(1, k + 1):
        acc = 0.0
        for x in _compositions(k, u):
            acc += float(_multinomial(k, x)) * _ordered_subset_sum(nodes, x, pows)
        out[u - 1] = acc
    return UDistribution(probs=out)


def enumeration_oracle(p: SamplingDistribution, k: int, v_max: int):
    """Brute-force ground truth: walk every draw sequence of length <= v_max
    that first reaches k distinct nodes on its final element.

    Returns the draw-count law and, for every node, the joint law of
    (occurrences, draw count).  Kept deliberately independent of the formula
    implementations above.
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


# ---------------------------------------------------------------------------
# k = 2 closed forms and the equal-split gain curve
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
    n = p.size
    i = int(i)
    if not (0 <= i < n):
        raise InvalidParameterError(f"node {i} out of range for {n} nodes")
    if n < 2 or p.support_size < 2:
        raise InvalidParameterError("need at least two sampleable nodes for k=2")
    probs = p.probs.tolist()
    if any(q >= 1.0 for q in probs):
        raise InvalidParameterError(
            "a probability-1 node makes k=2 greedy sampling non-terminating"
        )
    p_i = probs[i]
    if p_i == 0.0:
        return 0.0
    other_sum = _fsum([_log_ratio(q) + 1.0 for j, q in enumerate(probs) if j != i])
    return -p_i * other_sum + (1.0 - p_i) * _log_ratio(p_i) + 1.0


def split_gain_k2(p: SamplingDistribution, split: SplitSpec) -> float:
    """Total k=2 voting power gained by splitting one node as specified.

    Positive for every genuine split (r >= 2): the scheme is robust to
    merging but not to splitting.
    """
    if p.source_f != "identity":
        raise UnsupportedConfigurationError(
            "the closed-form split gain assumes the identity weight function, "
            f"got {p.source_f}"
        )
    n = p.size
    if not (0 <= split.node < n):
        raise InvalidParameterError(f"node {split.node} out of range for {n} nodes")
    p_i = float(p.probs[split.node])
    if p_i <= 0.0:
        raise InvalidParameterError("cannot split a zero-probability node")
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


def tau_limit(p: float) -> float:
    """Limit of the equal-split gain as the number of parts grows without bound."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie strictly inside (0, 1)")
    return (1.0 - p) * (-p / 2.0 - math.log1p(-p) / p - 1.0)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def tau_argmax(lo: float = 0.01, hi: float = 0.99, tol: float = 1e-8):
    """Locate the maximum of the limiting equal-split gain curve.

    Golden-section search; the curve is unimodal on (0, 1), rising from 0 and
    falling back towards 0 at full concentration.
    Returns (argmax, value).
    """
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = tau_limit(c), tau_limit(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = tau_limit(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = tau_limit(d)
    m_star = 0.5 * (a + b)
    return m_star, tau_limit(m_star)


def voting_power_truncated(p: SamplingDistribution, k: int, i: int,
                           epsilon: float):
    """Voting power of node i from the truncated joint law.

    Doubles the truncation point until the tail mass drops below epsilon; the
    tail bounds the error directly because each run's occupancy share lies in
    [0, 1].  Returns (value, error_bound).
    """
    if not (epsilon > 0.0):
        raise InvalidParameterError("epsilon must be > 0")
    k = int(k)
    v_max = max(4 * k, k)
    last_residual = None
    while True:
        try:
            joint = exact_joint_distribution(p, k, i, v_max)
        except ResourceLimitError as exc:
            achieved = "none computed" if last_residual is None else f"{last_residual:.3e}"
            raise ResourceLimitError(
                f"could not push the tail mass below {epsilon:.3e} "
                f"(best residual: {achieved}); {exc}"
            ) from exc
        last_residual = joint.residual
        if joint.residual < epsilon:
            value = _fsum([(ell / v) * q for (ell, v), q in joint.probs.items()])
            return value, joint.residual
        v_max *= 2
