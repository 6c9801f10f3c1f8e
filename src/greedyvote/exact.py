"""Exact (inclusion–exclusion and closed-form) greedy-sampling distributions.

Everything here is deterministic arithmetic: the distribution of the number
of draws needed to see k distinct nodes, the joint law of (occurrences of a
node, number of draws), the distinct-count law for a fixed number of draws,
untruncated voting power for any k, plus the k = 2 closed forms for voting
power and split gain and their equal-split limit curve.

Every law is one sum over the node subsets S of the support with |S| < k,
from the coupon-collector identity (Flajolet, Gardy & Thimonier 1992)

    P(V > v) = sum_S c_S p_S^v,  c_S = (-1)^(k-1-|S|) C(N-|S|-1, k-1-|S|),

where N counts the nodes of positive probability and p_S is the mass of S.
The signed terms cancel, so float64 keeps fewer digits than it carries:
`voting_power_exact` states its rounding bound.  The cost is the subset count
times the cells each subset is summed into; it is checked against one term
budget, `MAX_TERMS`, before anything is allocated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError
from .weights import SamplingDistribution, SplitSpec, _check_k, _check_node, _fsum

# term budget of one exact call: subsets x cells.  At the limit the power
# tables take 32 MB of float64; N=60, k=8 (4.4e8 subsets) is refused up front.
MAX_TERMS = 1 << 22


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
# the subset table
# ---------------------------------------------------------------------------


class _Subsets(NamedTuple):
    """Every subset S of the support with |S| <= some size, one entry each."""

    size: np.ndarray  # |S|
    rest: np.ndarray  # mass of S without the tracked node
    comp: np.ndarray  # 1 - p_S, summed over the complement
    has: np.ndarray   # whether S holds the tracked node
    n: int            # support size


def _subsets(p: SamplingDistribution, max_size: int, cells: int,
             node: int = -1) -> _Subsets:
    """The subset table, after checking subsets x cells against MAX_TERMS.

    Masses are sums of positive probabilities, the complement's included, so
    neither loses digits when p_S is close to 0 or to 1.
    """
    n = p.support_size
    subsets = sum(math.comb(n, j) for j in range(min(max_size, n) + 1))
    if subsets * cells > MAX_TERMS:
        raise ResourceLimitError(
            f"{subsets} subsets (N={n}, up to {max_size} nodes) x {cells} cells = "
            f"{subsets * cells} terms exceeds the exact budget of {MAX_TERMS} terms"
        )
    size = np.zeros(subsets, dtype=np.int8)  # the budget keeps |S| below 23
    rest, comp = np.zeros(subsets), np.zeros(subsets)
    has = np.zeros(subsets, dtype=bool)
    filled = 1  # the empty set; node j appends S + {j} for each S filled so far
    for j in np.flatnonzero(p.probs).tolist():
        p_j = float(p.probs[j])
        grow = size[:filled] < max_size
        end = filled + int(np.count_nonzero(grow))
        size[filled:end] = size[:filled][grow] + 1
        rest[filled:end] = rest[:filled][grow] + (0.0 if j == node else p_j)
        comp[filled:end] = comp[:filled][grow]
        comp[:filled] += p_j
        has[filled:end] = has[:filled][grow] | (j == node)
        filled = end
    return _Subsets(size, rest, comp, has, n)


def _coef(k: int, t: _Subsets) -> np.ndarray:
    """c_S = (-1)^(k-1-|S|) C(N-|S|-1, k-1-|S|) for every subset, |S| < k."""
    table = [(-1) ** (k - 1 - s) * math.comb(t.n - s - 1, k - 1 - s) for s in range(k)]
    return np.array(table, dtype=float)[t.size]


def _check_law_args(p: SamplingDistribution, k, v_max) -> tuple:
    k = _check_k(p, k)
    v_max = int(v_max)
    if v_max < k:
        raise InvalidParameterError("v_max must be at least k")
    return k, v_max


# ---------------------------------------------------------------------------
# exact distributions
# ---------------------------------------------------------------------------


def exact_v_distribution(p: SamplingDistribution, k: int, v_max: int) -> VDistribution:
    """P(total draws = v) for v = k..v_max: sum_S c_S p_S^(v-1) (1 - p_S)."""
    k, v_max = _check_law_args(p, k, v_max)
    t = _subsets(p, k - 1, v_max - k + 1)
    with np.errstate(under="ignore"):
        probs = (_coef(k, t) * t.comp) @ np.power(t.rest[:, None], np.arange(k - 1, v_max))
    out = dict(zip(range(k, v_max + 1), np.maximum(probs, 0.0).tolist()))
    residual = 1.0 - _fsum(list(out.values()))
    return VDistribution(probs=out, residual=residual, k=k, v_max=v_max)


def exact_joint_distribution(p: SamplingDistribution, k: int, i: int,
                             v_max: int) -> JointDistribution:
    """Joint law of (occurrences ell of node i, total draws v), truncated at v_max.

    G(v, ell) = P(no stop within v draws, ell of them hit i) = sum_S c_S F_S,
    with F_S = C(v, ell) p_i^ell (p_S - p_i)^(v-ell) if i is in S and
    F_S = [ell = 0] p_S^v otherwise.  A run stops at draw v with ell hits iff
    it had not stopped at draw v - 1, so

        P(ell, v) = (1 - p_i) G(v-1, ell) + p_i G(v-1, ell-1) - G(v, ell).

    Cells are formed only where a run can stop (ell <= v - k + 1, for k = 2
    only ell in {0, 1, v - 1}, and ell >= 1 when every node must be drawn),
    so cancellation noise never lands on an infeasible cell; exact zeros
    (every ell > 0 when p_i = 0) are dropped.
    """
    k, v_max = _check_law_args(p, k, v_max)
    i = _check_node(p, i)
    p_i = float(p.probs[i])
    # G(v, ell) = D(v, j) H(j) + [ell = 0] K(v) with j = v - ell, where
    # D(v, j) = C(v, j) p_i^ell s^j, H(j) = sum_{S∋i} c_S (p_{S-i} / s)^j and
    # K(v) = sum_{S∌i} c_S p_S^v.  Scaling by s = max p_{S-i} keeps
    # sum_j D(v, j) <= 1, so nothing overflows.  For k <= 2 the only S holding
    # i is {i}, so H(j) = [j = 0] and D needs one column.
    j_max = v_max if k > 2 else 0
    v_top = 1 if k == 1 else v_max  # a k = 1 run stops at draw 1
    t = _subsets(p, k - 1, (v_max + 1) * (j_max + 1), node=i)
    c = _coef(k, t)
    y = t.rest[t.has]
    s = float(y.max(initial=0.0)) or 1.0
    with np.errstate(under="ignore"):
        h = c[t.has] @ np.power(y[:, None] / s, np.arange(j_max + 1))
        kv = c[~t.has] @ np.power(t.rest[~t.has][:, None], np.arange(v_max + 1))
        d = np.zeros((v_top + 1, j_max + 1))
        d[0, 0] = 1.0
        for v in range(1, v_top + 1):
            d[v] = p_i * d[v - 1]
            d[v, 1:] += s * d[v - 1, :-1]

    def g(v, ell):  # D is zero above its diagonal, which covers ell = -1
        j = v - ell
        inside = (j >= 0) & (j <= j_max)
        j = np.clip(j, 0, j_max)
        return np.where(inside, d[v, j] * h[j], 0.0) + (ell == 0) * kv[v]

    every_node = k == t.n and p_i > 0.0  # i is drawn, so ell >= 1
    cells = [(ell, v) for v in range(k, v_top + 1)
             for ell in (sorted({0, 1, v - 1}) if k == 2 else range(v - k + 2))
             if ell or not every_node]
    ell, v = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    probs = (1.0 - p_i) * g(v - 1, ell) + p_i * g(v - 1, ell - 1) - g(v, ell)
    out = {cell: q for cell, q in zip(cells, np.maximum(probs, 0.0).tolist()) if q != 0.0}
    residual = 1.0 - _fsum(list(out.values()))
    return JointDistribution(probs=out, node=i, residual=residual, k=k, v_max=v_max)


def exact_u_distribution(p: SamplingDistribution, k: int) -> UDistribution:
    """P(u distinct nodes in exactly k draws with replacement), u = 1..k:
    sum_{|S| <= u} (-1)^(u-|S|) C(N-|S|, u-|S|) p_S^k."""
    k = int(k)
    if k < 1:
        raise InvalidParameterError(f"k={k} must be >= 1")
    t = _subsets(p, k, k)
    with np.errstate(under="ignore"):
        powers = t.rest ** k
    by_size = [_fsum(powers[t.size == s]) for s in range(min(k, t.n) + 1)]
    out = np.zeros(k)
    for u in range(1, len(by_size)):
        out[u - 1] = max(0.0, _fsum([(-1) ** (u - s) * math.comb(t.n - s, u - s) * e
                                     for s, e in enumerate(by_size[:u + 1])]))
    return UDistribution(probs=out)


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


# relative rounding error of one voting-power term, in units of float64's eps,
# on top of N eps for each of the masses p_S and 1 - p_S
_TERM_ULPS = 16


def voting_power_exact(p: SamplingDistribution, k: int, i: int, epsilon: float):
    """Voting power E[A_i / V] of node i, exact and untruncated.

    Summing (ell / v) P(ell, v) over the joint law's G in closed form gives

        p_i [sum_S c_S L(p_S) - sum_{S∋i} c_S M(p_S)],  |S| < k.

    The terms cancel, so the result carries a rounding error of at most
    error_bound = (2N + 16) eps p_i sum|terms| + eps |value|, taking each
    term's relative error as 2N eps (p_S and 1 - p_S are sums of up to N
    probabilities) plus 16 eps (logarithm, series, products); the sum itself
    is exactly rounded.  Returns (value, error_bound); raises
    ResourceLimitError when error_bound exceeds epsilon.
    """
    if not (epsilon > 0.0):
        raise InvalidParameterError("epsilon must be > 0")
    k = _check_k(p, k)
    i = _check_node(p, i)
    p_i = float(p.probs[i])
    t = _subsets(p, k - 1, 1, node=i)
    L, M = _log_kernels(t.rest + t.has * p_i, t.comp)
    M[~t.has] = 0.0
    terms = _coef(k, t) * (L - M)
    value = p_i * _fsum(terms)
    error_bound = ((2 * t.n + _TERM_ULPS) * p_i * _fsum(np.abs(terms))
                   + abs(value)) * sys.float_info.epsilon
    if error_bound > epsilon:
        raise ResourceLimitError(
            f"float64 rounding bound {error_bound:.3e} of the exact voting power "
            f"exceeds epsilon={epsilon:.3e}"
        )
    return value, error_bound


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
    i = _check_node(p, i)
    if p.support_size < 2:
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
    p_i = split.check(p.probs, p.source_f)
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
