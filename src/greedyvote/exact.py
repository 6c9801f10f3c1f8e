"""Exact greedy-sampling distributions and voting power.

Deterministic arithmetic: the law of the draws needed to see k distinct nodes,
the joint law of (a node's occurrences, draws), the distinct-count law of a
fixed number of draws, untruncated voting power for any k, and the k = 2
closed forms for voting power and split gain with the equal-split gain curve.

The draw-count law is one sum over the node subsets S of the support with
|S| < k (Flajolet, Gardy & Thimonier 1992), N counting the nodes of positive
probability and p_S the mass of S:

    P(V >= v) = sum_S c_S p_S^(v-1),  c_S = sum_{t < k-|S|} (-1)^t C(N-|S|, t),

which is (-1)^(k-1-|S|) C(N-|S|-1, k-1-|S|) for |S| < N, and 1 for the whole
support (a law that never stops, k > N).  The joint law mixes the other
nodes' draw-count laws for k - 1 and k distinct nodes with binomial laws of
node i's hits; it has no sum of its own.

Voting power and the distinct-count law are one pass over the nodes each, with
every term >= 0, so nothing cancels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError
from .weights import SamplingDistribution, SplitSpec, _check_k, _check_node, _fsum

# term budget of one subset sum: subsets x cells, checked before anything is
# allocated.  At the limit the power tables take 32 MB; N=60, k=8 is refused.
MAX_TERMS = 1 << 22

# step budget of one positive-term pass: support nodes x k.  Either pass takes
# a few seconds at the limit (voting power at k = 2, the U law at k = 170).
MAX_STEPS = 1 << 18

# cell budget of the voting-power pass: nodes x k x grid points, MAX_STEPS steps of 1024
# points.  The grid has 700-900 points but nears 12 700 as the mass outside k - 1 nodes nears 0.
MAX_CELLS = MAX_STEPS << 10


# ---------------------------------------------------------------------------
# distribution records
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _TruncatedLaw:
    """Probabilities over a truncated support plus the tail mass beyond it."""

    probs: dict
    k: int
    v_max: int
    residual: float = field(init=False)

    def __post_init__(self):
        residual = 1.0 - _fsum(list(self.probs.values()))
        if residual < -1e-9:
            raise AssertionError(f"negative residual {residual}")
        self.residual = max(0.0, residual)


class VDistribution(_TruncatedLaw):
    """Truncated law of the total number of draws, plus the tail mass."""


@dataclass(eq=False)
class JointDistribution(_TruncatedLaw):
    """Truncated joint law of (occurrences of one node, total draws)."""

    node: int


@dataclass(eq=False)
class UDistribution:
    """Law of the number of distinct nodes seen in exactly k draws."""

    probs: np.ndarray  # index u-1 holds P(u distinct), u = 1..k

    def __post_init__(self):
        if abs(_fsum(self.probs) - 1.0) > 1e-10:
            raise AssertionError("distinct-count probabilities must sum to 1")


# ---------------------------------------------------------------------------
# the subset sum: the draw-count law, and the joint law as a mixture of it
# ---------------------------------------------------------------------------


def _check_terms(n: int, k: int, cells: int) -> None:
    """Refuse a law whose subsets of the support x cells pass MAX_TERMS."""
    subsets = sum(math.comb(n, j) for j in range(min(k - 1, n) + 1))
    if subsets * cells > MAX_TERMS:
        raise ResourceLimitError(
            f"{subsets} subsets (N={n}, up to {k - 1} nodes) x {cells} cells = "
            f"{subsets * cells} terms exceeds the exact budget of {MAX_TERMS} terms"
        )


def _stop_law(probs: np.ndarray, k: int, lo: int, hi: int) -> tuple:
    """P(V = v) and P(V >= v) for v = lo..hi (lo >= 1), V the draws from probs
    until k distinct nodes: the sums of c_S p_S^(v-1) (1 - p_S) and c_S p_S^(v-1)
    over the subset table, |S| < k.  Masses are sums of positive probabilities,
    the complement's included, so neither loses digits when p_S nears 0 or 1.
    """
    nodes = probs[probs > 0].tolist()
    n, top = len(nodes), min(k - 1, len(nodes))
    size = np.zeros(sum(math.comb(n, j) for j in range(top + 1)), np.int8)  # |S| < 23 by budget
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


def _check_law_args(p: SamplingDistribution, k, v_max) -> tuple:
    k = _check_k(p, k)
    v_max = int(v_max)
    if v_max < k:
        raise InvalidParameterError("v_max must be at least k")
    return k, v_max


def exact_v_distribution(p: SamplingDistribution, k: int, v_max: int) -> VDistribution:
    """P(total draws = v) for v = k..v_max."""
    k, v_max = _check_law_args(p, k, v_max)
    _check_terms(p.support_size, k, v_max - k + 1)
    probs, _ = _stop_law(p.probs, k, k, v_max)
    out = dict(zip(range(k, v_max + 1), np.maximum(probs, 0.0).tolist()))
    return VDistribution(probs=out, k=k, v_max=v_max)


def exact_joint_distribution(p: SamplingDistribution, k: int, i: int,
                             v_max: int) -> JointDistribution:
    """Joint law of (occurrences ell of node i, total draws v), truncated at v_max.

    Let V'_m be the draws that the other nodes, with probabilities
    q = p / (1 - p_i), need to show m distinct nodes.  A run that misses i
    stops when they show k; one that hits i stops when they show k - 1, at a
    draw that misses i, unless i comes k-th, at its first hit:

        P(0, v)   = (1 - p_i)^v P(V'_k = v),
        P(ell, v) = Bin(v - 1, ell; p_i) (1 - p_i) P(V'_(k-1) = v - ell)
                    + [ell = 1] p_i (1 - p_i)^(v-1) [P(V'_k >= v) - P(V'_(k-1) >= v)].

    Cells are formed where a run can stop (ell <= v - k + 1, for k = 2 only
    ell in {0, 1, v - 1}); those no run reaches come out as exact zeros and
    are dropped.
    """
    k, v_max = _check_law_args(p, k, v_max)
    i = _check_node(p, i)
    p_i = float(p.probs[i])
    # the binomial table d has one column for k <= 2: V'_1 = 1, so a run that
    # hits i and stops on another node missed i at no earlier draw (c = 0)
    j_max = v_max if k > 2 else 0
    _check_terms(p.support_size, k, (v_max + 1) * (j_max + 1))
    v_top = 1 if k == 1 else v_max  # a k = 1 run stops at draw 1
    others = np.delete(p.probs, i)
    miss = _fsum(others)  # 1 - p_i
    # index v - 1 holds P(V'_m = v) and P(V'_m >= v); V'_0 = 0 has no subsets, so zeros
    (law_in, tail_in), (law_out, tail_out) = (
        _stop_law(others / (miss or 1.0), m, 1, v_top) for m in (k - 1, k))
    d = np.zeros((v_top, j_max + 1))  # d[n, c] = Bin(n, c; 1 - p_i)
    d[0, 0] = 1.0
    with np.errstate(under="ignore"):
        if k > 2:
            cells = [(ell, v) for v in range(k, v_top + 1) for ell in range(v - k + 2)]
            ell, v = np.array(cells, dtype=np.int64).reshape(-1, 2).T
            for n in range(1, v_top):
                d[n] = p_i * d[n - 1]
                d[n, 1:] += miss * d[n - 1, :-1]
        else:  # the one column is p_i^n; ell in {0, 1, v - 1}, which is {0, 1} at v = k
            np.cumprod(np.r_[1.0, np.full(v_top - 1, p_i)], out=d[:, 0])
            v = np.repeat(np.arange(k, v_top + 1, dtype=np.int64), 3)
            ell = np.where(np.arange(v.size) % 3 == 2, v - 1, np.arange(v.size) % 3)
            ell, v = np.delete(ell, 2), np.delete(v, 2)
        c = v - 1 - ell  # draws before the last that miss i; -1 only where k = 1 and law_in is 0
        probs = np.where(ell == 0, miss ** v * law_out[v - 1],
                         d[v - 1, np.minimum(c, j_max)] * miss * law_in[c])
        probs += (ell == 1) * p_i * miss ** (v - 1) * (tail_out[v - 1] - tail_in[v - 1])
    keep = np.maximum(probs, 0.0, out=probs) != 0.0
    out = dict(zip(zip(ell[keep].tolist(), v[keep].tolist()), probs[keep].tolist()))
    return JointDistribution(probs=out, node=i, k=k, v_max=v_max)


# ---------------------------------------------------------------------------
# sums of positive terms: the distinct-count law and voting power
# ---------------------------------------------------------------------------


def _check_steps(n: int, k: int) -> None:
    if n * k > MAX_STEPS:
        raise ResourceLimitError(f"{n} nodes x k={k} = {n * k} steps exceeds the "
                                 f"exact budget of {MAX_STEPS} steps")


def exact_u_distribution(p: SamplingDistribution, k: int) -> UDistribution:
    """P(u distinct nodes in exactly k draws with replacement), u = 1..k.

    P(u) = k! [t^k] e_u(e^(p_j t) - 1), e_u the elementary symmetric polynomial.
    The pass keeps E[u, d] = d! [t^d] e_u over the nodes so far, the chance that
    d draws hit only them and u of them; node j, hit c >= 1 times, adds
    C(d, c) p_j^c E[u - 1, d - c].  k > 170 (k! past float64) is refused.
    """
    k = int(k)
    if k < 1:
        raise InvalidParameterError(f"k={k} must be >= 1")
    if k > 170:
        raise ResourceLimitError(f"k={k} draws: k! overflows float64 beyond k=170")
    probs = p.probs[p.probs > 0]
    _check_steps(probs.size, k)
    d = np.arange(k + 1)
    # row d - c, column d: C(d, c) for c >= 1 draws on the node, and c itself
    binom = np.triu([[float(math.comb(b, a)) for b in range(k + 1)] for a in range(k + 1)], 1)
    hits = np.abs(d - d[:, None])
    e = np.zeros((min(probs.size, k) + 1, k + 1))
    e[0, 0] = 1.0
    for p_j in probs.tolist():
        e[1:] += e[:-1] @ (binom * (p_j ** d)[hits])
    return UDistribution(probs=np.pad(e[1:, k], (0, k + 1 - len(e))))


def _exp_e1(s: np.ndarray) -> np.ndarray:
    """e^s E1(s) for ascending s > 0, within 5e-16 relative: the series of E1
    below s = 0.6 (its 26th term is below 1e-33), and from 0.6 up the continued
    fraction 1 / (s + 1 - 1 / (s + 3 - 4 / (s + 5 - ...))) from depth 160."""
    x, y = s[s < 0.6], s[s >= 0.6]
    series = np.zeros_like(x)  # E1(x) + gamma + log x, by Horner's rule
    for n in range(25, 0, -1):
        series = x * (series + (-1) ** (n + 1) / (n * math.factorial(n)))
    fraction = np.zeros_like(y)
    for n in range(160, 0, -1):
        fraction = n * n / (y + (2 * n + 1) - fraction)
    return np.concatenate([np.exp(x) * (series - np.euler_gamma - np.log(x)),
                           1.0 / (y + 1.0 - fraction)])


def voting_power_exact(p: SamplingDistribution, k: int, i: int, epsilon: float):
    """Voting power E[A_i / V] of node i, exact and untruncated.

    With draws at the times of a rate-1 Poisson process, let pi_m(s) be the
    chance that exactly m other nodes are seen by time s, and mu_m(s) the
    expected mass of the unseen other nodes on that event:

        VP_i = p_i int_0^inf e^s E1(s) [s mu_{k-2}(s) + e^(-p_i s) pi_{k-1}(s)] ds.

    The trapezoid rule in log s runs over [e^-40, s_max] at steps 1/8 and
    1/16.  error_bound adds their gap, the rounding ((8N + 32) eps relative:
    8 eps per node's update, 32 for the kernel and products) and 2e-16 p_i off
    the grid, where e^s E1(s) <= min(1/s, log(1 + 1/s)) and the bracket is at
    most 1 + s times P(fewer than k nodes seen) <= C(N, k-1) e^(-r s), r the
    mass outside the k - 1 heaviest nodes; s_max puts the tail at e^-40.
    Returns (value, error_bound); raises ResourceLimitError above epsilon or a budget.
    """
    if not (epsilon > 0.0):
        raise InvalidParameterError("epsilon must be > 0")
    k = _check_k(p, k)
    i = _check_node(p, i)
    n = p.support_size
    _check_steps(n, k)
    p_i = float(p.probs[i])
    r = _fsum(np.sort(p.probs)[::-1][k - 1:])
    log_c = math.lgamma(n + 1) - math.lgamma(k) - math.lgamma(n - k + 2)
    s_max = (log_c - math.log(r) + 40.0) / r
    fine_steps = 2 * math.ceil(8 * (math.log(s_max) + 40.0))  # even: 1/8 shares the ends
    cells = n * k * (fine_steps + 1)
    if cells > MAX_CELLS:
        raise ResourceLimitError(f"{n} nodes x k={k} x {fine_steps + 1} grid points = {cells} "
                                 f"cells exceeds the exact budget of {MAX_CELLS} cells")
    s = np.exp(-40.0 + np.arange(fine_steps + 1) / 16)
    # row m + 1 holds order m; row 0 stays zero, so one shifted update covers m = 0
    pi, mu = np.zeros((2, k + 1, s.size))
    pi[1] = 1.0
    others = np.delete(p.probs, i)
    for p_j in others[others > 0].tolist():
        miss, seen = np.exp(-p_j * s), -np.expm1(-p_j * s)
        mu[1:] = miss * (mu[1:] + p_j * pi[1:]) + seen * mu[:-1]
        pi[1:] = miss * pi[1:] + seen * pi[:-1]
    f = p_i * s * _exp_e1(s) * (s * mu[k - 1] + np.exp(-p_i * s) * pi[k])
    ends = (f[0] + f[-1]) / 2
    value = (_fsum(f) - ends) / 16
    coarse = (_fsum(f[::2]) - ends) / 8
    error_bound = (abs(value - coarse) + (8 * n + 32) * sys.float_info.epsilon * value
                   + 2e-16 * p_i)
    if error_bound > epsilon:
        raise ResourceLimitError(
            f"quadrature and rounding bound {error_bound:.3e} of the exact voting "
            f"power exceeds epsilon={epsilon:.3e}"
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
    _check_k(p, 2)
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
