"""Exact greedy-sampling distributions and voting power.

The draw-count law, the joint law of (a node's occurrences, draws) and the
distinct-count law come from one pass over the nodes of positive probability.
It keeps E[u, d], the chance that d draws hit only the nodes so far and u of
them, and M[u, d], the same weighted by the mass of those nodes not hit; node
j, hit c >= 1 times, adds C(d, c) p_j^c E[u - 1, d - c] to E[u, d], and M the
same sum over M plus p_j E[u, d].  Every term is >= 0, so nothing cancels:
P(V = v) = M[k - 1, v - 1], P(V >= v) = sum_{u < k} E[u, v - 1], and E[1..k, k]
is the distinct-count law of k draws.  Voting power, `voting_power_exact`, is
the same pass in continuous time, and the split gain `split_gain` needs one such
pass per network, both at any k.  At k = 2 the module adds the limit curve
`tau_limit` and its maximum `tau_argmax`.  MAX_CELLS is the one budget.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError
from .weights import (IDENTITY, SamplingDistribution, SplitSpec, WeightDistribution,
                      WeightFunction, _check_count, _check_k, _check_node, _fsum, apply_split,
                      sampling_distribution)

# cell budget of every exact request, checked before any table is allocated: the draw
# pass charges nodes x rows (k) x draw counts^2 plus 512 an output cell (the CSV row it
# becomes, some 4.6 us), voting power nodes x k x grid points; seconds at the limit.
MAX_CELLS = 1 << 28

# weights alive at once in the draw pass: 2 MB an array at any number of draw counts
_BLOCK = 1 << 18

# the largest log s a grid point can take and stay a finite float
_LOG_MAX = math.log(sys.float_info.max)


class Law(NamedTuple):
    """An exact law with its cells in output order: one integer array per index
    column in `names` (v; ell, v; or u), the probabilities, and the mass past
    v_max (None for the distinct-count law, which is not truncated)."""

    names: tuple
    index: tuple
    probs: np.ndarray
    residual: float | None


def _truncated(names: tuple, index: tuple, probs: np.ndarray) -> Law:
    residual = 1.0 - _fsum(probs)
    if residual < -1e-9:
        raise AssertionError(f"negative residual {residual}")
    return Law(names, index, probs, max(0.0, residual))


# ---------------------------------------------------------------------------
# the draw pass and the laws read off it
# ---------------------------------------------------------------------------


def _check_cells(what: str, cells: int) -> None:
    if cells > MAX_CELLS:
        raise ResourceLimitError(f"{what} = {cells} cells exceeds the exact budget of "
                                 f"{MAX_CELLS} cells")


def _outside(probs: np.ndarray, k: int) -> tuple:
    """r, the mass outside the k - 1 heaviest nodes, and log C(N, k - 1): the
    draws of a run that has not seen k nodes lie in one of C(N, k-1) sets."""
    n = int(np.count_nonzero(probs))
    return (_fsum(np.sort(probs)[::-1][k - 1:]),
            math.lgamma(n + 1) - math.lgamma(k) - math.lgamma(n - k + 2))


def _draw_count(probs: np.ndarray, k: int, v_max: int) -> int:
    """The last v <= v_max (but >= k) where C(N, k-1) P^(v-1), P the mass of the
    k - 1 heaviest nodes, reaches 2^-1075: it bounds P(V >= v), so past that v
    every cell of the draw-count and joint laws rounds to exactly 0."""
    r, log_c = _outside(probs, k)
    if r >= 1.0:
        return k  # k = 1: every run stops at its first draw
    last = (log_c + 1075 * math.log(2)) / -math.log1p(-r) + 1
    return v_max if last >= v_max else max(k, math.floor(last))


def _rounded(factors: list) -> tuple:
    """Running products of integer factors as m 2^e, rounded once from exact integers."""
    m, e = np.empty(len(factors)), np.empty(len(factors), dtype=np.int64)
    prod = 1
    for j, factor in enumerate(factors):
        prod *= factor
        shift = max(prod.bit_length() - 64, 0)
        m[j], e[j] = math.frexp(float(prod >> shift))
        e[j] += shift
    return m, e


def _powers(p: float, n: int) -> tuple:
    """p^c = m[c] 2^e[c] (m[0] = 0): with p = f 2^g, f^c as (f^512)^a f^b never underflows."""
    f, g = math.frexp(p)
    hm, he = math.frexp(f ** 512)
    a, b = np.divmod(np.arange(n), 512)
    m, e = np.frexp(hm ** a * f ** b)
    m[0] = 0.0
    return m, e + g * np.arange(n) + he * a


def _binomials(fm: np.ndarray, fe: np.ndarray, d, e) -> tuple:
    """c = d - e (0 where e > d) and C(d, c) = m 2^x from d! = fm 2^fe, in two
    correctly rounded divisions: exact where float64 can hold it."""
    c = np.maximum(d - e, 0)
    return c, fm[d] / fm[e] / fm[c], fe[d] - fe[e] - fe[c]


def _draw_pass(probs: np.ndarray, rows: int, draws: int, out: int) -> tuple:
    """E[u, d] and M[u, d] for u < rows and d < draws, over the positive probs,
    as (table, x): E = table[0] 2^x and M = table[1] 2^x, after charging nodes
    x rows x draws^2 cells and 512 per caller's output cell to MAX_CELLS.

    x[d] = floor(d log2 m), m the mass of the nodes so far, keeps every cell
    near its column's scale m^d however small that is, and moving a column to
    the next exponents y rounds nothing.  The weights C(d, c) p^c 2^(x[d-c] -
    y[d]) are at most 4; `_BLOCK` bounds how many are alive at once.
    """
    probs = probs[probs > 0]
    _check_cells(f"{probs.size} nodes x {rows} rows x {draws}^2 draw counts + 512 x {out} "
                 "output cells", probs.size * rows * draws * draws + 512 * out)
    fm, fe = _rounded([1, *range(1, draws)])  # d!
    n, width = np.arange(draws), max(1, _BLOCK // draws)
    spans = [(n[d0:d0 + width], n[:d0 + width, None]) for d0 in range(0, draws, width)]
    fixed = [_binomials(fm, fe, *spans[0])] if len(spans) == 1 else None  # the same every node
    table = np.zeros((2, rows, draws))  # E and M
    table[0, 0, 0] = 1.0
    x, mass = np.zeros(draws, dtype=np.int64), 0.0
    for p in probs.tolist():
        mass += p
        y = np.floor(n * math.log2(mass)).astype(np.int64)
        pm, pe = _powers(p, draws)
        new = np.ldexp(table, x - y)  # c = 0: the old table at the new exponents
        new[1] += p * new[0]
        for s, (d, e) in enumerate(spans):  # pm[0] = 0 drops c = 0
            c, cm, ce = fixed[s] if fixed else _binomials(fm, fe, d, e)
            # the cap only bites on columns of the empty start, whose cells are 0
            w = np.ldexp(cm * pm[c], np.minimum(ce + pe[c] + x[e] - y[d], 8))
            new[:, 1:, d] += table[:, :-1, :e.size] @ w
        table, x = new, y
    return table, x


def _check_law_args(p: SamplingDistribution, k, v_max) -> tuple:
    k = _check_k(k, p.support_size)
    v_max = _check_count(v_max, "v_max")
    if v_max < k:
        raise InvalidParameterError("v_max must be at least k")
    return k, v_max


def exact_v_distribution(p: SamplingDistribution, k: int, v_max: int) -> Law:
    """P(total draws = v) for v = k..v_max; the exact zeros past the last
    draw count of `_draw_count` are left out."""
    k, v_max = _check_law_args(p, k, v_max)
    draws = _draw_count(p.probs, k, v_max)
    table, x = _draw_pass(p.probs, k, draws, draws - k + 1)
    law = np.ldexp(table[1, k - 1, k - 1:], x[k - 1:])
    return _truncated(("v",), (np.arange(k, draws + 1),), law)


def exact_joint_distribution(p: SamplingDistribution, k: int, i: int, v_max: int) -> Law:
    """Joint law of (occurrences ell of node i, total draws v), truncated at v_max.

    With E', M' the pass over the other nodes: a run that misses i stops at a
    new node once they show k - 1; one that hits i ell times stops there once
    they show k - 2, or at i's first hit once they show k - 1:

        P(0, v) = M'[k-1, v-1],  P(ell, v) = C(v-1, ell) p_i^ell M'[k-2, v-1-ell]
                                             + [ell = 1] p_i E'[k-1, v-1].

    Cells are formed up to `_draw_count` and where a run can stop (ell <= v -
    k + 1, for k = 2 only ell in {0, 1, v - 1}), in (v, ell) order; exact
    zeros are dropped.
    """
    k, v_max = _check_law_args(p, k, v_max)
    i = _check_node(i, p.size)
    p_i = float(p.probs[i])
    v_top = _draw_count(p.probs, k, v_max)
    others, span = np.delete(p.probs, i), v_top - k + 1  # span: draw counts with cells
    table, x = _draw_pass(others, k, v_top, (span + 1) ** 2 if k > 2 else 3 * span)
    if k > 2:  # ell <= v - k + 1
        v, ell = np.nonzero(np.tri(span, span + 1, 1, dtype=bool))
        v += k
    else:  # ell in {0, 1, v - 1}: the last repeats one of the others at v = k, so it goes
        v, ell = np.repeat(np.arange(k, v_top + 1), 3), np.tile([0, 1, -1], span)
        ell = np.where(ell < 0, v - 1, ell)
        v, ell = np.delete(v, 2), np.delete(ell, 2)
    d, e = v - 1, v - 1 - ell  # e: draws on the others before the last; -1 only at k = 1
    _, cm, ce = _binomials(*_rounded([1, *range(1, v_top + 1)]), d, e)
    pm, pe = _powers(p_i, v_top + 1)
    below = table[1, k - 2, e] if k > 1 else 0.0
    probs = np.where(ell == 0, np.ldexp(table[1, k - 1, d], x[d]),
                     np.ldexp(cm * pm[ell] * below, ce + pe[ell] + x[e]))
    probs += (ell == 1) * p_i * np.ldexp(table[0, k - 1, d], x[d])
    keep = probs != 0.0
    return _truncated(("ell", "v"), (ell[keep], v[keep]), probs[keep])


def exact_u_distribution(p: SamplingDistribution, k: int) -> Law:
    """P(u distinct nodes in exactly k draws with replacement), u = 1..k: E[u, k]."""
    k = _check_k(k)  # k may pass the support: u counts draws, not distinct nodes
    table, x = _draw_pass(p.probs, k + 1, k + 1, k)
    probs = np.ldexp(table[0, 1:, k], x[k])
    if abs(_fsum(probs) - 1.0) > 1e-10:
        raise AssertionError("distinct-count probabilities must sum to 1")
    return Law(("u",), (np.arange(1, k + 1),), probs, None)


# ---------------------------------------------------------------------------
# voting power: the pass in continuous time
# ---------------------------------------------------------------------------


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


def _power_grid(p: SamplingDistribution, k, epsilon: float) -> tuple:
    """k, checked against the support, and the grid s of `voting_power_exact`,
    after checking epsilon, refusing a grid that ends past the float range and
    charging nodes x k x grid points to MAX_CELLS."""
    if not (epsilon > 0.0):
        raise InvalidParameterError("epsilon must be > 0")
    k = _check_k(k, p.support_size)
    r, log_c = _outside(p.probs, k)
    s_max = (log_c - math.log(r) + 40.0) / r  # inf when r is tiny; min keeps ceil finite
    fine_steps = 2 * math.ceil(8 * (min(math.log(s_max), _LOG_MAX) + 40.0))  # even: 1/8 steps too
    if fine_steps / 16 - 40.0 > _LOG_MAX:
        raise ResourceLimitError(f"the voting power grid would end past the float range: the mass "
                                 f"{r:.3e} outside the k - 1 heaviest nodes is too small")
    n = p.support_size
    _check_cells(f"{n} nodes x k={k} x {fine_steps + 1} grid points", n * k * (fine_steps + 1))
    return k, np.exp(-40.0 + np.arange(fine_steps + 1) / 16)


def _fold(state: np.ndarray, probs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Add the nodes of the positive probs, in order, to state = (pi, mu) in place."""
    pi, mu = state  # row 0 stays zero, so one shifted update covers order 0
    for p_j in probs[probs > 0].tolist():
        miss, seen = np.exp(-p_j * s), -np.expm1(-p_j * s)
        mu[1:] = miss * (mu[1:] + p_j * pi[1:]) + seen * mu[:-1]
        pi[1:] = miss * pi[1:] + seen * pi[:-1]
    return state


def _poisson_state(q: SamplingDistribution, slot: range, k: int, s: np.ndarray) -> np.ndarray:
    """(pi, mu) on the grid s of q's nodes outside slot; row m + 1 holds order m < k."""
    state = np.zeros((2, k + 1, s.size))
    state[0, 1] = 1.0
    return _fold(state, np.delete(q.probs, slot), s)


def _read_power(state: np.ndarray, s: np.ndarray, q: SamplingDistribution, i: int, epsilon: float):
    """`voting_power_exact` of node i of q from the state of q's other nodes."""
    (pi, mu), p_i = state, float(q.probs[i])  # orders k - 2 and k - 1: the last two rows
    f = p_i * s * _exp_e1(s) * (s * mu[-2] + np.exp(-p_i * s) * pi[-1])
    ends = (f[0] + f[-1]) / 2
    value, coarse = (_fsum(f) - ends) / 16, (_fsum(f[::2]) - ends) / 8
    error_bound = (abs(value - coarse) + (8 * q.support_size + 32) * sys.float_info.epsilon
                   * value + 2e-16 * p_i)
    if not error_bound <= epsilon:  # a NaN bound too
        raise ResourceLimitError(f"quadrature and rounding bound {error_bound:.3e} of the exact "
                                 f"voting power exceeds epsilon={epsilon:.3e}")
    return value, error_bound


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
    Returns (value, error_bound); raises ResourceLimitError past epsilon, MAX_CELLS or float64.
    """
    k, s = _power_grid(p, k, epsilon)
    i = _check_node(i, p.size)
    return _read_power(_poisson_state(p, range(i, i + 1), k, s), s, p, i, epsilon)


def split_gain(w: WeightDistribution, f: WeightFunction, k: int, split: SplitSpec,
               epsilon: float) -> tuple:
    """The exact counterpart of `fairness.estimate_split_gain`, at any k, f and
    fractions: the parts' summed voting power on sampling_distribution(
    apply_split(w, split)[0], f) less the node's on sampling_distribution(w, f),
    each within epsilon / (r + 1).  One pass per network folds the nodes outside
    the node or its parts; each part adds its r - 1 siblings to a copy.  A bad
    split, k, epsilon or either grid past MAX_CELLS is refused before any pass.
    Returns (gain, error_bound), their bounds' sum <= epsilon."""
    pre = sampling_distribution(w, f)
    post = sampling_distribution(apply_split(w, split)[0], f)
    (k, s), (_, t) = [_power_grid(q, k, epsilon) for q in (pre, post)]
    share, node = epsilon / (split.r + 1), range(split.node, split.node + 1)
    before, bound = _read_power(_poisson_state(pre, node, k, s), s, pre, split.node, share)
    state, parts = _poisson_state(post, split.parts, k, t), post.probs[split.parts]
    after = [_read_power(_fold(state.copy(), np.delete(parts, j), t), t, post, split.node + j,
                         share) for j in range(split.r)]
    return _fsum([v for v, _ in after]) - before, math.fsum([bound, *(b for _, b in after)])


def split_gain_k2(p: SamplingDistribution, split: SplitSpec) -> float:
    """`split_gain` at k = 2 and epsilon 1e-9, for probabilities made by identity f."""
    split.check(p.probs, p.f)
    return split_gain(WeightDistribution(p.probs), IDENTITY, 2, split, 1e-9)[0]


# ---------------------------------------------------------------------------
# k = 2: the equal-split limit curve and its maximum
# ---------------------------------------------------------------------------


def tau_limit(p: float) -> float:
    """Limit of the equal-split gain as the number of parts grows without bound."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie strictly inside (0, 1)")
    return (1.0 - p) * (-p / 2.0 - math.log1p(-p) / p - 1.0)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def tau_argmax():
    """Locate the maximum of the limiting equal-split gain curve.

    Golden-section search on [0.01, 0.99] down to width 1e-8; the curve is
    unimodal on (0, 1), rising from 0 and falling back towards 0 at full
    concentration.  Returns (argmax, value).
    """
    a, b, tol = 0.01, 0.99, 1e-8
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
