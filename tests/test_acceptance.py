"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Monte Carlo criteria use pinned seeds, so results are exactly
reproducible.
"""

import math
import time
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyvote.exact import (
    exact_joint_distribution,
    exact_v_distribution,
    split_gain,
    tau_argmax,
    tau_limit,
    voting_power_exact,
)
from greedyvote.fairness import estimate_split_gain, sweep_gain, GainExperiment
from greedyvote.fpc import FpcConfig, majority_initial_opinions, run_fpc
from greedyvote.sampler import RngStream
from greedyvote.weights import (
    IDENTITY,
    SamplingDistribution,
    SplitSpec,
    WeightDistribution,
    ZipfParams,
    sampling_distribution,
    zipf_weights,
)
from reference import (
    cells,
    coupled_greedy_sample,
    enumeration_oracle,
    greedy_sample,
    lockstep_coupled_runs,
    split_gain_k2,
    split_gain_subsets,
    tau_r_value,
)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_01_tau_maximum():
    start = time.perf_counter()
    m_star, tau_star = tau_argmax()
    elapsed = time.perf_counter() - start
    ok = (abs(m_star - 0.8157) <= 1e-3 and abs(tau_star - 0.1226) <= 1e-3
          and elapsed < 1.0)
    _report(1, "equal-split gain curve peaks at (0.8157, 0.1226)", ok,
            f"m*={m_star:.6f}, tau*={tau_star:.6f}, {elapsed:.3f}s")


def test_02_formula_vs_oracle():
    start = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(key=[2_022, 0]))
    worst = 0.0
    for _ in range(50):
        n = int(gen.integers(2, 5))
        raw = gen.random(n) + 0.05
        p = SamplingDistribution.from_probs(raw / raw.sum())
        k = int(gen.integers(1, min(3, n) + 1))
        v_max = int(gen.integers(k, 10))
        oracle_v, oracle_joint = enumeration_oracle(p, k, v_max)
        laws = [(exact_v_distribution(p, k, v_max), oracle_v)]
        laws += [(exact_joint_distribution(p, k, i, v_max), oracle_joint[i]) for i in range(n)]
        for law, oracle in laws:
            law, oracle = cells(law), cells(oracle)
            for key in set(law) | set(oracle):
                worst = max(worst, abs(law.get(key, 0.0) - oracle.get(key, 0.0)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    _report(2, "exact formulas match brute-force enumeration on 50 instances",
            ok, f"max |diff|={worst:.2e}, {elapsed:.1f}s")


def test_03_closed_form_vs_monte_carlo():
    start = time.perf_counter()
    w = zipf_weights(ZipfParams(1.1, 100))
    split = SplitSpec.equal(0, 2)
    est = estimate_split_gain(w, IDENTITY, 2, split, 100_000, seed=303)
    exact = split_gain_k2(sampling_distribution(w, IDENTITY), split)
    elapsed = time.perf_counter() - start
    ok = (abs(est.mean - exact) <= 4 * est.std_error
          and est.mean > 0 and exact > 0 and elapsed < 30.0)
    _report(3, "coupled k=2 estimate agrees with the closed form and is positive",
            ok, f"est={est.mean:.6f}+-{est.std_error:.6f}, exact={exact:.6f}, "
                f"{elapsed:.1f}s")


def test_04_coupling_invariants():
    start = time.perf_counter()
    configs = [
        (SamplingDistribution.from_probs([0.25] * 4), SplitSpec.equal(0, 2), 2),
        (SamplingDistribution.from_probs([0.9, 0.1]),
         SplitSpec(0, np.array([0.3, 0.7])), 2),
        (sampling_distribution(zipf_weights(ZipfParams(1.1, 100))),
         SplitSpec(0, np.array([0.2, 0.3, 0.5])), 5),
        (sampling_distribution(zipf_weights(ZipfParams(0.8, 1000))),
         SplitSpec.equal(0, 2), 20),
        (sampling_distribution(zipf_weights(ZipfParams(2.0, 50))),
         SplitSpec.equal(2, 4), 10),
    ]
    runs_per_config = 200_000
    scalar_runs_per_config = 200  # each also checked by CoupledSample.validate
    violations = 0
    for idx, (p, split, k) in enumerate(configs):
        rng = RngStream(404, idx)
        block = 2 ** 22 // p.size  # runs per lockstep call: its seen-sets stay near 8 MB
        for first in range(0, runs_per_config, block):
            runs = lockstep_coupled_runs(p, split, k, rng, min(block, runs_per_config - first))
            ok = ((0 <= runs.L) & (runs.L <= runs.K)
                  & (runs.v_pre == runs.v_post + runs.K)
                  & (runs.y_pre == runs.y_post + runs.L))
            violations += int(np.count_nonzero(~ok))
        for _ in range(scalar_runs_per_config):
            cs = coupled_greedy_sample(p, split, k, rng)
            y_pre = cs.pre.counts.get(split.node, 0)
            y_post = sum(cs.post.counts.get(j, 0) for j in split.parts)
            violations += not (0 <= cs.L <= cs.K
                               and cs.pre.total_draws == cs.post.total_draws + cs.K
                               and y_pre == y_post + cs.L)
            cs.validate()
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120.0
    _report(4, "coupling identities hold on 1e6 runs across 5 configurations",
            ok, f"violations={violations}, {elapsed:.1f}s")


def test_05_variance_reduction():
    w = zipf_weights(ZipfParams(1.1, 1000))
    split = SplitSpec.equal(0, 2)
    wins = 0
    details = []
    for seed in (1, 2, 3):
        coupled = estimate_split_gain(w, IDENTITY, 20, split, 100_000,
                                      seed=seed, coupled=True)
        independent = estimate_split_gain(w, IDENTITY, 20, split, 100_000,
                                          seed=seed, coupled=False)
        wins += coupled.std_error < independent.std_error
        details.append(f"{coupled.std_error:.2e}<{independent.std_error:.2e}")
    ok = wins == 3
    _report(5, "coupled estimator beats independent on std error, 3/3 seeds",
            ok, "; ".join(details))


def test_06_asymptotic_fairness_trend():
    start = time.perf_counter()
    base = GainExperiment(zipf_s=0.8, k=20, split_r=2, n_runs=100_000)
    sweep = sweep_gain(base, "network_size", [100, 1000, 10_000], seed=606)
    means = [est.mean for _, est in sweep.points]
    elapsed = time.perf_counter() - start
    ok = (means[0] > means[1] > means[2]
          and means[2] < 0.5 * means[0]
          and elapsed < 600.0)
    _report(6, "light-tail (s=0.8) split gain decays with network size",
            ok, f"means={['%.6f' % m for m in means]}, {elapsed:.1f}s")


def test_07_unfairness_persists_for_heavy_tail():
    start = time.perf_counter()
    w = zipf_weights(ZipfParams(1.1, 10_000))
    est = estimate_split_gain(w, IDENTITY, 20, SplitSpec.equal(0, 2),
                              100_000, seed=707)
    elapsed = time.perf_counter() - start
    ok = est.mean > 4 * est.std_error and elapsed < 600.0
    _report(7, "heavy-tail (s=1.1) split gain stays positive at N=10000",
            ok, f"mean={est.mean:.6f}, 4*se={4 * est.std_error:.6f}, {elapsed:.1f}s")


def test_08_tau_monotonicity_and_limit():
    start = time.perf_counter()
    ok = True
    worst_gap = 0.0
    for p in [round(0.1 * j, 1) for j in range(1, 10)]:
        values = [tau_r_value(p, r) for r in range(1, 201)]
        if not all(b > a for a, b in zip(values, values[1:])):
            ok = False
        gap = abs(tau_r_value(p, 10 ** 6) - tau_limit(p))
        worst_gap = max(worst_gap, gap)
        if gap >= 1e-5:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(8, "the k = 2 equal-split gain increases in r and converges to its limit",
            ok, f"max |tau_1e6 - tau_inf|={worst_gap:.2e}, {elapsed:.3f}s")


def test_09_equal_split_optimality():
    start = time.perf_counter()
    ok = True
    for p_val in (0.3, 0.5, 0.82):
        p = SamplingDistribution.from_probs([p_val, 1.0 - p_val])
        best2 = split_gain_k2(p, SplitSpec.equal(0, 2))
        for a in np.linspace(0.04, 0.96, 20):
            if abs(a - 0.5) < 1e-12:
                continue
            if split_gain_k2(p, SplitSpec(0, np.array([a, 1.0 - a]))) >= best2:
                ok = False
        best3 = split_gain_k2(p, SplitSpec.equal(0, 3))
        grid = [(a, b) for a in np.linspace(0.08, 0.8, 5)
                for b in np.linspace(0.08, 0.8, 4) if 1.0 - a - b > 0.02]
        for a, b in grid[:20]:
            c = 1.0 - a - b
            if max(a, b, c) - min(a, b, c) < 1e-9:
                continue
            fracs = np.array([a, b, c])
            if split_gain_k2(p, SplitSpec(0, fracs / math.fsum(fracs))) >= best3:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(9, "equal fractions maximize the k = 2 split gain over unequal grids",
            ok, f"{elapsed:.3f}s")


def test_10_voting_power_normalization():
    # per-run counting identity, in exact rational arithmetic
    p = SamplingDistribution.from_probs([0.4, 0.3, 0.2, 0.1])
    rng = RngStream(1010)
    exact_ok = True
    for _ in range(3_000):
        s = greedy_sample(p, 3, rng)
        total = sum(Fraction(c, s.total_draws) for c in s.counts.values())
        if total != 1:
            exact_ok = False
    # truncated powers lose at most epsilon of mass per node
    trunc_ok = True
    for probs, k in (([0.25] * 4, 2), ([0.4, 0.3, 0.2, 0.05, 0.05], 3)):
        q = SamplingDistribution.from_probs(probs)
        eps = 1e-6
        total = math.fsum(voting_power_exact(q, k, i, eps)[0]
                          for i in range(q.size))
        if not (1.0 - q.size * eps <= total <= 1.0 + 1e-12):
            trunc_ok = False
    ok = exact_ok and trunc_ok
    _report(10, "per-run shares sum to one exactly; truncated powers within band",
            ok)


def test_11_fpc_sanity():
    start = time.perf_counter()
    w = zipf_weights(ZipfParams(0.0, 100))
    # unanimous input finalizes at the first opportunity
    config = FpcConfig(k=20, theta=0.5, beta=0.3, finality_l=2)
    trace = run_fpc(config, w, np.ones(100, dtype=int), seed=1)
    unanimous_ok = (trace.consensus_round == config.finality_l
                    and bool((trace.opinions_by_round == 1).all()))
    # degenerate threshold band
    config_half = FpcConfig(k=20, theta=0.5, beta=0.5, max_rounds=8, finality_l=99)
    trace_half = run_fpc(config_half, w, majority_initial_opinions(100, 0.5), seed=2)
    beta_ok = bool((trace_half.thresholds[1:] == 0.5).all())
    # 90%-majority regression pin: consensus on the majority opinion
    wins = 0
    for seed in range(100):
        tr = run_fpc(config, w, majority_initial_opinions(100, 0.9), seed=seed)
        if tr.consensus_round is not None and bool(tr.opinions_by_round[-1].all()):
            wins += 1
    elapsed = time.perf_counter() - start
    ok = unanimous_ok and beta_ok and wins >= 95
    _report(11, "FPC: unanimity finalizes, beta=1/2 pins thresholds, "
                "majority wins >= 95/100",
            ok, f"wins={wins}/100, {elapsed:.1f}s")


_ZIPF_SPLITS = {(0.5, 0.5): 6.77439e-4, (0.2, 0.8): 7.35836e-4}  # Zipf 1.1, N=1000, k=20


def test_12_k_above_2_split_claims_exact():
    # at k > 2 the best two-way split is unequal and a split can lose: the
    # gains from the exact voting power, with no sampling
    start = time.perf_counter()
    zipf = zipf_weights(ZipfParams(1.1, 1000))
    gains = {fracs: split_gain(zipf, IDENTITY, 20, SplitSpec(0, fracs), 1e-9)[0]
             for fracs in _ZIPF_SPLITS}
    ok = all(math.isclose(gains[f], pin, rel_tol=1e-5) for f, pin in _ZIPF_SPLITS.items())
    ok &= gains[0.2, 0.8] > gains[0.5, 0.5]
    worst = 0.0
    for top, pins in (((0.6, 0.3), {(0.5, 0.5): 2.98796e-3, (0.1, 0.9): 8.08597e-3,
                                    (0.05, 0.95): 6.47221e-3, (1 / 3,) * 3: 3.48566e-2}),
                      ((0.7, 0.2), {(0.5, 0.5): -6.33323e-3, (0.05, 0.95): 4.51164e-3})):
        w = WeightDistribution(np.array([*top] + [0.1 / 7] * 7))
        for fracs, pin in pins.items():
            split = SplitSpec(0, fracs)
            gain = split_gain(w, IDENTITY, 4, split, 1e-9)[0]
            worst = max(worst, abs(gain - split_gain_subsets(w, IDENTITY, 4, split)[0]))
            ok &= math.isclose(gain, pin, rel_tol=1e-5)
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-13 and elapsed < 30.0
    _report(12, "at k > 2, (0.2, 0.8) beats halves on Zipf 1.1 and halves can lose",
            ok, f"halves={gains[0.5, 0.5]:.6e}, (0.2, 0.8)={gains[0.2, 0.8]:.6e}, "
                f"max |exact - subsets|={worst:.1e}, {elapsed:.1f}s")


def test_13_k_above_2_coupled_estimates_match_exact():
    start = time.perf_counter()
    zipf = zipf_weights(ZipfParams(1.1, 1000))
    ok, details = True, []
    for seed, (fracs, pin) in enumerate(_ZIPF_SPLITS.items(), 1301):
        est = estimate_split_gain(zipf, IDENTITY, 20, SplitSpec(0, fracs), 200_000, seed=seed)
        ok &= abs(est.mean - pin) <= 4 * est.std_error
        details.append(f"{fracs}: {est.mean:.3e}+-{est.std_error:.1e} vs {pin:.3e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(13, "coupled k=20 split gains lie within 4 SE of their exact values",
            ok, f"{'; '.join(details)}, {elapsed:.1f}s")


def _equal_split_search(low: int, high: int) -> tuple:
    """A derandomized search of small networks (N 4-8, k 3 to N/2 + 1, masses
    0.01-10, any node): the count of nodes whose halves gain is positive, and
    those among them whose equal high-part gain does not exceed the low-part gain."""
    seen, counterexamples = [0], []

    @given(masses=st.lists(st.floats(0.01, 10.0), min_size=4, max_size=8),
           node=st.integers(0, 7), data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def search(masses, node, data):
        w = WeightDistribution.from_raw(masses)
        k = data.draw(st.integers(3, w.size // 2 + 1), label="k")

        def gain(r):
            return split_gain(w, IDENTITY, k, SplitSpec.equal(node % w.size, r), 1e-9)

        halves, bound2 = gain(2)
        if halves <= bound2:
            return
        seen[0] += 1
        (g_low, b_low), (g_high, b_high) = (halves, bound2) if low == 2 else gain(low), gain(high)
        if not g_high > g_low + b_low + b_high:
            counterexamples.append((masses, node % w.size, k, g_low, g_high))

    search()
    return seen[0], counterexamples


def test_14_k_above_2_equal_split_gain_rises_from_2_to_3_parts():
    # a node whose halves gain is positive gains more from three equal parts
    start = time.perf_counter()
    seen, counterexamples = _equal_split_search(2, 3)
    elapsed = time.perf_counter() - start
    ok = seen >= 100 and not counterexamples and elapsed < 60.0
    _report(14, "at k > 2, a positive halves gain rises with three equal parts",
            ok, f"{seen} networks with a positive halves gain, "
                f"counterexamples={counterexamples[:1]}, {elapsed:.1f}s")


def test_15_k_above_2_equal_split_gain_rises_from_3_to_6_parts():
    # a node whose halves gain is positive gains more from six equal parts
    # than from three
    start = time.perf_counter()
    seen, counterexamples = _equal_split_search(3, 6)
    elapsed = time.perf_counter() - start
    ok = seen >= 100 and not counterexamples and elapsed < 60.0
    _report(15, "at k > 2, a positive halves gain rises from three to six equal parts",
            ok, f"{seen} networks with a positive halves gain, "
                f"counterexamples={counterexamples[:1]}, {elapsed:.1f}s")


_DECAY_PINS = {(0.8, 100): 1.109164e-3, (0.8, 1000): 7.990724e-4,  # Zipf s, N -> halves gain
               (2.0, 100): -3.114143e-4, (2.0, 1000): -3.251863e-4}  # k=20, node 1


def test_16_exact_halves_split_gain_decays_with_network_size():
    # criterion 6's trend with no sampling: a light tail's halves gain falls
    # from N=100 to N=1000, while a heavy tail's halves lose at both sizes
    start = time.perf_counter()
    gains = {(s, n): split_gain(zipf_weights(ZipfParams(s, n)), IDENTITY, 20,
                                SplitSpec.equal(0, 2), 1e-9)[0] for s, n in _DECAY_PINS}
    elapsed = time.perf_counter() - start
    ok = all(math.isclose(gains[key], pin, rel_tol=1e-5) for key, pin in _DECAY_PINS.items())
    ok &= gains[0.8, 100] > gains[0.8, 1000] > 0 > gains[2.0, 100] and gains[2.0, 1000] < 0
    ok = ok and elapsed < 30.0
    _report(16, "light-tail (s=0.8) exact halves gain decays with N; heavy-tail halves lose",
            ok, ", ".join(f"s={s} N={n}: {g:.6e}" for (s, n), g in gains.items())
                + f", {elapsed:.1f}s")
