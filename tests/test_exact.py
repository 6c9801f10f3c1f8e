import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import chisquare_gof_pvalue
from greedyvote import exact
from greedyvote.errors import InvalidParameterError, ResourceLimitError
from greedyvote.exact import (
    exact_joint_distribution,
    exact_u_distribution,
    exact_v_distribution,
    split_gain,
    tau_argmax,
    tau_limit,
    voting_power_exact,
)
from greedyvote.weights import (
    CONSTANT_ONE,
    IDENTITY,
    SamplingDistribution,
    SplitSpec,
    WeightDistribution,
    WeightFunction,
    ZipfParams,
    apply_split,
    sampling_distribution,
    zipf_weights,
)
from reference import (
    ORACLE_MAX_NODES,
    ORACLE_MAX_VMAX,
    cells,
    enumeration_oracle,
    split_gain_k2,
    split_gain_subsets,
    stop_law_subsets,
    tau_r_value,
    voting_power_k2,
    voting_power_subsets,
)


def _random_distribution(gen, n):
    raw = gen.random(n) + 0.05
    return SamplingDistribution.from_probs(raw / raw.sum())


class TestVDistribution:
    def test_geometric_case(self):
        p = SamplingDistribution.from_probs([0.5, 0.5])
        d = exact_v_distribution(p, 2, 12)
        assert d.names == ("v",)
        assert d.index[0].tolist() == list(range(2, 13))
        assert d.probs.tolist() == [0.5 ** (v - 1) for v in range(2, 13)]
        assert d.residual == 0.5 ** 11

    def test_k1_single_draw(self):
        p = SamplingDistribution.from_probs([0.3, 0.7])
        d = exact_v_distribution(p, 1, 5)
        assert d.index[0].tolist() == [1]
        assert d.probs[0] == pytest.approx(1.0, abs=1e-15)
        assert d.residual == pytest.approx(0.0, abs=1e-15)

    def test_matches_enumeration_oracle(self):
        p = SamplingDistribution.from_probs([0.7, 0.2, 0.1])
        d = cells(exact_v_distribution(p, 3, 16))
        oracle_v, _ = enumeration_oracle(p, 3, 10)
        oracle_v = cells(oracle_v)
        for v in range(3, 11):
            assert d[v] == pytest.approx(oracle_v.get(v, 0.0), abs=1e-12)

    def test_dimension_guards_name_offender(self):
        # N=60, k=8 is one pass of 60 x 8 x 8^2 cells: eight distinct draws of eight
        uniform60 = SamplingDistribution.from_probs([1.0 / 60] * 60)
        d = exact_v_distribution(uniform60, 8, 8)
        assert d.probs[0] == pytest.approx(math.perm(60, 8) / 60 ** 8, rel=1e-14)
        # at k=30 all 1000 draw counts carry mass: 1.8e9 cells, refused before any allocation
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"60 nodes x 30 rows x 1000\^2 draw counts"):
                exact_v_distribution(uniform60, 30, 1000)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        # the cells grow with v_max: 2000 draw counts sit under this law's last one, 2130
        p = SamplingDistribution.from_probs(1.0 / np.arange(1, 15))
        with pytest.raises(ResourceLimitError,
                           match=r"14 nodes x 6 rows x 2000\^2 draw counts .* = 337021440 cells"):
            exact_v_distribution(p, 6, 2000)

    def test_formerly_refused_shapes_run(self):
        p = SamplingDistribution.from_probs(1.0 / np.arange(1, 9))
        d = exact_v_distribution(p, 5, 2000)
        assert d.residual == pytest.approx(0.0, abs=1e-14)
        q = SamplingDistribution.from_probs([1.0 / 8] * 8)
        assert exact_v_distribution(q, 7, 10).probs[0] > 0.0

    def test_k_beyond_support_rejected(self):
        p = SamplingDistribution.from_probs([1.0, 0.0])
        with pytest.raises(InvalidParameterError):
            exact_v_distribution(p, 2, 8)


class TestJointDistribution:
    def test_fair_coin_small_entries(self):
        # brute force over sequences of length <= 3: {12, 21} and {112, 221}
        p = SamplingDistribution.from_probs([0.5, 0.5])
        d = exact_joint_distribution(p, 2, 0, 12)
        assert d.names == ("ell", "v")
        d = cells(d)
        assert d[(1, 2)] == pytest.approx(0.5, abs=1e-15)
        assert d[(2, 3)] == pytest.approx(0.125, abs=1e-15)
        assert d[(1, 3)] == pytest.approx(0.125, abs=1e-15)

    def test_matches_enumeration_oracle(self):
        p = SamplingDistribution.from_probs([0.6, 0.4])
        _, oracle_joint = enumeration_oracle(p, 2, 10)
        for i in (0, 1):
            d, oracle = cells(exact_joint_distribution(p, 2, i, 10)), cells(oracle_joint[i])
            for key in set(d) | set(oracle):
                assert d.get(key, 0.0) == pytest.approx(oracle.get(key, 0.0), abs=1e-12)

    def test_marginal_reproduces_v_distribution(self):
        gen = np.random.Generator(np.random.Philox(key=[11, 0]))
        p = _random_distribution(gen, 4)
        d_v = exact_v_distribution(p, 3, 14)
        for i in range(4):
            joint = exact_joint_distribution(p, 3, i, 14)
            marg = np.bincount(joint.index[1], weights=joint.probs, minlength=15)
            assert np.abs(marg[d_v.index[0]] - d_v.probs).max() <= 1e-12

    def test_occurrences_sum_to_draw_count(self):
        # sum_i E[A(i)] must equal E[v] on the shared truncation
        gen = np.random.Generator(np.random.Philox(key=[12, 0]))
        p = _random_distribution(gen, 4)
        v_max = 14
        d_v = exact_v_distribution(p, 3, v_max)
        lhs = 0.0
        for i in range(4):
            joint = exact_joint_distribution(p, 3, i, v_max)
            lhs += math.fsum((joint.index[0] * joint.probs).tolist())
        rhs = math.fsum((d_v.index[0] * d_v.probs).tolist())
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_support_property(self):
        gen = np.random.Generator(np.random.Philox(key=[13, 0]))
        for k in (2, 3):
            p = _random_distribution(gen, 4)
            joint = exact_joint_distribution(p, k, 1, 12)
            ell, v = joint.index
            assert (v[ell >= 1] >= ell[ell >= 1] + k - 1).all()
            assert (joint.probs >= 0.0).all()

    def test_emits_exactly_the_feasible_support(self):
        # the oracle walks every sequence, so its keys are the cells of positive mass
        for probs in ([0.5, 0.5], [0.6, 0.3, 0.1], [0.4, 0.3, 0.2, 0.1], [0.5, 0.0, 0.3, 0.2]):
            p = SamplingDistribution.from_probs(probs)
            for k in range(1, p.support_size + 1):
                _, oracle_joint = enumeration_oracle(p, k, 9)
                for i in range(p.size):
                    joint = exact_joint_distribution(p, k, i, 9)
                    assert set(cells(joint)) == set(cells(oracle_joint[i]))
        # with k = N every node is drawn; cancellation must not put mass on ell = 0
        p = SamplingDistribution.from_probs(1.0 / np.arange(1, 6))
        for i in range(5):
            assert (exact_joint_distribution(p, 5, i, 20).index[0] >= 1).all()

    def test_k1_joint(self):
        p = SamplingDistribution.from_probs([0.3, 0.7])
        joint = cells(exact_joint_distribution(p, 1, 0, 4))
        assert joint[(1, 1)] == pytest.approx(0.3, abs=1e-15)
        assert joint[(0, 1)] == pytest.approx(0.7, abs=1e-15)

    def test_k1_joint_at_a_million_draws(self):
        # a k = 1 run stops at draw 1, so nothing is sized to v_max
        p = SamplingDistribution.from_probs([0.3, 0.7])
        tracemalloc.start()
        try:
            joint = exact_joint_distribution(p, 1, 0, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells(joint) == {(0, 1): 1.0 - 0.3, (1, 1): 0.3}
        assert peak < 32 << 20

    def test_node_out_of_range(self):
        p = SamplingDistribution.from_probs([0.5, 0.5])
        with pytest.raises(InvalidParameterError):
            exact_joint_distribution(p, 2, 2, 8)

    @given(
        n=st.integers(2, 4),
        k=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_instances_match_oracle(self, n, k, seed):
        gen = np.random.Generator(np.random.Philox(key=[seed, 99]))
        p = _random_distribution(gen, n)
        k = min(k, n)
        d = cells(exact_v_distribution(p, k, 8))
        oracle_v, oracle_joint = enumeration_oracle(p, k, 8)
        oracle_v = cells(oracle_v)
        for v in d:
            assert d[v] == pytest.approx(oracle_v.get(v, 0.0), abs=1e-12)
        i = seed % n
        joint, oracle = cells(exact_joint_distribution(p, k, i, 8)), cells(oracle_joint[i])
        for key in set(joint) | set(oracle):
            assert joint.get(key, 0.0) == pytest.approx(oracle.get(key, 0.0), abs=1e-12)


class TestLawOrder:
    """The CLI writes a law's cells as they come: the order is the contract."""

    @given(masses=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0]),
                                     st.floats(0.001, 10.0)), min_size=1, max_size=8),
           extra=st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_cells_come_in_output_order(self, masses, extra):
        assume(any(m > 0 for m in masses))
        p = SamplingDistribution.from_probs(masses)
        for k in range(1, p.support_size + 1):
            v_max = k + extra
            d = exact_v_distribution(p, k, v_max)
            v_top = exact._draw_count(p.probs, k, v_max)
            assert d.index[0].tolist() == list(range(k, v_top + 1))
            # the oracle walks every sequence of up to 7 draws on up to 5 nodes
            depth = min(v_max, 7)
            oracle = enumeration_oracle(p, k, depth)[1] if p.size <= ORACLE_MAX_NODES else None
            for i in range(p.size):
                joint = exact_joint_distribution(p, k, i, v_max)
                ell, v = joint.index
                assert ((v[1:] > v[:-1]) | ((v[1:] == v[:-1]) & (ell[1:] > ell[:-1]))).all()
                assert (joint.probs != 0.0).all()
                if oracle is None:
                    continue
                ours, theirs = cells(joint), cells(oracle[i])
                assert {key for key in ours if key[1] <= depth} == set(theirs)
                for key, q in theirs.items():
                    assert ours[key] == pytest.approx(q, abs=1e-12)

    def test_goodness_of_fit_takes_only_law_arrays(self):
        law = exact_v_distribution(SamplingDistribution.from_probs([0.5, 0.5]), 2, 12)
        observed = {2: 50, 3: 25, 4: 25}
        assert 0.0 < chisquare_gof_pvalue(observed, law.index, law.probs, 100) <= 1.0
        for index, probs in ((law.index[0], law.probs), (law.index, dict(cells(law))),
                             (law.index, law.probs.tolist()), ((), law.probs),
                             ((law.index[0][1:],), law.probs)):
            with pytest.raises(TypeError, match="index columns"):
                chisquare_gof_pvalue(observed, index, probs, 100)


class TestDrawPass:
    """The draw pass against the signed subset sum it replaced."""

    @given(masses=st.lists(st.one_of(st.just(0.0), st.floats(0.001, 10.0)),
                           min_size=1, max_size=8),
           head=st.booleans(), v_max=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_subset_sum(self, masses, head, v_max):
        assume(any(m > 0 for m in masses))
        if head:  # one node of at least 0.99
            masses = [99.5 * sum(masses)] + masses[:7]
        p = SamplingDistribution.from_probs(masses)
        for k in range(1, p.support_size + 1):
            draws = max(v_max, k)
            table, x = exact._draw_pass(p.probs, k, draws, 0)
            e, m = np.ldexp(table, x)
            law, tail = stop_law_subsets(p.probs, k, 1, draws)
            # below v = k the subset sum leaves cancellation noise, not 0
            assert np.abs(m[k - 1, k - 1:] - law[k - 1:]).max() <= 1e-13
            assert np.abs(e.sum(axis=0) - tail).max() <= 1e-13
            d = exact_v_distribution(p, k, draws)
            assert (d.probs == m[k - 1, d.index[0] - 1]).all()


class TestUDistribution:
    def test_fair_coin_two_draws(self):
        p = SamplingDistribution.from_probs([0.5, 0.5])
        u = exact_u_distribution(p, 2)
        assert u.names == ("u",) and u.index[0].tolist() == [1, 2] and u.residual is None
        assert np.allclose(u.probs, [0.5, 0.5], atol=1e-15)

    def test_k1(self):
        p = SamplingDistribution.from_probs([0.2, 0.8])
        u = exact_u_distribution(p, 1)
        assert u.probs.tolist() == [1.0]

    def test_normalization_random(self):
        gen = np.random.Generator(np.random.Philox(key=[21, 0]))
        for n, k in ((3, 4), (5, 6), (8, 10), (14, 10)):
            p = _random_distribution(gen, n)
            u = exact_u_distribution(p, k)
            assert math.fsum(u.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
            assert (u.probs >= 0).all()

    def test_sixty_nodes_eight_draws(self):
        # past the subset budget (4.4e8 subsets), 480 steps of the positive pass
        p = SamplingDistribution.from_probs([1.0 / 60] * 60)
        u = exact_u_distribution(p, 8)
        assert math.fsum(u.probs.tolist()) == pytest.approx(1.0, abs=1e-14)
        # eight distinct nodes out of 60 equally likely ones
        assert u.probs[7] == pytest.approx(math.perm(60, 8) / 60 ** 8, rel=1e-14)

    def test_matches_fifty_digit_arithmetic(self):
        # the signed subset sum in 50 digits, where float64 would cancel:
        # P(u) = sum_{|S| <= u} (-1)^(u-|S|) C(N-|S|, u-|S|) p_S^k
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        n, k = 14, 10
        p = SamplingDistribution.from_probs(1.0 / np.arange(1, n + 1) ** 2)
        _, subsets = _mp_subsets(mpmath, p, k + 1)
        by_size = [mpmath.fsum([x ** k for size, x, _ in subsets if size == s])
                   for s in range(k + 1)]
        u = exact_u_distribution(p, k)
        for m in range(1, k + 1):
            ref = mpmath.fsum([(-1) ** (m - s) * math.comb(n - s, m - s) * by_size[s]
                               for s in range(m + 1)])
            assert abs(u.probs[m - 1] - float(ref)) <= 1e-15

    def test_zero_nodes_and_more_draws_than_nodes(self):
        p = SamplingDistribution.from_probs([0.5, 0.0, 0.5])
        u = exact_u_distribution(p, 5)
        assert u.probs.tolist() == [0.0625, 0.9375, 0.0, 0.0, 0.0]

    def test_answers_k_past_170(self):
        # no k! in the pass: one distinct node in k fair-coin draws is 2^-(k-1)
        p = SamplingDistribution.from_probs([0.5, 0.5])
        for k in (170, 171, 300):
            assert exact_u_distribution(p, k).probs[0] == pytest.approx(2.0 ** (1 - k), rel=1e-12)


class TestEnumerationOracle:
    def test_k1_mass_on_single_draws(self):
        p = SamplingDistribution.from_probs([0.4, 0.6])
        v_dist, joints = enumeration_oracle(p, 1, 6)
        assert cells(v_dist) == {1: pytest.approx(1.0, abs=1e-15)}
        assert cells(joints[0])[(1, 1)] == pytest.approx(0.4, abs=1e-15)

    def test_guards(self):
        p = SamplingDistribution.from_probs([1.0 / 6] * 6)
        with pytest.raises(ResourceLimitError, match="N=6"):
            enumeration_oracle(p, 2, 6)
        q = SamplingDistribution.from_probs([0.5, 0.5])
        with pytest.raises(ResourceLimitError, match="v_max=11"):
            enumeration_oracle(q, 2, 11)


class TestVotingPowerK2:
    def test_symmetric_pair(self):
        p = SamplingDistribution.from_probs([0.5, 0.5])
        assert voting_power_k2(p, 0) == pytest.approx(0.5, abs=1e-12)

    def test_skewed_pair_value(self):
        p = SamplingDistribution.from_probs([0.75, 0.25])
        assert voting_power_k2(p, 0) == pytest.approx(0.650948, abs=5e-7)

    def test_matches_truncated_expectation(self):
        p = SamplingDistribution.from_probs([0.75, 0.25])
        value, err = voting_power_exact(p, 2, 0, 1e-8)
        assert abs(voting_power_k2(p, 0) - value) <= 1e-6 + err

    def test_powers_sum_to_one(self):
        gen = np.random.Generator(np.random.Philox(key=[31, 0]))
        p = _random_distribution(gen, 6)
        total = math.fsum(voting_power_k2(p, i) for i in range(6))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_k_beyond_a_one_node_support_rejected(self):
        # k = 2 needs two nodes of positive mass; the probability-1 rule is
        # the next test's
        p = SamplingDistribution.from_probs([1.0, 0.0])
        with pytest.raises(InvalidParameterError, match="exceeds support size"):
            voting_power_k2(p, 0)

    def test_probability_one_node_inside_a_wider_support_rejected(self):
        # two nodes of positive mass pass the support check; one of them is 1
        p = SamplingDistribution.from_probs([1.0, 1e-300])
        with pytest.raises(InvalidParameterError, match="a probability-1 node"):
            voting_power_k2(p, 1)


class TestSplitGainK2:
    """The k = 2 closed form, the oracle of `split_gain`."""

    def test_degenerate_split_is_exactly_zero(self):
        p = SamplingDistribution.from_probs([0.3, 0.7])
        assert split_gain_k2(p, SplitSpec(0, np.array([1.0]))) == 0.0

    def test_every_real_split_gains(self):
        gen = np.random.Generator(np.random.Philox(key=[32, 0]))
        for p_i in (0.1, 0.5, 0.82, 0.95):
            p = SamplingDistribution.from_probs([p_i, 1.0 - p_i])
            for r in (2, 3, 7):
                fractions = gen.random(r) + 0.1
                fractions /= fractions.sum()
                split = SplitSpec(0, fractions / math.fsum(fractions.tolist()))
                assert split_gain_k2(p, split) > 0.0

    def test_matches_voting_power_difference(self):
        gen = np.random.Generator(np.random.Philox(key=[33, 0]))
        p = _random_distribution(gen, 4)
        split = SplitSpec(1, np.array([0.6, 0.4]))
        gain = split_gain_k2(p, split)
        p_hat = sampling_distribution(apply_split(WeightDistribution(p.probs), split)[0])
        before = voting_power_k2(p, 1)
        after = sum(voting_power_k2(p_hat, j) for j in (1, 2))
        assert gain == pytest.approx(after - before, abs=1e-9)

    def test_equal_fractions_maximize(self):
        for p_i in (0.1, 0.5, 0.82):
            p = SamplingDistribution.from_probs([p_i, 1.0 - p_i])
            best = split_gain_k2(p, SplitSpec.equal(0, 2))
            for a in np.linspace(0.05, 0.95, 19):
                if abs(a - 0.5) < 1e-9:
                    continue
                unequal = split_gain_k2(p, SplitSpec(0, np.array([a, 1.0 - a])))
                assert best >= unequal

    def test_non_identity_rejected(self):
        w = WeightDistribution.from_raw([0.6, 0.4])
        p = sampling_distribution(w, CONSTANT_ONE)
        for gain in (split_gain_k2, exact.split_gain_k2):  # the oracle and the library's
            with pytest.raises(InvalidParameterError,
                               match="requires the identity weight function"):
                gain(p, SplitSpec.equal(0, 2))

    def test_probability_one_node_rejected(self):
        p = SamplingDistribution.from_probs([1.0, 1e-300])
        with pytest.raises(InvalidParameterError, match="split gain needs p_i < 1"):
            split_gain_k2(p, SplitSpec.equal(0, 2))


class TestSplitGain:
    """The exact split gain against the k = 2 closed form, the subset sums and
    uniform networks, and its refusals."""

    @pytest.mark.parametrize("p_i", [0.05, 0.3, 0.5, 0.8156, 0.95])
    def test_k2_matches_closed_form(self, p_i):
        w = WeightDistribution.from_raw([p_i, 1.0 - p_i])
        splits = [SplitSpec.equal(0, r) for r in range(2, 7)]
        splits += [SplitSpec(0, [0.2, 0.8]), SplitSpec(0, [0.1, 0.3, 0.6])]
        p = sampling_distribution(w)
        for split in splits:
            gain, bound = split_gain(w, IDENTITY, 2, split, 1e-9)
            assert 0.0 < bound <= 1e-9
            assert abs(gain - split_gain_k2(p, split)) <= bound

    def test_single_part_is_exactly_zero(self):
        for w, k in ((WeightDistribution.from_raw([0.3, 0.7]), 2),
                     (zipf_weights(ZipfParams(1.1, 50)), 7)):
            for f in (IDENTITY, WeightFunction(0.5)):
                assert split_gain(w, f, k, SplitSpec(0, [1.0]), 1e-9)[0] == 0.0

    def test_bench_reference_matches_closed_form(self):
        # the k = 2 reference of the gain-coupled workload: Zipf 1.1, N = 1000, halves
        w = zipf_weights(ZipfParams(1.1, 1000))
        p, split = sampling_distribution(w), SplitSpec.equal(0, 2)
        gain, bound = split_gain(w, IDENTITY, 2, split, 1e-9)
        assert exact.split_gain_k2(p, split) == gain
        assert abs(gain - split_gain_k2(p, split)) <= bound

    @given(masses=st.lists(st.floats(0.01, 10.0), min_size=3, max_size=8),
           f=st.sampled_from([IDENTITY, WeightFunction(0.5), CONSTANT_ONE]),
           node=st.integers(0, 7), r=st.integers(2, 4), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_small_networks_match_subset_sums(self, masses, f, node, r, data):
        w = WeightDistribution.from_raw(masses)
        k = data.draw(st.integers(2, w.size), label="k")
        fractions = data.draw(st.lists(st.floats(0.05, 1.0), min_size=r, max_size=r))
        split = SplitSpec(node % w.size, np.array(fractions) / math.fsum(fractions))
        gain, bound = split_gain(w, f, k, split, 1e-9)
        ref, ref_bound = split_gain_subsets(w, f, k, split)
        assert abs(gain - ref) <= bound + ref_bound

    def test_constant_one_networks_are_uniform(self):
        # every node and part samples alike: r of N + r - 1 nodes against 1 of N
        for n, k, r in ((5, 3, 2), (12, 4, 3), (40, 20, 4)):
            w = zipf_weights(ZipfParams(1.1, n))
            gain, bound = split_gain(w, CONSTANT_ONE, k, SplitSpec.equal(1, r), 1e-9)
            assert abs(gain - (r / (n + r - 1) - 1 / n)) <= bound

    @staticmethod
    def _forbid_passes(monkeypatch):
        # the node loop and the readout's kernel: a refusal comes before both
        def no_pass(*args):
            raise AssertionError("a voting power pass ran")

        monkeypatch.setattr(exact, "_fold", no_pass)
        monkeypatch.setattr(exact, "_exp_e1", no_pass)

    @pytest.mark.parametrize("node, message", [(3, "out of range"), (1, "zero mass")])
    def test_bad_split_refused_before_any_pass(self, monkeypatch, node, message):
        self._forbid_passes(monkeypatch)
        w = WeightDistribution.from_raw([0.5, 0.0, 0.5])
        with pytest.raises(InvalidParameterError, match=message):
            split_gain(w, IDENTITY, 2, SplitSpec.equal(node, 2), 1e-9)

    def test_k_and_epsilon_refused_before_any_pass(self, monkeypatch):
        # the parts add a node of positive mass, but k is read against the
        # unsplit network, whose pass runs first
        self._forbid_passes(monkeypatch)
        w = WeightDistribution.from_raw([0.5, 0.5, 0.0])
        with pytest.raises(InvalidParameterError, match="k=3 exceeds support size 2"):
            split_gain(w, IDENTITY, 3, SplitSpec.equal(0, 2), 1e-9)
        for epsilon in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidParameterError, match="epsilon must be > 0"):
                split_gain(w, IDENTITY, 2, SplitSpec.equal(0, 2), epsilon)

    @pytest.mark.parametrize("tiny", [1e-306, 4.2e-306])
    def test_grid_past_the_float_range_refused_before_any_pass(self, monkeypatch, tiny):
        # at 1e-306 s_max overflows; at 4.2e-306 it is finite but the grid's
        # last point, e^(s_max's log rounded up to 1/8), is not
        self._forbid_passes(monkeypatch)
        w = WeightDistribution.from_raw([1.0, tiny])
        with pytest.raises(ResourceLimitError, match="past the float range"):
            voting_power_exact(sampling_distribution(w, IDENTITY), 2, 1, 1e-6)
        with pytest.raises(ResourceLimitError, match="past the float range"):
            split_gain(w, IDENTITY, 2, SplitSpec.equal(1, 2), 1e-6)

    def test_post_split_grid_refused_before_any_pass(self, monkeypatch):
        # 20 equal nodes at k = 4 fill a 56 560-cell grid; their halves, 21
        # nodes, a 59 388-cell one
        def no_pass(s):
            raise AssertionError("a voting power pass ran")

        monkeypatch.setattr(exact, "_exp_e1", no_pass)
        monkeypatch.setattr(exact, "MAX_CELLS", 56_560)
        w = WeightDistribution.from_raw(np.ones(20))
        with pytest.raises(ResourceLimitError,
                           match="21 nodes x k=4 x 707 grid points = 59388 cells"):
            split_gain(w, IDENTITY, 4, SplitSpec.equal(0, 2), 1e-9)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("f", [IDENTITY, WeightFunction.parse("power:0.5")],
                             ids=["identity", "power:0.5"])
    def test_one_node_loop_per_network(self, monkeypatch, r, f):
        # the N - 1 nodes outside the node, then outside its parts, once each;
        # then each part's r - 1 siblings on a copy of the split network's state
        fold, updates = exact._fold, []

        def counted(state, probs, s):
            updates.append(int(np.count_nonzero(probs > 0)))
            return fold(state, probs, s)

        monkeypatch.setattr(exact, "_fold", counted)
        n = 50
        split_gain(zipf_weights(ZipfParams(1.1, n)), f, 5, SplitSpec.equal(2, r), 1e-9)
        assert updates == [n - 1, n - 1] + [r - 1] * r  # 2(N - 1) + r(r - 1) in all

    @pytest.mark.parametrize("f, split", [
        (IDENTITY, SplitSpec(0, [0.5, 0.5])),
        (IDENTITY, SplitSpec(0, [0.2, 0.8])),
        (WeightFunction.parse("power:0.5"), SplitSpec.equal(0, 3)),
    ], ids=["halves", "0.2-0.8", "thirds-power"])
    def test_matches_one_pass_per_part(self, f, split):
        # the r + 1 passes of voting_power_exact, each folding every other node
        w, k = zipf_weights(ZipfParams(1.1, 300)), 20
        pre = sampling_distribution(w, f)
        post = sampling_distribution(apply_split(w, split)[0], f)
        parts = [voting_power_exact(post, k, j, 1e-9) for j in split.parts]
        before, before_bound = voting_power_exact(pre, k, split.node, 1e-9)
        gain, bound = split_gain(w, f, k, split, 1e-9)
        assert bound <= 1e-9
        assert abs(gain - (math.fsum(v for v, _ in parts) - before)) <= (
            bound + before_bound + math.fsum(b for _, b in parts))

    def test_epsilon_below_the_bound_is_a_resource_limit(self):
        w = WeightDistribution.from_raw([0.6, 0.3, 0.1])
        split = SplitSpec.equal(0, 2)
        _, bound = split_gain(w, IDENTITY, 2, split, 1e-9)
        with pytest.raises(ResourceLimitError, match="exceeds epsilon"):
            split_gain(w, IDENTITY, 2, split, bound / 100)


class TestTau:
    def test_single_part_is_zero(self):
        for p in (0.05, 0.3, 0.6, 0.99):
            assert tau_r_value(p, 1) == 0.0

    def test_strictly_increasing_in_r(self):
        for p in (0.1, 0.5, 0.9):
            values = [tau_r_value(p, r) for r in range(1, 101)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_limit_value_at_half(self):
        # tau(0.5) = 0.5 * (-0.25 - log(0.5)/0.5 - 1)
        expected = 0.5 * (-0.25 - math.log(0.5) / 0.5 - 1.0)
        assert tau_limit(0.5) == pytest.approx(expected, abs=1e-15)
        assert tau_limit(0.5) == pytest.approx(0.0681472, abs=1e-7)
        assert tau_r_value(0.5, 10 ** 6) == pytest.approx(tau_limit(0.5), abs=1e-6)

    def test_limit_dominates_finite_r(self):
        for p in (0.1, 0.5, 0.9):
            limit = tau_limit(p)
            for r in (1, 2, 10, 100, 10_000):
                assert tau_r_value(p, r) < limit

    def test_gain_identity_on_two_node_instance(self):
        # splitting the p-node of (p, 1-p) into r equal parts is exactly the
        # equal-split gain curve
        for p_val in [round(0.1 * j, 1) for j in range(1, 10)]:
            p = SamplingDistribution.from_probs([p_val, 1.0 - p_val])
            for r in range(2, 21):
                gain = split_gain_k2(p, SplitSpec.equal(0, r))
                assert gain == pytest.approx(tau_r_value(p_val, r), abs=1e-10)

    def test_argmax_location_and_value(self):
        m_star, tau_star = tau_argmax()
        assert 0.8146 <= m_star <= 0.8166
        assert 0.1216 <= tau_star <= 0.1236
        assert tau_limit(m_star - 0.01) < tau_star
        assert tau_limit(m_star + 0.01) < tau_star

    def test_domain_validation(self):
        with pytest.raises(InvalidParameterError):
            tau_limit(0.0)
        with pytest.raises(InvalidParameterError):
            tau_limit(1.0)
        with pytest.raises(InvalidParameterError):
            tau_r_value(0.5, 0)

    def test_finite_split_curve_domain(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidParameterError,
                               match=r"p must lie strictly inside \(0, 1\)"):
                tau_r_value(p, 2)


class TestVotingPowerTruncated:
    def test_uniform_symmetry(self):
        p = SamplingDistribution.from_probs([0.25] * 4)
        for i in range(4):
            value, err = voting_power_exact(p, 2, i, 1e-6)
            assert abs(value - 0.25) <= 1e-6

    def test_matches_closed_form(self):
        p = SamplingDistribution.from_probs([0.75, 0.25])
        value, err = voting_power_exact(p, 2, 0, 1e-6)
        assert abs(value - voting_power_k2(p, 0)) <= 1e-6 + err

    def test_total_power_in_unit_band(self):
        gen = np.random.Generator(np.random.Philox(key=[41, 0]))
        for n, k in ((4, 2), (5, 3)):
            p = _random_distribution(gen, n)
            eps = 1e-6
            total = math.fsum(
                voting_power_exact(p, k, i, eps)[0] for i in range(n)
            )
            assert 1.0 - n * eps <= total <= 1.0 + 1e-12

    def test_unreachable_epsilon_reports_residual(self):
        # float64 cannot get within 1e-20 of a value near 1
        p = SamplingDistribution.from_probs([0.99999, 0.00001])
        _, bound = voting_power_exact(p, 2, 0, 1e-12)
        assert 1e-20 < bound <= 1e-12
        with pytest.raises(ResourceLimitError, match=f"rounding bound {bound:.3e}"):
            voting_power_exact(p, 2, 0, 1e-20)

    def test_epsilon_must_be_positive(self):
        p = SamplingDistribution.from_probs([0.5, 0.5])
        with pytest.raises(InvalidParameterError):
            voting_power_exact(p, 2, 0, 0.0)

    @given(n=st.integers(2, 6), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_networks_match_closed_form_and_oracle(self, n, seed):
        gen = np.random.Generator(np.random.Philox(key=[seed, 77]))
        p = _random_distribution(gen, n)
        for i in range(n):
            value, bound = voting_power_exact(p, 2, i, 1e-9)
            # the closed form rounds too, by a few ulps of its O(1) terms
            assert abs(value - voting_power_k2(p, i)) <= bound + 4 * sys.float_info.epsilon
        if n > ORACLE_MAX_NODES:
            return
        # each run's share lies in [0, 1], so the oracle's truncated sum
        # undershoots the exact power by at most its residual
        for k in range(1, min(n, 3) + 1):
            _, joints = enumeration_oracle(p, k, ORACLE_MAX_VMAX)
            for i in range(n):
                value, bound = voting_power_exact(p, k, i, 1e-9)
                joint = joints[i]
                ell, v = joint.index
                truncated = math.fsum((ell / v * joint.probs).tolist())
                assert -bound - 1e-12 <= value - truncated <= joint.residual + bound + 1e-12


class TestVotingPowerPositiveTerms:
    """The sums of positive terms against the signed subset sum and the closed forms."""

    @given(masses=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0]),
                                     st.floats(0.001, 10.0)), min_size=2, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_random_networks_with_ties_and_zeros(self, masses):
        assume(any(m > 0 for m in masses))
        p = SamplingDistribution.from_probs(masses)
        eps = sys.float_info.epsilon
        for k in range(1, p.support_size + 1):
            values, bounds = [], []
            for i in range(p.size):
                value, bound = voting_power_exact(p, k, i, 1e-9)
                ref, ref_bound = voting_power_subsets(p, k, i)
                assert abs(value - ref) <= bound + ref_bound
                if k == 1:
                    assert abs(value - p.probs[i]) <= bound
                if k == 2 and p.probs.max() < 1.0:
                    assert abs(value - voting_power_k2(p, i)) <= bound + 4 * eps
                values.append(value)
                bounds.append(bound)
            # every run's shares add up to one
            assert abs(math.fsum(values) - 1.0) <= math.fsum(bounds)

    def test_zero_mass_node_has_no_power(self):
        p = SamplingDistribution.from_probs([0.5, 0.0, 0.3, 0.2])
        assert voting_power_exact(p, 3, 1, 1e-12) == (0.0, 0.0)

    def test_cell_budget_refusals_name_the_count(self, monkeypatch):
        # 25 nodes of positive mass; the five zero-mass nodes cost nothing
        p = SamplingDistribution.from_probs(np.concatenate([1.0 / np.arange(1, 26), np.zeros(5)]))
        monkeypatch.setattr(exact, "MAX_CELLS", 80_000)
        voting_power_exact(p, 4, 0, 1e-9)
        with pytest.raises(ResourceLimitError,
                           match="25 nodes x k=5 x 717 grid points = 89625 cells"):
            voting_power_exact(p, 5, 0, 1e-9)
        monkeypatch.setattr(exact, "MAX_CELLS", 6000)
        exact_u_distribution(p, 4)
        with pytest.raises(ResourceLimitError, match=r"25 nodes x 6 rows x 6\^2 draw counts "
                                                     r"\+ 512 x 5 output cells = 7960 cells"):
            exact_u_distribution(p, 5)

    def test_cell_budget_counts_the_grid(self):
        # a 1e-300 node leaves next to no mass outside the 200 heaviest, so the
        # grid has 11 885 points where 201 equal nodes have 789: the pass is
        # refused before anything is allocated, though 201 x 201 steps fit
        p = SamplingDistribution.from_probs(np.r_[np.ones(200), 1e-300])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match="201 nodes x k=201 x 11885 grid points"):
                voting_power_exact(p, 201, 0, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    def test_readout_refuses_a_nan_bound(self):
        # a NaN bound is not within epsilon, though it is not above it either
        p = SamplingDistribution.from_probs([0.5, 0.5])
        k, s = exact._power_grid(p, 2, 1e-6)
        state = np.full((2, k + 1, s.size), np.nan)
        with pytest.raises(ResourceLimitError, match="bound nan .* exceeds epsilon"):
            exact._read_power(state, s, p, 0, 1e-6)


def _mp_subsets(mpmath, p, k):
    """The probabilities, and (|S|, p_S, S) for every subset S with |S| < k,
    in 50-digit arithmetic."""
    probs = [mpmath.mpf(float(x)) for x in p.probs]
    total = mpmath.fsum(probs)
    probs = [x / total for x in probs]
    return probs, [(size, mpmath.fsum([probs[j] for j in subset]), subset)
                   for size in range(k)
                   for subset in itertools.combinations(range(p.size), size)]


class TestPrecision:
    """N=14, k=6 against the same sums taken in 50-digit arithmetic."""

    N, K = 14, 6

    def _setup(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        p = SamplingDistribution.from_probs(1.0 / np.arange(1, self.N + 1))
        coef = [(-1) ** (self.K - 1 - s) * math.comb(self.N - s - 1, self.K - 1 - s)
                for s in range(self.K)]
        return (mpmath, p, coef) + _mp_subsets(mpmath, p, self.K)

    def test_voting_power_within_stated_bound(self):
        mpmath, p, coef, probs, subsets = self._setup()
        for i in (0, 1, 13):
            total = mpmath.mpf(0)
            for size, x, subset in subsets:
                big_l = -mpmath.log(1 - x) / x if x else mpmath.mpf(1)
                big_m = (big_l - 1) / x if x else mpmath.mpf(1) / 2
                total += coef[size] * (big_l - (big_m if i in subset else 0))
            value, bound = voting_power_exact(p, self.K, i, 1e-9)
            assert abs(value - float(total * probs[i])) <= bound <= 1e-9

    def test_v_law_cells(self):
        mpmath, p, coef, _, subsets = self._setup()
        d = cells(exact_v_distribution(p, self.K, 24))
        for v in (6, 7, 12, 24):
            ref = mpmath.fsum([coef[size] * x ** (v - 1) * (1 - x) for size, x, _ in subsets])
            assert abs(d[v] - float(ref)) <= 1e-13

    def test_joint_law_cells(self):
        # the signed sum the joint law was once taken from, with
        # G(v, ell) = sum_S c_S F_S, F_S = C(v, ell) p_i^ell (p_S - p_i)^(v-ell)
        # if i is in S, else [ell = 0] p_S^v:
        # P(ell, v) = (1 - p_i) G(v-1, ell) + p_i G(v-1, ell-1) - G(v, ell)
        mpmath, p, coef, probs, subsets = self._setup()
        keys = ((0, 6), (1, 6), (1, 7), (2, 9), (3, 12), (0, 24), (1, 24), (10, 24), (19, 24))
        for i in (0, 1, 13):
            p_i = probs[i]
            inside = [(coef[size], x - p_i) for size, x, subset in subsets if i in subset]
            outside = [(coef[size], x) for size, x, subset in subsets if i not in subset]

            def g(v, ell):
                if ell < 0:
                    return 0
                total = math.comb(v, ell) * p_i ** ell * mpmath.fsum(
                    [c * y ** (v - ell) for c, y in inside])
                return total + (mpmath.fsum([c * x ** v for c, x in outside]) if ell == 0 else 0)

            d = cells(exact_joint_distribution(p, self.K, i, 24))
            for ell, v in keys:
                ref = (1 - p_i) * g(v - 1, ell) + p_i * g(v - 1, ell - 1) - g(v, ell)
                assert abs(d[(ell, v)] - float(ref)) <= 1e-13


class TestLawArguments:
    def test_v_max_below_k_rejected(self):
        p = SamplingDistribution.from_probs([0.5, 0.3, 0.2])
        for law in (lambda: exact_v_distribution(p, 3, 2),
                    lambda: exact_joint_distribution(p, 3, 0, 2)):
            with pytest.raises(InvalidParameterError, match="v_max must be at least k"):
                law()

    @pytest.mark.parametrize("k", [0, -1])
    def test_distinct_count_law_needs_a_draw(self, k):
        p = SamplingDistribution.from_probs([0.5, 0.5])
        with pytest.raises(InvalidParameterError, match=f"k={k} must be >= 1"):
            exact_u_distribution(p, k)
