import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chisquare_gof_pvalue, chisquare_two_sample_pvalue, counts_of
from greedyvote import sampler
from greedyvote.errors import InvalidParameterError, SamplingError
from greedyvote.exact import exact_joint_distribution, exact_v_distribution
from greedyvote.sampler import AliasTable, RngStream, greedy_runs
from greedyvote.weights import (
    CONSTANT_ONE,
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
    TwoSearchAliasTable,
    coupled_greedy_sample,
    greedy_sample,
    lockstep_coupled_runs,
    remap,
)


def _post_split(p: SamplingDistribution, split: SplitSpec) -> SamplingDistribution:
    """The post-split law of identity-weighted probabilities p."""
    return sampling_distribution(apply_split(WeightDistribution(p.probs), split)[0])


class TestRngStream:
    def test_same_key_replays_bit_exactly(self):
        a = RngStream(123, 45).generator.random(64)
        b = RngStream(123, 45).generator.random(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator.random(16)
        b = RngStream(123, 1).generator.random(16)
        assert not np.array_equal(a, b)

    def test_child_derivation_is_stable_and_order_sensitive(self):
        root = RngStream(7, 0)
        assert root.child(3, 1).stream_id == root.child(3, 1).stream_id
        assert root.child(3, 1).stream_id != root.child(1, 3).stream_id

    def test_stream_plan_is_pinned(self):
        # the stream ids of every derivation a seed goes through; a change
        # that moves any of them must raise sampler.STREAM_LAYOUT
        root = sampler.as_stream(2021)
        assert (root.seed, root.stream_id) == (2021, 0)
        assert sampler.as_stream(root) is root

        def ids(derive, indices):
            streams = [derive(root, i) for i in indices]
            assert all(s.seed == 2021 for s in streams)
            return [s.stream_id for s in streams]

        assert ids(sampler.chunk_stream, (0, 1, 7)) == [
            12035550249420947055, 6791897765849424158, 13309476754707697221]
        assert sampler.retained_stream(root).stream_id == 9292436240248313401
        assert ids(sampler.sweep_stream, (0, 1, 2)) == [0, 1, 2]
        assert sampler.sweep_stream(RngStream(2021, 1), 1).stream_id == 2
        assert ids(sampler.round_stream, (1, 2, 5)) == [
            6791897765849424158, 7235116703822611636, 18074882946671919669]
        assert ids(sampler.threshold_stream, (2, 3, 5)) == [
            13837807164534281415, 3141021553179642400, 15979502722582840485]
        assert sampler.STREAM_LAYOUT == 3


class TestAliasDraw:
    def test_point_mass(self):
        table = AliasTable(np.array([1.0]))
        assert (table.draw(RngStream(0).generator, 32) == 0).all()

    def test_zero_probability_node_never_drawn(self):
        table = AliasTable(SamplingDistribution.from_probs([0.5, 0.0, 0.5]).probs)
        assert (table.draw(RngStream(9).generator, 2000) != 1).all()

    def test_fair_coin_frequency(self):
        # binomial 99.99% interval around 0.5 at a million draws
        table = AliasTable(np.array([0.5, 0.5]))
        n = 1_000_000
        ones = int(table.draw(RngStream(2024).generator, n).sum())
        freq_zero = 1.0 - ones / n
        assert 0.497 <= freq_zero <= 0.503

    def test_fixed_stream_reproduces_sequence(self):
        table = AliasTable(np.array([0.3, 0.7]))
        a = RngStream(5, 8).generator
        b = RngStream(5, 8).generator
        assert [table.draw(a, 1)[0] for _ in range(50)] == [table.draw(b, 1)[0]
                                                           for _ in range(50)]


def _ulps_from(x: float, u: int) -> float:
    """x moved u ulps up (u > 0) or down."""
    for _ in range(abs(u)):
        x = float(np.nextafter(x, np.inf if u > 0 else 0.0))
    return x


def _implied_law(table: AliasTable) -> np.ndarray:
    """Each node's draw probability under the table: its own column's cut
    point plus the remainder of every column that aliases it, over N."""
    n = table.size
    return (table.prob + np.bincount(table.alias, 1.0 - table.prob, minlength=n)) / n


# the alias build's inputs
_build_probs = st.one_of(
    st.one_of(
        st.lists(st.integers(0, 5), min_size=1, max_size=80),  # ties and zeros
        st.integers(1, 80).map(lambda n: [1] * n),  # all equal
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=80),
    ).filter(any).map(lambda stakes: SamplingDistribution.from_probs(stakes).probs),
    # raw masses within a few ulps of 1/N, each side: all lights, all
    # heavies or a mix, normalized or not
    st.lists(st.integers(-4, 4), min_size=1, max_size=80).map(
        lambda ulps: np.array([_ulps_from(1.0 / len(ulps), u) for u in ulps])),
)


class TestAliasBuild:
    @given(st.one_of(
        st.lists(st.integers(0, 5), min_size=1, max_size=60),  # stakes with ties
        st.integers(1, 60).map(lambda n: [1] * n),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=60),
    ).filter(any))
    @settings(max_examples=300, deadline=None)
    def test_table_reproduces_the_law(self, stakes):
        p = SamplingDistribution.from_probs(stakes).probs
        table = AliasTable(p)
        assert ((table.prob >= 0.0) & (table.prob <= 1.0)).all()
        assert np.abs(_implied_law(table) - p).max() <= 2e-15
        zero = p == 0.0
        assert (table.prob[zero] == 0.0).all()
        assert not zero[table.alias[table.prob < 1.0]].any()

    @given(_build_probs)
    @example(np.array([1.0]))  # one node
    @example(np.full(7, 1.0 / 7))  # no lights when N/N rounds to 1
    @example(np.full(5, np.nextafter(0.2, 0.0)))  # no heavies
    @example(np.full(6, np.nextafter(1.0 / 6, 1.0)))  # no lights
    @settings(max_examples=500, deadline=None)
    def test_alias_build_matches_two_search_build_bit_for_bit(self, probs):
        table, ref = AliasTable(probs), TwoSearchAliasTable(probs)
        assert table.prob.tobytes() == ref.prob.tobytes()
        assert table.alias.astype(np.int64).tobytes() == ref.alias.tobytes()  # int32 here

    @given(_build_probs, st.integers(1, 8))
    @example(np.array([1.0]), 1)
    @example(np.full(7, 1.0 / 7), 1)
    @example(np.full(5, np.nextafter(0.2, 0.0)), 2)
    @example(np.full(6, np.nextafter(1.0 / 6, 1.0)), 3)
    @settings(max_examples=500, deadline=None)
    def test_multi_pass_build_matches_two_search_build_bit_for_bit(self, probs, size):
        # a pass of 1-8 lights: small inputs run many passes, and a light's
        # cut heavies cross pass and slice bounds
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_ALIAS_PASS", size)
            table = AliasTable(probs)
        ref = TwoSearchAliasTable(probs)
        assert table.prob.tobytes() == ref.prob.tobytes()
        assert table.alias.astype(np.int64).tobytes() == ref.alias.tobytes()  # int32 here

    N = 1_000_000

    @classmethod
    def _zipf_probs(cls):
        w = zipf_weights(ZipfParams(0.8, cls.N))
        return sampling_distribution(w, WeightFunction.parse("power:0.5")).probs

    def _zipf_law_error(self):
        p = self._zipf_probs()
        return np.abs(_implied_law(AliasTable(p)) - p).max()

    def test_law_holds_at_a_million_nodes(self):
        assert self._zipf_law_error() <= 2e-15

    def test_uncompensated_prefix_sums_miss_the_law(self, monkeypatch):
        # the lo part is what keeps the cut points exact at this size: a
        # plain cumsum, carried from pass to pass, puts them about 1e-8 off
        def plain(x, carry=(0.0, 0.0)):
            return np.cumsum(np.concatenate(([carry[0]], x)))[1:], np.zeros(x.size)

        monkeypatch.setattr(sampler, "_prefix_sums", plain)
        assert self._zipf_law_error() > 2e-15

    def _traced_build_peak(self):
        """The traced peak of one build at a million nodes, the table included."""
        p = self._zipf_probs()
        tracemalloc.start()
        try:
            AliasTable(p)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_alias_build_memory_bound(self):
        # the build works in place: under 6.5 x 8N bytes
        assert self._traced_build_peak() <= 6.5 * 8 * self.N

    def test_alias_build_pass_memory_bound(self):
        # the build goes in passes over slices of nodes and makes the excess
        # as they reach it: beside the table (1.5 x 8N, int32 aliases) only
        # the class mask (N bytes) and the heavies' int32 list (0.14 x 8N
        # here) span the network; with one pass's temporaries, 1.98 x 8N
        assert self._traced_build_peak() <= 2.0 * 8 * self.N


def _setup_networks():
    """sweep-wide's six networks, gain-coupled's, and tied integer stakes."""
    f = WeightFunction.parse("power:0.5")
    for n in (10_000, 100_000, 1_000_000):
        w = zipf_weights(ZipfParams(0.8, n))
        yield f"zipf0.8-{n}", sampling_distribution(w, f)
        yield f"zipf0.8-{n}-split2", sampling_distribution(
            apply_split(w, SplitSpec.equal(0, 2))[0], f)
    yield "zipf1.1-1000", sampling_distribution(zipf_weights(ZipfParams(1.1, 1000)))
    yield "stakes", SamplingDistribution.from_probs([3, 0, 1, 3, 2, 0, 1, 1, 3, 0, 2, 5])


class TestSetupPins:
    # sha256 of the bytes of probs, AliasTable.prob and AliasTable.alias as
    # int64; the alias tables belong to stream layout 3, so a change that moves
    # one must raise sampler.STREAM_LAYOUT and update the pin
    PINS = {
        'zipf0.8-10000': (
            "3eeb0b1e3d9a43c1539197b2641d633c17598b41cdbf057969351353bbf072d9",
            "06a0204f785c129e0707c3e0ad0371a44eac81bcc2e6344725ab147f3f9487d1",
            "e74a7ba2a103789bff44331cafb7af88c4acdcba324552ac36f653d2fb19be72",
        ),
        'zipf0.8-10000-split2': (
            "995427df7fdb90620d866f339deb1d53671077fe6aae5a697e7e50206e4fc047",
            "22827ca7005735135cceafb05f7e6060291e2c157923747b56dcfa2cd168ed4e",
            "fe2812d65e8dac2a77c92881331b21058c6cc6a460e156af05a0563c67ae359d",
        ),
        'zipf0.8-100000': (
            "308d40e568744875175241b57e07599fbb3cb34c62bae0f965b23b849da21af4",
            "437c4aef40bd5ee15399c706bc51a918555e8f213d39fed7125b1f6ed6ab7e93",
            "633a816ed59b97de2a6f928e29277b30d915a2099d596cc9d95867fcb47d830a",
        ),
        'zipf0.8-100000-split2': (
            "bafc212782086eca6c0bad95fa364fe07b6503ced8c07e9e37ccb8fa704a2b01",
            "8efcccfdce27399d92704e56bec00c9938a8fcdf9215afc880d73fbff5e67730",
            "789552797ca8a659acc2eda3b463a89bd083c2691f734acbf6b37bafa8668a69",
        ),
        'zipf0.8-1000000': (
            "a1619f6276b0ebecec8cb3f8af7f69cbd04db0e93c7b73ead87c70627aa1e1e3",
            "8fa0fe820ef9450a668302f657c8da1ee4b5bde7638089ed0f8d13d272d10524",
            "532e060db86576b5595fb7a60c3a1401c57d9a9da0e5ea9359f360c8f46ea539",
        ),
        'zipf0.8-1000000-split2': (
            "2b829b0f833f8de8584c23da4129946671ea9d056d9e1f6fa59f0e1bf60b0fb2",
            "974aca4d4e8c7db7f7b48116100ace651f6a3c101aa8d8069cbf4ab1c16f24e6",
            "269738cec7d0ec4266c42cb4edd4e6107421b9c81aa1b1a3b7130d40b3c98049",
        ),
        'zipf1.1-1000': (
            "7132d1c97fb2e3fb8e029c49e8100232696896592103ad90e68e8f0f71498bf5",
            "75679a40cc57a0bf1d6c3f6a8cedf42bc8a8b4f2fc8847090920fa8771417850",
            "646f0f8f9e689bc3b6961b3351c62c02d7345a6069da9f9acc98e23d624f88a8",
        ),
        'stakes': (
            "15ab2cbe2dc29db1554ac7de6afe3adf3d0d60af4e5656e0f86aae4bf920d5b6",
            "9180cb28edf56a42d21b362b90b5f4cfd549bb0f63238e87dd0a89c4e7ab3576",
            "758dc0fb50a90844b1b6480f12dc4f9cb60e820c454cc8eae1674e8dc6f21fa7",
        ),
    }

    def test_setup_tables_are_pinned(self):
        assert sampler.STREAM_LAYOUT == 3
        got = {}
        for name, p in _setup_networks():
            table = AliasTable(p.probs)
            assert table.alias.dtype == np.int32  # pinned as int64, as first recorded
            got[name] = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                              for a in (p.probs, table.prob, table.alias.astype(np.int64)))
        assert got == self.PINS


class TestGreedySample:
    def test_k1_always_one_draw(self):
        p = SamplingDistribution.from_probs([0.2, 0.3, 0.5])
        rng = RngStream(1)
        for _ in range(200):
            s = greedy_sample(p, 1, rng)
            assert s.total_draws == 1 and s.distinct == 1
            s.validate()

    def test_geometric_mean_draw_count(self):
        # waiting time for the second distinct fair-coin value: mean 2 + 1
        p = SamplingDistribution.from_probs([0.5, 0.5])
        runs = greedy_runs(p, 2, RngStream(77), 1_000_000)
        assert runs.v.mean() == pytest.approx(3.0, abs=0.01)

    def test_draw_count_law_matches_exact_distribution(self):
        p = SamplingDistribution.from_probs([0.9, 0.1])
        d = exact_v_distribution(p, 2, 120)
        rng = RngStream(31337)
        observed = counts_of(
            greedy_sample(p, 2, rng).total_draws for _ in range(100_000)
        )
        pval = chisquare_gof_pvalue(observed, d.index, d.probs, 100_000, residual=d.residual)
        assert pval > 0.01

    def test_invariants_across_configurations(self):
        gen = np.random.Generator(np.random.Philox(key=[5, 5]))
        rng = RngStream(123)
        for _ in range(40):
            n = int(gen.integers(2, 9))
            raw = gen.random(n) + 0.05
            p = SamplingDistribution.from_probs(raw / raw.sum())
            k = int(gen.integers(1, n + 1))
            for _ in range(25):
                s = greedy_sample(p, k, rng)
                s.validate()
                assert sum(s.counts.values()) == s.total_draws
                assert len(s.counts) == k
                assert s.total_draws >= k

    def test_joint_law_matches_exact_distribution(self):
        # occurrences of one node jointly with the draw count, N=4 / k=3
        p = SamplingDistribution.from_probs([0.4, 0.3, 0.2, 0.1])
        node = 0
        law = exact_joint_distribution(p, 3, node, 24)
        rng = RngStream(90210)
        pairs = []
        for _ in range(100_000):
            s = greedy_sample(p, 3, rng)
            pairs.append((s.counts.get(node, 0), s.total_draws))
        pval = chisquare_gof_pvalue(counts_of(pairs), law.index, law.probs, 100_000,
                                    residual=law.residual)
        assert pval > 0.01

    def test_k_beyond_support_rejected(self):
        p = SamplingDistribution.from_probs([0.5, 0.5, 0.0])
        with pytest.raises(InvalidParameterError):
            greedy_sample(p, 3, RngStream(0))

    def test_determinism(self):
        p = SamplingDistribution.from_probs([0.6, 0.3, 0.1])
        a = RngStream(9, 4)
        b = RngStream(9, 4)
        for _ in range(100):
            sa = greedy_sample(p, 2, a)
            sb = greedy_sample(p, 2, b)
            assert sa.counts == sb.counts and sa.total_draws == sb.total_draws


class TestSplitProbs:
    def test_probability_space_split(self):
        p = SamplingDistribution.from_probs([0.6, 0.4])
        post = _post_split(p, SplitSpec(0, np.array([0.25, 0.75])))
        assert np.allclose(post.probs, [0.15, 0.45, 0.4], atol=1e-15)

    def test_non_identity_rejected(self):
        w = WeightDistribution.from_raw([0.6, 0.4])
        p = sampling_distribution(w, CONSTANT_ONE)
        with pytest.raises(InvalidParameterError, match="requires the identity weight function"):
            SplitSpec.equal(0, 2).check(p.probs, p.f)


class TestCoupledGreedySample:
    def test_degenerate_split_identical_runs(self):
        p = SamplingDistribution.from_probs([0.6, 0.4])
        split = SplitSpec(0, np.array([1.0]))
        rng = RngStream(42)
        for _ in range(300):
            cs = coupled_greedy_sample(p, split, 2, rng)
            cs.validate()
            assert cs.K == 0 and cs.L == 0
            assert cs.pre.counts == cs.post.counts
            assert cs.pre.total_draws == cs.post.total_draws

    def test_no_hit_before_termination_means_zero_extras(self):
        # runs in which the split node shows up at most as the final draw
        # must have no extra draws at all
        p = SamplingDistribution.from_probs([0.15, 0.45, 0.4])
        split = SplitSpec.equal(0, 3)
        rng = RngStream(99)
        seen_zero_hit_run = False
        for _ in range(2000):
            cs = coupled_greedy_sample(p, split, 2, rng)
            hits = cs.pre.counts.get(0, 0)
            if hits == 0 or (hits == 1 and cs.pre.last_node == 0):
                seen_zero_hit_run = True
                assert cs.K == 0 and cs.L == 0
        assert seen_zero_hit_run

    def test_post_never_outlasts_pre(self):
        p = SamplingDistribution.from_probs([0.5, 0.5])
        split = SplitSpec.equal(0, 2)
        rng = RngStream(7)
        for _ in range(100_000):
            cs = coupled_greedy_sample(p, split, 2, rng)
            assert cs.post.total_draws <= cs.pre.total_draws

    def test_invariants_across_configurations(self):
        gen = np.random.Generator(np.random.Philox(key=[8, 3]))
        rng = RngStream(1000)
        for _ in range(30):
            n = int(gen.integers(2, 8))
            raw = gen.random(n) + 0.05
            p = SamplingDistribution.from_probs(raw / raw.sum())
            node = int(gen.integers(0, n))
            r = int(gen.integers(1, 5))
            split = SplitSpec.equal(node, r)
            k = int(gen.integers(1, n + 1))
            for _ in range(40):
                cs = coupled_greedy_sample(p, split, k, rng)
                cs.validate()
                assert 0 <= cs.L <= cs.K
                assert cs.pre.total_draws == cs.post.total_draws + cs.K
                y_pre = cs.pre.counts.get(node, 0)
                y_post = sum(cs.post.counts.get(j, 0) for j in cs.split.parts)
                assert y_pre == y_post + cs.L

    def test_marginals_match_plain_greedy_sampling(self):
        # pre marginal against plain greedy sampling's exact draw-count law on
        # the original network, post marginal against it on the split network
        p = SamplingDistribution.from_probs([0.4, 0.35, 0.25])
        split = SplitSpec.equal(0, 2)
        n = 100_000
        rng = RngStream(2718)
        pre_v, post_v = [], []
        for _ in range(n):
            cs = coupled_greedy_sample(p, split, 2, rng)
            pre_v.append(cs.pre.total_draws)
            post_v.append(cs.post.total_draws)
        for law_of, sample in ((p, pre_v), (_post_split(p, split), post_v)):
            law = exact_v_distribution(law_of, 2, 80)
            assert chisquare_gof_pvalue(counts_of(sample), law.index, law.probs, n,
                                        residual=law.residual) > 0.01

    def test_non_identity_rejected(self):
        w = WeightDistribution.from_raw([0.6, 0.4])
        p = sampling_distribution(w, CONSTANT_ONE)
        with pytest.raises(InvalidParameterError, match="requires the identity weight function"):
            coupled_greedy_sample(p, SplitSpec.equal(0, 2), 2, RngStream(0))

    def test_k_beyond_pre_support_rejected(self):
        p = SamplingDistribution.from_probs([1.0])
        with pytest.raises(InvalidParameterError):
            coupled_greedy_sample(p, SplitSpec.equal(0, 2), 2, RngStream(0))

    def test_determinism(self):
        p = SamplingDistribution.from_probs([0.5, 0.3, 0.2])
        split = SplitSpec(1, np.array([0.7, 0.3]))
        a = RngStream(55, 1)
        b = RngStream(55, 1)
        for _ in range(50):
            ca = coupled_greedy_sample(p, split, 3, a)
            cb = coupled_greedy_sample(p, split, 3, b)
            assert ca.pre.counts == cb.pre.counts
            assert ca.post.counts == cb.post.counts
            assert (ca.K, ca.L) == (cb.K, cb.L)


def _first_reach(row, k: int) -> int:
    """Draw count at which the row first holds k distinct values, or 0."""
    seen = set()
    for c, d in enumerate(row):
        seen.add(d)
        if len(seen) == k:
            return c + 1
    return 0


@st.composite
def _stop_point_cases(draw):
    """(draws, k, n): rows of nodes below n, each -1 from a random column on
    (or never), and k from 1 to the width; n picks the key width."""
    width = draw(st.integers(1, 12))
    rows = draw(st.integers(0, 6))
    m = draw(st.integers(1, 6))  # node ids in use: n - m .. n - 1
    n = draw(st.sampled_from([m, (2**31 - 1) // width - 1, 2**31]))  # int32 edge, int64
    cells = st.lists(st.integers(n - m, n - 1), min_size=width, max_size=width)
    draws = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)),
                     dtype=np.int64).reshape(rows, width)
    for row in draws:
        row[draw(st.integers(0, width)):] = -1
    return draws, draw(st.integers(1, width)), n


class TestStopPoints:
    @given(_stop_point_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_a_set_walk(self, case):
        draws, k, n = case
        got = sampler._kth_stop(sampler._first_columns(draws, n), k)
        assert got.shape == (draws.shape[0],)
        assert got.tolist() == [_first_reach(row.tolist(), k) for row in draws]

    def test_kernel_blocks_match_a_set_walk(self):
        p = sampling_distribution(zipf_weights(ZipfParams(1.1, 1000)))
        draws = AliasTable(p.probs).draw(np.random.default_rng(8), (512, 40))
        draws[::3, 30:] = -1
        got = sampler._kth_stop(sampler._first_columns(draws, p.size), 20)
        assert got.tolist() == [_first_reach(row.tolist(), 20) for row in draws]
        assert 0 < np.count_nonzero(got) < got.size


@st.composite
def _post_split_cases(draw):
    """(draws, k, split, seed): rows of nodes below m, k from 1 to the width
    and an r-way split of one of the m nodes, r from 1 to 4."""
    width = draw(st.integers(1, 12))
    rows = draw(st.integers(0, 6))
    m = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, m - 1), min_size=width, max_size=width)
    draws = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)),
                     dtype=np.int64).reshape(rows, width)
    shares = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4)))
    split = SplitSpec(draw(st.integers(0, m - 1)), shares / shares.sum())
    return draws, draw(st.integers(1, width)), split, draw(st.integers(0, 2**32 - 1))


class TestPostSplit:
    @given(_post_split_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_built_post_split_rows(self, case):
        # the reference builds each finished row's post-split image the dense
        # way: the in-run row remapped with one uniform per split-node draw,
        # -1 past the run, then walked for its k-th distinct node
        draws, k, split, seed = case
        v = np.array([_first_reach(row.tolist(), k) for row in draws], dtype=np.int64)
        draws, v = draws[v > 0], v[v > 0]  # finished rows, as the kernel records them
        in_run = np.arange(draws.shape[1]) < v[:, None]
        hits = in_run & (draws == split.node)
        first = sampler._first_columns(draws, 6)  # node ids are below 6
        got, hr, hc = sampler._post_split(in_run, draws, first, k, split,
                                          np.random.default_rng(seed))
        u = np.random.default_rng(seed).random(int(hits.sum()))
        post = remap(split, np.where(in_run, draws, -1), u)
        assert got.tolist() == [_first_reach(row.tolist(), k) for row in post]
        assert (hr.tolist(), hc.tolist()) == tuple(a.tolist() for a in np.nonzero(hits))


class TestBlockWidth:
    @given(st.lists(st.one_of(st.integers(1, 60), st.integers(1, 10**9)),
                    min_size=1, max_size=700))
    @settings(max_examples=500, deadline=None)
    def test_matches_numpy_quantile(self, values):
        v = np.array(values, dtype=np.int64)
        assert sampler._p90(v) == int(np.quantile(v, 0.9))


def _digests(runs) -> dict:
    """Sum and sha256 of the int64 bytes of each coupled output array."""
    out = {}
    for name in ("v", "v_post", "y", "y_post", "K", "L"):
        a = getattr(runs, name).astype(np.int64)
        out[name] = (int(a.sum()), hashlib.sha256(a.tobytes()).hexdigest())
    return out


class TestGreedyRuns:
    """The block kernel, checked against exact laws and the scalar samplers."""

    def test_coupling_invariants_on_a_million_runs(self):
        # the five configurations of acceptance criterion 4, 200k runs each
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
        for idx, (p, split, k) in enumerate(configs):
            runs = greedy_runs(p, k, RngStream(405, idx), 200_000,
                               track=split.node, split=split)
            assert np.array_equal(runs.v, runs.v_post + runs.K)
            assert np.array_equal(runs.y, runs.y_post + runs.L)
            assert ((runs.L >= 0) & (runs.L <= runs.K)).all()
            assert (runs.v_post >= k).all()

    @pytest.mark.parametrize("broken, message", [
        # every post-split run one draw past its pre-split run
        (lambda v_post, hr, hc: (v_post + 10**6, hr, hc), "outlasted its pre-split run"),
        # every split-node draw counted after the post-split stop, so L counts
        # them all while K is 0 wherever both runs stop together
        (lambda v_post, hr, hc: (v_post, hr, hc + 10**6), r"broke 0 <= L <= K"),
    ], ids=["v_post", "L"])
    def test_broken_coupling_is_refused(self, broken, message, monkeypatch):
        post_split = sampler._post_split
        monkeypatch.setattr(sampler, "_post_split",
                            lambda *args: broken(*post_split(*args)))
        p = SamplingDistribution.from_probs([0.6, 0.4])
        with pytest.raises(SamplingError, match=message):
            greedy_runs(p, 2, RngStream(8), 1000, split=SplitSpec.equal(0, 2))

    def test_negative_run_count_rejected(self):
        p = SamplingDistribution.from_probs([0.6, 0.4])
        with pytest.raises(InvalidParameterError, match="n_runs must be >= 0"):
            greedy_runs(p, 2, RngStream(8), -1)

    def test_draw_count_law_matches_exact_distribution(self):
        p = SamplingDistribution.from_probs([0.9, 0.1])
        d = exact_v_distribution(p, 2, 120)
        runs = greedy_runs(p, 2, RngStream(31338), 100_000)
        pval = chisquare_gof_pvalue(counts_of(runs.v.tolist()), d.index, d.probs, 100_000,
                                    residual=d.residual)
        assert pval > 0.01

    def test_draw_count_law_at_the_paper_scale(self):
        # Zipf 1.1, N=1000, k=20: the exact pass against 100 000 kernel runs
        p = sampling_distribution(zipf_weights(ZipfParams(1.1, 1000)))
        d = exact_v_distribution(p, 20, 80)
        runs = greedy_runs(p, 20, RngStream(31339), 100_000)
        pval = chisquare_gof_pvalue(counts_of(runs.v.tolist()), d.index, d.probs, 100_000,
                                    residual=d.residual)
        assert pval > 0.01

    def test_joint_law_matches_exact_distribution(self):
        p = SamplingDistribution.from_probs([0.4, 0.3, 0.2, 0.1])
        law = exact_joint_distribution(p, 3, 0, 24)
        runs = greedy_runs(p, 3, RngStream(90211), 100_000, track=0)
        pairs = zip(runs.y.tolist(), runs.v.tolist())
        pval = chisquare_gof_pvalue(counts_of(pairs), law.index, law.probs, 100_000,
                                    residual=law.residual)
        assert pval > 0.01

    def test_coupled_runs_follow_the_exact_laws(self):
        # each side of a coupled pair is a plain greedy run: the pre-split run
        # on the original network jointly in (split-node hits, draws), the
        # post-split run on the split network in its draw count
        p = SamplingDistribution.from_probs([0.4, 0.35, 0.25])
        split = SplitSpec(0, np.array([0.3, 0.7]))
        runs = greedy_runs(p, 3, RngStream(4242), 100_000, track=0, split=split)
        joint = exact_joint_distribution(p, 3, 0, 24)
        pairs = zip(runs.y.tolist(), runs.v.tolist())
        assert chisquare_gof_pvalue(counts_of(pairs), joint.index, joint.probs, 100_000,
                                    residual=joint.residual) > 0.01
        post_law = exact_v_distribution(_post_split(p, split), 3, 24)
        assert chisquare_gof_pvalue(counts_of(runs.v_post.tolist()), post_law.index,
                                    post_law.probs, 100_000, residual=post_law.residual) > 0.01

    def test_matches_scalar_coupled_reference(self):
        # two-sample test of the kernel's (K, L) and draw-count laws against
        # the one-run-at-a-time coupled sampler
        p = SamplingDistribution.from_probs([0.4, 0.35, 0.25])
        split = SplitSpec.equal(0, 2)
        n = 50_000
        runs = greedy_runs(p, 3, RngStream(606), n, track=0, split=split)
        rng = RngStream(607)
        ref = [coupled_greedy_sample(p, split, 3, rng) for _ in range(n)]
        kernel_kl = counts_of(zip(runs.K.tolist(), runs.L.tolist()))
        scalar_kl = counts_of((cs.K, cs.L) for cs in ref)
        assert chisquare_two_sample_pvalue(kernel_kl, scalar_kl) > 0.01
        kernel_v = counts_of(zip(runs.v_post.tolist(), runs.v.tolist()))
        scalar_v = counts_of((cs.post.total_draws, cs.pre.total_draws) for cs in ref)
        assert chisquare_two_sample_pvalue(kernel_v, scalar_v) > 0.01

    def test_matches_lockstep_coupled_reference(self):
        # the same two-sample test against the lockstep runs of acceptance
        # criterion 4, on a network where the split node is one of many
        p = sampling_distribution(zipf_weights(ZipfParams(2.0, 50)))
        split = SplitSpec.equal(2, 4)
        n = 100_000
        runs = greedy_runs(p, 10, RngStream(608), n, track=2, split=split)
        ref = lockstep_coupled_runs(p, split, 10, RngStream(609), n)
        for kernel, lockstep in (((runs.K, runs.L), (ref.K, ref.L)),
                                 ((runs.y_post, runs.y), (ref.y_post, ref.y_pre))):
            assert chisquare_two_sample_pvalue(counts_of(zip(*(a.tolist() for a in kernel))),
                                               counts_of(zip(*(a.tolist() for a in lockstep)))
                                               ) > 0.01
        for kernel, lockstep in ((runs.v_post, ref.v_post), (runs.v, ref.v_pre)):
            se = (kernel.var() / n + lockstep.var() / n) ** 0.5
            assert abs(kernel.mean() - lockstep.mean()) <= 4 * se

    def test_short_rows_are_extended_not_redrawn(self):
        # a uniform coupon collector over 30 nodes needs 30 * H_30 ~ 120 draws
        # on average, far past the first block width, so nearly every row is
        # extended; redrawing short rows would drag the mean far below
        p = SamplingDistribution.from_probs([1.0 / 30] * 30)
        runs = greedy_runs(p, 30, RngStream(3030), 20_000)
        expected = 30 * sum(1.0 / j for j in range(1, 31))
        se = runs.v.std(ddof=1) / np.sqrt(runs.v.size)
        assert abs(runs.v.mean() - expected) <= 4 * se

    def test_cell_budget_splits_blocks_without_changing_the_law(self, monkeypatch):
        # a 200-draw budget forces blocks of a few rows and extension in
        # groups of one row; the coupon-collector mean and the coupling
        # identities must survive it
        monkeypatch.setattr(sampler, "BLOCK_CELLS", 200)
        p = SamplingDistribution.from_probs([1.0 / 30] * 30)
        runs = greedy_runs(p, 30, RngStream(3031), 4_000)
        expected = 30 * sum(1.0 / j for j in range(1, 31))
        se = runs.v.std(ddof=1) / np.sqrt(runs.v.size)
        assert abs(runs.v.mean() - expected) <= 4 * se
        q = sampling_distribution(zipf_weights(ZipfParams(2.0, 50)))
        split = SplitSpec.equal(2, 4)
        runs = greedy_runs(q, 10, RngStream(3032), 4_000, track=2, split=split)
        assert np.array_equal(runs.v, runs.v_post + runs.K)
        assert np.array_equal(runs.y, runs.y_post + runs.L)
        assert (runs.v_post >= 10).all()

    def test_totals_sum_values_over_each_run(self):
        p = SamplingDistribution.from_probs([0.5, 0.3, 0.2])
        indicator = np.array([0.0, 1.0, 0.0])
        runs = greedy_runs(p, 2, RngStream(11), 3_000, track=1,
                           totals=(np.ones(3), indicator))
        assert np.array_equal(runs.totals[0], runs.v)
        assert np.array_equal(runs.totals[1], runs.y)

    def test_stream_layout_is_pinned(self):
        # these runs belong to stream layout 3 (unchanged since layout 2: the
        # law has no ties); a change that moves them must raise
        # sampler.STREAM_LAYOUT and update the pin
        p = SamplingDistribution.from_probs([0.6, 0.25, 0.15])
        runs = greedy_runs(p, 3, RngStream(2021), 10, track=0,
                           split=SplitSpec(0, np.array([0.4, 0.6])))
        assert sampler.STREAM_LAYOUT == 3
        assert runs.v.tolist() == [40, 5, 16, 6, 4, 11, 6, 9, 5, 3]
        assert runs.v_post.tolist() == [11, 4, 4, 4, 4, 3, 4, 3, 4, 3]
        assert runs.y.tolist() == [22, 3, 9, 4, 2, 6, 4, 7, 3, 1]
        assert runs.L.tolist() == [18, 0, 7, 1, 0, 4, 1, 5, 0, 0]

    # sums and sha256 of the int64 bytes of v, v_post, y, y_post, K and L:
    # 3000 coupled runs, Zipf(1.1, N=1000), k=20, node 1 split 0.5/0.5
    MULTI_BLOCK_PINS = {
        None: {  # six blocks, each extending its short rows once
            "v": (84190, "f2c5e5a57dbdbf68896236b720a4ac3c39bf8e36714a3db88da0e237f0541957"),
            "v_post": (81704, "152c4846889a65163b55a33578fcaf85cc6192336897f61bbac2f1197a34b323"),
            "y": (7017, "8d5925c866852c0eda09e545eb1040fc10a4e535a2e2e6606b8bbb019fd4f8d6"),
            "y_post": (6806, "9dd101a4c9edc8bffb1f4a2c10255f204307505e50f21e4bf58652ac2ad4a26e"),
            "K": (2486, "2cac6d2757721119100f7b015c8b8235c56d12b583fb18642ba421e8a949115a"),
            "L": (211, "418f2b8297588d89b5b4126e5d8bb4dd0b723dfd3906d6f3bcc24be413887065"),
        },
        100: {  # two-row blocks whose short rows go on in groups of one
            "v": (84185, "94d34d02a6ebc357d01e9855ce26c580a092d65ceb7ca68b6b3fd182f23635eb"),
            "v_post": (81763, "1467c801b6a669d34c0c3b26ed4d2f68b50afdb6b0fe8783e58311775441a131"),
            "y": (7059, "5f170b85dd5cd70e475ccdc53bc149c271b9a375030227e54b38e24b97f3ec83"),
            "y_post": (6884, "490fb10d9ffdfec7aa8705c8bdf0ee0a1cbb4e710d30ffdedf7ae993bc908d84"),
            "K": (2422, "537e292a492765fa62d48a169e4a49940c7e8ec0825e38ac0c96dec2331f7877"),
            "L": (175, "8de97c5342951d46dc9b1e17bfefaeebff5ff90d48be3e363684ef865322b1d8"),
        },
    }

    @pytest.mark.parametrize("cells", [None, 100])
    def test_multi_block_stream_layout_is_pinned(self, cells, monkeypatch):
        # layout 3 across blocks, row extensions and (with a small cell
        # budget) groups of extended rows; a change that moves these must
        # raise sampler.STREAM_LAYOUT and update the pins
        if cells is not None:
            monkeypatch.setattr(sampler, "BLOCK_CELLS", cells)
        p = sampling_distribution(zipf_weights(ZipfParams(1.1, 1000)))
        runs = greedy_runs(p, 20, RngStream(2026), 3000, track=1,
                           split=SplitSpec(1, np.array([0.5, 0.5])))
        assert _digests(runs) == self.MULTI_BLOCK_PINS[cells]

    # as above for 3000 coupled runs of Zipf(2.0, N=50), k=10, node 2 split
    # 0.2/0.3/0.5, tracking node 0: y counts node 0, y_post the three parts
    THREE_WAY_PINS = {
        None: {
            "v": (193845, "ecde4c45123a5f26d9950fe427970583ef5e14470a2b453d8f0aa0ab48fae7a1"),
            "v_post": (153089, "9f420e1e46d34cd4beac49d24e4dcf9c0fa9686a154d16ac1994957c3ffc0d9f"),
            "y": (119156, "781891d61bc2d6aad0a2a4db3eeb9d679b2c5a87f24653e60d6a45411e1f8226"),
            "y_post": (10539, "5a013336bed37e89e0ab920ce7602440434f2d0904b0680eb8b4db70d2fc25fc"),
            "K": (40756, "32e66e03127b8a49d68599751dc3f994bcef7cd5242bb41a417a042fac17c0bb"),
            "L": (2790, "56ee4ed3e89cfded1aeb43c43a95aa7dff5fbc1ff1d3196373c3e9114ba23700"),
        },
        100: {
            "v": (193053, "e700e21c07ce6ddaa3ae95e9f437b5776660776265f5c21f9cbcffc482c0ffb7"),
            "v_post": (154849, "a893ad3a10643ac7e802124ca3e8bdbf645b68cbd41509098c48d12bd31fcb7b"),
            "y": (118726, "343ebf04cf4bf2b79b3031c921bd8b6721e4d958407c77e3daa9ff21b2a8bd4a"),
            "y_post": (10511, "bee9addd632e3f50562356d9010727301c7d6f8f431d4cae71d13398040a8664"),
            "K": (38204, "023b2a0f3190b21d830271096f9fd21929fa65f93049bfe0205b7f52252947a5"),
            "L": (2754, "a8e90e2a5f76e204de5c9ebc1699a1993b7a0779e5fb3f19d78f2df791c6d805"),
        },
    }

    @pytest.mark.parametrize("cells", [None, 100])
    def test_three_way_stream_layout_is_pinned(self, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(sampler, "BLOCK_CELLS", cells)
        p = sampling_distribution(zipf_weights(ZipfParams(2.0, 50)))
        runs = greedy_runs(p, 10, RngStream(2027), 3000, track=0,
                           split=SplitSpec(2, np.array([0.2, 0.3, 0.5])))
        assert _digests(runs) == self.THREE_WAY_PINS[cells]

    def test_determinism(self):
        p = SamplingDistribution.from_probs([0.5, 0.3, 0.2])
        split = SplitSpec(1, np.array([0.7, 0.3]))
        a = greedy_runs(p, 3, RngStream(55, 2), 2_000, track=1, split=split)
        b = greedy_runs(p, 3, RngStream(55, 2), 2_000, track=1, split=split)
        for name in ("v", "y", "v_post", "y_post", "K", "L"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_invalid_arguments_rejected(self):
        p = SamplingDistribution.from_probs([0.5, 0.5, 0.0])
        with pytest.raises(InvalidParameterError):
            greedy_runs(p, 3, RngStream(0), 10)
        with pytest.raises(InvalidParameterError):
            greedy_runs(p, 2, RngStream(0), 10, split=SplitSpec.equal(2, 2))
        w = WeightDistribution.from_raw([0.6, 0.4])
        q = sampling_distribution(w, CONSTANT_ONE)
        with pytest.raises(InvalidParameterError, match="requires the identity weight function"):
            greedy_runs(q, 2, RngStream(0), 10, split=SplitSpec.equal(0, 2))

    @pytest.mark.parametrize("kwargs, message", [
        ({"track": 7}, "tracked node 7 out of range for 3 nodes"),
        ({"track": -1}, "tracked node -1 out of range for 3 nodes"),
        ({"track": range(2, 4)}, "tracked node 3 out of range for 3 nodes"),
        ({"track": range(-1, 2)}, "tracked node -1 out of range for 3 nodes"),
        ({"totals": [np.ones(2)]}, r"one value per node \(3\)"),
        ({"totals": [np.ones(3), np.ones(9)]}, r"one value per node \(3\)"),
        ({"totals": [np.ones((1, 3))]}, r"one value per node \(3\)"),
    ], ids=["track-past", "track-negative", "range-past", "range-negative",
            "totals-short", "totals-long", "totals-2d"])
    def test_track_and_totals_outside_the_network_refused_before_any_draw(
            self, kwargs, message, monkeypatch):
        p = SamplingDistribution.from_probs([0.5, 0.3, 0.2])
        runs = greedy_runs(p, 2, RngStream(0), 10, track=range(0, 3), totals=[np.ones(3)])
        assert np.array_equal(runs.y, runs.v) and np.array_equal(runs.totals[0], runs.v)

        def unreachable(*args, **kwargs):
            raise AssertionError("drew for a refused request")

        monkeypatch.setattr(AliasTable, "draw", unreachable)
        with pytest.raises(InvalidParameterError, match=message):
            greedy_runs(p, 2, RngStream(0), 10, **kwargs)
