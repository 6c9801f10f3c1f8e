import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyvote.errors import InvalidParameterError
from greedyvote.weights import (
    CONSTANT_ONE,
    IDENTITY,
    SamplingDistribution,
    SplitSpec,
    WeightDistribution,
    WeightFunction,
    ZipfParams,
    apply_split,
    load_weights_csv,
    power,
    sampling_distribution,
    zipf_weights,
    _fsum,
)
from reference import remap

# finite floats of both signs with decimal exponents from -300 to +300, plus
# subnormals and signed zeros; 80 of them cannot overflow a sum
_finite = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
    st.floats(-1e-306, 1e-306),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)


class TestFsum:
    @given(st.one_of(
        st.lists(_finite, max_size=80).map(np.array),
        st.lists(_finite, max_size=80).map(lambda v: np.array(v)[::2]),  # non-contiguous
        st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), max_size=80)
        .map(lambda v: np.array(v, dtype=np.float32)),
    ))
    @settings(max_examples=500, deadline=None)
    def test_fsum_matches_list_fsum_bit_for_bit(self, x):
        # the sign of a zero sum included
        assert np.float64(_fsum(x)).tobytes() == np.float64(math.fsum(x.tolist())).tobytes()


class TestZipfWeights:
    def test_s_zero_is_uniform(self):
        w = zipf_weights(ZipfParams(s=0.0, n=4))
        assert np.allclose(w.weights, [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_two_term_harmonic(self):
        w = zipf_weights(ZipfParams(s=1.0, n=2))
        assert w.weights[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert w.weights[1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_large_network_normalized_and_monotone(self):
        w = zipf_weights(ZipfParams(s=1.1, n=10_000))
        assert math.fsum(w.weights.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(w.weights) <= 0).all()

    def test_zero_nodes_rejected(self):
        with pytest.raises(InvalidParameterError):
            ZipfParams(s=1.0, n=0)

    @given(s=st.floats(0.0, 3.0), n=st.integers(1, 2000))
    @settings(max_examples=30, deadline=None)
    def test_zipf_always_sorted_and_normalized(self, s, n):
        w = zipf_weights(ZipfParams(s=s, n=n))
        assert (np.diff(w.weights) <= 1e-18).all()
        assert abs(math.fsum(w.weights.tolist()) - 1.0) <= 1e-12


class TestWeightDistribution:
    def test_normalization_from_raw(self):
        w = WeightDistribution.from_raw([3, 1])
        assert np.allclose(w.weights, [0.75, 0.25])

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            WeightDistribution.from_raw([0.5, -0.1])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            WeightDistribution.from_raw([])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [WeightDistribution.from_raw,
                                       SamplingDistribution.from_probs])
    @pytest.mark.parametrize("values", [
        np.full((2, 2), 0.25), np.array(0.5), [], [np.inf, -np.inf], [np.inf, 1.0],
        [0.5, np.nan], [0.5, -0.1],
    ], ids=["2-d", "0-d", "empty", "inf-inf", "inf", "nan", "negative"])
    def test_constructors_refuse_before_summing(self, build, values):
        with pytest.raises(InvalidParameterError):
            build(values)

    def test_rejects_unnormalized_direct_construction(self):
        with pytest.raises(InvalidParameterError):
            WeightDistribution(np.array([0.5, 0.6]))

    @given(st.lists(st.floats(1e-9, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_from_raw_invariants(self, raw):
        w = WeightDistribution.from_raw(raw)
        assert abs(math.fsum(w.weights.tolist()) - 1.0) <= 1e-12
        assert float(w.weights.min()) >= 0.0


class TestSamplingDistribution:
    def test_identity_is_identity_on_normalized_weights(self):
        w = WeightDistribution.from_raw([0.5, 0.3, 0.2])
        p = sampling_distribution(w, IDENTITY)
        assert np.allclose(p.probs, w.weights, atol=1e-15)
        assert p.source_f == "identity"

    def test_constant_one_erases_weights(self):
        w = WeightDistribution.from_raw([0.9, 0.1])
        p = sampling_distribution(w, CONSTANT_ONE)
        assert np.allclose(p.probs, [0.5, 0.5], atol=1e-15)

    def test_power_two_preserves_symmetry(self):
        w = WeightDistribution.from_raw([0.5, 0.5])
        p = sampling_distribution(w, power(2.0))
        assert np.allclose(p.probs, [0.5, 0.5], atol=1e-15)
        assert p.source_f == "power(2)"

    def test_zero_image_rejected(self):
        # no member of the closed family maps a valid distribution to an
        # all-zero image, so exercise the guard with a stub
        class ZeroFn:
            name = "zero"

            @staticmethod
            def apply(m):
                return np.zeros_like(m)

        w = WeightDistribution.from_raw([1.0, 1.0])
        with pytest.raises(InvalidParameterError):
            sampling_distribution(w, ZeroFn())

    def test_support_matches_positive_image(self):
        w = WeightDistribution.from_raw([1.0, 0.0, 3.0])
        p = sampling_distribution(w, IDENTITY)
        assert (p.probs > 0).tolist() == [True, False, True]
        assert p.support_size == 2

    def test_parse_round_trip(self):
        assert WeightFunction.parse("identity") is IDENTITY
        assert WeightFunction.parse("one") is CONSTANT_ONE
        assert WeightFunction.parse("power:2.5").alpha == 2.5
        with pytest.raises(InvalidParameterError):
            WeightFunction.parse("cubic")


class TestApplySplit:
    def test_simple_split(self):
        w = WeightDistribution.from_raw([0.6, 0.4])
        split = SplitSpec(0, np.array([0.5, 0.5]))
        out, parts = apply_split(w, split)
        assert np.allclose(out.weights, [0.3, 0.3, 0.4], atol=1e-15)
        assert parts == range(0, 2)
        assert remap(split, np.array([1]), ()).tolist() == [2]

    def test_degenerate_split_is_identity(self):
        w = WeightDistribution.from_raw([0.7, 0.3])
        split = SplitSpec(1, np.array([1.0]))
        out, parts = apply_split(w, split)
        assert np.array_equal(out.weights, w.weights)
        assert parts == range(1, 2)
        assert remap(split, np.array([0]), ()).tolist() == [0]

    def test_equal_parts(self):
        w = WeightDistribution.from_raw([0.82, 0.18])
        for r in (2, 3, 5):
            out, parts = apply_split(w, SplitSpec.equal(0, r))
            assert np.allclose(out.weights[parts], 0.82 / r, atol=1e-15)

    def test_zero_weight_node_rejected(self):
        w = WeightDistribution(np.array([1.0, 0.0]))
        with pytest.raises(InvalidParameterError):
            apply_split(w, SplitSpec(1, np.array([0.5, 0.5])))

    @given(
        raw=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=20),
        node=st.integers(0, 19),
        r=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_preserves_mass_and_marginal(self, raw, node, r):
        w = WeightDistribution.from_raw(raw)
        node = node % w.size
        split = SplitSpec.equal(node, r)
        out, parts = apply_split(w, split)
        assert out.size == w.size + r - 1
        assert abs(math.fsum(out.weights.tolist()) - 1.0) <= 1e-12
        # under identity f the parts' probabilities add back to the original
        p = sampling_distribution(w, IDENTITY)
        p_hat = sampling_distribution(out, IDENTITY)
        recombined = math.fsum(p_hat.probs[parts].tolist())
        assert recombined == pytest.approx(float(p.probs[node]), abs=1e-12)

    def test_fractions_must_be_positive_and_normalized(self):
        with pytest.raises(InvalidParameterError):
            SplitSpec(0, np.array([0.5, 0.4]))
        with pytest.raises(InvalidParameterError):
            SplitSpec(0, np.array([1.5, -0.5]))


class TestSplitSpec:
    def test_check_refuses_node_out_of_range_or_without_mass(self):
        masses = np.array([0.5, 0.0, 0.5])
        assert SplitSpec.equal(2, 2).check(masses) == 0.5
        for node in (1, 3):
            with pytest.raises(InvalidParameterError, match=f"node {node}"):
                SplitSpec.equal(node, 2).check(masses)

    def test_largest_uniform_selects_last_part(self):
        # ten fractions of 0.1 accumulate to 1 - 2**-53, short of the top uniform
        split = SplitSpec(3, np.full(10, 0.1))
        assert remap(split, np.array([3]), [np.nextafter(1.0, 0.0)]).tolist() == [12]

    @given(
        raw=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 10.0)), min_size=2, max_size=8)
        .filter(any),
        pick=st.integers(0, 7),
        fractions=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_remap_is_the_split_mapping(self, raw, pick, fractions):
        w = WeightDistribution.from_raw(raw)
        positive = np.flatnonzero(w.weights)
        node = int(positive[pick % positive.size])
        x = np.asarray(fractions)
        split = SplitSpec(node, x / math.fsum(x.tolist()))
        p = sampling_distribution(w)
        p_hat = sampling_distribution(apply_split(w, split)[0])
        # every other node keeps its probability at its new index
        others = np.array([u for u in range(w.size) if u != node])
        moved = remap(split, others, ())
        assert np.allclose(p_hat.probs[moved], p.probs[others], rtol=1e-12, atol=0.0)
        # the parts carry the split node's mass
        total = math.fsum(p_hat.probs[split.parts].tolist())
        assert total == pytest.approx(float(p.probs[node]), abs=1e-12)
        # uniforms in [cum[j-1], cum[j]) select part node + j, edges included;
        # the last part runs up to 1
        edges = np.concatenate([[0.0], split.cum[:-1], [1.0]])
        for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            u = [lo, (lo + hi) / 2, np.nextafter(hi, 0.0)]
            assert remap(split, np.full(3, node), u).tolist() == [node + j] * 3


class TestCsvLoading:
    def test_load_and_normalize(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("weight\n3\n1\n")
        w = load_weights_csv(path)
        assert np.allclose(w.weights, [0.75, 0.25])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("stake\n3\n1\n")
        with pytest.raises(InvalidParameterError):
            load_weights_csv(path)
