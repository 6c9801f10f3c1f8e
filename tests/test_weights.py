import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyvote import weights
from greedyvote.errors import InvalidParameterError
from greedyvote.exact import exact_v_distribution
from greedyvote.fairness import estimate_voting_power, sweep_values
from greedyvote.fpc import FpcConfig, majority_initial_opinions
from greedyvote.sampler import RngStream, greedy_runs
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
    _check_k,
    _check_node,
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


# finite values below the extraction's limit of 2**1000 / 200, of both signs,
# with subnormals and signed zeros
_extractable = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-320, 290)),
    st.floats(-1e-306, 1e-306),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)
# values that send a vector to math.fsum: above that limit, up to the largest
# float64, and the non-finite ones
_wild = st.one_of(
    st.builds(lambda m, e: m * 2.0 ** e, st.floats(-1.0, 1.0), st.integers(990, 1023)),
    st.sampled_from([math.inf, -math.inf, math.nan, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
)


def _assert_list_fsum_bits(x):
    """_fsum(x) has the bits of math.fsum over a list of x, or raises as it does."""
    try:
        want = math.fsum(x.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _fsum(x)
    else:
        assert np.float64(_fsum(x)).tobytes() == np.float64(want).tobytes()


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

    @given(st.one_of(
        st.lists(_extractable, max_size=200),
        st.lists(st.one_of(_extractable, _extractable, _extractable, _wild), max_size=200),
        st.lists(st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.0, -0.0]), max_size=200),  # zero sums
        st.lists(st.floats(-2.0, -1.0), max_size=200),  # one sign and size: the largest sums
    ).map(np.array))
    @settings(max_examples=500, deadline=None)
    def test_extraction_matches_list_fsum_bit_for_bit(self, x):
        # extraction from 4 values on, in slices of 16: many slices and rounds
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "_FSUM_MIN", 4)
            mp.setattr(weights, "_FSUM_SLICE", 16)
            _assert_list_fsum_bits(x)

    def test_sweep_wide_sums_match_list_fsum_bit_for_bit(self):
        # the raw Zipf 0.8 stakes at N = 10^6 and the power:0.5 image of their
        # weights, which sweep-wide normalizes
        raw = np.arange(1, 1_000_001, dtype=float) ** -0.8
        image = WeightFunction.parse("power:0.5").apply(WeightDistribution.from_raw(raw).weights)
        for x in (raw, image, -image[::-1]):
            assert x.size >= 8 * weights._FSUM_SLICE
            _assert_list_fsum_bits(x)


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

    @pytest.mark.parametrize("s", [-0.5, float("nan"), float("inf")])
    def test_bad_exponent_rejected(self, s):
        with pytest.raises(InvalidParameterError, match="Zipf exponent s must be finite and >= 0"):
            ZipfParams(s=s, n=10)

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

    def test_rejects_sum_past_float64(self):
        # each stake is finite, but their sum is not
        with pytest.raises(InvalidParameterError, match="weights sum past"):
            WeightDistribution.from_raw([1e308, 1e308])

    @pytest.mark.parametrize("build, what", [(WeightDistribution.from_raw, "weights"),
                                             (SamplingDistribution.from_probs, "probs")])
    def test_constructors_refuse_bad_totals(self, build, what):
        # finite entries whose total is not, and a total of zero
        with pytest.raises(InvalidParameterError, match=f"{what} sum past the largest float64"):
            build([1e308, 1e308])
        with pytest.raises(InvalidParameterError, match=f"{what} must have positive total mass"):
            build([0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [WeightDistribution.from_raw,
                                       SamplingDistribution.from_probs])
    @pytest.mark.parametrize("values", [
        np.full((2, 2), 0.25), np.array(0.5), 0.5, [], [np.inf, -np.inf], [np.inf, 1.0],
        [0.5, np.nan], [0.5, -0.1],
    ], ids=["2-d", "0-d", "scalar", "empty", "inf-inf", "inf", "nan", "negative"])
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
        assert p.f is IDENTITY

    def test_constant_one_erases_weights(self):
        w = WeightDistribution.from_raw([0.9, 0.1])
        p = sampling_distribution(w, CONSTANT_ONE)
        assert np.allclose(p.probs, [0.5, 0.5], atol=1e-15)

    def test_power_two_preserves_symmetry(self):
        w = WeightDistribution.from_raw([0.5, 0.5])
        p = sampling_distribution(w, power(2.0))
        assert np.allclose(p.probs, [0.5, 0.5], atol=1e-15)
        assert p.f == power(2.0) and p.f.name == "power(2)"

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

    def test_carries_its_weight_function(self):
        assert [field.name for field in dataclasses.fields(SamplingDistribution)] == [
            "probs", "f"]
        assert SamplingDistribution.from_probs([0.5, 0.5]).f is IDENTITY
        w = WeightDistribution.from_raw([0.9, 0.1])
        assert sampling_distribution(w, WeightFunction.parse("power:1")).f.alpha == 1
        assert sampling_distribution(w, CONSTANT_ONE).f is CONSTANT_ONE

    def test_constructor_refuses_probabilities_above_one(self):
        # within NORM_TOL of a total of 1, but one entry past it
        with pytest.raises(InvalidParameterError, match=r"probs must lie in \[0, 1\]"):
            SamplingDistribution(np.array([1.0 + 4 * 2.0 ** -52, 0.0]))

    def test_constructor_refuses_unnormalized_probabilities(self):
        with pytest.raises(InvalidParameterError, match="probs sum to 0.9, not 1"):
            SamplingDistribution(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_must_be_positive(self, k):
        p = SamplingDistribution.from_probs([0.5, 0.5])
        with pytest.raises(InvalidParameterError, match=f"k={k} must be >= 1"):
            _check_k(k, p.support_size)

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


class TestNetworkBuffers:
    # each N-length stage allocates only the vector it returns, and never
    # writes into an array its caller holds
    N = 1_000_000

    @staticmethod
    def _traced_peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _one_vector(self):
        # the output, _fsum's two slice buffers and 64 KiB of small objects
        return 8 * self.N + 2 * 8 * weights._FSUM_SLICE + (1 << 16)

    def test_zipf_weights_memory_bound(self):
        peak = self._traced_peak(lambda: zipf_weights(ZipfParams(0.8, self.N)))
        assert peak <= self._one_vector()

    @pytest.mark.parametrize("f", ["identity", "constant-one", "power:0.5"])
    def test_sampling_distribution_memory_bound(self, f):
        w, f = zipf_weights(ZipfParams(0.8, self.N)), WeightFunction.parse(f)
        assert self._traced_peak(lambda: sampling_distribution(w, f)) <= self._one_vector()

    @pytest.mark.parametrize("size", [5, 3 * 2048])  # math.fsum, then extraction
    def test_normalization_leaves_callers_arrays_alone(self, size):
        arr = np.random.default_rng(size).random(size)
        before = arr.tobytes()
        w = WeightDistribution.from_raw(arr)
        assert arr.tobytes() == before
        kept = w.weights.tobytes()
        for f in (IDENTITY, CONSTANT_ONE, power(0.5)):
            sampling_distribution(w, f)
            assert w.weights.tobytes() == kept


class TestWeightFunction:
    @given(st.lists(_finite, min_size=1, max_size=80).map(np.array))
    @settings(max_examples=500, deadline=None)
    def test_exponents_one_and_zero_bit_for_bit(self, x):
        # so power:1 and power:0 give identity's and constant-one's laws exactly
        assert WeightFunction(1.0).apply(x).tobytes() == x.tobytes()
        assert WeightFunction(0.0).apply(x).tobytes() == np.ones(x.size).tobytes()

    def test_power_one_and_zero_are_identity_and_constant_one(self):
        for text in ("power:1", "power(1.0)", "power=1e0"):
            f = WeightFunction.parse(text)
            assert f == IDENTITY and f.name == "identity"
        for text in ("power:0", "power:-0"):
            f = WeightFunction.parse(text)
            assert f == CONSTANT_ONE and f.name == "constant-one"
        assert power(0.5).name == "power(0.5)"

    @pytest.mark.parametrize("text", ["power:-1", "power:nan", "power:inf", "power:-inf"])
    def test_exponent_must_be_finite_and_non_negative(self, text):
        with pytest.raises(InvalidParameterError, match="ALPHA finite and >= 0"):
            WeightFunction.parse(text)
        with pytest.raises(InvalidParameterError, match="finite and >= 0"):
            WeightFunction(float(text[len("power:"):]))


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

    def test_fraction_refusals_name_their_rule(self):
        with pytest.raises(InvalidParameterError, match="all split fractions must be > 0"):
            SplitSpec(0, np.array([1.0, 0.0]))
        with pytest.raises(InvalidParameterError, match="split fractions sum to 0.9, not 1"):
            SplitSpec(0, np.array([0.5, 0.4]))


class TestSplitSpec:
    def test_fractions_must_be_one_dimensional(self):
        with pytest.raises(InvalidParameterError,
                           match="split fractions must be a non-empty 1-d vector"):
            SplitSpec(0, np.full((2, 2), 0.25))

    def test_node_must_be_non_negative(self):
        with pytest.raises(InvalidParameterError, match="split node index must be >= 0"):
            SplitSpec(-1, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("r", [0, -1])
    def test_equal_split_needs_a_part(self, r):
        with pytest.raises(InvalidParameterError, match="split arity r must be >= 1"):
            SplitSpec.equal(0, r)

    def test_check_reads_the_exponent(self):
        masses = np.array([0.5, 0.5])
        for text in ("identity", "power:1", "power(1.0)"):
            assert SplitSpec.equal(0, 2).check(masses, WeightFunction.parse(text)) == 0.5
        for f in (power(2.0), power(0.5), CONSTANT_ONE):
            with pytest.raises(InvalidParameterError,
                               match="requires the identity weight function "
                                     + re.escape(f"(got {f.name})")):
                SplitSpec.equal(0, 2).check(masses, f)

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

    def test_blank_cells_are_skipped(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("weight,node\n3,a\n ,b\n1,c\n")
        assert np.allclose(load_weights_csv(path).weights, [0.75, 0.25])

    def test_bad_value_refused(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("weight\n3\nlots\n")
        with pytest.raises(InvalidParameterError, match="bad weight value 'lots'"):
            load_weights_csv(path)

    def test_file_without_rows_refused(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("weight\n")
        with pytest.raises(InvalidParameterError, match="no weight rows found"):
            load_weights_csv(path)


_P30 = sampling_distribution(zipf_weights(ZipfParams(1.0, 30)))

# every entry point that takes a count: (the argument its refusal names, a
# call of it on the count under test, with 20 a valid value)
_COUNT_ENTRY_POINTS = {
    "check_k": ("k", lambda c: _check_k(c)),
    "check_node": ("node", lambda c: _check_node(c, 30)),
    "split-node": ("split node index", lambda c: SplitSpec(c, [0.5, 0.5]).node),
    "split-equal-r": ("split arity r", lambda c: SplitSpec.equal(0, c).fractions.tobytes()),
    "zipf-n": ("Zipf n", lambda c: zipf_weights(ZipfParams(1.0, c)).weights.tobytes()),
    "greedy-runs-k": ("k", lambda c: greedy_runs(_P30, c, RngStream(7), 50).v.tobytes()),
    "greedy-runs-n-runs": ("n_runs", lambda c: greedy_runs(_P30, 3, RngStream(7), c).v.tobytes()),
    "greedy-runs-track": ("tracked node",
                          lambda c: greedy_runs(_P30, 3, RngStream(7), 50, track=c).y.tobytes()),
    "law-v-max": ("v_max", lambda c: exact_v_distribution(_P30, 3, c).probs.tobytes()),
    "estimate-n-runs": ("n_runs", lambda c: estimate_voting_power(_P30, 3, 0, c, 7).mean),
    "estimate-seed": ("seed", lambda c: estimate_voting_power(_P30, 3, 0, 100, c).mean),
    "sweep-network-size": ("sweep axis network_size",
                           lambda c: sweep_values("network_size", [c])),
    "sweep-sample-k": ("sweep axis sample_k", lambda c: sweep_values("sample_k", [c])),
    "sweep-split-r": ("sweep axis split_r", lambda c: sweep_values("split_r", [c])),
    "fpc-k": ("k", lambda c: FpcConfig(k=c)),
    "fpc-max-rounds": ("max_rounds", lambda c: FpcConfig(k=2, max_rounds=c)),
    "fpc-finality-l": ("finality_l", lambda c: FpcConfig(k=2, finality_l=c)),
    "fpc-initial-n": ("n", lambda c: majority_initial_opinions(c, 0.5).tobytes()),
}


class TestCountRule:
    @pytest.mark.parametrize("entry", _COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [2.7, True, math.nan, math.inf, np.float32(2.5)],
                             ids=["fraction", "bool", "nan", "inf", "float32"])
    def test_count_rule_refuses_what_int_would_cut(self, entry, value):
        what, call = _COUNT_ENTRY_POINTS[entry]
        with pytest.raises(InvalidParameterError,
                           match=f"^{re.escape(what)} takes whole numbers, got "):
            call(value)

    @pytest.mark.parametrize("entry", _COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [20.0, np.int64(20), np.float64(20.0)],
                             ids=["float", "int64", "float64"])
    def test_count_rule_reads_whole_numbers_exactly(self, entry, value):
        _, call = _COUNT_ENTRY_POINTS[entry]
        assert repr(call(value)) == repr(call(20))  # repr tells 20 from 20.0 or np.int64(20)
