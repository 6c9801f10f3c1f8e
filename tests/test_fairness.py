import errno
import hashlib
import math
import os
import signal
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from greedyvote import fairness, sampler
from greedyvote.cli import main
from greedyvote.errors import InvalidParameterError, SamplingError
from greedyvote.exact import split_gain, voting_power_exact
from greedyvote.fairness import (
    GainExperiment,
    estimate_split_gain,
    estimate_voting_power,
    kde_density,
    qq_points,
    silverman_bandwidth,
    sweep_gain,
)
from greedyvote.sampler import RngStream
from greedyvote.weights import (
    CONSTANT_ONE,
    IDENTITY,
    SamplingDistribution,
    SplitSpec,
    WeightDistribution,
    WeightFunction,
    ZipfParams,
    sampling_distribution,
    zipf_weights,
)
from reference import greedy_sample, interleaved_split_gain, voting_power_k2


class TestEstimateVotingPower:
    def test_uniform_symmetry(self):
        p = SamplingDistribution.from_probs([0.25] * 4)
        est = estimate_voting_power(p, 2, 0, 50_000, seed=101)
        assert abs(est.mean - 0.25) <= 4 * est.std_error
        assert est.ci_low <= est.mean <= est.ci_high

    def test_against_closed_form(self):
        p = SamplingDistribution.from_probs([0.75, 0.25])
        est = estimate_voting_power(p, 2, 0, 50_000, seed=102)
        assert abs(est.mean - voting_power_k2(p, 0)) <= 4 * est.std_error

    def test_against_exact_power_at_k20(self):
        # the canonical network: Zipf 1.1, N=1000, k=20, heaviest node
        p = sampling_distribution(zipf_weights(ZipfParams(1.1, 1000)))
        exact, _ = voting_power_exact(p, 20, 0, 1e-9)
        est = estimate_voting_power(p, 20, 0, 100_000, seed=105)
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_full_support_quorum(self):
        p = SamplingDistribution.from_probs([0.25] * 4)
        est = estimate_voting_power(p, 4, 2, 30_000, seed=103)
        assert abs(est.mean - 0.25) <= 4 * est.std_error

    def test_shares_sum_to_one_per_run(self):
        # counting identity: occurrences across all nodes add up to the draw
        # count, so the per-run shares are exactly a probability vector
        p = SamplingDistribution.from_probs([0.5, 0.3, 0.2])
        rng = RngStream(104)
        for _ in range(500):
            s = greedy_sample(p, 2, rng)
            assert sum(s.counts.values()) == s.total_draws
            exact_total = sum(Fraction(c, s.total_draws) for c in s.counts.values())
            assert exact_total == 1

    def test_run_values_bounded(self):
        p = SamplingDistribution.from_probs([0.9, 0.05, 0.05])
        est = estimate_voting_power(p, 2, 0, 2_000, seed=105)
        g = est.retained_samples
        assert (g >= 0).all() and (g <= 1).all()

    @pytest.mark.parametrize("n_runs", [1, 0, -3])
    def test_needs_a_run(self, n_runs):
        p = SamplingDistribution.from_probs([0.5, 0.5])
        with pytest.raises(InvalidParameterError,
                           match="n_runs must be >= 2: one run gives no standard error"):
            estimate_voting_power(p, 2, 0, n_runs, seed=1)


class TestEstimateSplitGain:
    def test_degenerate_split_exactly_zero(self):
        w = WeightDistribution.from_raw([0.6, 0.4])
        est = estimate_split_gain(w, IDENTITY, 2, SplitSpec.equal(0, 1),
                                  3_000, seed=7)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_coupled_matches_closed_form(self):
        w = zipf_weights(ZipfParams(1.1, 1000))
        split = SplitSpec.equal(0, 2)
        est = estimate_split_gain(w, IDENTITY, 2, split, 40_000, seed=8)
        exact, _ = split_gain(w, IDENTITY, 2, split, 1e-9)
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_both_modes_unbiased_on_small_instance(self):
        w = WeightDistribution.from_raw([0.4, 0.25, 0.2, 0.1, 0.05])
        split = SplitSpec.equal(0, 2)
        exact, _ = split_gain(w, IDENTITY, 2, split, 1e-9)
        coupled = estimate_split_gain(w, IDENTITY, 2, split, 100_000, seed=9,
                                      coupled=True)
        independent = estimate_split_gain(w, IDENTITY, 2, split, 100_000, seed=9,
                                          coupled=False)
        assert abs(coupled.mean - exact) <= 4 * coupled.std_error
        assert abs(independent.mean - exact) <= 4 * independent.std_error

    def test_coupled_matches_exact_gain_above_k2(self):
        w = WeightDistribution.from_raw([0.4, 0.25, 0.2, 0.1, 0.05])
        split = SplitSpec.equal(0, 2)
        for k, seed in ((3, 12), (4, 13)):
            exact, _ = split_gain(w, IDENTITY, k, split, 1e-9)
            est = estimate_split_gain(w, IDENTITY, k, split, 100_000, seed=seed)
            assert abs(est.mean - exact) <= 4 * est.std_error

    def test_coupling_reduces_variance(self):
        w = zipf_weights(ZipfParams(1.1, 200))
        split = SplitSpec.equal(0, 2)
        for seed in (1, 2, 3):
            coupled = estimate_split_gain(w, IDENTITY, 5, split, 20_000, seed=seed,
                                          coupled=True)
            independent = estimate_split_gain(w, IDENTITY, 5, split, 20_000,
                                              seed=seed, coupled=False)
            assert coupled.std_error < independent.std_error

    def test_coupled_requires_identity(self):
        w = WeightDistribution.from_raw([0.6, 0.4])
        with pytest.raises(InvalidParameterError, match="requires the identity weight function"):
            estimate_split_gain(w, CONSTANT_ONE, 2, SplitSpec.equal(0, 2),
                                100, seed=1, coupled=True)

    def test_coupled_power_one_is_the_identity_estimate_bit_for_bit(self):
        w = zipf_weights(ZipfParams(1.1, 100))
        split = SplitSpec(0, (0.3, 0.7))
        got = estimate_split_gain(w, WeightFunction(1.0), 5, split, 12_345, seed=9)
        ref = estimate_split_gain(w, IDENTITY, 5, split, 12_345, seed=9)
        for name in ("mean", "std_error", "ci_low", "ci_high", "n_runs"):
            assert getattr(got, name) == getattr(ref, name)
        assert got.retained_samples.tobytes() == ref.retained_samples.tobytes()

    def test_independent_mode_supports_other_weight_functions(self):
        # constant-one sampling makes splitting strictly profitable: the split
        # parts each get a full uniform share
        w = WeightDistribution.from_raw([0.5, 0.3, 0.2])
        est = estimate_split_gain(w, CONSTANT_ONE, 2, SplitSpec.equal(0, 2),
                                  20_000, seed=4, coupled=False)
        assert est.mean - 4 * est.std_error > 0

    def test_rerun_is_bit_identical(self):
        w = zipf_weights(ZipfParams(1.0, 50))
        split = SplitSpec.equal(0, 2)
        a = estimate_split_gain(w, IDENTITY, 3, split, 25_000, seed=5)
        b = estimate_split_gain(w, IDENTITY, 3, split, 25_000, seed=5)
        assert a.mean == b.mean and a.std_error == b.std_error
        assert np.array_equal(a.retained_samples, b.retained_samples)

    def test_retained_subsample_is_pinned(self, monkeypatch):
        # more runs than RETAINED_CAP: the kept runs are drawn from the
        # estimate's retained stream, so they belong to the stream layout
        monkeypatch.setattr(fairness, "RETAINED_CAP", 500)
        w = zipf_weights(ZipfParams(1.1, 100))
        est = estimate_split_gain(w, IDENTITY, 5, SplitSpec.equal(0, 2), 2000, seed=7)
        assert est.retained_samples.size == 500
        assert hashlib.sha256(est.retained_samples.tobytes()).hexdigest() == (
            "faf899d52428b50a08d843ab6b7a5764a69bb13e4165aab0295c6756c0b78206")

    @pytest.mark.parametrize("f", ["identity", "power:0.5", "constant-one"])
    @pytest.mark.parametrize("n_runs, fractions", [
        (2, (0.5, 0.5)),  # the fewest runs an estimate takes
        (23_456, (0.5, 0.5)),  # not a multiple of CHUNK_RUNS
        (23_456, (0.5, 0.3, 0.2)),
    ])
    def test_independent_passes_match_interleaved_chunks_bit_for_bit(self, f, n_runs,
                                                                      fractions):
        # all pre-split runs, then all post-split runs on the same chunk
        # streams: each stream goes on where its pre-split runs stopped
        # a small network, so that even two runs' shares are rarely 0
        w = zipf_weights(ZipfParams(0.9, 12))
        f, split = WeightFunction.parse(f), SplitSpec(0, fractions)
        got = estimate_split_gain(w, f, 8, split, n_runs, seed=31, coupled=False)
        ref = interleaved_split_gain(w, f, 8, split, n_runs, seed=31)
        for name in ("mean", "std_error", "ci_low", "ci_high", "n_runs"):
            assert getattr(got, name) == getattr(ref, name)
        assert got.retained_samples.tobytes() == ref.retained_samples.tobytes()

    def test_independent_gain_memory_bound(self):
        # at a million nodes one network's alias table is alive at a time:
        # the traced peak (numpy's buffers included) reads 3.11 x 8N bytes
        n = 1_000_000
        w = zipf_weights(ZipfParams(0.8, n))
        f = WeightFunction.parse("power:0.5")
        tracemalloc.start()
        try:
            estimate_split_gain(w, f, 20, SplitSpec.equal(0, 2), 20_000, seed=3,
                                coupled=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * 8 * n


class TestSweepGain:
    def test_empty_sweep_rejected(self):
        base = GainExperiment(zipf_s=1.1, n_nodes=100, k=2, n_runs=100)
        with pytest.raises(InvalidParameterError, match="at least one axis value"):
            sweep_gain(base, "network_size", [], seed=1)

    def test_single_point_sweep_equals_plain_estimate(self):
        base = GainExperiment(zipf_s=1.1, n_nodes=100, k=2, n_runs=5_000)
        sweep = sweep_gain(base, "network_size", [100], seed=5)
        w = zipf_weights(ZipfParams(1.1, 100))
        direct = estimate_split_gain(w, IDENTITY, 2, SplitSpec.equal(0, 2),
                                     5_000, seed=5)
        assert sweep.points[0][1].mean == direct.mean
        assert sweep.points[0][1].std_error == direct.std_error

    def test_point_weights_released_before_post_split_build(self, monkeypatch):
        # an independent point drops its weights once both distributions
        # exist, so they are gone when the post-split alias table is built
        refs, dead = [], []
        make_weights, build = fairness.zipf_weights, sampler.AliasTable.__init__

        def weights(zipf):
            w = make_weights(zipf)
            refs.append(weakref.ref(w))
            return w

        def init(table, probs):
            dead.append(refs[-1]() is None)
            build(table, probs)

        monkeypatch.setattr(fairness, "zipf_weights", weights)
        monkeypatch.setattr(sampler.AliasTable, "__init__", init)
        base = GainExperiment(n_nodes=1000, k=5, n_runs=100, coupled=False)
        sweep_gain(base, "network_size", [1000], seed=9)
        assert dead == [False, True]

    def test_network_size_sweep_decreases_for_light_tail(self):
        base = GainExperiment(zipf_s=0.8, k=20, n_runs=20_000)
        sweep = sweep_gain(base, "network_size", [100, 1000], seed=6)
        means = [est.mean for _, est in sweep.points]
        assert means[0] > means[1]

    def test_split_arity_sweep_changes_sign_for_heavy_tail(self):
        base = GainExperiment(zipf_s=2.0, n_nodes=1000, k=20, n_runs=30_000)
        sweep = sweep_gain(base, "split_r", [2, 5, 50, 200], seed=11)
        means = {r: est.mean for r, est in sweep.points}
        assert means[2] < 0 and means[5] < 0
        assert means[200] > 0

    def test_axis_values_must_increase(self):
        base = GainExperiment(n_runs=10)
        with pytest.raises(InvalidParameterError):
            sweep_gain(base, "network_size", [100, 100], seed=0)

    def test_unknown_axis_rejected(self):
        base = GainExperiment(n_runs=10)
        with pytest.raises(InvalidParameterError):
            sweep_gain(base, "nodes", [10], seed=0)

    def test_axis_table_sets_one_typed_field(self, monkeypatch):
        planned, estimated, plan = [], [], fairness._plan

        def record_plan(cfg):
            planned.append(cfg)
            return plan(cfg)

        def record_estimate(*args, **kwargs):
            estimated.append(args)

        monkeypatch.setattr(fairness, "_plan", record_plan)
        monkeypatch.setattr(fairness, "estimate_split_gain", record_estimate)
        base = GainExperiment(n_runs=10)
        for axis, value, field, expected in (("network_size", 50.0, "n_nodes", 50),
                                             ("sample_k", 7.0, "k", 7),
                                             ("split_r", 3.0, "split_r", 3),
                                             ("zipf_s", 2, "zipf_s", 2.0)):
            sweep_gain(base, axis, [value], seed=0)
            point = planned[-1]
            assert getattr(point, field) == expected
            assert type(getattr(point, field)) is type(expected)
            assert replace(point, **{field: getattr(base, field)}) == base
            # the estimate runs from the point's plan
            w, f, k, split, n_runs = estimated[-1][:5]
            assert w.weights.tobytes() == zipf_weights(
                ZipfParams(point.zipf_s, point.n_nodes)).weights.tobytes()
            assert (f, k, n_runs) == (point.f, point.k, point.n_runs)
            assert (split.node, split.r) == (point.node, point.split_r)
        with pytest.raises(InvalidParameterError) as info:
            sweep_gain(base, "nodes", [10], seed=0)
        assert str(info.value) == ("unknown sweep axis 'nodes'; expected one of "
                                   "('network_size', 'sample_k', 'split_r', 'zipf_s')")

    @pytest.mark.parametrize("axis, values", [("sample_k", [2.2, 2.7]),
                                              ("network_size", [40.5, 40.9]),
                                              ("split_r", [2, 3.5])])
    def test_count_axis_refuses_fractions_before_any_estimate(self, axis, values,
                                                              monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("estimated a point of a refused sweep")

        monkeypatch.setattr(fairness, "estimate_split_gain", unreachable)
        with pytest.raises(InvalidParameterError, match=f"sweep axis {axis} takes whole numbers"):
            sweep_gain(GainExperiment(n_nodes=60, k=3, n_runs=10), axis, values, seed=0)

    @pytest.mark.parametrize("axis, values, node, error, message", [
        ("sample_k", [2, 70], 0, InvalidParameterError,
         "k=70 exceeds support size 60; sampling would never terminate"),
        ("sample_k", [0, 2], 0, InvalidParameterError, "k=0 must be >= 1"),
        ("sample_k", [2, 3], 70, InvalidParameterError, "split node 70 out of range for 60"),
        ("zipf_s", [1.0, float("inf")], 0, InvalidParameterError,
         "Zipf exponent s must be finite"),
        ("network_size", [60, 10**15], 0, MemoryError, "PiB"),  # 7.1 PiB of weights
    ], ids=["k", "k-zero", "split-node", "zipf-s", "network-size"])
    def test_later_point_refused_before_any_estimate(self, axis, values, node, error, message,
                                                     monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("estimated a point of a refused sweep")

        monkeypatch.setattr(fairness, "estimate_split_gain", unreachable)
        base = GainExperiment(n_nodes=60, k=3, node=node, n_runs=10)
        with pytest.raises(error, match=message):
            sweep_gain(base, axis, values, seed=0)

    def test_plan_refuses_k_beyond_support_before_any_estimate(self, monkeypatch):
        estimated = []
        monkeypatch.setattr(fairness, "estimate_split_gain",
                            lambda *args, **kwargs: estimated.append(args))
        base = GainExperiment(zipf_s=200.0, n_nodes=1000, n_runs=10)
        with pytest.raises(InvalidParameterError, match="k=900 exceeds support size 41"):
            sweep_gain(base, "sample_k", [1, 900], seed=0)
        assert estimated == []

    def test_plan_builds_no_network_where_the_support_bound_holds(self, monkeypatch):
        calls = []
        build = fairness.zipf_weights
        monkeypatch.setattr(fairness, "zipf_weights",
                            lambda zipf: calls.append(("build", zipf.n)) or build(zipf))
        monkeypatch.setattr(fairness, "estimate_split_gain",
                            lambda w, *args, **kwargs: calls.append(("estimate", w.size)))
        base = GainExperiment(zipf_s=0.8, k=20, n_runs=10, f=WeightFunction(0.5))
        sweep_gain(base, "network_size", [100, 1000], seed=0)  # sweep-wide's kind of point
        assert calls == [("build", 100), ("estimate", 100), ("build", 1000), ("estimate", 1000)]

    @pytest.mark.parametrize("s, n, alpha", [
        (0.8, 1000, 0.5), (1.1, 1000, 1.0), (200.0, 1000, 0.0), (200.0, 1000, 1.0),
        (200.0, 1000, 0.5), (50.0, 300, 2.0), (100.0, 1000, 0.01), (120.0, 1000, 0.5),
        (2.0, 1000, 60.0),
    ])
    def test_support_matches_the_built_network(self, s, n, alpha):
        zipf, f = ZipfParams(s, n), WeightFunction(alpha)
        built = sampling_distribution(zipf_weights(zipf), f).support_size
        assert fairness._support(zipf, f) == built

    def test_rows_carry_the_values_that_ran(self):
        base = GainExperiment(zipf_s=1.0, n_nodes=60, k=3, n_runs=100)
        sweep = sweep_gain(base, "sample_k", [2.0, 4.0], seed=12)
        assert [value for value, _ in sweep.points] == [2, 4]
        assert all(type(value) is int for value, _ in sweep.points)

    def test_rerun_is_bit_identical(self):
        base = GainExperiment(zipf_s=1.0, n_nodes=60, k=3, n_runs=4_000)
        a = sweep_gain(base, "sample_k", [2, 4], seed=12)
        b = sweep_gain(base, "sample_k", [2, 4], seed=12)
        assert [e.mean for _, e in a.points] == [e.mean for _, e in b.points]


class TestChunkWorkers:
    # 45 001 runs: five chunks, the last one short, so two workers at most
    N_RUNS = 45_001

    @classmethod
    def _estimates(cls):
        w, n = zipf_weights(ZipfParams(1.1, 100)), cls.N_RUNS
        split = SplitSpec.equal(0, 2)
        base = GainExperiment(zipf_s=1.1, n_nodes=50, k=5, n_runs=n)
        sweep = sweep_gain(base, "network_size", [50, 100], seed=13).points
        return [
            estimate_voting_power(sampling_distribution(w), 5, 0, n, seed=11),
            estimate_split_gain(w, IDENTITY, 5, split, n, seed=12),
            estimate_split_gain(w, WeightFunction.parse("power:0.5"), 5, split, n, seed=12,
                                coupled=False),
        ] + [est for _, est in sweep]

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _break_kernel(monkeypatch, where):
        # two CPUs, and greedy_runs raising in the parent or in a child, or
        # killing the child
        parent, kernel = os.getpid(), fairness.greedy_runs

        def failing(*args, **kwargs):
            side = "parent" if os.getpid() == parent else "child"
            if side == "child" and where == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if side == where:
                raise SamplingError(f"broken in the {where}")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(fairness, "_cpus", lambda: 2)
        monkeypatch.setattr(fairness, "greedy_runs", failing)

    def test_one_answer_at_any_worker_count(self, monkeypatch):
        # every chunk has its own stream, and a worker hands its streams' end
        # states back, so the independent post-split pass goes on from them
        answers = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(fairness, "_cpus", lambda: cpus)
            answers.append(self._estimates())
            self._assert_no_child_left()
        for got in answers[1:]:
            for a, b in zip(answers[0], got):
                for name in ("mean", "std_error", "ci_low", "ci_high", "n_runs"):
                    assert getattr(a, name) == getattr(b, name)
                assert a.retained_samples.tobytes() == b.retained_samples.tobytes()

    def test_contiguous_slices_one_process_each(self, monkeypatch):
        # seven chunks on three workers: slices of 2, 2 and 3 chunks, the
        # first run by the caller, and every stream left where its chunk ended
        def fn(stream, count):
            return os.getpid(), count, stream.generator.random(3)

        serial_chunks, chunks = (fairness._chunks(65_000, RngStream(3, 0)) for _ in range(2))
        serial = [fn(*c) for c in serial_chunks]
        monkeypatch.setattr(fairness, "_cpus", lambda: 3)
        got = fairness._map_chunks(fn, chunks)
        self._assert_no_child_left()
        pids = [pid for pid, _, _ in got]
        assert pids[:2] == [os.getpid()] * 2
        assert pids[2] == pids[3] != pids[4] == pids[5] == pids[6] != os.getpid()
        for (_, n_a, a), (_, n_b, b) in zip(serial, got):
            assert n_a == n_b and a.tobytes() == b.tobytes()
        assert ([s.generator.random() for s, _ in chunks]
                == [s.generator.random() for s, _ in serial_chunks])

    @pytest.mark.parametrize("where, message", [
        ("child", "broken in the child"),
        ("parent", "broken in the parent"),
        ("killed", "a chunk worker sent no result"),
    ])
    def test_error_typed_and_every_child_reaped(self, where, message, monkeypatch):
        self._break_kernel(monkeypatch, where)
        w = zipf_weights(ZipfParams(1.1, 100))
        with pytest.raises(SamplingError, match=message):
            estimate_split_gain(w, IDENTITY, 5, SplitSpec.equal(0, 2), self.N_RUNS, seed=1)
        self._assert_no_child_left()

    def test_child_error_exits_1_from_the_cli(self, monkeypatch, capsys):
        self._break_kernel(monkeypatch, "child")
        argv = ["gain", "--n", "100", "--k", "5", "--n-runs", str(self.N_RUNS)]
        assert main(argv) == 1
        assert "broken in the child" in capsys.readouterr().err
        self._assert_no_child_left()

    @staticmethod
    def _refuse_forks(monkeypatch, allowed: int) -> list:
        # the first `allowed` forks succeed and every later one is refused;
        # returns the list of attempts
        fork, attempts = os.fork, []

        def refused():
            attempts.append(1)
            if len(attempts) > allowed:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            return fork()

        monkeypatch.setattr(os, "fork", refused)
        return attempts

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors")
    def test_refused_fork_leaves_no_descriptor_and_no_child(self, monkeypatch):
        # seven chunks on three CPUs: the first fork succeeds, the second is
        # refused, and the caller runs that slice: the one-CPU estimate
        w = zipf_weights(ZipfParams(1.1, 100))

        def estimate():
            return estimate_split_gain(w, IDENTITY, 5, SplitSpec.equal(0, 2), 65_000, seed=1)

        monkeypatch.setattr(fairness, "_cpus", lambda: 1)
        serial = estimate()
        monkeypatch.setattr(fairness, "_cpus", lambda: 3)
        attempts = self._refuse_forks(monkeypatch, 1)
        descriptors = len(os.listdir("/proc/self/fd"))
        got = estimate()
        assert len(attempts) == 2
        self._assert_no_child_left()
        assert len(os.listdir("/proc/self/fd")) == descriptors
        for name in ("mean", "std_error", "ci_low", "ci_high", "n_runs"):
            assert getattr(got, name) == getattr(serial, name)
        assert got.retained_samples.tobytes() == serial.retained_samples.tobytes()

    def test_refused_fork_forks_no_further_slice(self, monkeypatch):
        # eight chunks on four CPUs: slices 2/2/2/2; the second fork is refused,
        # the third is never tried, and the caller runs the last two slices
        # after the child's, every stream left where a serial run leaves it
        def fn(stream, count):
            return os.getpid(), count, stream.generator.random(3)

        serial_chunks, chunks = (fairness._chunks(80_000, RngStream(5, 0)) for _ in range(2))
        serial = [fn(*c) for c in serial_chunks]
        monkeypatch.setattr(fairness, "_cpus", lambda: 4)
        attempts = self._refuse_forks(monkeypatch, 1)
        got = fairness._map_chunks(fn, chunks)
        assert len(attempts) == 2
        self._assert_no_child_left()
        pids = [pid for pid, _, _ in got]
        assert pids[:2] + pids[4:] == [os.getpid()] * 6 and pids[2] == pids[3] != os.getpid()
        for (_, n_a, a), (_, n_b, b) in zip(serial, got):
            assert n_a == n_b and a.tobytes() == b.tobytes()
        assert ([s.generator.random() for s, _ in chunks]
                == [s.generator.random() for s, _ in serial_chunks])

    def test_refused_fork_exits_0_from_the_cli(self, monkeypatch, capsys):
        # five chunks on two CPUs, the one fork refused: the caller runs both slices
        argv = ["gain", "--n", "100", "--k", "5", "--n-runs", str(self.N_RUNS)]
        monkeypatch.setattr(fairness, "_cpus", lambda: 1)
        assert main(argv) == 0
        serial = capsys.readouterr().out
        monkeypatch.setattr(fairness, "_cpus", lambda: 2)
        attempts = self._refuse_forks(monkeypatch, 0)
        assert main(argv) == 0
        assert capsys.readouterr().out == serial
        assert len(attempts) == 1
        self._assert_no_child_left()

    def test_two_chunks_never_fork(self, monkeypatch):
        # one chunk per process costs more than it saves: sweep-wide's
        # 20 000-run estimates stay in the caller
        def no_fork():
            raise AssertionError("forked for a two-chunk estimate")

        monkeypatch.setattr(fairness, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        w = zipf_weights(ZipfParams(1.1, 100))
        estimate_split_gain(w, WeightFunction.parse("power:0.5"), 5, SplitSpec.equal(0, 2),
                            20_000, seed=2, coupled=False)


class TestKdeDensity:
    def test_single_kernel_is_normal_pdf(self):
        points = kde_density([0.0], bandwidth=1.0, points=201)
        x = points[:, 0]
        assert x[0] == -5.0 and x[-1] == 5.0
        expected = np.exp(-0.5 * x ** 2) / math.sqrt(2 * math.pi)
        assert np.allclose(points[:, 1], expected, atol=1e-12)

    def test_symmetric_samples_give_symmetric_density(self):
        samples = [-2.0, -1.0, -0.25, 0.25, 1.0, 2.0]
        points = kde_density(samples, bandwidth=0.5, points=121)
        assert np.allclose(points[:, 0], -points[::-1, 0], atol=1e-12)
        assert np.allclose(points[:, 1], points[::-1, 1], atol=1e-12)

    def test_integrates_to_one(self):
        gen = np.random.Generator(np.random.Philox(key=[61, 0]))
        samples = gen.normal(size=5_000)
        points = kde_density(samples)
        integral = np.trapezoid(points[:, 1], points[:, 0])
        assert 0.995 <= integral <= 1.0 + 1e-9
        assert abs(integral - 1.0) <= 1e-3

    def test_small_gain_mass_grows_with_network_size(self):
        # KDE mass near zero gain is far larger in the big light-tailed network
        masses = {}
        for n in (100, 10_000):
            w = zipf_weights(ZipfParams(0.8, n))
            est = estimate_split_gain(w, IDENTITY, 20, SplitSpec.equal(0, 2),
                                      20_000, seed=13)
            points = kde_density(est.retained_samples)
            near = points[np.abs(points[:, 0]) <= 0.001]
            masses[n] = float(np.trapezoid(near[:, 1], near[:, 0]))
        assert masses[10_000] > masses[100]

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            kde_density([])
        with pytest.raises(InvalidParameterError):
            kde_density([1.0, 1.0, 1.0])  # zero variance, no bandwidth
        with pytest.raises(InvalidParameterError):
            kde_density([1.0, 2.0], bandwidth=0.0)
        for h in (np.inf, np.nan):
            with pytest.raises(InvalidParameterError, match="finite"):
                kde_density([1.0, 2.0], bandwidth=h)
        for points in (0, -1):
            with pytest.raises(InvalidParameterError, match="at least 1 point"):
                kde_density([1.0, 2.0], bandwidth=0.5, points=points)

    @pytest.mark.parametrize("bandwidth, points, message", [
        (None, 0, "at least 1 point"), (0.5, -1, "at least 1 point"),
        (np.inf, 512, "finite"), (0.0, 512, "finite"),
    ])
    def test_argument_check_is_the_one_kde_density_runs(self, bandwidth, points, message):
        with pytest.raises(InvalidParameterError, match=message):
            fairness.check_kde_args(bandwidth, points)
        with pytest.raises(InvalidParameterError, match=message):
            kde_density([1.0, 2.0], bandwidth=bandwidth, points=points)
        assert fairness.check_kde_args(None, 1) is None
        assert fairness.check_kde_args(2, 1) == 2.0

    @pytest.mark.parametrize("h", [1e-320, 5e-324, 2.2e-309])
    def test_bandwidth_with_an_infinite_kernel_peak_refused(self, h):
        with pytest.raises(InvalidParameterError, match="finite kernel peak"):
            fairness.check_kde_args(h, 4)
        with pytest.raises(InvalidParameterError, match="finite kernel peak"):
            kde_density([0.0, 1.0], bandwidth=h, points=4)

    def test_smallest_bandwidths_give_finite_densities(self):
        # 1 / (h sqrt(2 pi)) is finite at 3e-309, and every density is below it
        with np.errstate(over="ignore"):
            points = kde_density([0.0, 1.0], bandwidth=3e-309, points=4)
        assert np.isfinite(points).all()

    def test_grid_points_read_by_the_count_rule(self):
        samples = [0.1, 0.4, 0.45, 0.9]
        want = kde_density(samples, points=20).tobytes()
        for points in (20.0, np.int64(20)):
            assert kde_density(samples, points=points).tobytes() == want
        for points in (2.5, True):
            with pytest.raises(InvalidParameterError, match="grid points takes whole numbers"):
                kde_density(samples, points=points)

    def test_silverman_rule(self):
        gen = np.random.Generator(np.random.Philox(key=[62, 0]))
        samples = gen.normal(size=1000)
        h = silverman_bandwidth(samples)
        assert h == pytest.approx(1.06 * samples.std(ddof=1) * 1000 ** -0.2)


class TestQqPoints:
    def test_normal_samples_hug_the_diagonal(self):
        gen = np.random.Generator(np.random.Philox(key=[63, 0]))
        samples = gen.normal(loc=3.0, scale=2.0, size=10_000)
        points = qq_points(samples)
        lo, hi = int(0.01 * len(points)), int(0.99 * len(points))
        middle = points[lo:hi]
        assert np.abs(middle[:, 1] - middle[:, 0]).max() < 0.1

    def test_two_point_mass_is_valid_input(self):
        points = qq_points([0.0, 0.0, 1.0, 1.0])
        assert points.shape == (4, 2)

    def test_affine_invariance(self):
        gen = np.random.Generator(np.random.Philox(key=[64, 0]))
        samples = gen.normal(size=500)
        base = qq_points(samples)
        shifted = qq_points(5.0 + 2.5 * samples)
        assert np.allclose(base, shifted, atol=1e-9)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            qq_points([1.0])
        with pytest.raises(InvalidParameterError):
            qq_points([2.0, 2.0])
