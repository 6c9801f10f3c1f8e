import numpy as np
import pytest
from scipy.stats import chi2

from conftest import chisquare_gof_pvalue, counts_of
from greedyvote import fpc
from greedyvote.cli import main
from greedyvote.errors import DegenerateSampleError, InvalidParameterError
from greedyvote.exact import exact_v_distribution
from greedyvote.fpc import FpcConfig, majority_initial_opinions, run_fpc
from greedyvote.weights import (
    CONSTANT_ONE,
    IDENTITY,
    WeightDistribution,
    ZipfParams,
    sampling_distribution,
    zipf_weights,
)
from reference import fpc_chain


class TestMeanOpinion:
    """The quorum mean opinion run_fpc computes from each run's totals."""

    def test_multiplicity_weighted_average(self, monkeypatch):
        # only nodes 0 (opinion 1) and 1 (opinion 0) are ever drawn, so under
        # constant-one g a quorum averages (draws of node 0) / (all draws):
        # 2/3 for draws 0, 0, 1, where a distinct-node average would give 1/2
        n = 200
        w = WeightDistribution.from_raw([0.5, 0.5] + [0.0] * (n - 2))
        config = FpcConfig(k=2, theta=2.0 / 3.0, max_rounds=1, scheme_g=CONSTANT_ONE)
        greedy_runs, seen = fpc.greedy_runs, []

        def tracking_node_0(*args, **kwargs):
            runs = greedy_runs(*args, track=0, **kwargs)
            seen.append(runs)
            return runs

        monkeypatch.setattr(fpc, "greedy_runs", tracking_node_0)
        opinions = np.zeros(n, dtype=int)
        opinions[0] = 1
        trace = run_fpc(config, w, opinions, seed=3)
        (runs,) = seen
        num, den = runs.totals
        assert np.array_equal(den, runs.v)
        assert np.array_equal(num, runs.y)
        eta = runs.y / runs.v
        assert (eta == 2.0 / 3.0).any()
        assert np.array_equal(trace.opinions_by_round[1], eta >= config.theta)

    def test_zero_denominator_raises(self):
        # identity averaging raises only on a quorum drawn wholly from
        # zero-weight nodes: with k = 2 over two nodes every quorum holds the
        # weighted node too, with k = 1 some quorum is the zero-weight node alone
        w = WeightDistribution(np.array([1.0, 0.0]))
        opinions = np.array([1, 1])
        config = FpcConfig(k=2, scheme_f=CONSTANT_ONE, scheme_g=IDENTITY, max_rounds=5)
        assert (run_fpc(config, w, opinions, seed=1).opinions_by_round == 1).all()
        config = FpcConfig(k=1, scheme_f=CONSTANT_ONE, scheme_g=IDENTITY, max_rounds=40,
                           finality_l=40)
        with pytest.raises(DegenerateSampleError):
            run_fpc(config, w, opinions, seed=1)


class TestFpcConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            FpcConfig(k=0)
        with pytest.raises(InvalidParameterError):
            FpcConfig(k=2, beta=0.6)
        with pytest.raises(InvalidParameterError):
            FpcConfig(k=2, theta=1.5)
        with pytest.raises(InvalidParameterError):
            FpcConfig(k=2, finality_l=0)

    def test_needs_a_round(self):
        with pytest.raises(InvalidParameterError, match="max_rounds must be >= 1"):
            FpcConfig(k=2, max_rounds=0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_initial_ones_fraction_must_lie_in_the_unit_interval(self, fraction):
        with pytest.raises(InvalidParameterError, match=r"ones_fraction must lie in \[0, 1\]"):
            majority_initial_opinions(10, fraction)


class TestRunFpc:
    def test_degenerate_quorum_raises(self):
        # uniform sampling reaches the zero-weight nodes, on which identity
        # averaging has nothing to weigh
        w = WeightDistribution.from_raw([1.0] + [0.0] * 19)
        config = FpcConfig(k=1, scheme_f=CONSTANT_ONE, scheme_g=IDENTITY)
        with pytest.raises(DegenerateSampleError):
            run_fpc(config, w, majority_initial_opinions(20, 0.5), seed=1)

    @pytest.mark.parametrize("g", [CONSTANT_ONE, IDENTITY], ids=lambda g: g.name)
    def test_unanimous_quorums_average_exactly_one(self, g):
        # with theta = 1 a node keeps opinion 1 only if its quorum averages
        # exactly 1, whatever the multiplicities and g(weight) of its peers
        w = zipf_weights(ZipfParams(1.1, 30))
        config = FpcConfig(k=5, theta=1.0, max_rounds=1, scheme_g=g)
        trace = run_fpc(config, w, np.ones(30, dtype=int), seed=7)
        assert (trace.opinions_by_round[1] == 1).all()

    def test_unanimous_start_finalizes_immediately(self):
        w = zipf_weights(ZipfParams(0.0, 30))
        config = FpcConfig(k=5, finality_l=2)
        trace = run_fpc(config, w, np.ones(30, dtype=int), seed=1)
        assert trace.consensus_round == config.finality_l
        assert trace.final_agreement == 1.0
        assert (trace.opinions_by_round == 1).all()

    def test_unanimous_zero_start(self):
        w = zipf_weights(ZipfParams(0.0, 30))
        config = FpcConfig(k=5, theta=0.5, finality_l=3)
        trace = run_fpc(config, w, np.zeros(30, dtype=int), seed=1)
        assert trace.consensus_round == 3
        assert (trace.opinions_by_round == 0).all()

    def test_degenerate_beta_pins_thresholds(self):
        w = zipf_weights(ZipfParams(0.0, 40))
        config = FpcConfig(k=5, beta=0.5, max_rounds=10, finality_l=100)
        trace = run_fpc(config, w, majority_initial_opinions(40, 0.5), seed=2)
        assert trace.thresholds.size > 1
        assert (trace.thresholds[1:] == 0.5).all()

    def test_thresholds_stay_in_band(self):
        w = zipf_weights(ZipfParams(1.0, 25))
        config = FpcConfig(k=5, beta=0.3, max_rounds=12, finality_l=100)
        trace = run_fpc(config, w, majority_initial_opinions(25, 0.5), seed=3)
        shared = trace.thresholds[1:]
        assert ((shared >= 0.3) & (shared <= 0.7)).all()

    def test_round_thresholds_one_per_round(self, tmp_path):
        # theta first, then the shared thresholds; the CLI writes them as its
        # u_t column unchanged
        w = zipf_weights(ZipfParams(0.0, 40))
        config = FpcConfig(k=5, theta=0.6, beta=0.2, max_rounds=6, finality_l=100)
        trace = run_fpc(config, w, majority_initial_opinions(40, 0.9), seed=7)
        assert trace.n_rounds == 6
        assert trace.thresholds.shape == (trace.n_rounds,)
        assert trace.thresholds[0] == 0.6
        assert ((trace.thresholds[1:] >= 0.2) & (trace.thresholds[1:] <= 0.8)).all()
        out = tmp_path / "fpc.csv"
        assert main(["fpc", "--s", "0", "--n", "40", "--k", "5", "--theta", "0.6",
                     "--beta", "0.2", "--max-rounds", "6", "--finality-l", "100",
                     "--seed", "7", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == trace.thresholds.tolist()

    def test_opinions_stay_binary(self):
        w = zipf_weights(ZipfParams(1.1, 25))
        config = FpcConfig(k=5, beta=0.4, max_rounds=8, finality_l=100)
        trace = run_fpc(config, w, majority_initial_opinions(25, 0.6), seed=4)
        assert set(np.unique(trace.opinions_by_round)) <= {0, 1}

    def test_majority_consensus_smoke(self):
        # desk-scale version of the acceptance regression pin
        w = zipf_weights(ZipfParams(0.0, 100))
        config = FpcConfig(k=20, theta=0.5, beta=0.3)
        wins = 0
        for seed in range(20):
            trace = run_fpc(config, w, majority_initial_opinions(100, 0.9), seed=seed)
            if trace.consensus_round is not None and trace.opinions_by_round[-1].all():
                wins += 1
        assert wins >= 18

    def test_determinism(self):
        w = zipf_weights(ZipfParams(1.0, 30))
        config = FpcConfig(k=5, beta=0.3)
        initial = majority_initial_opinions(30, 0.7)
        a = run_fpc(config, w, initial, seed=99)
        b = run_fpc(config, w, initial, seed=99)
        assert np.array_equal(a.opinions_by_round, b.opinions_by_round)
        assert np.array_equal(a.thresholds, b.thresholds)
        assert a.consensus_round == b.consensus_round

    def test_sampling_statistics_match_exact_law(self, monkeypatch):
        # per-node per-round quorums come from the shared sampler, so their
        # draw counts must follow the exact law
        w = zipf_weights(ZipfParams(0.0, 12))
        config = FpcConfig(k=3, beta=0.4, max_rounds=40, finality_l=999)
        greedy_runs, draws = fpc.greedy_runs, []

        def recording(*args, **kwargs):
            runs = greedy_runs(*args, **kwargs)
            draws.extend(runs.v.tolist())
            return runs

        monkeypatch.setattr(fpc, "greedy_runs", recording)
        run_fpc(config, w, majority_initial_opinions(12, 0.5), seed=5)
        assert len(draws) == 40 * 12
        p = sampling_distribution(w, IDENTITY)
        law = exact_v_distribution(p, 3, 30)
        pval = chisquare_gof_pvalue(counts_of(draws), law.index, law.probs, len(draws),
                                    residual=law.residual)
        assert pval > 0.01

    def test_input_validation(self):
        w = zipf_weights(ZipfParams(0.0, 10))
        config = FpcConfig(k=20)
        with pytest.raises(InvalidParameterError):
            run_fpc(config, w, np.ones(10, dtype=int), seed=0)  # k > support
        config2 = FpcConfig(k=2)
        with pytest.raises(InvalidParameterError):
            run_fpc(config2, w, np.full(10, 2), seed=0)  # opinions not binary
        with pytest.raises(InvalidParameterError):
            run_fpc(config2, w, np.ones(9, dtype=int), seed=0)  # wrong length

    def test_opinions_checked_before_the_int8_cast(self):
        # the cast would cut 0.6 to 0 and wrap or overflow at 256
        w = zipf_weights(ZipfParams(0.0, 10))
        config = FpcConfig(k=2)
        for bad in (np.r_[np.ones(9), 0.6], np.r_[np.ones(9, dtype=int), 256], [1] * 9 + [256]):
            with pytest.raises(InvalidParameterError, match="0 or 1"):
                run_fpc(config, w, bad, seed=0)

    def test_max_rounds_cutoff_without_consensus(self):
        w = zipf_weights(ZipfParams(0.0, 20))
        config = FpcConfig(k=3, beta=0.5, max_rounds=2, finality_l=50)
        trace = run_fpc(config, w, majority_initial_opinions(20, 0.5), seed=6)
        assert trace.consensus_round is None
        assert trace.n_rounds == 2
        assert 0.5 <= trace.final_agreement <= 1.0


class TestFpcChain:
    """run_fpc on a uniform network of 30 nodes, 15 of them ones, at k = 8
    against the exact chain on the count of ones."""

    def test_chain_consensus_rounds(self):
        law = fpc_chain(30, 8, 0.5, 0.3, 15, 2, 12)
        by_round = [law.probs[law.index[1] == t].sum() for t in range(3, 8)]
        assert np.allclose(by_round, [0.0784, 0.4092, 0.2884, 0.1310, 0.0548], rtol=0, atol=1e-4)

    def test_final_opinion_and_consensus_round_match_the_chain(self):
        w, runs, pvalues = WeightDistribution.from_raw(np.ones(30)), 400, []
        initial = majority_initial_opinions(30, 0.5)
        for setting in (dict(theta=0.5, beta=0.3, finality_l=2),
                        dict(theta=0.5, beta=0.3, finality_l=3),
                        dict(theta=0.5, beta=0.0, finality_l=2)):
            config = FpcConfig(k=8, max_rounds=12, **setting)
            law = fpc_chain(30, 8, setting["theta"], setting["beta"], 15,
                            setting["finality_l"], 12)
            observed = []
            for seed in range(runs):
                trace = run_fpc(config, w, initial, seed)
                last = trace.opinions_by_round[-1]
                final = int(last[0]) if (last == last[0]).all() else 2
                observed.append((final, trace.consensus_round or 0))
            pvalues.append(chisquare_gof_pvalue(counts_of(observed), law.index, law.probs,
                                                runs, residual=law.residual))
        fisher = chi2.sf(-2.0 * np.log(pvalues).sum(), 2 * len(pvalues))
        assert fisher >= 1e-3, pvalues
