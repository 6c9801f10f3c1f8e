"""Single-process simulator of basic fast probabilistic consensus (FPC).

Every round, each node greedy-samples k distinct peers and averages their
binary opinions, weighted by the averaging weight function applied to peer
weights (counting multiplicity), and takes opinion 1 above the round's
threshold and 0 below it.  Round one's threshold is the fixed theta, a tie
going to 1; later rounds share one uniform random threshold on
[beta, 1 - beta] among all nodes, which blunts adversarial threshold-gaming,
and a tie keeps the node's opinion.  Rounds are synchronous: all updates in
a round read the previous round's opinions.  Round t samples all N quorums
as N runs of `sampler.greedy_runs` on the round's own substream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InvalidParameterError
from .weights import (CONSTANT_ONE, IDENTITY, WeightDistribution, WeightFunction,
                      _check_count, _check_k, sampling_distribution)
from .sampler import as_stream, greedy_runs, round_stream, threshold_stream


@dataclass(frozen=True)
class FpcConfig:
    k: int
    theta: float = 0.5
    beta: float = 0.3
    max_rounds: int = 100
    finality_l: int = 2
    scheme_f: WeightFunction = IDENTITY
    scheme_g: WeightFunction = CONSTANT_ONE

    def __post_init__(self):
        object.__setattr__(self, "k", _check_k(self.k))
        for name in ("max_rounds", "finality_l"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, 1))
        if not (0.0 <= self.beta <= 0.5):
            raise InvalidParameterError("beta must lie in [0, 0.5]")
        if not (0.0 <= self.theta <= 1.0):
            raise InvalidParameterError("theta must lie in [0, 1]")


@dataclass(eq=False)
class FpcTrace:
    """Round-by-round record of one protocol run.

    opinions_by_round row 0 holds the initial opinions; row t the state after
    round t.  thresholds holds one threshold per round: theta at round one,
    then the realized shared thresholds of rounds 2, 3, ...
    """

    opinions_by_round: np.ndarray
    thresholds: np.ndarray
    consensus_round: int | None
    final_agreement: float

    @property
    def n_rounds(self) -> int:
        return self.opinions_by_round.shape[0] - 1


def run_fpc(config: FpcConfig, weights: WeightDistribution, initial_opinions, seed) -> FpcTrace:
    """Run FPC until opinions are unanimous and unchanged for finality_l
    consecutive rounds, or max_rounds is exhausted."""
    opinions = np.asarray(initial_opinions)
    n = weights.size
    if opinions.shape != (n,):
        raise InvalidParameterError(
            f"need one initial opinion per node ({n}), got shape {opinions.shape}"
        )
    if not np.isin(opinions, (0, 1)).all():  # before the cast, which would cut 0.6 or wrap 256
        raise InvalidParameterError("opinions must be 0 or 1")
    opinions = opinions.astype(np.int8)
    p = sampling_distribution(weights, config.scheme_f)
    rng = as_stream(seed)
    g_weights = config.scheme_g.apply(weights.weights)

    rows = [opinions.copy()]
    thresholds = []
    consensus_round = None

    for t in range(1, config.max_rounds + 1):
        if t == 1:
            u_t, tie = config.theta, 1
        else:
            u = threshold_stream(rng, t).generator.random()
            u_t, tie = config.beta + (1.0 - 2.0 * config.beta) * u, opinions
        thresholds.append(u_t)
        # multiplicity-weighted mean opinion of every node's quorum: sums of
        # g(weight) * opinion and of g(weight) over each run's draws
        runs = greedy_runs(p, config.k, round_stream(rng, t), n,
                           totals=(g_weights * opinions, g_weights))
        num, den = runs.totals
        if not (den > 0.0).all():
            raise DegenerateSampleError(
                "averaging weight function vanishes on every sampled node"
            )
        eta = num / den
        opinions = np.where(eta > u_t, 1, np.where(eta < u_t, 0, tie)).astype(np.int8)
        rows.append(opinions)
        # final: the last finality_l rounds all hold the one opinion of node 0
        if t >= config.finality_l and all(
                (row == opinions[0]).all() for row in rows[-config.finality_l:]):
            consensus_round = t
            break

    ones = float(opinions.mean())
    final_agreement = max(ones, 1.0 - ones)
    return FpcTrace(
        opinions_by_round=np.vstack(rows),
        thresholds=np.asarray(thresholds, dtype=float),
        consensus_round=consensus_round,
        final_agreement=final_agreement,
    )


def majority_initial_opinions(n: int, ones_fraction: float) -> np.ndarray:
    """Deterministic initial opinion vector with the given fraction of ones."""
    n = _check_count(n, "n", 0)
    if not (0.0 <= ones_fraction <= 1.0):
        raise InvalidParameterError("ones_fraction must lie in [0, 1]")
    n_ones = int(round(n * ones_fraction))
    opinions = np.zeros(n, dtype=np.int8)
    opinions[:n_ones] = 1
    return opinions
