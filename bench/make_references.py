"""Regenerate bench/references.json, the values the workload checks compare to.

    PYTHONPATH=src python3 bench/make_references.py

Monte Carlo references run 10x the workload's runs (20x for the N=10, k=5
probe) at REF_SEED, far from the small seeds a benchmark run uses, so a
check compares two independent estimates within their combined standard
error.  The N=8, k=4 voting power comes from an absorbing Markov chain over
(set of distinct nodes seen, occurrences of node 1), which shares no code
with the composition enumeration it checks.  Takes a few minutes.
"""

import json
from pathlib import Path

import numpy as np

from greedyvote import fairness, weights
from workloads import SWEEP_RUNS, SWEEP_SIZES

REF_SEED = 987_654_321
OUT = Path(__file__).resolve().parent / "references.json"


def zipf_p(s, n, f=weights.IDENTITY):
    return weights.sampling_distribution(weights.zipf_weights(weights.ZipfParams(s=s, n=n)), f)


def voting_power_chain(probs, k, i, tail=1e-20):
    """E[Y_i / V] by stepping the distribution of (seen set, Y_i) draw by draw."""
    probs = list(probs)
    n = len(probs)
    states = {0: np.array([1.0])}  # bitmask of seen nodes -> P(seen set, y) over y
    value, v = 0.0, 0
    while sum(a.sum() for a in states.values()) > tail:
        nxt = {}

        def add(mask, arr):
            cur = nxt.get(mask)
            if cur is None:
                nxt[mask] = arr
            else:
                if cur.size < arr.size:
                    cur = np.concatenate([cur, np.zeros(arr.size - cur.size)])
                cur[:arr.size] += arr
                nxt[mask] = cur

        for mask, a in states.items():
            seen = bin(mask).count("1")
            shifted = np.concatenate([[0.0], a])  # y + 1 after drawing node i
            for u in range(n):
                arr = probs[u] * (shifted if u == i else a)
                if mask >> u & 1:
                    add(mask, arr)
                elif seen + 1 == k:
                    value += float(np.dot(arr, np.arange(arr.size))) / (v + 1)
                else:
                    add(mask | 1 << u, arr)
        states, v = nxt, v + 1
    return value


def main():
    refs = {"ref_seed": REF_SEED}

    w = weights.zipf_weights(weights.ZipfParams(s=1.1, n=1000))
    split = weights.SplitSpec(0, np.array([0.5, 0.5]))
    est = fairness.estimate_split_gain(w, weights.IDENTITY, 20, split, 1_000_000, REF_SEED)
    refs["gain-coupled"] = {"mean": est.mean, "std_error": est.std_error,
                            "n_runs": est.n_runs, "seed": REF_SEED}

    base = fairness.GainExperiment(zipf_s=0.8, k=20, node=0, split_r=2,
                                   n_runs=10 * SWEEP_RUNS, coupled=False,
                                   f=weights.power(0.5))
    sweep = fairness.sweep_gain(base, "network_size", SWEEP_SIZES, REF_SEED)
    refs["sweep-wide"] = {"seed": REF_SEED, "rows": [
        {"n": n, "mean": e.mean, "std_error": e.std_error, "n_runs": e.n_runs}
        for n, e in sweep.points]}

    refs["p8"] = {"value": voting_power_chain(zipf_p(1.0, 8).probs, 4, 0),
                  "method": "absorbing Markov chain, tail mass < 1e-20"}

    est = fairness.estimate_voting_power(zipf_p(1.0, 10), 5, 0, 2_000_000, REF_SEED)
    refs["p10"] = {"mean": est.mean, "std_error": est.std_error, "n_runs": est.n_runs,
                   "seed": REF_SEED, "method": "fairness.estimate_voting_power"}
    OUT.write_text(json.dumps(refs, indent=2) + "\n")
    print(json.dumps(refs, indent=2))


if __name__ == "__main__":
    main()
