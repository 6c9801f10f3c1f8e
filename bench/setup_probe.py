"""Set-up cost of one workload, as a fresh interpreter pays it.

    python3 bench/setup_probe.py WORKLOAD

Imports `greedyvote.cli` and builds every network the workload samples from
through the public calls `weights.zipf_weights`,
`weights.sampling_distribution`, `weights.apply_split` and
`sampler.AliasTable`.  The benchmark times this process from spawn to exit.
"""

import sys

import greedyvote.cli  # noqa: F401  (the import is part of the cost)
from greedyvote import sampler, weights

from workloads import WORKLOADS


def build(net):
    f = weights.WeightFunction.parse(net.f)
    w = weights.zipf_weights(weights.ZipfParams(s=net.s, n=net.n))
    nets = [w]
    if net.split_r:
        nets.append(weights.apply_split(w, weights.SplitSpec.equal(0, net.split_r))[0])
    for w in nets:
        p = weights.sampling_distribution(w, f)
        if net.alias:
            sampler.AliasTable(p.probs)


if __name__ == "__main__":
    for net in WORKLOADS[sys.argv[1]].networks:
        build(net)
