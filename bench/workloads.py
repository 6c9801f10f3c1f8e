"""The four benchmark workloads: CLI invocations, networks and output checks.

A workload is a fixed list of `greedyvote` invocations run one after the
other, each in a fresh interpreter (one closed-loop client).  The CLI runs
with its default thread count; no `--threads` flag and no
`GREEDYVOTE_THREADS` are passed, so the benchmark measures what a user gets.

This module imports nothing from greedyvote, so the benchmark can describe a
workload before it has checked that the package is present.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

CHECK_SIGMAS = 4.0  # tolerance of every Monte Carlo check, in combined SEs


@dataclass(frozen=True)
class Invocation:
    """One CLI request; its output goes to `<tag>.csv` in the run directory."""

    tag: str
    argv: tuple


@dataclass
class Output:
    """What one invocation left behind: exit code, stdout and output files."""

    returncode: int
    stdout: str
    files: dict  # file name -> bytes

    def csv_rows(self, tag: str) -> list:
        text = self.files[f"{tag}.csv"].decode()
        return list(csv.DictReader(io.StringIO(text)))

    def json_file(self, name: str) -> dict:
        return json.loads(self.files[name].decode())

    def stdout_value(self, key: str) -> float:
        for line in self.stdout.splitlines():
            if line.startswith(f"{key}="):
                return float(line.split("=", 1)[1])
        raise KeyError(f"no {key}= line on stdout")


@dataclass(frozen=True)
class Network:
    """A network a workload samples from, built by the set-up probe."""

    s: float
    n: int
    f: str = "identity"
    split_r: int = 0   # > 0: also build the network with node 1 split r ways
    alias: bool = True  # False: the workload never samples from it


@dataclass(frozen=True)
class Workload:
    """A named workload; `invocations(seed)` lists the timed requests."""

    name: str
    why: str
    invocations: Callable[[int], list]
    networks: tuple
    work_unit: str = ""  # "runs" or "node_rounds": what work_per_run counts
    work_per_run: int = 0
    # requests at a documented limit of this version, run after every pass
    # outside the timed region: they count in fail_rate, not as failed
    # operations of the workload
    limit_probes: Callable[[int], list] = lambda seed: []
    # seed -> Invocation, run once after the passes to check the program
    extra_checks: tuple = ()


def _near(value, ref, se, what):
    if abs(value - ref) > CHECK_SIGMAS * se:
        return [f"{what}: {value!r} is {abs(value - ref) / se:.1f} SE from {ref!r}"]
    return []


def _gain_rows(out: Output, tag: str):
    return [{k: float(v) for k, v in row.items()} for row in out.csv_rows(tag)]


# ---------------------------------------------------------------------------
# gain-coupled
# ---------------------------------------------------------------------------

GAIN_RUNS = 100_000
GAIN_ARGS = ("gain", "--generator", "zipf", "--s", "1.1", "--n", "1000", "--k", "20",
             "--node", "1", "--fractions", "0.5,0.5", "--n-runs", str(GAIN_RUNS))
K2_RUNS = 50_000


def gain_invocations(seed):
    return [Invocation("gain", GAIN_ARGS + ("--seed", str(seed)))]


def gain_k2_invocation(seed):
    """The gain configuration at k=2, checked against the closed form."""
    args = list(GAIN_ARGS)
    args[args.index("--k") + 1] = "2"
    args[args.index("--n-runs") + 1] = str(K2_RUNS)
    return Invocation("gain_k2", tuple(args) + ("--seed", str(seed)))


def check_gain(tag, outputs, refs):
    (row,) = _gain_rows(outputs[tag], tag)
    if tag == "gain_k2":
        return _near(row["mean"], refs["gain_k2_exact"], row["std_error"], "k=2 gain")
    ref = refs["gain-coupled"]
    se = math.hypot(row["std_error"], ref["std_error"])
    errors = _near(row["mean"], ref["mean"], se, "gain")
    if row["n_runs"] != GAIN_RUNS:
        errors.append(f"gain: n_runs {row['n_runs']} != {GAIN_RUNS}")
    return errors


# ---------------------------------------------------------------------------
# sweep-wide
# ---------------------------------------------------------------------------

SWEEP_SIZES = (10_000, 100_000, 1_000_000)
SWEEP_RUNS = 20_000
SWEEP_ARGS = ("sweep", "--axis", "network_size",
              "--axis-values", ",".join(str(n) for n in SWEEP_SIZES),
              "--s", "0.8", "--k", "20", "--f", "power:0.5", "--coupled", "false",
              "--n-runs", str(SWEEP_RUNS))


def sweep_invocations(seed):
    return [Invocation("sweep", SWEEP_ARGS + ("--seed", str(seed)))]


def check_sweep(tag, outputs, refs):
    rows = _gain_rows(outputs[tag], tag)
    ref_rows = refs["sweep-wide"]["rows"]
    if [int(r["axis_value"]) for r in rows] != list(SWEEP_SIZES):
        return [f"sweep: axis values {[r['axis_value'] for r in rows]}"]
    errors = []
    for row, ref in zip(rows, ref_rows):
        if row["n_runs"] != SWEEP_RUNS:
            errors.append(f"sweep N={ref['n']}: n_runs {row['n_runs']}")
        se = math.hypot(row["std_error"], ref["std_error"])
        errors += _near(row["mean"], ref["mean"], se, f"sweep N={ref['n']}")
    return errors


# ---------------------------------------------------------------------------
# exact-engine
# ---------------------------------------------------------------------------

EXACT_P8 = ("power", "--n", "8", "--k", "4", "--node", "1", "--epsilon", "1e-9", "--s", "1")
EXACT_14 = ("exact", "--n", "14", "--k", "6", "--v-max", "24", "--node", "1", "--s", "1")
EXACT_P10 = ("power", "--n", "10", "--k", "5", "--node", "1", "--epsilon", "1e-6",
             "--s", "1")


def exact_invocations(seed):
    # the exact paths draw no random numbers; `power` still records the seed
    # in its sidecar, `exact` has no seed option
    return [
        Invocation("p8", EXACT_P8 + ("--seed", str(seed))),
        Invocation("joint14", EXACT_14 + ("--dist", "joint")),
        Invocation("v14", EXACT_14 + ("--dist", "v")),
    ]


def exact_limit_probes(seed):
    # N=10, k=5 exceeds the composition budget at this version (exit 3)
    return [Invocation("p10", EXACT_P10 + ("--seed", str(seed)))]


def _fsum_is_one(probs, residual, what):
    total = math.fsum(probs) + residual
    if abs(total - 1.0) > 1e-12:
        return [f"{what}: probabilities plus residual sum to {total!r}"]
    return []


def check_power(tag, outputs, refs):
    (row,) = outputs[tag].csv_rows(tag)
    value, bound = float(row["value"]), float(row["error_bound"])
    ref = refs[tag]
    if tag == "p8":
        errors = [] if bound <= 1e-9 else [f"p8: error_bound {bound!r} > 1e-9"]
        if abs(value - ref["value"]) > 1e-10:
            errors.append(f"p8: value {value!r} vs reference {ref['value']!r}")
        return errors
    errors = [] if bound <= 1e-6 else [f"{tag}: error_bound {bound!r} > 1e-6"]
    return errors + _near(value, ref["mean"], ref["std_error"], tag)


def check_joint(tag, outputs, refs):
    out = outputs[tag]
    return _fsum_is_one([float(r["prob"]) for r in out.csv_rows(tag)],
                        out.stdout_value("residual"), tag)


def check_vlaw(tag, outputs, refs):
    """The v law sums to one and equals the v-marginal of the joint law."""
    out = outputs[tag]
    rows = out.csv_rows(tag)
    errors = _fsum_is_one([float(r["prob"]) for r in rows], out.stdout_value("residual"), tag)
    marginal = {}
    for r in outputs["joint14"].csv_rows("joint14"):
        marginal.setdefault(int(r["v"]), []).append(float(r["prob"]))
    for r in rows:
        v, q = int(r["v"]), float(r["prob"])
        m = math.fsum(marginal.pop(v, []))
        if abs(m - q) > 1e-12:
            errors.append(f"{tag}: P(V={v}) {q!r} vs joint marginal {m!r}")
    if marginal:
        errors.append(f"{tag}: joint draw counts {sorted(marginal)} missing from the v law")
    return errors


# ---------------------------------------------------------------------------
# fpc-rounds
# ---------------------------------------------------------------------------

FPC_NODES = 10_000
FPC_ROUNDS = 5
FPC_ARGS = ("fpc", "--n", str(FPC_NODES), "--s", "1", "--k", "20", "--ones-fraction", "0.5",
            "--max-rounds", str(FPC_ROUNDS), "--finality-l", "6")


def fpc_invocations(seed):
    return [Invocation("fpc", FPC_ARGS + ("--seed", str(seed)))]


def check_fpc(tag, outputs, refs):
    rows = outputs[tag].csv_rows(tag)
    summary = outputs[tag].json_file(f"{tag}.csv.summary.json")
    errors = []
    if summary["n_rounds"] != FPC_ROUNDS or [int(r["round"]) for r in rows] != list(
            range(1, FPC_ROUNDS + 1)):
        errors.append(f"fpc: ran {summary['n_rounds']} rounds, expected {FPC_ROUNDS}")
    for r in rows:
        if not 0.3 <= float(r["u_t"]) <= 0.7:
            errors.append(f"fpc: round {r['round']} threshold {r['u_t']} outside [0.3, 0.7]")
    return errors


# ---------------------------------------------------------------------------

CHECKS = {
    "gain": check_gain, "gain_k2": check_gain, "sweep": check_sweep,
    "p8": check_power, "p10": check_power, "joint14": check_joint, "v14": check_vlaw,
    "fpc": check_fpc,
}

WORKLOADS = {w.name: w for w in (
    Workload(
        "gain-coupled",
        "README's canonical coupled gain run; time goes to the per-draw coupled "
        "loop and per-run bookkeeping, alias and weights are under 1%",
        gain_invocations,
        (Network(1.1, 1000),),
        "runs", GAIN_RUNS,
        extra_checks=(gain_k2_invocation,),
    ),
    Workload(
        "sweep-wide",
        "independent sweep up to N=10^6 with f=power:0.5: the only workload where "
        "weights, split and alias builds carry real weight and memory",
        sweep_invocations,
        tuple(Network(0.8, n, "power:0.5", split_r=2) for n in SWEEP_SIZES),
        "runs", SWEEP_RUNS * len(SWEEP_SIZES),
    ),
    Workload(
        "exact-engine",
        "pure exact enumeration, no sampling: power --epsilon truncation loop and "
        "the N=14, k=6 joint and v laws at the enumeration budget corner",
        exact_invocations,
        (Network(1.0, 8, alias=False), Network(1.0, 14, alias=False),
         Network(1.0, 10, alias=False)),
        limit_probes=exact_limit_probes,
    ),
    Workload(
        "fpc-rounds",
        "5 FPC rounds on N=10^4: 5x10^4 short quorums, each on its own substream, so "
        "stream creation and per-quorum averaging dominate",
        fpc_invocations,
        (Network(1.0, FPC_NODES),),
        "node_rounds", FPC_NODES * FPC_ROUNDS,
    ),
)}
