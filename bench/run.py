"""Benchmark of the `greedyvote` CLI.

    python3 bench/run.py --workload gain-coupled --seed 7 --seconds 24 --trace 0

Runs one workload of `workloads.py` as a single closed-loop client: each CLI
request runs in a fresh interpreter and starts after the previous one has
exited.  Passes over the workload's requests repeat at the same seed for
about `--seconds` seconds.  Every pass's output files must be byte-identical
to the first pass's, and every output must pass the workload's correctness
check against `references.json`; checks run outside the timed region.

It prints, per workload, the end-to-end metrics

    wall_s             median wall time of one pass over the timed requests
    setup_s            median time for a fresh interpreter to import
                       greedyvote.cli and build the workload's networks
    runs_per_s         Monte Carlo runs per second (gain-coupled, sweep-wide)
    node_rounds_per_s  nodes x FPC rounds per second (fpc-rounds)
    time_to_se_s       wall_s * (std_error / 1e-5)^2 (gain-coupled)
    peak_rss_mb        largest child RSS of a pass, from the child's own rusage
    fail_rate          failed requests / requests, limit probes included

With `--trace 1` it alternates plain and traced passes (see `tracer.py`)
and also prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
three end-to-end metrics every workload has and that are never zero:
`wall_s`, `setup_s` and `peak_rss_mb`; with `--trace 1` they are the
per-layer metrics.  `attempted` and `failed` count the timed requests and
the check requests; limit probes, requests this version refuses by design,
count only in `fail_rate`.  Each run writes its figures and environment to
bench/results/.  The exit code is 2, with no result, when the checkout has
no greedyvote sources or the run cannot finish within DEADLINE_S.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import CHECKS, WORKLOADS, Output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 5
CLI_ENTRY = "import sys\nfrom greedyvote.cli import main\nsys.exit(main())"
SE_TARGET = 1e-5


class BenchError(Exception):
    """The benchmark cannot run here; it exits nonzero without a result."""


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


@dataclass
class Pass:
    """One pass over a workload's requests, in its own directory."""

    traced: bool
    wall_s: float = 0.0
    children: list = field(default_factory=list)  # timed requests only
    outputs: dict = field(default_factory=dict)   # tag -> Output
    traces: list = field(default_factory=list)    # tracer summaries
    probes: list = field(default_factory=list)    # tags of limit probes


class Runner:
    """Spawns a workload's requests in fresh interpreters under one deadline."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k != "GREEDYVOTE_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        self.n_dirs = 0

    def time_left(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def spawn(self, argv, cwd, name) -> Child:
        """Run argv to completion; rusage comes from wait4 on that child."""
        with open(cwd / f"{name}.stdout", "w+") as out, \
                open(cwd / f"{name}.stderr", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(self.time_left(), 0.1), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if self.time_left() <= 0:
                raise BenchError(f"time limit reached while running {argv[-8:]}")
            out.seek(0)
            return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0, out.read())

    def request(self, inv, cwd, traced, p: Pass) -> Child:
        args = list(inv.argv) + ["-o", f"{inv.tag}.csv"]
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), f"{inv.tag}.trace.json",
                    "--", *args]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
        child = self.spawn(argv, cwd, inv.tag)
        files = {f.name: f.read_bytes() for f in cwd.iterdir()
                 if f.name.startswith(f"{inv.tag}.csv")}
        p.outputs[inv.tag] = Output(child.returncode, child.stdout, files)
        trace_file = cwd / f"{inv.tag}.trace.json"
        if traced and trace_file.exists():
            p.traces.append(json.loads(trace_file.read_text()))
        return child

    def new_dir(self):
        d = WORK / f"pass{self.n_dirs}"
        self.n_dirs += 1
        d.mkdir()
        return d

    def run_pass(self, traced) -> Pass:
        p, d = Pass(traced), self.new_dir()
        t0 = time.perf_counter()
        for inv in self.workload.invocations(self.seed):
            p.children.append(self.request(inv, d, traced, p))
        p.wall_s = time.perf_counter() - t0
        for inv in self.workload.limit_probes(self.seed):
            self.request(inv, d, traced, p)
            p.probes.append(inv.tag)
        return p

    def setup_probe(self) -> float:
        argv = [sys.executable, str(BENCH / "setup_probe.py"), self.workload.name]
        child = self.spawn(argv, self.new_dir(), "setup")
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed with exit code {child.returncode}")
        return child.wall_s


def check_outputs(passes, extra: Pass, refs):
    """Failures per request: exit code, correctness check, byte-identity."""
    failures = []  # (tag, probe?, message)
    first = passes[0].outputs
    for p in passes + [extra]:
        for tag, out in p.outputs.items():
            probe = tag in p.probes
            if out.returncode != 0:
                msg = f"exit code {out.returncode}"
            elif p is not extra and out.files != first[tag].files:
                msg = "output differs from the first pass at the same seed"
            else:
                try:
                    errors = CHECKS[tag](tag, p.outputs, refs)
                except (KeyError, ValueError, UnicodeDecodeError) as exc:
                    errors = [f"unreadable output: {exc!r}"]
                msg = "; ".join(errors)
            if msg:
                failures.append((tag, probe, msg))
    return failures


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def check_environment():
    """Import greedyvote from this checkout's src/ and load the references."""
    if not (SRC / "greedyvote" / "cli.py").is_file():
        raise BenchError(f"no greedyvote sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import greedyvote

    if Path(greedyvote.__file__).resolve().parent != SRC / "greedyvote":
        raise BenchError(f"imported greedyvote from {greedyvote.__file__}, not {SRC}")
    try:
        return json.loads((BENCH / "references.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read references: {exc}") from exc


def environment(seed):
    import greedyvote

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "greedyvote": greedyvote.__version__, "git_commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed,
    }


def gain_k2_exact():
    """Closed-form k=2 gain of the gain-coupled configuration."""
    import numpy as np
    from greedyvote import exact, weights

    w = weights.zipf_weights(weights.ZipfParams(s=1.1, n=1000))
    return exact.split_gain_k2(weights.sampling_distribution(w),
                               weights.SplitSpec(0, np.array([0.5, 0.5])))


# ---------------------------------------------------------------------------
# measurement and metrics
# ---------------------------------------------------------------------------


def measure(runner: Runner, seconds, trace):
    """Passes over the workload for about `seconds` seconds, at least two.

    A pass starts only if the previous pass's duration still fits in the
    time left.  With tracing, plain and traced passes alternate.
    """
    passes, start = [], time.perf_counter()
    while True:
        passes.append(runner.run_pass(traced=bool(trace and len(passes) % 2)))
        last = passes[-1].wall_s
        fits = time.perf_counter() - start + last <= seconds
        if (len(passes) >= 2 and not fits) or runner.time_left() < 3 * last + 10:
            break
    if len(passes) < 2:
        raise BenchError("no time for two passes over the workload")
    return passes


def end_to_end(workload, plain, setup, failures, fail_rate, n_requests):
    """The end-to-end table: name -> (value, unit, samples), None where n/a."""
    walls = [p.wall_s for p in plain]
    wall = median(walls)
    table = dict.fromkeys(("wall_s", "setup_s", "runs_per_s", "node_rounds_per_s",
                           "time_to_se_s", "peak_rss_mb", "fail_rate"))
    table["wall_s"] = (wall, "s", len(walls))
    if setup:
        table["setup_s"] = (median(setup), "s", len(setup))
    if workload.work_unit:
        table[f"{workload.work_unit}_per_s"] = (workload.work_per_run / wall, "1/s",
                                                len(walls))
    gain = plain[0].outputs.get("gain")
    if gain is not None and not any(tag == "gain" for tag, _, _ in failures):
        se = float(gain.csv_rows("gain")[0]["std_error"])
        table["time_to_se_s"] = (wall * (se / SE_TARGET) ** 2, "s", len(walls))
    table["peak_rss_mb"] = (median([max(c.rss_mb for c in p.children) for p in plain]),
                            "MB", len(plain))
    table["fail_rate"] = (fail_rate, "1", n_requests)
    return table


def per_layer(plain, traced):
    """Per-layer metrics (median over traced passes) and the absent names."""
    per_pass = [tracer.layer_metrics(p.traces, sum(
        len(b) for o in p.outputs.values() for b in o.files.values())) for p in traced]
    layers = {k: statistics.median_low([m[k] for m, _ in per_pass]) for k in per_pass[0][0]}
    children = [c for p in plain for c in p.children]
    layers["cli.cpu_util"] = sum(c.cpu_s for c in children) / sum(c.wall_s for c in children)
    layers["trace.overhead_s"] = (median([p.wall_s for p in traced])
                                  - median([p.wall_s for p in plain]))
    return layers, per_pass[0][1]


def run(workload, seed, seconds, trace):
    refs = check_environment()
    if workload.extra_checks:
        refs = dict(refs, gain_k2_exact=gain_k2_exact())
    runner = Runner(workload, seed)
    # warm-up: byte-compiles the sources and fills the page cache
    warm = runner.spawn([sys.executable, "-c", "import greedyvote.cli"], runner.new_dir(),
                        "warm")
    if warm.returncode != 0:
        raise BenchError(f"cannot import greedyvote.cli (exit code {warm.returncode})")
    setup = [] if trace else [runner.setup_probe() for _ in range(SETUP_PROBES)]
    passes = measure(runner, seconds, trace)
    extra, d = Pass(False), runner.new_dir()
    for make in workload.extra_checks:
        runner.request(make(seed), d, False, extra)

    failures = check_outputs(passes, extra, refs)
    n_probes = sum(len(p.probes) for p in passes)
    attempted = sum(len(p.outputs) for p in passes) - n_probes + len(extra.outputs)
    failed = sum(1 for _, probe, _ in failures if not probe)
    plain = [p for p in passes if not p.traced]
    table = end_to_end(workload, plain, setup, failures,
                       len(failures) / (attempted + n_probes), attempted + n_probes)
    absent = []
    if trace:
        traced = [p for p in passes if p.traced]
        layers, absent = per_layer(plain, traced)
        metrics = {k: {"value": v, "unit": tracer.LAYER_UNITS[k], "samples": len(traced)}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": table[k][0], "unit": table[k][1], "samples": table[k][2]}
                   for k in ("wall_s", "setup_s", "peak_rss_mb")}

    print(f"workload {workload.name}  seed {seed}  trace {trace}  passes {len(passes)}  "
          f"plain pass wall_s {[round(p.wall_s, 3) for p in plain]}")
    for name, row in table.items():
        text = "n/a" if row is None else f"{row[0]:.6g} {row[1]}  (n={row[2]})"
        print(f"  {name:<18} {text}")
    if trace:
        for name, m in metrics.items():
            print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
        if absent:
            print(f"  absent, reported as 0: {', '.join(absent)}")
    for tag, probe, msg in failures:
        print(f"  {'limit probe' if probe else 'FAILED'} {tag}: {msg}")

    RESULTS.mkdir(exist_ok=True)
    doc = {
        "workload": workload.name, "why": workload.why, "trace": trace, "seconds": seconds,
        "environment": environment(seed),
        "end_to_end": {k: None if v is None else {"value": v[0], "unit": v[1], "samples": v[2]}
                       for k, v in table.items()},
        "metrics": metrics, "absent": absent,
        "pass_wall_s": {"plain": [p.wall_s for p in plain],
                        "traced": [p.wall_s for p in passes if p.traced]},
        "setup_s": setup,
        "failures": [{"request": t, "limit_probe": probe, "message": msg}
                     for t, probe, msg in failures],
    }
    (RESULTS / f"{workload.name}.seed{seed}.trace{trace}.json").write_text(
        json.dumps(doc, indent=2) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
