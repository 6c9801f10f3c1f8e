"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/baseline.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs `bench/run.py --trace 0` once per seed and workload, one run at a time,
with `run_seconds` from BENCHMARK.json.  For every metric it records the
median, the quartiles given by `statistics.quantiles(values, n=4)` and the
spread (q3 - q1) / median, the figure each metric's bound is compared
with.  Results for the workloads run are merged into FILE (default
bench/baseline.json); other workloads already in FILE are kept.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = ap.parse_args()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["run_seconds"] = spec["run_seconds"]
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values, runs = {}, []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  "correct" if result["correct"] else "INCORRECT", flush=True)
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "values": vals}
        doc[name] = {"seeds": args.seeds, "runs": runs, "metrics": summary}
        for metric, s in summary.items():
            print(f"{name} {metric}: median {s['median']:.4f} spread {s['spread']:.4f}")
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
