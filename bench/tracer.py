"""Run one `greedyvote` CLI request with spans around the calls into each layer.

    python3 bench/tracer.py TRACE_JSON -- gain --n 1000 ...

Spans are recorded from this file only: the public names each layer calls
are replaced, where their callers look them up, by wrappers that record
(name, start, end, parent).  Nothing under src/ changes.  A name that no
longer exists is skipped and listed as absent, so a refactor that deletes it
does not break the traced run.  After the request the spans are reduced to
per-layer sums, written to TRACE_JSON, and the process exits with the
CLI's own exit code.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time

clock = time.perf_counter


class Tracer:
    """In-memory spans of one process, plus counters read from results.

    A span is a list [name, start, end, parent span, exception name].  The
    parent is the innermost open span of the same thread; a pool worker
    thread with no open span takes the main thread's innermost open span,
    the call that submitted the work.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.maxima = {}
        self.gain_vars = []
        self.counters = {}
        self.absent = []
        self.hook_errors = 0
        self._hook_lock = threading.Lock()  # hooks run in pool threads too
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def call(self, name, fn, args, kwargs, hook):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = [name, clock(), 0.0, parent, None]
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[4] = type(exc).__name__
            raise
        finally:
            span[2] = clock()
            stack.pop()
            self.spans.append(span)
        if hook is not None:
            with self._hook_lock:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    self.hook_errors += 1
        return result

    def _lookup(self, module, path):
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None and module is not None:
            self.absent.append(f"{module.__name__}.{path}")
        return owner, attr, fn

    def wrap(self, module, path, name, hook=None):
        """Replace `module.path` (a function or Class.method) by a traced wrapper."""
        owner, attr, fn = self._lookup(module, path)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        setattr(owner, attr, traced)

    def count_calls(self, module, path, key):
        """Count calls of `module.path` without a span (too frequent to time)."""
        owner, attr, fn = self._lookup(module, path)
        if fn is None:
            return
        counter = self.counters[key] = itertools.count()  # next() is atomic

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def summary(self) -> dict:
        """Per-name calls, busy time and self time, plus the counters.

        Busy time is the length of the union of a name's spans, so two pool
        threads inside the sampler at once count once.  Self time is busy
        time minus the part of it covered by child spans.
        """
        by_name, child_cov = {}, {}
        for name, t0, t1, parent, _ in self.spans:
            by_name.setdefault(name, []).append((t0, t1))
            if parent is not None:
                child_cov.setdefault(parent[0], []).append((t0, t1))
        layers = {}
        for name, intervals in by_name.items():
            busy = _union(intervals)
            covered = _intersect(busy, _union(child_cov.get(name, [])))
            layers[name] = {"calls": len(intervals), "busy_s": _length(busy),
                            "self_s": _length(busy) - _length(covered)}
        counts = dict(self.counts)
        for key, counter in self.counters.items():
            counts[key] = next(counter)
        for name, _, _, parent, exc in self.spans:
            if name.startswith("exact."):
                outer = parent is None or not parent[0].startswith("exact.")
                if exc == "ResourceLimitError" and outer:
                    counts["exact.rejected"] = counts.get("exact.rejected", 0) + 1
                if name == "exact.joint" and parent is not None \
                        and parent[0] == "exact.truncated":
                    counts["exact.truncated.joint_calls"] = \
                        counts.get("exact.truncated.joint_calls", 0) + 1
        return {"layers": layers, "counts": counts, "maxima": self.maxima,
                "gain_vars": self.gain_vars, "absent": self.absent,
                "hook_errors": self.hook_errors}


def _union(intervals):
    merged = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            if t1 > merged[-1][1]:
                merged[-1][1] = t1
        else:
            merged.append([t0, t1])
    return merged


def _intersect(a, b):
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append([lo, hi])
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _length(intervals):
    return sum(t1 - t0 for t0, t1 in intervals)


# ---------------------------------------------------------------------------
# result hooks: counters read from what a traced call returned
# ---------------------------------------------------------------------------


def _on_alias(tr, args, result):
    # wraps AliasTable.__init__(self, probs)
    tr.maximum("sampler.alias_build.max_n", int(args[1].size))


def _on_greedy(tr, args, sample):
    tr.add("sampler.draws", sample.total_draws)


def _on_coupled(tr, args, cs):
    v_pre, v_post = cs.pre.total_draws, cs.post.total_draws
    pre = cs.pre.counts.get(cs.split_node, 0) / v_pre
    post = sum(cs.post.counts.get(j, 0) for j in cs.part_indices) / v_post
    tr.add("sampler.draws", v_pre)  # one shared stream of v_pre draws
    tr.add("coupled.K", cs.K)
    tr.add("coupled.L", cs.L)
    for key, x in (("pre", pre), ("post", post), ("gain", post - pre)):
        tr.add(f"coupled.{key}.sum", x)
        tr.add(f"coupled.{key}.sumsq", x * x)


def _on_estimate(tr, args, est):
    tr.add("fairness.runs", est.n_runs)
    tr.gain_vars.append(est.std_error ** 2 * est.n_runs)


def _on_truncated(tr, args, result):
    tr.maximum("exact.truncated.error_bound", float(result[1]))


def _on_fpc(tr, args, trace):
    tr.add("fpc.rounds", trace.n_rounds)


# (module, name where callers look it up, span name, result hook)
TRACED = (
    ("weights", "zipf_weights", "weights.zipf", None),
    ("fairness", "zipf_weights", "weights.zipf", None),
    ("weights", "sampling_distribution", "weights.sampling_distribution", None),
    ("fairness", "sampling_distribution", "weights.sampling_distribution", None),
    ("fpc", "sampling_distribution", "weights.sampling_distribution", None),
    ("weights", "apply_split", "weights.apply_split", None),
    ("fairness", "apply_split", "weights.apply_split", None),
    ("sampler", "AliasTable.__init__", "sampler.alias_build", _on_alias),
    ("sampler", "greedy_sample", "sampler.greedy", _on_greedy),
    ("fairness", "greedy_sample", "sampler.greedy", _on_greedy),
    ("fpc", "greedy_sample", "sampler.greedy", _on_greedy),
    ("sampler", "coupled_greedy_sample", "sampler.coupled", _on_coupled),
    ("fairness", "coupled_greedy_sample", "sampler.coupled", _on_coupled),
    ("fairness", "estimate_split_gain", "fairness.estimate", _on_estimate),
    ("fairness", "estimate_voting_power", "fairness.estimate", _on_estimate),
    ("exact", "exact_joint_distribution", "exact.joint", None),
    ("exact", "exact_v_distribution", "exact.v", None),
    ("exact", "voting_power_truncated", "exact.truncated", _on_truncated),
    ("fpc", "run_fpc", "fpc.run", _on_fpc),
    ("fpc", "mean_opinion", "fpc.mean_opinion", None),
)
COUNTED = (("sampler", "RngStream.child", "sampler.streams_opened"),)


# ---------------------------------------------------------------------------
# per-layer metrics, computed by the benchmark from the summaries above
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "weights.zipf.s": "s", "weights.zipf.calls": "count",
    "weights.sampling_distribution.s": "s", "weights.sampling_distribution.calls": "count",
    "weights.apply_split.s": "s", "weights.apply_split.calls": "count",
    "sampler.alias_build.s": "s", "sampler.alias_build.calls": "count",
    "sampler.alias_build.max_n": "count",
    "sampler.greedy.calls": "count", "sampler.greedy.self_s": "s",
    "sampler.greedy.us_per_run": "us",
    "sampler.coupled.calls": "count", "sampler.coupled.self_s": "s",
    "sampler.coupled.us_per_run": "us", "sampler.coupled.K_mean": "count",
    "sampler.coupled.L_mean": "count",
    "sampler.draws": "count", "sampler.ns_per_draw": "ns",
    "sampler.draws_per_result": "count", "sampler.streams_opened": "count",
    "fairness.estimate.s": "s", "fairness.self_s": "s", "fairness.gain_var": "1",
    "fairness.coupling_efficiency": "1",
    "exact.joint.s": "s", "exact.joint.calls": "count", "exact.v.s": "s",
    "exact.truncated.s": "s", "exact.truncated.joint_calls": "count",
    "exact.truncated.error_bound": "1", "exact.rejected": "count",
    "fpc.run.s": "s", "fpc.self_s": "s", "fpc.mean_opinion.calls": "count",
    "fpc.mean_opinion.us_per_call": "us", "fpc.rounds": "count",
    "cli.import_s": "s", "cli.self_s": "s", "cli.output_bytes": "B", "cli.cpu_util": "1",
    "trace.overhead_s": "s",
}


def _merge(traces):
    layers, counts, maxima, gain_vars, absent = {}, {}, {}, [], set()
    for t in traces:
        for name, row in t["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in t["maxima"].items():
            maxima[key] = max(maxima.get(key, value), value)
        gain_vars += t["gain_vars"]
        absent.update(t["absent"])
    return layers, counts, maxima, gain_vars, sorted(absent)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _variance(counts, key, n):
    if n < 2:
        return 0.0
    s, ss = counts.get(f"coupled.{key}.sum", 0.0), counts.get(f"coupled.{key}.sumsq", 0.0)
    return (ss - s * s / n) / (n - 1)


def layer_metrics(summaries, output_bytes):
    """Per-layer metrics from the summaries of one traced pass's requests.

    A layer that did no work reads 0.  Returns the metrics and the traced
    names that were absent.
    """
    layers, counts, maxima, gain_vars, absent = _merge(summaries)

    def span(name, key):
        return layers.get(name, {}).get(key, 0)

    greedy_n, coupled_n = span("sampler.greedy", "calls"), span("sampler.coupled", "calls")
    draws = counts.get("sampler.draws", 0)
    results = counts.get("fairness.runs", 0) or greedy_n
    var_sum = _variance(counts, "pre", coupled_n) + _variance(counts, "post", coupled_n)
    m = {
        "weights.zipf.s": span("weights.zipf", "busy_s"),
        "weights.zipf.calls": span("weights.zipf", "calls"),
        "weights.sampling_distribution.s": span("weights.sampling_distribution", "busy_s"),
        "weights.sampling_distribution.calls": span("weights.sampling_distribution", "calls"),
        "weights.apply_split.s": span("weights.apply_split", "busy_s"),
        "weights.apply_split.calls": span("weights.apply_split", "calls"),
        "sampler.alias_build.s": span("sampler.alias_build", "busy_s"),
        "sampler.alias_build.calls": span("sampler.alias_build", "calls"),
        "sampler.alias_build.max_n": maxima.get("sampler.alias_build.max_n", 0),
        "sampler.greedy.calls": greedy_n,
        "sampler.greedy.self_s": span("sampler.greedy", "self_s"),
        "sampler.greedy.us_per_run": _ratio(span("sampler.greedy", "self_s"), greedy_n, 1e6),
        "sampler.coupled.calls": coupled_n,
        "sampler.coupled.self_s": span("sampler.coupled", "self_s"),
        "sampler.coupled.us_per_run": _ratio(span("sampler.coupled", "self_s"), coupled_n,
                                             1e6),
        "sampler.coupled.K_mean": _ratio(counts.get("coupled.K", 0), coupled_n),
        "sampler.coupled.L_mean": _ratio(counts.get("coupled.L", 0), coupled_n),
        "sampler.draws": draws,
        "sampler.ns_per_draw": _ratio(span("sampler.greedy", "self_s")
                                      + span("sampler.coupled", "self_s"), draws, 1e9),
        "sampler.draws_per_result": _ratio(draws, results),
        "sampler.streams_opened": counts.get("sampler.streams_opened", 0),
        "fairness.estimate.s": span("fairness.estimate", "busy_s"),
        "fairness.self_s": span("fairness.estimate", "self_s"),
        "fairness.gain_var": statistics.median(gain_vars) if gain_vars else 0.0,
        "fairness.coupling_efficiency": _ratio(_variance(counts, "gain", coupled_n), var_sum),
        "exact.joint.s": span("exact.joint", "busy_s"),
        "exact.joint.calls": span("exact.joint", "calls"),
        "exact.v.s": span("exact.v", "busy_s"),
        "exact.truncated.s": span("exact.truncated", "busy_s"),
        "exact.truncated.joint_calls": counts.get("exact.truncated.joint_calls", 0),
        "exact.truncated.error_bound": maxima.get("exact.truncated.error_bound", 0.0),
        "exact.rejected": counts.get("exact.rejected", 0),
        "fpc.run.s": span("fpc.run", "busy_s"),
        "fpc.self_s": span("fpc.run", "self_s"),
        "fpc.mean_opinion.calls": span("fpc.mean_opinion", "calls"),
        "fpc.mean_opinion.us_per_call": _ratio(span("fpc.mean_opinion", "busy_s"),
                                               span("fpc.mean_opinion", "calls"), 1e6),
        "fpc.rounds": counts.get("fpc.rounds", 0),
        "cli.import_s": counts.get("cli.import_s", 0.0),
        "cli.self_s": span("cli.main", "self_s"),
        "cli.output_bytes": output_bytes,
    }
    return m, absent


def _module(tracer, mod, path):
    try:
        return importlib.import_module(f"greedyvote.{mod}")
    except ImportError:
        tracer.absent.append(f"greedyvote.{mod}.{path}")
        return None


def main(argv) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON -- CLI_ARGS...")
    t0 = clock()
    cli = importlib.import_module("greedyvote.cli")
    import_s = clock() - t0
    tracer = Tracer()
    for mod, path, name, hook in TRACED:
        tracer.wrap(_module(tracer, mod, path), path, name, hook)
    for mod, path, key in COUNTED:
        tracer.count_calls(_module(tracer, mod, path), path, key)
    code = tracer.call("cli.main", cli.main, (cli_args,), {}, None)
    doc = tracer.summary()
    doc["counts"]["cli.import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
