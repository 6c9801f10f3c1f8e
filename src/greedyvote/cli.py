"""Experiment runner: `greedyvote SUBCOMMAND [flags]`.

Subcommands: exact | sample | power | gain | sweep | kde | qq | fpc | tau.
Every option can also come from a JSON config file (--config); explicit flags
override file values.  Runs that write an output file also write a sidecar
`<output>.config.json` with the fully resolved configuration, the package
version and the stream layout version, so any result can be reproduced byte
for byte from its sidecar by a version with the same stream layout.

Exit codes: 0 success, 1 runtime sampling error, 2 validation failure,
3 resource limit (an exact computation's budget, or memory).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, exact, fairness, fpc, sampler, weights
from .errors import GreedyVoteError, InvalidParameterError, ResourceLimitError


def _parse_floats(text: str):
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip() != "")
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse number list from {text!r}") from exc


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    t = str(value).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise InvalidParameterError(f"cannot parse boolean from {value!r}")


def _parse_int(value) -> int:
    """value as an int; a whole-number spelling (1e3, 20.0) is read as its integer,
    and a boolean, a fraction or a non-finite number is refused, not cut."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    if not isinstance(value, float):
        try:
            return int(value)  # exact for any integer spelling, however long
        except ValueError:
            pass
    number = float(value)
    if not number.is_integer():  # nor are inf and nan
        raise ValueError(f"{value!r} is not an integer")
    return int(number)


# one row per key: caster, default
_SOURCE_KEYS = {
    "generator": (str, "zipf"),
    "s": (float, 1.0),
    "n": (_parse_int, 1000),
    "weights": (str, None),
    "weights_csv": (str, None),
    "f": (str, "identity"),
}

# keys of the subcommands that run a split-gain estimate (gain, kde, qq)
_GAIN_KEYS = {
    **_SOURCE_KEYS,
    "k": (_parse_int, 20),
    "node": (_parse_int, 1),
    "fractions": (str, "0.5,0.5"),
    "n_runs": (_parse_int, 10_000),
    "seed": (_parse_int, 0),
    "coupled": (_parse_bool, True),
    "output": (str, None),
}


def resolve(subcommand: str, flag_values: dict, config_path=None) -> dict:
    """The validated, fully resolved flat configuration of one subcommand run:
    defaults, config-file values and explicit flags merged in that order of
    increasing precedence, unknown keys rejected, and the subcommand named."""
    if subcommand not in _COMMANDS:
        raise InvalidParameterError(f"unknown subcommand {subcommand!r}")
    schema = _COMMANDS[subcommand].schema
    resolved = {key: default for key, (_, default) in schema.items()}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise InvalidParameterError("config file must hold a JSON object")
        for key, value in file_values.items():
            if key == "subcommand" and value != subcommand:
                raise InvalidParameterError(
                    f"config file is for subcommand {value!r}, not {subcommand!r}")
            if key == "stream_layout" and value != sampler.STREAM_LAYOUT:
                raise InvalidParameterError(
                    f"config file was written with stream layout {value!r}; this "
                    f"version uses layout {sampler.STREAM_LAYOUT} and cannot reproduce it")
            if key in ("subcommand", "stream_layout", "greedyvote_version"):
                continue
            if key not in schema:
                raise InvalidParameterError(f"unknown config key {key!r} for {subcommand}")
            resolved[key] = value
    for key, value in flag_values.items():
        if key not in schema:
            raise InvalidParameterError(f"unknown config key {key!r} for {subcommand}")
        if value is not None:
            resolved[key] = value
    # cast everything through the schema so file- and flag-supplied values
    # end up with identical types
    for key, (caster, _) in schema.items():
        if resolved[key] is not None:
            try:
                resolved[key] = caster(resolved[key])
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(f"bad value for {key!r}: {resolved[key]!r}") from exc
    output = resolved.get("output")  # refused before any work, not after it
    if output is not None and not os.path.isdir(os.path.dirname(output) or "."):
        raise InvalidParameterError(f"cannot write {output}: its directory does not exist")
    resolved["subcommand"] = subcommand
    return resolved


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_CSV_ROWS = 1 << 14  # rows formatted and written at a time


def _emit_csv(cfg: dict, header, columns):
    """One CSV row per entry of the columns, to stdout or to cfg["output"] with
    its sidecar; columns of unequal lengths are an error, not a cut."""
    templates = [_template(c) for c in columns]
    columns = [c if t else [_fmt(v) for v in c] for c, t in zip(columns, templates)]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"CSV columns of unequal lengths {[len(c) for c in columns]}")
    chunks = _csv_chunks(header, columns, ",".join(t or "{}" for t in templates) + "\n")
    output = cfg["output"]
    if output is None:
        sys.stdout.writelines(chunks)
        return
    _write(output, chunks)
    sidecar = {**cfg, "stream_layout": sampler.STREAM_LAYOUT, "greedyvote_version": __version__}
    _write(f"{output}.config.json", [json.dumps(sidecar, sort_keys=True, indent=2) + "\n"])


def _template(column) -> str | None:
    """How a column's values are written: {:.17g}, _fmt's form of a float, for
    numpy floats, str for numpy integers and booleans and for ranges, and None
    for other columns, whose values may mix types and go through _fmt."""
    if isinstance(column, range):
        return "{}"
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    return {"f": "{:.17g}", "i": "{}", "u": "{}", "b": "{}"}.get(kind)


def _csv_chunks(header, columns, line):
    """The header line, then the rows _CSV_ROWS at a time by the line template."""
    yield ",".join(header) + "\n"
    for a in range(0, len(columns[0]), _CSV_ROWS):
        part = (c[a:a + _CSV_ROWS] for c in columns)
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in part))
        yield "".join(itertools.starmap(line.format, rows))


def _write(path, chunks):
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# request set-up
# ---------------------------------------------------------------------------


def _weights_from_config(cfg: dict) -> weights.WeightDistribution:
    """The request's one weight source: weights, weights_csv or the generator; the
    default generator 'zipf' gives way to either file or list, 'csv' to the file only."""
    generator, inline, path = cfg["generator"], cfg["weights"], cfg["weights_csv"]
    if generator not in ("zipf", "csv"):
        raise InvalidParameterError(f"unknown generator {generator!r}; expected 'zipf' or 'csv'")
    if inline is not None and path is not None:
        raise InvalidParameterError("weights and weights_csv are two weight sources; give one")
    if inline is not None:
        if generator == "csv":
            raise InvalidParameterError("generator 'csv' reads weights_csv, not weights")
        return weights.WeightDistribution.from_raw(_parse_floats(inline))
    if generator == "csv" or path is not None:
        if not path:
            raise InvalidParameterError("generator 'csv' needs weights_csv")
        return weights.load_weights_csv(path)
    return weights.zipf_weights(weights.ZipfParams(s=cfg["s"], n=cfg["n"]))


def _network(cfg: dict) -> weights.SamplingDistribution:
    """The request's sampling distribution."""
    return weights.sampling_distribution(_weights_from_config(cfg),
                                         weights.WeightFunction.parse(cfg["f"]))


def _node_index(cfg: dict, size: int) -> int:
    node = cfg["node"]  # CLI is 1-based (rank order); library is 0-based
    if not (1 <= node <= size):
        raise InvalidParameterError(f"node {node} out of range 1..{size}")
    return node - 1


def _gain_estimate(cfg: dict):
    # the estimate builds its own sampling distributions from w and f
    w, f = _weights_from_config(cfg), weights.WeightFunction.parse(cfg["f"])
    node0 = _node_index(cfg, w.size)
    split = weights.SplitSpec(node0, _parse_floats(cfg["fractions"]))
    return fairness.estimate_split_gain(w, f, cfg["k"], split, cfg["n_runs"], cfg["seed"],
                                        coupled=cfg["coupled"]), w


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

_GAIN_HEADER = ("axis_value", "mean", "std_error", "ci_low", "ci_high", "n_runs")


def _gain_columns(axis_values, estimates) -> list:
    """The gain table's columns: the axis values, then the estimate fields that
    _GAIN_HEADER names."""
    return [axis_values, *([getattr(est, name) for est in estimates]
                           for name in _GAIN_HEADER[1:])]


def _cmd_tau(cfg: dict):
    m_star, tau_star = exact.tau_argmax()
    if cfg["output"] is None:
        print(f"m_star={m_star:.6f} tau_star={tau_star:.6f}")
    else:
        _emit_csv(cfg, ("m_star", "tau_star"), ([m_star], [tau_star]))


def _cmd_exact(cfg: dict):
    p = _network(cfg)
    dist = cfg["dist"]
    if dist == "v":
        law = exact.exact_v_distribution(p, cfg["k"], cfg["v_max"])
    elif dist == "joint":
        law = exact.exact_joint_distribution(p, cfg["k"], _node_index(cfg, p.size), cfg["v_max"])
    elif dist == "u":
        law = exact.exact_u_distribution(p, cfg["k"])
    else:
        raise InvalidParameterError(f"unknown dist {dist!r}; expected v, joint or u")
    # the law's cells come in output order
    _emit_csv(cfg, (*law.names, "prob"), (*law.index, law.probs))
    if cfg["output"] is not None and law.residual is not None:
        print(f"residual={law.residual:.17g}")


def _cmd_sample(cfg: dict):
    p = _network(cfg)
    runs = sampler.greedy_runs(p, cfg["k"], sampler.as_stream(cfg["seed"]),
                               cfg["n_runs"], track=_node_index(cfg, p.size))
    _emit_csv(cfg, ("run", "v", "count"), (range(cfg["n_runs"]), runs.v, runs.y))


def _cmd_power(cfg: dict):
    p = _network(cfg)
    node0 = _node_index(cfg, p.size)
    if cfg["epsilon"] is not None:
        # the exact Poisson integral instead of Monte Carlo; the bound covers
        # its quadrature, rounding and truncation, refused above epsilon
        value, error_bound = exact.voting_power_exact(p, cfg["k"], node0, cfg["epsilon"])
        _emit_csv(cfg, ("node", "value", "error_bound"), ([cfg["node"]], [value], [error_bound]))
        return
    est = fairness.estimate_voting_power(p, cfg["k"], node0, cfg["n_runs"], cfg["seed"])
    _emit_csv(cfg, _GAIN_HEADER, _gain_columns([p.size], [est]))


def _cmd_gain(cfg: dict):
    est, w = _gain_estimate(cfg)
    _emit_csv(cfg, _GAIN_HEADER, _gain_columns([w.size], [est]))


def _cmd_sweep(cfg: dict):
    if not cfg["axis_values"]:
        raise InvalidParameterError("sweep needs axis_values (comma-separated)")
    axis = cfg["axis"]
    values = fairness.sweep_values(axis, _parse_floats(cfg["axis_values"]))
    # the split node must exist in the smallest network of the sweep
    smallest = min(values, default=cfg["n"]) if axis == "network_size" else cfg["n"]
    if smallest < 1:
        raise InvalidParameterError(f"sweep needs networks of at least 1 node, not {smallest}")
    base = fairness.GainExperiment(
        zipf_s=cfg["s"], n_nodes=cfg["n"], k=cfg["k"],
        node=_node_index(cfg, smallest), split_r=cfg["split_r"],
        n_runs=cfg["n_runs"], coupled=cfg["coupled"],
        f=weights.WeightFunction.parse(cfg["f"]),
    )
    result = fairness.sweep_gain(base, axis, values, cfg["seed"])
    _emit_csv(cfg, _GAIN_HEADER, _gain_columns(*zip(*result.points)))


def _cmd_kde(cfg: dict):
    fairness.check_kde_args(cfg["bandwidth"], cfg["grid_points"])  # before any draw
    est, _ = _gain_estimate(cfg)
    points = fairness.kde_density(est.retained_samples, bandwidth=cfg["bandwidth"],
                                  points=cfg["grid_points"])
    _emit_csv(cfg, ("x", "density"), points.T)


def _cmd_qq(cfg: dict):
    est, _ = _gain_estimate(cfg)
    _emit_csv(cfg, ("theoretical", "sample"), fairness.qq_points(est.retained_samples).T)


def _cmd_fpc(cfg: dict):
    w = _weights_from_config(cfg)
    config = fpc.FpcConfig(
        k=cfg["k"], theta=cfg["theta"], beta=cfg["beta"],
        max_rounds=cfg["max_rounds"], finality_l=cfg["finality_l"],
        scheme_f=weights.WeightFunction.parse(cfg["f"]),
        scheme_g=weights.WeightFunction.parse(cfg["g"]),
    )
    initial = fpc.majority_initial_opinions(w.size, cfg["ones_fraction"])
    trace = fpc.run_fpc(config, w, initial, cfg["seed"])
    _emit_csv(cfg, ("round", "u_t", "ones_fraction"),
              (range(1, trace.n_rounds + 1), [cfg["theta"], *trace.thresholds],
               trace.opinions_by_round[1:].mean(axis=1)))
    summary = {
        "consensus_round": trace.consensus_round,
        "final_agreement": trace.final_agreement,
        "n_rounds": trace.n_rounds,
    }
    if cfg["output"] is None:
        print(json.dumps(summary, sort_keys=True))
    else:
        _write(f"{cfg['output']}.summary.json",
               [json.dumps(summary, sort_keys=True, indent=2) + "\n"])


# ---------------------------------------------------------------------------
# the subcommand table
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    run: Callable[[dict], None]
    help: str
    schema: dict  # one row per key: caster, default; the flags follow its order


# in `greedyvote -h` order
_COMMANDS = {
    "exact": _Command(_cmd_exact, "exact draw-count / occupancy / distinct-count distributions", {
        **_SOURCE_KEYS,
        "dist": (str, "v"),
        "k": (_parse_int, 2),
        "v_max": (_parse_int, 16),
        "node": (_parse_int, 1),
        "output": (str, None),
    }),
    "sample": _Command(_cmd_sample, "raw greedy sampling runs", {
        **_SOURCE_KEYS,
        "k": (_parse_int, 20),
        "node": (_parse_int, 1),
        "n_runs": (_parse_int, 1000),
        "seed": (_parse_int, 0),
        "output": (str, None),
    }),
    "power": _Command(_cmd_power, "Monte Carlo voting-power estimate for one node", {
        **_SOURCE_KEYS,
        "k": (_parse_int, 20),
        "node": (_parse_int, 1),
        "n_runs": (_parse_int, 10_000),
        "seed": (_parse_int, 0),
        "epsilon": (float, None),
        "output": (str, None),
    }),
    "gain": _Command(_cmd_gain, "Monte Carlo split-gain estimate (coupled by default)",
                     _GAIN_KEYS),
    "sweep": _Command(_cmd_sweep, "split-gain sweep over network size, k, split arity or Zipf s", {
        "s": (float, 1.0),
        "n": (_parse_int, 1000),
        "f": (str, "identity"),
        "k": (_parse_int, 20),
        "node": (_parse_int, 1),
        "split_r": (_parse_int, 2),
        "axis": (str, "network_size"),
        "axis_values": (str, None),
        "n_runs": (_parse_int, 10_000),
        "seed": (_parse_int, 0),
        "coupled": (_parse_bool, True),
        "output": (str, None),
    }),
    "kde": _Command(_cmd_kde, "Gaussian kernel density of per-run split gains", {
        **_GAIN_KEYS,
        "bandwidth": (float, None),
        "grid_points": (_parse_int, 512),
    }),
    "qq": _Command(_cmd_qq, "normal QQ points of per-run split gains", _GAIN_KEYS),
    "fpc": _Command(_cmd_fpc, "fast probabilistic consensus simulation", {
        **_SOURCE_KEYS,
        "g": (str, "constant-one"),
        "k": (_parse_int, 20),
        "theta": (float, 0.5),
        "beta": (float, 0.3),
        "max_rounds": (_parse_int, 100),
        "finality_l": (_parse_int, 2),
        "ones_fraction": (float, 0.9),
        "seed": (_parse_int, 0),
        "output": (str, None),
    }),
    "tau": _Command(_cmd_tau, "maximum of the limiting equal-split gain curve", {
        "output": (str, None),
    }),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedyvote",
        description="Voting power and split/merge fairness under greedy weighted sampling.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="JSON config file; explicit flags override it")
        for key in command.schema:
            flag = "--" + key.replace("_", "-")
            if key == "output":
                sp.add_argument("-o", flag, default=None, dest=key)
            else:
                sp.add_argument(flag, default=None, dest=key)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.subcommand]
    flag_values = {key: getattr(args, key) for key in command.schema}
    try:
        command.run(resolve(args.subcommand, flag_values, args.config))
    except (ResourceLimitError, MemoryError) as exc:
        # MemoryError: a network or run count too large to allocate
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error (resource limit): {oom}{exc}", file=sys.stderr)
        return 3
    except InvalidParameterError as exc:
        print(f"error (invalid configuration): {exc}", file=sys.stderr)
        return 2
    except GreedyVoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
