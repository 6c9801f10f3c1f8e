import argparse
import json
import subprocess
import sys

import pytest

from greedyvote import __version__, cli, fairness
from greedyvote.cli import main, resolve
from greedyvote.errors import InvalidParameterError
from greedyvote.sampler import STREAM_LAYOUT


def _read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# each subcommand's line in the `greedyvote -h` listing
HELP_LINES = {
    "exact": "exact draw-count / occupancy / distinct-count distributions",
    "sample": "raw greedy sampling runs",
    "power": "Monte Carlo voting-power estimate for one node",
    "gain": "Monte Carlo split-gain estimate (coupled by default)",
    "sweep": "split-gain sweep over network size, k, split arity or Zipf s",
    "kde": "Gaussian kernel density of per-run split gains",
    "qq": "normal QQ points of per-run split gains",
    "fpc": "fast probabilistic consensus simulation",
    "tau": "maximum of the limiting equal-split gain curve",
}


@pytest.mark.parametrize("name", list(HELP_LINES))
def test_help_for_every_subcommand(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: greedyvote {name} [-h] [--config PATH]")
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    listing = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    assert f" {name} {HELP_LINES[name]} " in listing


_SOURCE_DEFAULTS = {"generator": "zipf", "s": 1.0, "n": 1000, "weights": None,
                    "weights_csv": None, "f": "identity"}
_GAIN_DEFAULTS = {**_SOURCE_DEFAULTS, "k": 20, "node": 1, "fractions": "0.5,0.5",
                  "n_runs": 10000, "seed": 0, "coupled": True, "output": None}

# every subcommand's resolved configuration with no flag and no file, in key order
DEFAULTS = {
    "exact": {**_SOURCE_DEFAULTS, "dist": "v", "k": 2, "v_max": 16, "node": 1, "output": None},
    "sample": {**_SOURCE_DEFAULTS, "k": 20, "node": 1, "n_runs": 1000, "seed": 0,
               "output": None},
    "power": {**_SOURCE_DEFAULTS, "k": 20, "node": 1, "n_runs": 10000, "seed": 0,
              "epsilon": None, "output": None},
    "gain": _GAIN_DEFAULTS,
    "sweep": {"s": 1.0, "n": 1000, "f": "identity", "k": 20, "node": 1, "split_r": 2,
              "axis": "network_size", "axis_values": None, "n_runs": 10000, "seed": 0,
              "coupled": True, "output": None},
    "kde": {**_GAIN_DEFAULTS, "bandwidth": None, "grid_points": 512},
    "qq": _GAIN_DEFAULTS,
    "fpc": {**_SOURCE_DEFAULTS, "g": "constant-one", "k": 20, "theta": 0.5, "beta": 0.3,
            "max_rounds": 100, "finality_l": 2, "ones_fraction": 0.9, "seed": 0,
            "output": None},
    "tau": {"output": None},
}


class TestSubcommandSchemas:
    @pytest.mark.parametrize("name", list(DEFAULTS))
    def test_resolved_defaults_pinned(self, name):
        want = {**DEFAULTS[name], "subcommand": name}
        got = resolve(name, {})
        assert got == want
        assert list(got) == list(want)
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]

    @pytest.mark.parametrize("name", list(DEFAULTS))
    def test_flag_order_pinned(self, name):
        (sub,) = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        flags = [s for a in sub.choices[name]._actions for s in a.option_strings]
        want = ["-h", "--help", "--config"]
        for key in DEFAULTS[name]:  # the flags follow the key order; -o spells output too
            want += ["-o", "--output"] if key == "output" else ["--" + key.replace("_", "-")]
        assert flags == want


class TestTau:
    def test_prints_maximum(self, capsys):
        assert main(["tau"]) == 0
        out = capsys.readouterr().out
        assert "m_star=0.8157" in out or "m_star=0.8156" in out
        assert "tau_star=0.1226" in out

    def test_csv_output(self, tmp_path):
        out = tmp_path / "tau.csv"
        assert main(["tau", "-o", str(out)]) == 0
        header, rows = _read_rows(out)
        assert header == ["m_star", "tau_star"]
        assert abs(float(rows[0][0]) - 0.81566) < 1e-3


class TestExact:
    def test_geometric_marginal(self, capsys):
        assert main(["exact", "--weights", "0.5,0.5", "--k", "2", "--v-max", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "v,prob"
        assert lines[1] == "2,0.5"
        assert lines[2] == "3,0.25"
        assert len(lines) == 1 + 11

    def test_joint_csv(self, tmp_path):
        out = tmp_path / "joint.csv"
        rc = main(["exact", "--weights", "0.5,0.5", "--dist", "joint",
                   "--node", "1", "--k", "2", "--v-max", "8", "-o", str(out)])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["ell", "v", "prob"]
        table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert table[(1, 2)] == 0.5

    def test_u_distribution_csv(self, capsys):
        assert main(["exact", "--weights", "0.5,0.5", "--dist", "u", "--k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["u,prob", "1,0.5", "2,0.5"]

    def test_unknown_dist_exits_2(self, capsys):
        assert main(["exact", "--weights", "0.5,0.5", "--dist", "w"]) == 2
        assert "unknown dist 'w'; expected v, joint or u" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["exact", "--weights", "0.5,0.3,0.2", "--k", "2", "--dist", "joint", "--v-max", "9"],
        ["fpc", "--n", "60", "--k", "5", "--max-rounds", "8", "--finality-l", "7",
         "--ones-fraction", "0.5", "--seed", "4"],  # a list column
    ])
    def test_rows_cross_write_slices(self, argv, tmp_path, capsys, monkeypatch):
        # 3 rows a write puts slice bounds inside the table; the bytes on
        # stdout and in -o files stay those of one write
        def run(name):
            if name is None:
                assert main(argv) == 0
                return capsys.readouterr().out.encode()
            assert main(argv + ["-o", str(tmp_path / name)]) == 0
            capsys.readouterr()  # exact's residual line
            return (tmp_path / name).read_bytes()

        whole = run(None), run("whole.csv")
        monkeypatch.setattr(cli, "_CSV_ROWS", 3)
        assert (run(None), run("sliced.csv")) == whole
        rows = whole[1].count(b"\n") - 1
        assert rows > 3 and rows % 3 != 0

    def test_resource_limit_exit_code(self, capsys):
        # 60 nodes x 30 rows x 1000^2 draw counts: 1.8e9 cells, over the cell budget
        weights = ",".join(["1"] * 60)
        assert main(["exact", "--weights", weights, "--k", "30", "--v-max", "1000"]) == 3
        err = capsys.readouterr().err
        assert "resource limit" in err and "60 nodes x 30 rows x 1000^2 draw counts" in err


class TestGain:
    def test_positive_gain_row(self, tmp_path):
        out = tmp_path / "gain.csv"
        rc = main(["gain", "--generator", "zipf", "--s", "1.1", "--n", "1000",
                   "--k", "20", "--node", "1", "--fractions", "0.5,0.5",
                   "--n-runs", "30000", "--seed", "7", "-o", str(out)])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["axis_value", "mean", "std_error", "ci_low", "ci_high", "n_runs"]
        assert float(rows[0][1]) > 0
        assert rows[0][5] == "30000"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["gain", "--s", "1.0", "--n", "50", "--k", "3",
                "--n-runs", "4000", "--seed", "9"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_embeds_resolved_config_and_seed(self, tmp_path):
        out = tmp_path / "gain.csv"
        assert main(["gain", "--s", "0.9", "--n", "40", "--k", "2",
                     "--n-runs", "500", "--seed", "21", "-o", str(out)]) == 0
        sidecar = json.loads((tmp_path / "gain.csv.config.json").read_text())
        assert sidecar["seed"] == 21
        assert sidecar["subcommand"] == "gain"
        assert sidecar["s"] == 0.9
        assert sidecar["n"] == 40
        assert sidecar["stream_layout"] == STREAM_LAYOUT
        assert sidecar["greedyvote_version"] == __version__

    @pytest.mark.parametrize("args", [
        ("exact", "--weights", "0.5,0.2,0.3", "--k", "2", "--dist", "joint", "--v-max", "6"),
        ("sample", "--n", "30", "--k", "3", "--n-runs", "50", "--seed", "4"),
        ("power", "--n", "30", "--k", "3", "--n-runs", "500", "--seed", "4"),
        ("gain", "--s", "1.0", "--n", "50", "--k", "3", "--n-runs", "3000", "--seed", "9"),
        ("sweep", "--axis-values", "20,40", "--k", "3", "--n-runs", "500", "--seed", "4"),
        ("kde", "--n", "30", "--k", "3", "--n-runs", "500", "--grid-points", "16"),
        ("qq", "--n", "30", "--k", "3", "--n-runs", "500", "--seed", "4"),
        ("fpc", "--n", "50", "--k", "5", "--max-rounds", "4", "--seed", "4"),
        ("tau",),
    ], ids=lambda args: args[0])
    def test_sidecar_reproduces_output(self, args, tmp_path):
        out, again = tmp_path / "out.csv", tmp_path / "again.csv"
        assert main([*args, "-o", str(out)]) == 0
        assert main([args[0], "--config", f"{out}.config.json", "-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()
        if args[0] == "fpc":
            summary = tmp_path / "out.csv.summary.json"
            assert (tmp_path / "again.csv.summary.json").read_bytes() == summary.read_bytes()

    def test_sidecar_of_other_stream_layout_rejected(self, tmp_path, capsys):
        out = tmp_path / "gain.csv"
        assert main(["gain", "--n", "20", "--k", "2", "--n-runs", "100",
                     "-o", str(out)]) == 0
        sidecar = tmp_path / "gain.csv.config.json"
        doc = json.loads(sidecar.read_text())
        doc["stream_layout"] = STREAM_LAYOUT - 1
        sidecar.write_text(json.dumps(doc))
        assert main(["gain", "--config", str(sidecar)]) == 2
        assert "stream layout" in capsys.readouterr().err

    def test_weights_csv_generator(self, tmp_path):
        wfile = tmp_path / "w.csv"
        wfile.write_text("weight\n6\n4\n")
        out = tmp_path / "gain.csv"
        rc = main(["gain", "--generator", "csv", "--weights-csv", str(wfile),
                   "--k", "2", "--n-runs", "2000", "--seed", "3", "-o", str(out)])
        assert rc == 0

    def test_unreadable_weights_csv_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "none" / "w.csv"
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("weight\n3\n1 \xe9\n".encode("latin-1"))
        for wfile in (missing, latin1):
            assert main(["gain", "--generator", "csv", "--weights-csv", str(wfile),
                         "--k", "2", "--n-runs", "2000"]) == 2
            err = capsys.readouterr().err
            assert f"cannot read weights CSV {wfile}" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, message", [
        ("weights", "weights must be a non-empty 1-d vector"),
        ("weights_csv", "generator 'csv' needs weights_csv"),
    ], ids=["weights", "weights-csv"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_weights_source_exits_2(self, key, message, source, tmp_path, capsys):
        # an empty source is refused, not read as absent (a 5-node Zipf network here)
        argv = ["power", "--n", "5", "--k", "2", "--n-runs", "10"]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), ""]
        else:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({key: ""}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["gain"], ["gain", "--coupled", "false"],
                                      ["kde"], ["qq"]])
    def test_weight_function_mapping_every_weight_to_zero(self, argv, capsys):
        # power:2000 takes each of three equal weights below the least float64
        assert main(argv + ["--weights", "1,1,1", "--f", "power:2000", "--k", "2"]) == 2
        assert "maps every weight to zero" in capsys.readouterr().err


    def test_power_one_writes_identity_bytes(self, tmp_path):
        # under the default coupled estimator, which needs alpha = 1
        args = ["gain", "--s", "1.1", "--n", "100", "--k", "5", "--n-runs", "3000",
                "--seed", "1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--f", "power:1", "-o", str(a)]) == 0
        assert main(args + ["--f", "identity", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_network_past_the_address_space_exits_3(self, capsys):
        # 10^15 float64 weights are 7.1 PiB, so the allocation fails untouched
        assert main(["gain", "--n", "1000000000000000", "--n-runs", "10"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error (resource limit): out of memory: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--fractions", "0.5,half"], "cannot parse number list from '0.5,half'"),
        (["--coupled", "maybe"], "bad value for 'coupled': 'maybe'"),
        (["--generator", "csv"], "generator 'csv' needs weights_csv"),
        (["--generator", "pareto"], "unknown generator 'pareto'; expected 'zipf' or 'csv'"),
        (["--generator", "bogus", "--weights", "1,2"],
         "unknown generator 'bogus'; expected 'zipf' or 'csv'"),
        (["--weights", "1,2,3", "--weights-csv", "w.csv"],
         "weights and weights_csv are two weight sources; give one"),
        (["--generator", "csv", "--weights", "1,2"],
         "generator 'csv' reads weights_csv, not weights"),
    ], ids=["fractions", "coupled", "csv-without-file", "generator", "generator-with-weights",
            "weights-with-csv", "csv-with-weights"])
    def test_bad_option_exits_2(self, argv, message, capsys):
        assert main(["gain", "--n", "20", "--k", "2", "--n-runs", "10"] + argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("f", ["power:-1", "power:nan", "power:inf"])
    def test_exponent_outside_the_family_exits_2(self, f, capsys):
        assert main(["gain", "--n", "20", "--k", "3", "--n-runs", "10", "--f", f]) == 2
        assert "ALPHA finite and >= 0" in capsys.readouterr().err


class TestOutputPath:
    def test_missing_directory_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        def no_estimate(*args, **kwargs):
            raise AssertionError("the estimate ran")

        monkeypatch.setattr(fairness, "estimate_split_gain", no_estimate)
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        rc = main(["gain", "--n", "50", "--k", "5", "--n-runs", "200", "-o", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err

    def test_write_error_exits_2_without_traceback(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.mkdir()  # a directory where the CSV goes
        rc = main(["gain", "--n", "50", "--k", "5", "--n-runs", "200", "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err and "Traceback" not in err


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"s": 1.5, "n": 30, "k": 2,
                                   "n_runs": 500, "seed": 4}))
        out = tmp_path / "gain.csv"
        rc = main(["gain", "--config", str(cfg), "--s", "0.5", "-o", str(out)])
        assert rc == 0
        sidecar = json.loads((tmp_path / "gain.csv.config.json").read_text())
        assert sidecar["s"] == 0.5
        assert sidecar["n"] == 30

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"zipf_exponent": 1.5}))
        assert main(["gain", "--config", str(cfg)]) == 2
        assert "zipf_exponent" in capsys.readouterr().err

    def test_file_ints_are_cast_like_flags(self, tmp_path, capsys):
        # 2.7 and true are refused, as --k 2.7 is, not cut to 2 or read as 1
        cfg = tmp_path / "config.json"
        for bad in ({"k": 2.7, "n_runs": 1000.9}, {"k": True}):
            cfg.write_text(json.dumps(bad))
            assert main(["gain", "--config", str(cfg)]) == 2
            assert "bad value for 'k'" in capsys.readouterr().err
        cfg.write_text(json.dumps({"k": 20.0, "n_runs": 1000.0}))
        values = resolve("gain", {}, cfg)
        assert (values["k"], values["n_runs"]) == (20, 1000)
        assert type(values["k"]) is int

    @pytest.mark.parametrize("key, text, value", [
        ("n", "1e3", 1000), ("k", "20.0", 20), ("n_runs", "1E1", 10), ("seed", " 7 ", 7),
        ("seed", 1e3, 1000),
        ("seed", "12345678901234567890123", 12345678901234567890123),  # not rounded through a float
    ])
    def test_whole_number_spellings_accepted(self, key, text, value):
        got = resolve("gain", {key: text})[key]
        assert got == value and type(got) is int

    @pytest.mark.parametrize("text", ["2.7", "true", "inf", "nan", "1e400"])
    def test_other_numbers_refused_for_counts(self, text, capsys):
        assert main(["gain", "--k", text, "--n-runs", "10"]) == 2
        assert "bad value for 'k'" in capsys.readouterr().err

    def test_missing_file_rejected(self, capsys):
        assert main(["gain", "--config", "/nonexistent/config.json"]) == 2

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "config file must hold a JSON object"),
        ({"subcommand": "fpc", "k": 2}, "config file is for subcommand 'fpc', not 'gain'"),
    ], ids=["not-an-object", "other-subcommand"])
    def test_file_refused(self, tmp_path, doc, message, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["gain", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_resolve_rejects_unknown_flag_key(self):
        with pytest.raises(InvalidParameterError, match="unknown config key 'zipf_s' for gain"):
            resolve("gain", {"zipf_s": 1.0})

    @pytest.mark.parametrize("text, value", [("yes", True), ("on", True), ("no", False)])
    def test_coupled_spellings(self, text, value):
        assert resolve("gain", {"coupled": text})["coupled"] is value

    def test_resolve_rejects_unknown_subcommand(self):
        with pytest.raises(InvalidParameterError):
            resolve("plot", {})


class TestSweep:
    def test_rows_per_axis_value(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--axis", "network_size", "--axis-values", "30,60",
                   "--s", "0.8", "--k", "3", "--n-runs", "2000", "--seed", "5",
                   "-o", str(out)])
        assert rc == 0
        header, rows = _read_rows(out)
        assert [r[0] for r in rows] == ["30", "60"]

    def test_missing_axis_values(self, capsys):
        assert main(["sweep", "--axis", "network_size"]) == 2

    @pytest.mark.parametrize("values, message", [
        ("100,200", "node 500 out of range 1..100"),  # 1-based, smallest network
        ("0,100", "networks of at least 1 node"),
    ])
    def test_node_checked_against_smallest_network(self, values, message, capsys):
        rc = main(["sweep", "--axis", "network_size", "--axis-values", values,
                   "--node", "500", "--n-runs", "10"])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["network_size", "sample_k", "split_r"])
    def test_count_axis_refuses_fractional_values(self, axis, capsys):
        rc = main(["sweep", "--axis", axis, "--axis-values", "2.5,300", "--n-runs", "10"])
        assert rc == 2
        assert "takes whole numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, message", [
        # 10^15 float64 weights are 7.1 PiB: refused before the N = 100 point runs
        (["--axis", "network_size", "--axis-values", "100,1e15", "--k", "2",
          "--n-runs", "10"], 3, "error (resource limit): out of memory: "),
        (["--axis", "sample_k", "--axis-values", "2,5000", "--n", "1000",
          "--n-runs", "200000"], 2,
         "k=5000 exceeds support size 1000; sampling would never terminate"),
        # at s = 200 the weights past node 41 underflow to 0
        (["--axis", "sample_k", "--axis-values", "1,900", "--n", "1000", "--s", "200",
          "--n-runs", "10"], 2, "k=900 exceeds support size 41; sampling would never terminate"),
    ], ids=["network-past-memory", "k-past-network", "k-past-support"])
    def test_later_point_refused_before_any_estimate(self, argv, code, message, capsys,
                                                     monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("estimated a point of a refused sweep")

        monkeypatch.setattr(fairness, "estimate_split_gain", unreachable)
        assert main(["sweep"] + argv) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_count_axis_accepts_integral_spellings(self, capsys):
        args = ["sweep", "--axis", "network_size", "--n-runs", "50", "--seed", "3"]
        assert main(args + ["--axis-values", "1e2,2.0e2"]) == 0
        spelled = capsys.readouterr().out
        assert main(args + ["--axis-values", "100,200"]) == 0
        assert spelled == capsys.readouterr().out
        assert [line.split(",")[0] for line in spelled.splitlines()[1:]] == ["100", "200"]


class TestKdeAndQq:
    def test_kde_rows(self, tmp_path):
        out = tmp_path / "kde.csv"
        rc = main(["kde", "--s", "1.0", "--n", "50", "--k", "3",
                   "--n-runs", "3000", "--seed", "2", "-o", str(out)])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["x", "density"]
        assert len(rows) == 512

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_kde_refuses_empty_grid(self, points, capsys):
        rc = main(["kde", "--n", "50", "--k", "5", "--n-runs", "200",
                   "--grid-points", points])
        assert rc == 2
        assert "at least 1 point" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--grid-points", "0"], ["--bandwidth", "inf"]])
    def test_kde_refuses_its_arguments_before_sampling(self, flag, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled a refused kde request")

        monkeypatch.setattr(fairness, "estimate_split_gain", unreachable)
        assert main(["kde", "--n", "50", "--k", "5", "--n-runs", "300000"] + flag) == 2
        assert "error (invalid configuration)" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth", ["inf", "nan"])
    def test_kde_refuses_a_non_finite_bandwidth(self, bandwidth, capsys):
        rc = main(["kde", "--n", "50", "--k", "5", "--n-runs", "200",
                   "--bandwidth", bandwidth])
        assert rc == 2
        assert "bandwidth must be finite" in capsys.readouterr().err

    def test_kde_refuses_a_subnormal_bandwidth_before_sampling(self, monkeypatch, capsys):
        # 1 / (h sqrt(2 pi)) overflows: the densities would be inf and nan
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled a refused kde request")

        monkeypatch.setattr(fairness, "estimate_split_gain", unreachable)
        assert main(["kde", "--n", "20", "--k", "3", "--n-runs", "100",
                     "--bandwidth", "1e-320", "--grid-points", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite kernel peak" in err

    def test_kde_refuses_an_overflowing_grid_before_sampling(self, monkeypatch, capsys):
        # 10 h overflows: the grid would hold inf and nan rows
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled a refused kde request")

        monkeypatch.setattr(fairness, "estimate_split_gain", unreachable)
        assert main(["kde", "--n", "20", "--k", "3", "--n-runs", "100",
                     "--bandwidth", "1e308", "--grid-points", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite grid width" in err

    @pytest.mark.filterwarnings("error")
    def test_kde_smallest_bandwidth_prints_no_warning(self, capsys):
        assert main(["kde", "--n", "20", "--k", "3", "--n-runs", "100",
                     "--bandwidth", "1e-300", "--grid-points", "4", "--seed", "1"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.strip().splitlines()) == 5

    def test_qq_rows(self, tmp_path):
        out = tmp_path / "qq.csv"
        rc = main(["qq", "--s", "1.0", "--n", "50", "--k", "3",
                   "--n-runs", "3000", "--seed", "2", "-o", str(out)])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["theoretical", "sample"]
        assert len(rows) == 3000


class TestSampleAndPower:
    def test_sample_rows(self, capsys):
        assert main(["sample", "--weights", "0.5,0.5", "--k", "2",
                     "--n-runs", "5", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "run,v,count"
        assert len(lines) == 6

    def test_sample_rows_are_consistent_runs(self, capsys):
        # one run per row, numbered in order; the node's count never exceeds
        # v - (k - 1), since the other k - 1 distinct nodes take a draw each
        assert main(["sample", "--weights", "0.6,0.3,0.1", "--k", "2", "--node", "1",
                     "--n-runs", "1500", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        rows = [tuple(int(x) for x in line.split(",")) for line in lines]
        assert [r[0] for r in rows] == list(range(1500))
        assert all(v >= 2 and 0 <= c <= v - 1 for _, v, c in rows)

    def test_power_row(self, tmp_path):
        out = tmp_path / "power.csv"
        rc = main(["power", "--weights", "0.75,0.25", "--k", "2", "--node", "1",
                   "--n-runs", "20000", "--seed", "3", "-o", str(out)])
        assert rc == 0
        header, rows = _read_rows(out)
        mean, se = float(rows[0][1]), float(rows[0][2])
        assert abs(mean - 0.650948) <= 4 * se

    @pytest.mark.parametrize("argv", [
        ["power", "--n", "5", "--k", "2"],
        ["gain", "--n", "5", "--k", "2"],
        ["sweep", "--axis", "network_size", "--axis-values", "5,10", "--k", "2"],
    ], ids=["power", "gain", "sweep"])
    def test_one_run_refused_before_any_draw(self, argv, monkeypatch, capsys):
        # a single run has no standard error: it would print a zero-width interval
        def unreachable(*args, **kwargs):
            raise AssertionError("drew runs for a refused estimate")

        monkeypatch.setattr(fairness, "greedy_runs", unreachable)
        assert main(argv + ["--n-runs", "1"]) == 2
        assert "n_runs must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["power", "exact"])
    def test_weights_summing_past_float64_refused(self, subcommand, capsys):
        assert main([subcommand, "--weights", "1e308,1e308", "--k", "2"]) == 2
        assert "weights sum past" in capsys.readouterr().err

    def test_power_exact_epsilon(self, capsys):
        rc = main(["power", "--weights", "0.75,0.25", "--k", "2", "--node", "1",
                   "--epsilon", "1e-8"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "node,value,error_bound"
        value = float(lines[1].split(",")[1])
        assert abs(value - 0.650948) < 1e-6

    def test_power_exact_at_the_default_quorum(self, capsys):
        # Zipf 1.1, N=1000, k=20: past every subset budget, one positive-term pass
        assert main(["power", "--s", "1.1", "--epsilon", "1e-6"]) == 0
        node, value, bound = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert node == "1" and float(bound) <= 1e-6
        assert abs(float(value) - 0.1732738674) <= 1e-9

    @pytest.mark.parametrize("weights, row", [
        ("1,1e-300", "2,6.9027552789821374e-298,7.3572539303158732e-312"),
        ("1,5e-306", "2,3.5124080027187191e-303,3.7436737369199606e-317"),
        ("1,4.2e-306", None),  # a finite s_max, but the grid's last point is inf
        ("1,1e-306", None),  # s_max itself is inf
    ])
    def test_power_exact_grid_end_at_the_float_range(self, weights, row, capsys):
        rc = main(["power", "--weights", weights, "--k", "2", "--node", "2", "--epsilon", "1e-6"])
        out, err = capsys.readouterr()
        if row is not None:
            assert rc == 0 and out.splitlines() == ["node,value,error_bound", row]
        else:
            assert rc == 3 and out == ""
            assert err.startswith("error (resource limit): the voting power grid would end "
                                  "past the float range")

    def test_power_exact_over_a_lowered_cell_budget(self, monkeypatch, capsys):
        monkeypatch.setattr("greedyvote.exact.MAX_CELLS", 10 ** 6)
        assert main(["power", "--s", "1.1", "--epsilon", "1e-6"]) == 3
        assert "1000 nodes x k=20 x " in capsys.readouterr().err

    def test_power_exact_over_the_cell_budget(self, capsys):
        weights = ",".join(["1"] * 200 + ["1e-300"])
        assert main(["power", "--weights", weights, "--k", "201", "--epsilon", "1e-6"]) == 3
        assert "x 11885 grid points" in capsys.readouterr().err


class TestFpc:
    def test_round_csv_and_summary(self, tmp_path):
        out = tmp_path / "fpc.csv"
        rc = main(["fpc", "--s", "0", "--n", "60", "--k", "10",
                   "--ones-fraction", "0.9", "--seed", "4", "-o", str(out)])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["round", "u_t", "ones_fraction"]
        summary = json.loads((tmp_path / "fpc.csv.summary.json").read_text())
        assert summary["consensus_round"] == len(rows)
        assert summary["final_agreement"] == 1.0
        sidecar = json.loads((tmp_path / "fpc.csv.config.json").read_text())
        assert sidecar["ones_fraction"] == 0.9

    def test_summary_goes_to_stdout_without_output(self, tmp_path, capsys):
        args = ["fpc", "--s", "0", "--n", "60", "--k", "10", "--seed", "4"]
        assert main(args) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "round,u_t,ones_fraction"
        out = tmp_path / "fpc.csv"
        assert main(args + ["-o", str(out)]) == 0
        assert printed[:-1] == out.read_text().splitlines()
        assert json.loads(printed[-1]) == json.loads(
            (tmp_path / "fpc.csv.summary.json").read_text())

    def test_power_zero_writes_constant_one_bytes(self, tmp_path):
        args = ["fpc", "--s", "1.1", "--n", "200", "--k", "10", "--max-rounds", "5",
                "--seed", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--g", "power:0", "-o", str(a)]) == 0
        assert main(args + ["--g", "constant-one", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary.json").read_bytes() == (
            tmp_path / "b.csv.summary.json").read_bytes()

    def test_degenerate_quorum_exit_code(self, capsys):
        weights = ",".join(["1"] + ["0"] * 19)
        rc = main(["fpc", "--weights", weights, "--f", "constant-one", "--g", "identity",
                   "--k", "1", "--seed", "1"])
        assert rc == 1
        assert "vanishes on every sampled node" in capsys.readouterr().err


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "greedyvote.cli", "tau"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "m_star" in proc.stdout

    def test_import_leaves_scipy_special_unloaded(self):
        # conftest imports scipy.stats, so only a fresh interpreter can tell
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, greedyvote.cli; print('scipy.special' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_exact_paths_leave_scipy_unloaded(self):
        # the exact engine is numpy only, without its random module, and runs
        # in one process; a fresh interpreter shows what it loads
        code = "\n".join([
            "import sys",
            "from greedyvote.cli import main",
            "assert main(['power', '--n', '8', '--k', '4', '--epsilon', '1e-9']) == 0",
            "assert main(['exact', '--n', '14', '--k', '10', '--dist', 'u']) == 0",
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith(('numpy.random', 'multiprocessing'))])",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_invalid_flag_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "greedyvote.cli", "gain", "--bogus", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
