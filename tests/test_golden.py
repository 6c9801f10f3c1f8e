"""Golden CLI outputs: the sha256 of the CSV each seeded run writes, and of
three runs' `.config.json` sidecars.

These CSV bytes belong to stream layout 3.  A change that moves any of them
changes what a seed means, so it must raise sampler.STREAM_LAYOUT and
re-record the digests; a pure speed-up must leave them as they are.  The
sidecar bytes are what `--config` reads back to reproduce a run.
"""

import hashlib

import pytest

from greedyvote import sampler
from greedyvote.cli import main

GAIN = ("gain", "--generator", "zipf", "--s", "1.1", "--n", "1000", "--k", "20",
        "--node", "1", "--fractions", "0.5,0.5", "--n-runs", "20000")

RUNS = {
    "gain-coupled": GAIN,
    "gain-independent": GAIN + ("--coupled", "false"),
    "gain-3way": ("gain", "--s", "2.0", "--n", "50", "--k", "10", "--node", "2",
                  "--fractions", "0.2,0.3,0.5", "--n-runs", "20000"),
    "sweep": ("sweep", "--axis", "network_size", "--axis-values", "100,1000",
              "--s", "0.8", "--k", "20", "--f", "power:0.5", "--coupled", "false",
              "--n-runs", "4000"),
    "fpc": ("fpc", "--n", "1000", "--s", "0", "--k", "5", "--ones-fraction", "0.5",
            "--max-rounds", "5", "--finality-l", "6"),
    "sample": ("sample", "--s", "1.1", "--n", "100", "--k", "5", "--node", "1",
               "--n-runs", "2000"),
    "power": ("power", "--s", "1.1", "--n", "100", "--k", "5", "--node", "1",
              "--n-runs", "20000"),
    "kde": ("kde",) + GAIN[1:],
    "qq": ("qq",) + GAIN[1:],
}

GOLDEN = {  # at --seed 1
    "gain-coupled": "2e9d0590bd3160ae7abe7f484c1661cdc21c0eb58eaf32488f45833f8dd43588",
    "gain-independent": "71d1ca03be35298fe284955a9e95c6ca97fee5187c448c40b0ddaf3c26a4cb96",
    "gain-3way": "70f343a16f822348b77e56d28bd740552572353179bccf9670d948f356ac2455",
    "sweep": "d7f143be40998c42f9f29a1f6aa0d2fa63b907f05012ee0ab653cf936818d7d4",
    "fpc": "3766fdb8eead01604092cd25aa7804c0ba35ed67c43ec0828cd97b44268c6b25",
    "sample": "e218ebe5f5c29180abd3f3d566a7c02f372589cad2d7a1aec5588f8671fb7abd",
    "power": "2c4285f619e8f815f8a8cbd2ff4462b492e7a487b65d662a168de1bcd72a3599",
    "kde": "c12edba480646e5eb5cbd5d1e8a8f3dbe64b05f959929468dc284cffcc2b72ee",
    "qq": "149a75a0501058a585981e96eb2663d63bc44cb8391f5fa3d4258ec7f7d7988c",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_cli_output(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(list(RUNS[name]) + ["--seed", "1", "-o", str(out)]) == 0
    assert sampler.STREAM_LAYOUT == 3
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


SIDECARS = {  # the .config.json bytes at --seed 1, with the "output" line left out
    "gain-coupled": "4de2434ff40a911f4dca0bbac59d707d07acfc2743c36971c65ed71034de341a",
    "sweep": "f414b46bef61c73535b99be904fe65869ec8d032c56bc0135171a66d14206205",
    "fpc": "4f4dff1c93ddd60efc16eb2df8ae4095985e420173d7b98bdeacc00ba21b7e1e",
}


@pytest.mark.parametrize("name", sorted(SIDECARS))
def test_golden_sidecar(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(list(RUNS[name]) + ["--seed", "1", "-o", str(out)]) == 0
    lines = (tmp_path / f"{name}.csv.config.json").read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.lstrip().startswith(b'"output":'))
    assert hashlib.sha256(kept).hexdigest() == SIDECARS[name]
