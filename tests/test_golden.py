"""Golden CLI outputs: the sha256 of the CSV each seeded run writes, of
three runs' `.config.json` sidecars, and of the CSV and stdout of the exact
laws, the exact voting power and `tau`.

These CSV bytes belong to stream layout 3.  A change that moves any of them
changes what a seed means, so it must raise sampler.STREAM_LAYOUT and
re-record the digests; a pure speed-up must leave them as they are.  The
sidecar bytes are what `--config` reads back to reproduce a run.  The exact
outputs draw nothing, so they pin the engine's rows and their order.
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


EXACT_NETWORKS = {
    "k1": ("--weights", "0.3,0.7", "--k", "1"),
    "k2": ("--weights", "0.5,0.2,0.3", "--k", "2", "--v-max", "40"),
    "k6": ("--n", "14", "--s", "1", "--k", "6", "--v-max", "24"),
}

EXACT_RUNS = {
    **{f"exact-{dist}-{net}": ("exact", "--dist", dist) + args
       for dist in ("v", "joint", "u") for net, args in EXACT_NETWORKS.items()},
    "power-epsilon": ("power", "--n", "8", "--k", "4", "--node", "1", "--epsilon", "1e-9",
                      "--s", "1", "--seed", "1"),
    "tau": ("tau",),
}

EXACT_GOLDEN = {  # CSV digest, stdout
    "exact-v-k1": ("9fab92ec018fdfe87b49d9af616c39f13db226ca0e51e1fbb89ee7cd2b5787a9",
                   "residual=0\n"),
    "exact-v-k2": ("841cdc5f144686e9c2b49357379b6d50ef67335d6f832de1f3835f886f61914c",
                   "residual=9.0949470177292824e-13\n"),
    "exact-v-k6": ("2d7d5d8dd2b2ed7e11bb8885698fc4aaa0a595bc54f474d8a337e745bb68d73b",
                   "residual=0.0017137305634461475\n"),
    "exact-joint-k1": ("614ee59eeb89214e24da1c523451364e2030f78b9bbf66d5caa86a24f845d451",
                       "residual=0\n"),
    "exact-joint-k2": ("3454bda1b1dce46d96a8c120f6f2edb0a7547ad5c846e214999ceaea20262086",
                       "residual=9.0949470177292824e-13\n"),
    "exact-joint-k6": ("187e94b3fba7dff37e380c4c80f984e5f940a376d4b2bd7bc7af6cdfd0226641",
                       "residual=0.0017137305634461475\n"),
    "exact-u-k1": ("00f6c9803646f09ffe1259cabf5d71ef0f67fbeeda8d7870bf22f69549a57bf6", ""),
    "exact-u-k2": ("ada68bc0c42d478d56204b4c2594d7a6563794a9e9f192f6b2dfd7c20374741a", ""),
    "exact-u-k6": ("ddf9da7f9788afccae6572308ce134d5ca65b6784def10331b6c27b86cd4044e", ""),
    "power-epsilon": ("d33673c1c4ffa58642a1973eab0d1fbc1108514d9f0b6140420febf19d8ca39c", ""),
    "tau": ("fd2243da365051b52fb50e07871b5a400bae0a0a6347bc7dc5d0644f0ac30afe", ""),
}


@pytest.mark.parametrize("name", sorted(EXACT_RUNS))
def test_golden_exact_output(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(list(EXACT_RUNS[name]) + ["-o", str(out)]) == 0
    digest, stdout = EXACT_GOLDEN[name]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out == stdout
