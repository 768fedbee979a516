"""The benchmark's CSVs match their recorded digests.

`perfbench/workloads.py` builds each workload's cafreq commands from a
benchmark seed, and `perfbench/golden.json` holds the SHA-256 of every CSV
they write.  Here the two exact-pushforward commands of seeds 0-3, the
five rule-sweep commands of seed 0 and the swap-trials command of seeds
0-3 run through `cafreq.cli.main`, so a change in their bytes shows in the
test suite, not only when the benchmark runs.  The swap-trials seeds share
one count table, so each further seed adds only its 100 windows.

The benchmark checks xor-limit only statistically, so a new random stream
for the block sampler still passes there.  Its CSVs at input seeds 0-3
have digests of their own, in `xor_limit_digests.json` beside this file,
recorded at the commit it names: here a change in the sampler's draws,
or in the cells it builds, shows as a changed byte.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cafreq.cli import main

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
XOR_DIGESTS_FILE = Path(__file__).resolve().parent / "xor_limit_digests.json"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
SEEDS = {
    "exact-pushforward": [0, 1, 2, 3],
    "rule-sweep": [0],
    "swap-trials": [0, 1, 2, 3],
    "xor-limit": [0, 1, 2, 3],
}
COMMANDS = [
    (name, seed, command)
    for name, seeds in SEEDS.items()
    for seed in seeds
    for command in workloads.WORKLOADS[name].commands(seed)
]


def command_id(name, seed, command):
    return f"{name}-{command.name}" + (f"-seed{seed}" if seed else "")


@pytest.mark.parametrize(
    "name, seed, command", COMMANDS, ids=[command_id(*entry) for entry in COMMANDS]
)
def test_csv_matches_golden_digest(name, seed, command, tmp_path):
    out = tmp_path / f"{command.name}.csv"
    assert main([*command.argv, "--out", str(out)]) == 0
    if name == "xor-limit":
        golden = json.loads(XOR_DIGESTS_FILE.read_text())["digests"]
    else:
        golden = workloads.load_golden()["digests"][name]
    input_seed = workloads.input_seed(workloads.WORKLOADS[name], seed)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden[str(input_seed)][command.name]
