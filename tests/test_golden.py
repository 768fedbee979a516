"""The benchmark's seed-0 CSVs match their recorded digests.

`perfbench/workloads.py` builds each workload's cafreq commands from a
benchmark seed, and `perfbench/golden.json` holds the SHA-256 of every CSV
they write.  Here the five rule-sweep commands and the swap-trials command
of seed 0 run through `cafreq.cli.main`, so a change in their bytes shows
in the test suite, not only when the benchmark runs.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cafreq.cli import main

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
SEED = 0
COMMANDS = [
    (name, command)
    for name in ("rule-sweep", "swap-trials")
    for command in workloads.WORKLOADS[name].commands(SEED)
]


@pytest.mark.parametrize(
    "name, command", COMMANDS, ids=[f"{name}-{command.name}" for name, command in COMMANDS]
)
def test_csv_matches_golden_digest(name, command, tmp_path):
    out = tmp_path / f"{command.name}.csv"
    assert main([*command.argv, "--out", str(out)]) == 0
    golden = workloads.load_golden()["digests"][name]
    seed = workloads.input_seed(workloads.WORKLOADS[name], SEED)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden[str(seed)][command.name]
