"""The benchmark's workloads: inputs made from a seed, cafreq commands, checks.

A job runs every command of its workload once, through `cafreq.cli.main`,
each writing one CSV file.  This module turns a benchmark seed into those
commands, and judges the CSV bytes the job left behind:

* a command that raised, exited with code 2 or wrote no CSV fails all its
  units;
* `exact-pushforward`, `rule-sweep` and `swap-trials` must match the SHA-256
  digests in golden.json, recorded on the seed commit; a mismatch fails all
  the command's units;
* a row whose property column is false (a check the command reports as not
  holding) fails the units of that row;
* `xor-limit` rows must agree with the stored reference estimates within
  BAND_SIGMAS combined standard errors, so a new random stream for the
  block sampler still passes while a changed distribution does not.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Seeds with recorded digests; benchmark seed s uses input seed s % RECORDED_SEEDS.
RECORDED_SEEDS = 24
BAND_SIGMAS = 5

# The 30 surjective radius-2 binary rule tables, in table order
# (`cafreq.rules.surjective_rules(2, 2)`; record.py checks the list).
SURJECTIVE_R2 = (
    "00001111", "00011110", "00101101", "00110011", "00111100", "01001011",
    "01010101", "01010110", "01011001", "01011010", "01100101", "01100110",
    "01101001", "01101010", "01111000", "10000111", "10010101", "10010110",
    "10011001", "10011010", "10100101", "10100110", "10101001", "10101010",
    "10110100", "11000011", "11001100", "11010010", "11100001", "11110000",
)

PUSHFORWARD_MEASURE = "bernoulli:1/3"
PUSHFORWARD_T_MAX = 6
CONTRACTION_N = 10
CONSERVATION_MAX_PERIOD = 10
SWAP_N, SWAP_P = 2, "1/50"
SWAP_WINDOWS = 100
XOR_LEVELS, XOR_ALPHA = 5, "1/2"
XOR_SAMPLES = 150
XOR_N_VALUES = (1, 2, 3, 4)


def _true(row: dict, *columns: str) -> bool:
    return all(row[c] == "True" for c in columns)


@dataclass(frozen=True)
class Command:
    """One cafreq invocation; `units` of work spread evenly over `rows` CSV rows."""

    name: str
    argv: tuple[str, ...]
    rows: int
    units: int
    passes: Optional[Callable[[dict], bool]] = None  # property columns of one row


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # False: exhaustive, the seed is only recorded
    digests: bool  # False: checked statistically against reference estimates
    swap_prep: bool  # build the swap tables before the first unit
    commands: Callable[[int], list[Command]]


def input_seed(workload: Workload, seed: int) -> int:
    """The input seed a benchmark seed selects; digests exist for each."""
    if not workload.seeded:
        return 0
    if workload.digests:
        return seed % RECORDED_SEEDS
    return seed


def _draw(name: str, seed: int) -> bytes:
    return hashlib.sha256(f"{name}:{seed}".encode()).digest()


def _cafreq_seed(name: str, seed: int) -> int:
    return int.from_bytes(_draw(name, seed)[:4], "big")


def _exact_pushforward(seed: int) -> list[Command]:
    h = _draw("exact-pushforward", seed)
    rule = "2 2 " + SURJECTIVE_R2[h[0] % len(SURJECTIVE_R2)]
    word = format(h[1] % 8, "03b")
    cells = 2**CONTRACTION_N
    return [
        Command(
            "pushforward",
            ("measure", "pushforward", rule, "--measure", PUSHFORWARD_MEASURE,
             "--word", word, "--t-max", str(PUSHFORWARD_T_MAX)),
            rows=PUSHFORWARD_T_MAX + 1,
            units=PUSHFORWARD_T_MAX + 1,
        ),
        Command(
            "contraction",
            ("measure", "contraction", rule, "--measure", PUSHFORWARD_MEASURE,
             "--n", str(CONTRACTION_N)),
            rows=1,
            units=cells,
            passes=lambda row: _true(row, "holds"),
        ),
    ]


def _sweep(name: str, q: int, r: int, check: str, rows: int, passes, *extra: str) -> Command:
    argv = ("sweep", "--q", str(q), "--r", str(r), "--check", check, *extra, "--jobs", "1")
    return Command(name, argv, rows=rows, units=rows, passes=passes)


def _rule_sweep(seed: int) -> list[Command]:
    # row counts: 620 surjective binary rules of radius <= 3 (two symbol
    # subsets each), 426 ternary ones of radius <= 1 (six subsets each)
    return [
        _sweep("one_domination", 2, 3, "one_domination", 1240,
               lambda row: _true(row, "holds")),
        _sweep("high_domination", 2, 3, "high_domination", 1240,
               lambda row: row["m_star"] != ""),
        _sweep("prefix_sums", 2, 3, "prefix_sums", 620, lambda row: _true(row, "holds")),
        _sweep("conservation", 2, 3, "conservation", 1240, lambda row: _true(row, "agree"),
               "--max-period", str(CONSERVATION_MAX_PERIOD)),
        _sweep("one_domination_q3", 3, 1, "one_domination", 2556,
               lambda row: _true(row, "holds")),
    ]


def _swap_trials(seed: int) -> list[Command]:
    argv = ("fn", "apply", "--n", str(SWAP_N), "--p", SWAP_P,
            "--windows", str(SWAP_WINDOWS),
            "--seed", str(_cafreq_seed("swap-trials", seed)), "--jobs", "1")
    return [
        Command(
            "trials", argv, rows=SWAP_WINDOWS, units=SWAP_WINDOWS,
            passes=lambda row: _true(row, "involution_ok", "occurrences_conserved", "quad_free"),
        )
    ]


def _xor_limit(seed: int) -> list[Command]:
    argv = ("xor-limit", "--levels", str(XOR_LEVELS), "--alpha", XOR_ALPHA,
            "--samples", str(XOR_SAMPLES), "--seed", str(_cafreq_seed("xor-limit", seed)),
            "--jobs", "1")
    n_values = len(XOR_N_VALUES)
    return [Command("xor", argv, rows=n_values, units=n_values * XOR_SAMPLES)]


# why each workload exists: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-pushforward", seeded=True, digests=True, swap_prep=False,
                 commands=_exact_pushforward),
        Workload("rule-sweep", seeded=False, digests=True, swap_prep=False,
                 commands=_rule_sweep),
        Workload("swap-trials", seeded=True, digests=True, swap_prep=True,
                 commands=_swap_trials),
        Workload("xor-limit", seeded=True, digests=False, swap_prep=False,
                 commands=_xor_limit),
    )
}


# ---------------------------------------------------------------------------
# checks


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_rows(data: bytes) -> tuple[list[str], list[dict]]:
    reader = csv.reader(io.StringIO(data.decode("ascii")))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader]


def _xor_row_ok(row: dict, reference: dict) -> bool:
    ref = reference["rows"].get(row["n"])
    if ref is None or row["alpha"] != XOR_ALPHA or int(row["samples"]) != XOR_SAMPLES:
        return False
    n = int(row["n"])
    if int(row["t"]) != 1 << (n * (n + 1) // 2):
        return False
    est, se = float(row["estimate"]), float(row["stderr"])
    ref_est, ref_se = ref
    return abs(est - ref_est) <= BAND_SIGMAS * math.sqrt(se * se + ref_se * ref_se)


def failed_units(
    workload: Workload,
    command: Command,
    seed: int,
    rc: Optional[int],
    data: Optional[bytes],
    golden: dict,
) -> tuple[int, str]:
    """Units of `command` that failed, and why (empty when none did)."""
    if rc not in (0, 1) or data is None:
        return command.units, f"exit code {rc}" if data is not None else "no CSV written"
    if workload.digests:
        want = golden["digests"][workload.name][str(input_seed(workload, seed))][command.name]
        if digest(data) != want:
            return command.units, "CSV digest differs from golden"
    try:
        _, rows = parse_rows(data)
    except (UnicodeDecodeError, csv.Error) as exc:
        return command.units, f"unreadable CSV: {exc}"
    if len(rows) != command.rows:
        return command.units, f"{len(rows)} rows, expected {command.rows}"
    if workload.digests:
        ok = [command.passes is None or command.passes(row) for row in rows]
    else:
        ok = []
        for row in rows:
            try:
                ok.append(_xor_row_ok(row, golden["xor_reference"]))
            except (KeyError, ValueError):
                ok.append(False)
    bad = ok.count(False)
    if bad:
        return bad * command.units // command.rows, f"{bad} rows fail their check"
    if rc == 1:
        return command.units, "exit code 1 without a failing row"
    return 0, ""


def row_counts(workload: Workload, outputs: dict[str, bytes]) -> dict[str, float]:
    """Per-layer counts read off the CSV bytes; they repeat exactly per seed."""
    counts: dict[str, float] = {"cli.csv_bytes": sum(len(b) for b in outputs.values())}
    medium = rewrites = 0
    if workload.swap_prep and "trials" in outputs:
        for row in parse_rows(outputs["trials"])[1]:
            medium += int(row["medium_intervals"])
            rewrites += int(row["rewritten_to_dense"]) + int(row["rewritten_to_sparse"])
    counts["interval_swap.medium_intervals"] = medium
    counts["interval_swap.rewrites"] = rewrites
    # the largest composed table: q^(t*r + 1) cells for q = r = 2, t = t_max
    counts["rules.composed_table_cells"] = (
        2 ** (PUSHFORWARD_T_MAX * 2 + 1) if workload.name == "exact-pushforward" else 0
    )
    return counts
