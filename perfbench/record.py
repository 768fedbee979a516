"""Record perfbench/golden.json from the cafreq checkout in the current directory.

    python3 perfbench/record.py

Run it on a commit whose outputs are trusted.  For every recorded input
seed of each digest-checked workload it runs one untraced job, checks that
every property column holds, and stores the SHA-256 digest of each CSV.
For xor-limit it stores reference estimates from one large run
(XOR_REFERENCE_SAMPLES samples per level on XOR_REFERENCE_SEED, two
worker processes).  Takes several minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import checkout_commit, spawn_job
import workloads

XOR_REFERENCE_SEED = 20250401
XOR_REFERENCE_SAMPLES = 60000


def record_digests(root: Path, scratch: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    from cafreq import rules

    listed = tuple("".join(map(str, r.table)) for r in rules.surjective_rules(2, 2))
    if listed != workloads.SURJECTIVE_R2:
        raise SystemExit("SURJECTIVE_R2 differs from cafreq.rules.surjective_rules(2, 2)")

    digests: dict = {}
    for name, workload in workloads.WORKLOADS.items():
        if not workload.digests:
            continue
        seeds = range(workloads.RECORDED_SEEDS) if workload.seeded else [0]
        digests[name] = {}
        for seed in seeds:
            commands = workload.commands(seed)
            job_dir = scratch / f"{name}-{seed}"
            code, outs = spawn_job(root, job_dir, workload, commands, False, 600)
            entry = {}
            for command, out in zip(commands, outs):
                data = out.read_bytes()
                _, rows = workloads.parse_rows(data)
                if code != 0 or len(rows) != command.rows:
                    raise SystemExit(f"{name} seed {seed}: {command.name} did not complete")
                if command.passes and not all(command.passes(row) for row in rows):
                    raise SystemExit(f"{name} seed {seed}: {command.name} has a failing row")
                entry[command.name] = workloads.digest(data)
            digests[name][str(seed)] = entry
            print(f"{name} seed {seed}: {entry}", flush=True)
    return digests


def record_xor_reference(root: Path, scratch: Path) -> dict:
    out = scratch / "xor_reference.csv"
    argv = [
        "xor-limit", "--levels", str(workloads.XOR_LEVELS), "--alpha", workloads.XOR_ALPHA,
        "--samples", str(XOR_REFERENCE_SAMPLES), "--seed", str(XOR_REFERENCE_SEED),
        "--jobs", "2", "--out", str(out),
    ]
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); from cafreq.cli import main; "
         "sys.exit(main(sys.argv[2:]))",
         str(root / "src"), *argv],
        cwd=root, check=True, stdout=subprocess.DEVNULL,
    )
    rows = workloads.parse_rows(out.read_bytes())[1]
    return {
        "argv": argv[:-2],
        "rows": {row["n"]: [float(row["estimate"]), float(row["stderr"])] for row in rows},
    }


def main() -> int:
    root = Path.cwd()
    (root / "perfbench" / "out").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=root / "perfbench" / "out"))
    try:
        sys.path.insert(0, str(root / "src"))
        from cafreq import __version__, rng

        golden = {
            "commit": checkout_commit(root),
            "cafreq": __version__,
            "rng_algorithm_id": rng.ALGORITHM_ID,
            "recorded_seeds": workloads.RECORDED_SEEDS,
            "xor_reference": record_xor_reference(root, scratch),
            "digests": record_digests(root, scratch),
        }
    finally:
        shutil.rmtree(scratch)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
