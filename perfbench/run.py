"""Run one cafreq benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cafreq checkout; cafreq is imported from ./src.
A workload is a few cafreq commands at a fixed size.  A run repeats them in
rounds, in a closed loop: each job is one command in a fresh interpreter
(`job.py`), as a user runs it, started when the previous job has ended and
its CSV output is checked.  Rounds start until the next one would end after
S seconds (at least MIN_ROUNDS of them).

Every time metric takes each command's fastest job in the run and sums
over the workload's commands.  Each job's times are first scaled by the
host's speed around the job, measured by a fixed calibration loop run just
before and just after it (`calibration_s`).  On a shared host, interference
only ever adds time; it comes in bursts that last seconds, and in phases
that slow the whole machine for minutes.  The fastest of many short jobs
removes the bursts and the scaling removes most of the phases, where a
median follows the host's speed of the moment.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each command
untraced and then traced, and prints the per-layer metrics: span self times
and call counts from the traced jobs, counts read off the outputs, and the
tracing overhead (traced wall time minus untraced wall time).

The last stdout line is {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count units of work.  The run manifest, every job's
raw figures and each command's fastest and median times go to
perfbench/out/<run>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = {0: 3, 1: 2}
RUN_LIMIT_S = 150  # no job starts after this; a run must end within 180 s

# A job's times are scaled by the host's speed around it: CALIBRATION_REF_S
# over the mean calibration_s() just before and just after the job.
# CALIBRATION_REF_S is the median pass on the reference machine, so that a
# scaled time reads as that machine's typical seconds.
CALIBRATION_REF_S = 0.0020
CALIBRATION_PASSES = 20
CALIBRATION_MODULUS = 7**1200 + 1

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}

# span name -> whether its call count is a metric as well as its self time
SPAN_METRICS = {
    "rules.self_compose": True,
    "rules.enumerate_rules": False,
    "rules.is_surjective": True,
    "correlation.histogram": False,
    "correlation.find_conservation_violation": True,
    "correlation.check_high_domination": False,
    "correlation.check_prefix_sum_conjecture": False,
    "measures.pushforward": True,
    "measures.iterate_pushforward": False,
    "measures.check_uniform_contraction": False,
    "interval_swap.check_swap_params": False,
    "interval_swap.run_swap_trials": False,
    "block_sampler.sample_hierarchical": True,
    "block_sampler.xor_iterate": False,
    "rng.bernoulli_word": True,
}

PER_LAYER = {
    **{
        f"{name}{suffix}": unit
        for name, calls in SPAN_METRICS.items()
        for suffix, unit in ((".s", "s"), (".calls", "count"))
        if suffix == ".s" or calls
    },
    "rules.composed_table_cells": "count",
    "interval_swap.table_cells": "count",
    "interval_swap.medium_intervals": "count",
    "interval_swap.rewrites": "count",
    "interval_swap.rewrite_ratio": "ratio",
    "block_sampler.rejections": "count",
    "block_sampler.accept_ratio": "ratio",
    "rng.next64.calls": "count",
    "rng.for_index.calls": "count",
    "cli.s": "s",
    "cli.csv_bytes": "count",
    "cafreq.import_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# one value per process, not summed over the workload's commands
PER_PROCESS = {"cafreq.import_s", "interval_swap.table_cells", "rules.composed_table_cells"}
# computed from the other metrics
DERIVED = {"block_sampler.accept_ratio", "interval_swap.rewrite_ratio", "trace.overhead_s"}


def calibration_s() -> float:
    """Mean seconds of one pass of a fixed mix of interpreter work: small-int
    arithmetic and dict stores, a list allocation, big-integer products and
    Fraction sums, the kinds of work cafreq's layers spend their time on."""
    started = time.perf_counter()
    for _ in range(CALIBRATION_PASSES):
        table = {}
        x = 1
        for i in range(1500):
            x = (x * 1103515245 + 12345) % 2147483648
            table[x & 1023] = (i, x >> 7)
        block = list(range(20000))
        big = 3**1500
        for _ in range(15):
            big = big * big % CALIBRATION_MODULUS
        total = Fraction(0)
        for k in range(1, 60):
            total += Fraction(k, k + 1)
        del table, block
    return (time.perf_counter() - started) / CALIBRATION_PASSES


def checkout_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_job(
    root: Path,
    job_dir: Path,
    workload: workloads.Workload,
    commands: list[workloads.Command],
    traced: bool,
    timeout: float,
) -> tuple[int, list[Path]]:
    """Run job.py once in job_dir; its exit code and the commands' CSV paths."""
    job_dir.mkdir(parents=True)
    outs = [job_dir / f"{c.name}.csv" for c in commands]
    spec = {
        "src": str(root / "src"),
        "trace": traced,
        "swap_prep": [workloads.SWAP_N, workloads.SWAP_P] if workload.swap_prep else None,
        "commands": [{"argv": list(c.argv), "out": str(out)} for c, out in zip(commands, outs)],
    }
    spec_path = job_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(job_dir / "stdout.txt", "wb") as out, open(job_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), str(spec_path)],
            cwd=root, stdout=out, stderr=err,
        )
        # a blocking wait returns as soon as the job exits; wait(timeout=...)
        # would poll and round every wall time up to the next 50 ms
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:  # the run itself is being stopped
                proc.kill()
                proc.wait()
    return proc.returncode, outs


def scaled_wall(job: dict) -> float:
    return job["wall_s"] * job["speed"]


def scaled_setup(job: dict) -> float:
    return job["report"]["setup_s"] * job["speed"]


def scaled_work(job: dict) -> float:
    return job["report"]["work_s"] * job["speed"]


class Run:
    def __init__(self, root: Path, workload: workloads.Workload, seed: int, trace: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.commands = workload.commands(workloads.input_seed(workload, seed))
        self.golden = workloads.load_golden()
        self.label = f"{workload.name}-seed{seed}-trace{trace}"
        self.out = root / "perfbench" / "out"
        self.dir = self.out / f"{self.label}-{os.getpid()}"
        self.jobs: list[dict] = []

    def job(self, command: workloads.Command, traced: bool) -> dict:
        """Run and check one command in a fresh interpreter; its wall time ends
        once its output is checked."""
        job_dir = self.dir / f"job{len(self.jobs)}"
        timeout = max(10.0, RUN_LIMIT_S + 20 - (time.perf_counter() - self.started))
        before = calibration_s()
        started = time.perf_counter()
        exit_code, (out_path,) = spawn_job(
            self.root, job_dir, self.workload, [command], traced, timeout
        )
        report_path = job_dir / "report.json"
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        rc = report["commands"][0]["rc"] if report else None
        data = out_path.read_bytes() if out_path.exists() else None
        failed, why = workloads.failed_units(self.workload, command, self.seed, rc, data, self.golden)
        wall = time.perf_counter() - started
        speed = CALIBRATION_REF_S / ((before + calibration_s()) / 2)

        result = {
            "command": command.name,
            "traced": traced,
            "wall_s": wall,
            "speed": speed,
            "exit_code": exit_code,
            "attempted": command.units,
            "failed": failed,
            "fail_reason": why,
            "report": report,
            # counts are read only off checked outputs
            "counts": workloads.row_counts(self.workload, {} if why else {command.name: data}),
        }
        if report is None:
            result["stderr_tail"] = (job_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        elif traced:
            result["layers"] = self.layers(job_dir, report)
        return result

    def layers(self, job_dir: Path, report: dict) -> dict:
        times, counters, n_spans = spans.self_times(job_dir)
        out: dict[str, float] = {}
        for name, with_calls in SPAN_METRICS.items():
            calls, self_s = times.get(name, (0, 0.0))
            out[f"{name}.s"] = self_s
            if with_calls:
                out[f"{name}.calls"] = calls
        out["block_sampler.rejections"] = counters.get("block_sampler.rejections", 0)
        out["rng.next64.calls"] = counters.get("rng.next64.calls", 0)
        out["rng.for_index.calls"] = counters.get("rng.for_index.calls", 0)
        out["cli.s"] = times.get("cli.main", (0, 0.0))[1]
        out["interval_swap.table_cells"] = report.get("interval_swap.table_cells", 0)
        out["cafreq.import_s"] = report["import_s"]
        out["trace.spans"] = n_spans
        return out

    def execute(self, seconds: float) -> None:
        """Run the workload's commands in turn, one job each (untraced, then
        traced when tracing), until the next round would end after `seconds`."""
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        # untimed: compile bytecode and warm the file cache, which users
        # do not pay on every invocation
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import cafreq",
             str(self.root / "src")],
            cwd=self.root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
        )
        self.started = time.perf_counter()
        modes = (False, True) if self.trace else (False,)
        rounds: list[float] = []
        while True:
            t = time.perf_counter()
            for command in self.commands:
                for traced in modes:
                    self.jobs.append(self.job(command, traced))
                    if self.jobs[-1]["report"] is None:
                        return
            rounds.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - self.started
            typical = statistics.median(rounds)
            if elapsed + typical > RUN_LIMIT_S:
                break
            if len(rounds) >= MIN_ROUNDS[self.trace] and elapsed + typical > seconds:
                break

    # -- metrics --------------------------------------------------------------

    def per_command(self, traced: bool, key) -> list[list[float]]:
        """key(job) for each finished job, grouped by the workload's commands."""
        return [
            [key(j) for j in self.jobs
             if j["command"] == c.name and j["traced"] == traced and j["report"]]
            for c in self.commands
        ]

    def fastest(self, traced: bool, key) -> float:
        """The sum over the workload's commands of each one's fastest job."""
        return sum(min(values, default=0.0) for values in self.per_command(traced, key))

    def metrics(self) -> dict[str, float]:
        attempted = sum(j["attempted"] for j in self.jobs)
        failed = sum(j["failed"] for j in self.jobs)
        if not self.trace:
            done = [j for j in self.jobs if j["report"]]
            units = sum(c.units for c in self.commands)
            return {
                "wall_s": self.fastest(False, scaled_wall),
                "setup_s": min((scaled_setup(j) for j in done), default=0.0),
                "units_per_s": units / (self.fastest(False, scaled_work) or 1.0),
                "peak_rss_mb": max(
                    (statistics.median(v) for v in
                     self.per_command(False, lambda j: j["report"]["peak_rss_kb"] / 1024) if v),
                    default=0.0,
                ),
                "pass_frac": (attempted - failed) / attempted,
            }
        traced = [{**j["counts"], **j["layers"]} for j in self.jobs if j["traced"] and j["report"]]
        if not traced:
            return {}
        by_command = self.per_command(True, lambda j: {**j["counts"], **j["layers"]})
        out: dict[str, float] = {}
        for name in PER_LAYER:
            if name in PER_PROCESS:
                out[name] = statistics.median(t[name] for t in traced)
            elif name not in DERIVED:
                # one traced pass over the workload: each command's median, summed
                out[name] = sum(statistics.median(t[name] for t in ts) for ts in by_command if ts)
        samples = out["block_sampler.sample_hierarchical.calls"]
        rejections = out["block_sampler.rejections"]
        out["block_sampler.accept_ratio"] = samples / (samples + rejections) if samples else 0.0
        medium = out["interval_swap.medium_intervals"]
        out["interval_swap.rewrite_ratio"] = out["interval_swap.rewrites"] / medium if medium else 0.0
        out["trace.overhead_s"] = self.fastest(True, scaled_wall) - self.fastest(False, scaled_wall)
        return out

    def command_times(self) -> dict:
        """Per command: job count, fastest and median wall and work times,
        as measured and scaled."""
        out = {}
        for traced in sorted({j["traced"] for j in self.jobs}):
            for c, *times in zip(
                self.commands,
                *(self.per_command(traced, key) for key in (
                    lambda j: j["wall_s"], scaled_wall, lambda j: j["report"]["work_s"], scaled_work,
                )),
            ):
                out[f"{c.name}{'-traced' if traced else ''}"] = {
                    name: {"n": len(v), "min": min(v, default=None),
                           "median": statistics.median(v) if v else None}
                    for name, v in zip(("wall_s", "scaled_wall_s", "work_s", "scaled_work_s"), times)
                }
        return out

    def result(self) -> tuple[dict, dict]:
        units = END_TO_END if not self.trace else PER_LAYER
        attempted = sum(j["attempted"] for j in self.jobs)
        failed = sum(j["failed"] for j in self.jobs)
        wrappers_left = [w for j in self.jobs if j["report"] for w in j["report"].get("wrappers_left", [])]
        correct = (
            failed == 0
            and not wrappers_left
            and all(j["report"] is not None and j["exit_code"] == 0 for j in self.jobs)
        )
        values = self.metrics()
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
        line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        return line, self.command_times()

    def manifest(self) -> dict:
        versions = next((j["report"]["versions"] for j in self.jobs if j["report"]), {})
        return {
            "commit": checkout_commit(self.root),
            "python": versions.get("python", sys.version.split()[0]),
            "numpy": versions.get("numpy"),
            "cafreq": versions.get("cafreq"),
            "rng_algorithm_id": versions.get("rng_algorithm_id"),
            "nproc": os.cpu_count(),
            "workload": self.workload.name,
            "seed": self.seed,
            "input_seed": workloads.input_seed(self.workload, self.seed),
            "trace": self.trace,
            "argv": [sys.executable, *sys.argv],
            "cafreq_argv": [list(c.argv) for c in self.commands],
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cafreq" / "__init__.py").is_file():
        print(f"error: no cafreq source tree at {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if not workloads.GOLDEN_PATH.is_file():
        print(f"error: missing {workloads.GOLDEN_PATH}", file=sys.stderr)
        return 2

    run = Run(root, workloads.WORKLOADS[args.workload], args.seed, args.trace)
    run.execute(args.seconds)
    line, times = run.result()
    record = {"manifest": run.manifest(), "result": line, "per_command": times, "jobs": run.jobs}
    (run.out / f"{run.label}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(run.dir)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    # a stopped run stops its job too (spawn_job's finally) before it exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
