"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py JOB_DIR/spec.json

The spec (written by run.py) names the source tree to import cafreq from,
the cafreq argv of each command with its CSV path, whether to build the
swap tables before the first unit, and whether to trace.  The job imports
cafreq, sets up, runs each command through `cafreq.cli.main`, and writes
report.json (phase times, peak RSS, versions, exit codes) into JOB_DIR;
a traced job also writes its spans there.  cafreq's own stdout goes
wherever the caller sends this process's stdout.
"""

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def run(spec_path: Path) -> dict:
    spec = json.loads(spec_path.read_text())
    job_dir = spec_path.parent
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    t = time.perf_counter()
    import cafreq
    import numpy
    from cafreq import cli, interval_swap, rng

    import_s = time.perf_counter() - t
    if not Path(cafreq.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"cafreq imported from {cafreq.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    report: dict = {"import_s": import_s}
    t = time.perf_counter()
    if spec["swap_prep"]:
        # what `fn apply` pays before its first window: the counting tables
        params = interval_swap.SwapParams(spec["swap_prep"][0], Fraction(spec["swap_prep"][1]))
        interval_swap.check_swap_params(params)
        cap = interval_swap.weight_bounds(params.max_free_length, params.p)[1]
        report["interval_swap.table_cells"] = len(params.marker) * sum(
            min(j, cap) + 1 for j in range(params.max_free_length + 1)
        )
    report["setup_s"] = import_s + (time.perf_counter() - t)

    t = time.perf_counter()
    outcomes = []
    for command in spec["commands"]:
        try:
            rc = cli.main(command["argv"] + ["--out", command["out"]])
            outcomes.append({"rc": rc})
        except SystemExit as exc:  # argparse refusals
            outcomes.append({"rc": exc.code})
        except Exception as exc:  # the command fails; the job goes on
            outcomes.append({"rc": None, "error": repr(exc)})
    report["work_s"] = time.perf_counter() - t
    report["commands"] = outcomes

    if tracer is not None:
        tracer.uninstall()
        report["wrappers_left"] = spans.installed_wrappers()
        report["missing_spans"] = tracer.missing
        tracer.dump(job_dir)

    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cafreq": cafreq.__version__,
        "rng_algorithm_id": rng.ALGORITHM_ID,
    }
    return report


if __name__ == "__main__":
    spec_path = Path(sys.argv[1])
    result = run(spec_path)
    (spec_path.parent / "report.json").write_text(json.dumps(result))
