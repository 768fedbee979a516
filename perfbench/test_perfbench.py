"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# every metric the benchmark promises, by name
NAMED_METRICS = {
    "wall_s", "setup_s", "units_per_s", "peak_rss_mb", "pass_frac",
    "rules.self_compose.s", "rules.self_compose.calls", "rules.composed_table_cells",
    "rules.enumerate_rules.s", "rules.is_surjective.calls", "rules.is_surjective.s",
    "correlation.histogram.s", "correlation.find_conservation_violation.s",
    "correlation.find_conservation_violation.calls", "correlation.check_high_domination.s",
    "correlation.check_prefix_sum_conjecture.s",
    "measures.pushforward.s", "measures.pushforward.calls", "measures.iterate_pushforward.s",
    "measures.check_uniform_contraction.s",
    "interval_swap.check_swap_params.s", "interval_swap.table_cells",
    "interval_swap.run_swap_trials.s", "interval_swap.medium_intervals",
    "interval_swap.rewrites", "interval_swap.rewrite_ratio",
    "block_sampler.sample_hierarchical.s", "block_sampler.sample_hierarchical.calls",
    "block_sampler.xor_iterate.s", "block_sampler.rejections", "block_sampler.accept_ratio",
    "rng.bernoulli_word.s", "rng.bernoulli_word.calls", "rng.next64.calls",
    "rng.for_index.calls", "cli.s", "cli.csv_bytes", "cafreq.import_s",
    "trace.overhead_s", "trace.spans",
}


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_runner():
    bench = _declared()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert set(e2e) | set(layer) == NAMED_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_with_a_unit(trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_ROUNDS", {0: 1, 1: 1})
    assert run.main(["--workload", "exact-pushforward", "--seed", "5",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    line = _last_json_line(capsys.readouterr().out)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert line["metrics"]["rules.self_compose.calls"]["value"] == workloads.PUSHFORWARD_T_MAX
        assert line["metrics"]["measures.pushforward.calls"]["value"] > 0


def test_corrupted_golden_digest_fails_units(monkeypatch, tmp_path):
    workload = workloads.WORKLOADS["exact-pushforward"]
    golden = copy.deepcopy(workloads.load_golden())
    entry = golden["digests"][workload.name]["2"]
    entry["contraction"] = "0" * 64
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    monkeypatch.setattr(run, "MIN_ROUNDS", {0: 1, 1: 1})
    bench = run.Run(ROOT, workload, 2, 0)
    bench.out = tmp_path
    bench.dir = tmp_path / bench.label
    bench.execute(0)
    line, _ = bench.result()
    contraction_jobs = [j for j in bench.jobs if j["command"] == "contraction"]
    assert contraction_jobs and all(j["failed"] for j in contraction_jobs)
    assert line["failed"] == 2**workloads.CONTRACTION_N * len(contraction_jobs)
    assert line["correct"] is False
    assert line["metrics"]["pass_frac"]["value"] < 1


def _xor_csv(estimate: float, stderr: float) -> bytes:
    rows = ["n,t,alpha,samples,estimate,stderr,seed"]
    for n in workloads.XOR_N_VALUES:
        rows.append(f"{n},{1 << (n * (n + 1) // 2)},{workloads.XOR_ALPHA},"
                    f"{workloads.XOR_SAMPLES},{estimate!r},{stderr!r},7")
    return ("\n".join(rows) + "\n").encode()


def test_out_of_band_estimate_fails_units():
    workload = workloads.WORKLOADS["xor-limit"]
    (command,) = workload.commands(7)
    golden = workloads.load_golden()
    refs = golden["xor_reference"]["rows"]
    center = sum(est for est, _ in refs.values()) / len(refs)
    assert workloads.failed_units(workload, command, 7, 0, _xor_csv(center, 0.02), golden)[0] == 0
    shifted = center + 10 * 0.02
    bad, why = workloads.failed_units(workload, command, 7, 0, _xor_csv(shifted, 0.02), golden)
    assert bad == command.units and why


def test_self_time_subtracts_children(tmp_path):
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span_wrapper("inner", lambda: None)
    outer = tracer.span_wrapper("outer", lambda: (inner(), inner()))
    outer()  # outer 0..5, inner 1..2 and 3..4
    tracer.dump(tmp_path)
    times, _, n = spans.self_times(tmp_path)
    assert n == 3
    assert times == {"inner": (2, 2.0), "outer": (1, 3.0)}


def test_traced_run_leaves_no_wrapper(tmp_path, capsys):
    import cafreq.cli
    import cafreq.measures
    import cafreq.rng

    def snapshot():
        mods = [m for name, m in sys.modules.items() if name.startswith("cafreq")]
        return {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()} | {
            ("SplitMix64", k): id(v) for k, v in vars(cafreq.rng.SplitMix64).items()
        }

    before = snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        assert hasattr(cafreq.measures.self_compose, spans.MARK)
        assert hasattr(cafreq.cli.correlation.histogram, spans.MARK)
        assert "cafreq.rules.is_surjective" in spans.installed_wrappers()
        assert cafreq.cli.main(["sweep", "--q", "2", "--r", "1", "--check", "prefix_sums"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert spans.installed_wrappers() == []
    assert snapshot() == before
    tracer.dump(tmp_path)
    times, counters, _ = spans.self_times(tmp_path)
    assert times["cli.main"][0] == 1
    assert times["correlation.check_prefix_sum_conjecture"][0] == 8  # 2 + 6 rules
    assert times["rules.is_surjective"][0] >= 8
    assert counters["rng.next64.calls"] == 0
