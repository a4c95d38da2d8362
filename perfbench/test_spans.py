"""Checks that the tracer's wrappers sit where the library looks its callables up.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import math
from pathlib import Path

import spans
from ompbounds import cli, montecarlo

TRIALS = 5
DRAWS = 300  # two unit_correlation_max batches


def _config(seed=3):
    return montecarlo.ExperimentConfig(
        m=64, sweep="tau", sweep_values=(2, 4), tau=2, s_min=0.5, s_max=1.0,
        sigma=0.01, trials=TRIALS, beta_draws=DRAWS, master_seed=seed,
    )


def _traced_sweep(cfg):
    with spans.traced() as tracer:
        results = montecarlo.run_sweep(cfg)
    return tracer, [r.successes for r in results]


def _all_counts(tracer):
    calls = {name: agg[0] for name, agg in tracer.spans.items()}
    return calls, dict(tracer.counts), dict(tracer.errors)


def test_counts_follow_from_the_config():
    cfg = _config()
    tracer, _ = _traced_sweep(cfg)
    sum_tau = sum(cfg.sweep_values) * TRIALS
    batches = math.ceil(DRAWS / spans.BETA_BATCH)
    assert tracer.calls("omp.omp") == len(cfg.sweep_values) * TRIALS
    assert tracer.counts["omp.iterations"] == sum_tau
    assert tracer.calls("dictionary.correlate_all") == sum_tau + batches
    assert tracer.calls("dictionary.matvec") == len(cfg.sweep_values) * TRIALS
    assert tracer.calls("montecarlo.run_point") == len(cfg.sweep_values)
    assert tracer.calls("bounds.unit_correlation_max") == 1
    assert tracer.counts["bounds.draws"] == DRAWS
    assert tracer.calls("montecarlo.run_sweep") == 1


def test_counts_repeat_and_tracing_changes_no_result():
    cfg = _config()
    first, traced_successes = _traced_sweep(cfg)
    second, _ = _traced_sweep(cfg)
    assert _all_counts(first) == _all_counts(second)
    assert traced_successes == [r.successes for r in montecarlo.run_sweep(cfg)]


def test_cli_path_is_traced_and_patches_are_restored(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--set", "m=64", "--set", "sweep=tau", "--set", "sweep_values=2",
            "--set", "s_min=0.5", "--set", "s_max=1.0", "--set", "sigma=0.01",
            "--set", f"trials={TRIALS}", "--set", f"beta_draws={DRAWS}", "--out", str(out)]
    original = montecarlo.omp
    with spans.traced() as tracer:
        assert cli.main(args) == 0
    assert montecarlo.omp is original
    assert tracer.calls("cli.main") == 1
    assert tracer.calls("montecarlo.run_sweep") == 1
    assert tracer.calls("omp.omp") == TRIALS
    assert 0 < tracer.self_time("cli.main") < tracer.busy("cli.main")


def test_benchmark_json_declares_what_the_runner_reports():
    import run

    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} == set(run.wl.WORKLOADS)
