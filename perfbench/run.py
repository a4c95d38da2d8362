"""Benchmark of the ompbounds library, driven through its public functions.

Run from the repository root:

    python3 perfbench/run.py --workload tau-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate serial traced pass and reports per-layer metrics (see
``spans.py``).  Every output is checked (``workloads.py``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and name every metric with its unit.  ``--workload all`` runs
each workload in its own process and prints one table.
"""

import os

# One BLAS thread per process, set before numpy loads: the workloads use at
# most two processes on two cores, and threaded BLAS would oversubscribe them.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import spans  # noqa: E402
    import workloads as wl  # noqa: E402
except ImportError as err:
    raise SystemExit(f"perfbench: cannot import ompbounds from {ROOT / 'src'}: {err}") from err

# Set-up passes of a beta-m4096 run and of a traced sweep run (whose median
# beta pass time is taken out of the sweep wall times to get the trial phase).
SETUP_REPEATS = 5

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("beta_draws_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("dictionary.fwht.calls", "count"),
    ("dictionary.fwht.vectors", "count"),
    ("dictionary.fwht.busy_s", "s"),
    ("dictionary.fwht.flops_computed", "flop"),
    ("dictionary.fwht.bytes_computed", "B"),
    ("dictionary.correlate_all.calls", "count"),
    ("dictionary.correlate_all.busy_s", "s"),
    ("dictionary.correlate_all.self_s", "s"),
    ("dictionary.column.calls", "count"),
    ("dictionary.column.busy_s", "s"),
    ("dictionary.column.self_s", "s"),
    ("dictionary.matvec.calls", "count"),
    ("dictionary.matvec.busy_s", "s"),
    ("dictionary.matvec.self_s", "s"),
    ("signals.generator.calls", "count"),
    ("signals.generator.busy_s", "s"),
    ("signals.draw_sparse_signal.busy_s", "s"),
    ("signals.synthesize.busy_s", "s"),
    ("signals.synthesize.self_s", "s"),
    ("omp.omp.calls", "count"),
    ("omp.omp.busy_s", "s"),
    ("omp.omp.self_s", "s"),
    ("omp.iterations", "count"),
    ("omp.support_match.busy_s", "s"),
    ("omp.success_ratio", "ratio"),
    ("omp.singular", "count"),
    ("bounds.unit_correlation_max.calls", "count"),
    ("bounds.unit_correlation_max.busy_s", "s"),
    ("bounds.draws", "count"),
    ("bounds.thm2_bound.calls", "count"),
    ("bounds.thm2_bound.busy_s", "s"),
    ("bounds.thm1.calls", "count"),
    ("bounds.thm1.busy_s", "s"),
    ("montecarlo.run_sweep.busy_s", "s"),
    ("montecarlo.run_point.calls", "count"),
    ("montecarlo.run_point.busy_s", "s"),
    ("montecarlo.run_point.self_s", "s"),
    ("montecarlo.parallel_efficiency", "ratio"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.csv_bytes", "B"),
    ("trace.slowdown", "ratio"),
)


class Tally:
    """Operations attempted and failed; an operation is one sweep point or one beta estimate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _environment(workers: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workers": workers,
        "controls": "none: no cache dropping, CPU pinning or frequency control",
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  Children (sweep workers and set-up
    # probes) count once they are reaped.
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _setup(spec, seed, tally, setups):
    """One checked set-up pass, appended to ``setups`` as ``(setup_s, beta_s, unit_max)``."""
    setup = wl.setup_pass(spec.m, spec.beta_draws, seed)
    problems = wl.check_unit_max(spec.m, spec.beta_draws, seed, setup[2])
    if setups and setup[2] != setups[0][2]:
        problems.append(f"set-up unit max {setup[2]!r} != first pass {setups[0][2]!r}")
    tally.record(problems)
    setups.append(setup)


def _record_sweep(spec, seed, run, unit_max, tally, reference=None):
    problems = wl.check_sweep(spec, seed, run, unit_max)
    if reference is not None and run.rows != reference.rows:
        for p in problems:
            p.append("points differ from the first pass")
    for p in problems:
        tally.record(p)


def measure_sweep(spec, seed, seconds, trace, out_dir, tally):
    out = os.path.join(out_dir, f"{spec.name}.csv")
    points = len(spec.values)
    trials = points * spec.trials
    setups = []
    if not trace:
        runs = []
        start = time.perf_counter()
        # Each round sets up, as every sweep does, then sweeps; start another
        # round only while it is expected to end within the run time.
        while not runs or time.perf_counter() - start + setups[-1][0] + runs[-1].wall_s <= seconds:
            _setup(spec, seed, tally, setups)
            try:
                run = wl.sweep_pass(spec, seed, spec.workers, out)
            except Exception as err:  # a failed operation is counted, not fatal
                for _ in range(points):
                    tally.record([f"sweep raised {err!r}"])
                break
            _record_sweep(spec, seed, run, setups[0][2], tally, runs[0] if runs else None)
            runs.append(run)
        return {
            "trials_per_s": _median([trials / run.wall_s for run in runs]),
            "beta_draws_per_s": _median([spec.beta_draws / beta_s for _, beta_s, _ in setups]),
            "setup_s": _median([setup_s for setup_s, _, _ in setups]),
            "peak_rss_mb": _peak_rss_mb(),
        }

    for _ in range(SETUP_REPEATS):
        _setup(spec, seed, tally, setups)
    unit_max = setups[0][2]
    par = wl.sweep_pass(spec, seed, spec.workers, out)
    _record_sweep(spec, seed, par, unit_max, tally)
    ser = par
    if spec.workers > 1:
        ser = wl.sweep_pass(spec, seed, 1, out)
        _record_sweep(spec, seed, ser, unit_max, tally, par)
    with spans.traced() as tracer:
        traced = wl.sweep_pass(spec, seed, 1, out)
    _record_sweep(spec, seed, traced, unit_max, tally, par)
    if traced.csv_text != par.csv_text:
        tally.record(["traced CSV bytes differ from the untraced CSV"])
    beta = _median([beta_s for _, beta_s, _ in setups])
    metrics = layer_metrics(tracer)
    metrics["montecarlo.parallel_efficiency"] = (ser.wall_s - beta) / (
        spec.workers * (par.wall_s - beta)
    )
    metrics["trace.slowdown"] = traced.wall_s / ser.wall_s
    metrics["cli.csv_bytes"] = len(traced.csv_text.encode()) if traced.csv_text else 0
    print(f"tracing overhead: traced {trials / traced.wall_s:.2f} trials/s, untraced serial "
          f"{trials / ser.wall_s:.2f} trials/s, untraced at {spec.workers} workers "
          f"{trials / par.wall_s:.2f} trials/s")
    return metrics


def measure_beta(spec, seed, seconds, trace, tally):
    setup_s = [wl.setup_pass(spec.m, 0, seed)[0] for _ in range(SETUP_REPEATS)]
    values = []

    def record(unit_max):
        problems = wl.check_unit_max(spec.m, spec.draws, seed, unit_max)
        if values and unit_max != values[0]:
            problems.append(f"unit max {unit_max!r} != first pass {values[0]!r}")
        tally.record(problems)
        values.append(unit_max)

    if not trace:
        rates = []
        start = time.perf_counter()
        wall = 0.0
        while not rates or time.perf_counter() - start + wall <= seconds:
            try:
                wall, unit_max = wl.beta_pass(spec, seed)
            except Exception as err:  # a failed operation is counted, not fatal
                tally.record([f"unit_correlation_max raised {err!r}"])
                break
            record(unit_max)
            rates.append(spec.draws / wall)
        rate = _median(rates)
        return {
            "trials_per_s": rate,
            "beta_draws_per_s": rate,
            "setup_s": _median(setup_s),
            "peak_rss_mb": _peak_rss_mb(),
        }

    wall, unit_max = wl.beta_pass(spec, seed)
    record(unit_max)
    with spans.traced() as tracer:
        traced_wall, unit_max = wl.beta_pass(spec, seed)
    record(unit_max)
    metrics = layer_metrics(tracer)
    metrics["montecarlo.parallel_efficiency"] = 0.0
    metrics["trace.slowdown"] = traced_wall / wall
    metrics["cli.csv_bytes"] = 0
    print(f"tracing overhead: traced {spec.draws / traced_wall:.1f} draws/s, "
          f"untraced {spec.draws / wall:.1f} draws/s")
    return metrics


def layer_metrics(tr) -> dict:
    """Per-layer metrics of one traced pass; the caller adds the whole-pass ratios.

    A name ending in ``.calls``, ``.busy_s`` or ``.self_s`` reads that span
    aggregate; any other name reads the tracer's work counter.
    """
    m = {}
    for name, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = tr.calls(span)
        elif stat == "busy_s":
            m[name] = tr.busy(span)
        elif stat == "self_s":
            m[name] = tr.self_time(span)
        else:
            m[name] = tr.counts[name]
    matches = tr.calls("omp.support_match")
    m["omp.success_ratio"] = tr.counts["omp.matches"] / matches if matches else 0.0
    m["omp.singular"] = tr.errors["omp.omp"]
    m["cli.self_s"] = tr.self_time("cli.main")
    return m


def run_one(args) -> dict:
    spec = wl.WORKLOADS[args.workload]
    workers = getattr(spec, "workers", 1)
    print("env " + json.dumps(_environment(workers), sort_keys=True))
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as out_dir:
        if isinstance(spec, wl.SweepSpec):
            values = measure_sweep(spec, args.seed, args.seconds, args.trace, out_dir, tally)
        else:
            values = measure_beta(spec, args.seed, args.seconds, args.trace, tally)
    declared = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}
    for name, unit in declared:
        print(f"metric {name} {values[name]!r} {unit}")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_frac {failed_frac!r} ratio ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"problem: {problem}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Run every workload in its own process (so peak RSS is its own) and tabulate."""
    names = tuple(wl.WORKLOADS)
    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exited with {proc.returncode}")
            return 1
        print(proc.stdout.strip().rsplit("\n", 1)[0])
        results[name] = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    declared = PER_LAYER if args.trace else END_TO_END
    print(f"{'metric':40} {'unit':6} " + " ".join(f"{n:>14}" for n in names))
    for metric, unit in declared:
        cells = " ".join(f"{results[n]['metrics'][metric]['value']:14.6g}" for n in names)
        print(f"{metric:40} {unit:6} {cells}")
    cells = " ".join(f"{results[n]['failed'] / results[n]['attempted']:14.6g}" for n in names)
    print(f"{'failed_frac':40} {'ratio':6} {cells}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (master seed)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
