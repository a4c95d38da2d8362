"""The benchmark's workloads: inputs made from a seed, the public calls that
run them, and the checks on what those calls return.

Each workload is one configuration of the library; the seed only becomes
the master seed the library receives.  Counts and beta values pinned here
were measured at ``DEFAULT_SEED`` on the unoptimised library (butterfly
``fwht``, incremental-QR ``omp``); for any other seed the checks are exact
self-consistency (bounds recomputed through the public ``bounds`` API, beta
equal to the set-up pass, identical repeats) plus a wide binomial band
around the pinned counts that only catches a broken solver.
"""

import csv
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ompbounds import bounds, cli, dictionary, montecarlo, signals

DEFAULT_SEED = 0

PROBE = Path(__file__).resolve().parent / "setup_probe.py"
PROBE_TIMEOUT_S = 120

# Beta may move in its last bits when the transform changes (a Kronecker or
# BLAS fwht sums in another order), so it is pinned to this relative tolerance.
BETA_RTOL = 1e-9

# Max over draws of max_j |<A_j, w>| for unit-variance noise, on stream
# (DEFAULT_SEED, 0), keyed by (m, draws).  Any seed's value must lie within
# UNIT_MAX_RANGE times the pinned one: a gross-error check, far wider than
# the Gumbel spread of a maximum over ~10^7 Gaussians.
UNIT_MAX_PINNED = {(1024, 10_000): 5.52843091847596, (4096, 20_000): 5.702248887392225}
UNIT_MAX_RANGE = (0.6, 1.6)

# A seed's success count may differ from the pinned count by this many
# standard deviations of the difference of two binomials, plus slack.
BAND_SIGMAS = 6.0
BAND_SLACK = 2


@dataclass(frozen=True)
class SweepSpec:
    """A sweep workload: an ``ExperimentConfig`` minus the seed, plus how it runs."""

    name: str
    sweep: str
    values: tuple
    tau: int
    s_min: float
    s_max: float
    sigma: float
    trials: int
    beta_draws: int
    workers: int
    via_cli: bool
    pinned_successes: tuple
    m: int = 1024

    def config(self, seed: int) -> montecarlo.ExperimentConfig:
        return montecarlo.ExperimentConfig(
            m=self.m,
            sweep=self.sweep,
            sweep_values=self.values,
            tau=self.tau,
            s_min=self.s_min,
            s_max=self.s_max,
            sigma=self.sigma,
            trials=self.trials,
            beta_draws=self.beta_draws,
            master_seed=seed,
        )

    def cli_args(self, seed: int, workers: int, out: str) -> list[str]:
        keys = {
            "m": self.m,
            "sweep": self.sweep,
            "sweep_values": ",".join(repr(v) for v in self.values),
            "tau": self.tau,
            "s_max": self.s_max,
            "sigma": self.sigma,
            "trials": self.trials,
            "beta_draws": self.beta_draws,
        }
        args = ["sweep"]
        for key, value in keys.items():
            args += ["--set", f"{key}={value}"]
        return args + ["--workers", str(workers), "--seed", str(seed), "--out", out]

    def point(self, value) -> tuple[int, float]:
        """``(tau, s_min)`` at one sweep value."""
        if self.sweep == "tau":
            return int(value), self.s_min
        return self.tau, float(value)


@dataclass(frozen=True)
class BetaSpec:
    """A worst-case noise-correlation workload: one ``unit_correlation_max`` call."""

    name: str
    m: int
    draws: int


WORKLOADS = {
    spec.name: spec
    for spec in (
        SweepSpec(
            name="tau-sweep",
            sweep="tau",
            values=tuple(range(5, 61, 5)),
            tau=5,
            s_min=0.5,
            s_max=1.0,
            sigma=0.01,
            trials=64,
            beta_draws=10_000,
            workers=2,
            via_cli=False,
            pinned_successes=(64,) * 12,
        ),
        SweepSpec(
            name="smin-serial",
            sweep="s_min",
            values=(0.02, 0.04, 0.08, 0.12, 0.16, 0.24),
            tau=2,
            s_min=0.02,
            s_max=1.0,
            sigma=0.01,
            trials=500,
            beta_draws=10_000,
            workers=1,
            via_cli=True,
            pinned_successes=(490, 499, 500, 500, 500, 500),
        ),
        BetaSpec(name="beta-m4096", m=4096, draws=20_000),
    )
}


@dataclass(frozen=True)
class Row:
    """The checked fields of one sweep point, from a ``SweepResult`` or a CSV row."""

    param_value: float
    beta: float
    trials: int
    successes: int
    thm1_condition: bool
    thm1_prob: float
    thm2_condition: bool
    thm2_prob: float


@dataclass(frozen=True)
class SweepPass:
    wall_s: float
    rows: list
    csv_text: str | None


def setup_pass(m: int, draws: int, seed: int) -> tuple[float, float, float | None]:
    """Set up in a fresh interpreter, as every ``ompbounds`` process does.

    Runs ``setup_probe.py``: import, ``build_identity_hadamard`` and, when
    ``draws`` is nonzero, the ``unit_correlation_max`` pass on stream
    ``(seed, 0)``, each timed as a separate call.  Returns ``(setup_s,
    beta_s, unit_max)``: their summed wall time, the beta pass's alone, and
    its value.
    """
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(m), str(draws), str(seed)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S,
    )
    t = json.loads(proc.stdout)
    return t["import_s"] + t["build_s"] + t["beta_s"], t["beta_s"], t["unit_max"]


def beta_pass(spec: BetaSpec, seed: int) -> tuple[float, float]:
    """One timed ``unit_correlation_max`` call: ``(wall_s, unit_max)``."""
    d = dictionary.build_identity_hadamard(spec.m)
    t0 = time.perf_counter()
    unit_max = bounds.unit_correlation_max(d, spec.draws, signals.RngStream(seed, 0))
    return time.perf_counter() - t0, unit_max


def sweep_pass(spec: SweepSpec, seed: int, workers: int, out: str) -> SweepPass:
    """One timed sweep through the workload's public entry point."""
    if spec.via_cli:
        args = spec.cli_args(seed, workers, out)
        t0 = time.perf_counter()
        code = cli.main(args)
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"cli.main exited with {code}")
        with open(out) as fh:
            text = fh.read()
        return SweepPass(wall, _csv_rows(text), text)
    cfg = spec.config(seed)
    t0 = time.perf_counter()
    results = montecarlo.run_sweep(cfg, workers=workers)
    wall = time.perf_counter() - t0
    rows = [
        Row(
            r.param_value,
            r.beta,
            r.trials,
            r.successes,
            r.thm1_condition,
            r.thm1_prob,
            r.thm2_condition,
            r.thm2_prob,
        )
        for r in results
    ]
    return SweepPass(wall, rows, None)


def _csv_rows(text: str) -> list[Row]:
    def flag(s):
        return {"true": True, "false": False}[s]

    return [
        Row(
            float(r["param_value"]),
            float(r["beta"]),
            int(r["trials"]),
            int(r["successes"]),
            flag(r["thm1_condition"]),
            float(r["thm1_prob"]),
            flag(r["thm2_condition"]),
            float(r["thm2_prob"]),
        )
        for r in csv.DictReader(io.StringIO(text))
    ]


def check_unit_max(m: int, draws: int, seed: int, unit_max: float) -> list[str]:
    pinned = UNIT_MAX_PINNED[(m, draws)]
    lo, hi = UNIT_MAX_RANGE
    problems = []
    if seed == DEFAULT_SEED and not math.isclose(unit_max, pinned, rel_tol=BETA_RTOL, abs_tol=0.0):
        problems.append(f"unit max {unit_max!r} != pinned {pinned!r} (rtol {BETA_RTOL})")
    if not lo * pinned <= unit_max <= hi * pinned:
        problems.append(f"unit max {unit_max!r} outside [{lo}, {hi}] x {pinned!r}")
    return problems


def check_sweep(spec: SweepSpec, seed: int, run: SweepPass, unit_max: float) -> list[list[str]]:
    """Problems found at each sweep point (an empty list means the point is correct)."""
    if len(run.rows) != len(spec.values):
        return [[f"{len(run.rows)} rows for {len(spec.values)} points"]] * len(spec.values)
    header_ok = run.csv_text is None or run.csv_text.split("\n", 1)[0] == cli.CSV_HEADER
    n = 2 * spec.m
    mu = dictionary.build_identity_hadamard(spec.m).mutual_coherence()
    out = []
    for value, pinned, row in zip(spec.values, spec.pinned_successes, run.rows):
        tau, s_min = spec.point(value)
        p = [] if header_ok else ["CSV header differs from cli.CSV_HEADER"]
        if row.param_value != value:
            p.append(f"param_value {row.param_value!r} != {value!r}")
        if row.trials != spec.trials or not 0 <= row.successes <= spec.trials:
            p.append(f"{row.successes} successes of {row.trials} trials")
        if row.beta != spec.sigma * unit_max:
            p.append(f"beta {row.beta!r} != sigma x set-up unit max")
        g = bounds.GuaranteeInputs(
            n=n, tau=tau, mu_max=mu, s_min=s_min, s_max=spec.s_max, sigma=spec.sigma, beta=row.beta
        )
        b = bounds.thm2_bound(g)
        if (row.thm2_condition, row.thm2_prob) != (b.condition_ok, b.probability):
            p.append(f"thm2 {row.thm2_condition}, {row.thm2_prob!r} != bounds.thm2_bound")
        ab = bounds.alpha_from_beta(row.beta, spec.sigma, n)
        prob1 = bounds.thm1_probability(g, ab.alpha) if ab.valid else 0.0
        if (row.thm1_condition, row.thm1_prob) != (bounds.thm1_condition(g), prob1):
            p.append(f"thm1 {row.thm1_condition}, {row.thm1_prob!r} != bounds thm1")
        if seed == DEFAULT_SEED and row.successes != pinned:
            p.append(f"{value}: {row.successes} successes != pinned {pinned}")
        q = (pinned + 1) / (spec.trials + 2)
        band = BAND_SIGMAS * math.sqrt(2 * spec.trials * q * (1 - q)) + BAND_SLACK
        if abs(row.successes - pinned) > band:
            p.append(f"{value}: {row.successes} successes outside {pinned} +- {band:.1f}")
        out.append(p)
    return out
