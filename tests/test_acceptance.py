"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Checks accumulate into
a failure list so the verdict line is printed even when a criterion fails.
"""

import math
import time
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from ompbounds import (
    GuaranteeInputs,
    RngStream,
    bernstein_tail,
    build_identity_hadamard,
    count_successes,
    draw_sparse_signal,
    omp,
    run_point,
    run_sweep,
    support_match,
    synthesize,
    thm1_condition,
    thm1_probability,
    thm2_bound,
    unit_correlation_max,
)
from ompbounds.cli import main as cli_main
from ompbounds.montecarlo import ExperimentConfig
from oracles import (
    exhaustive_l0,
    lemma1_oracle,
    bernstein_oracle,
    random_guarantee_grid,
    rel_err,
    thm1_probability_oracle,
    thm2_oracle,
)

GRID_SEED = 20240
GRID = random_guarantee_grid(100, seed=GRID_SEED)

BREAKDOWN_FIELDS = (
    "rho",
    "gamma",
    "p1",
    "p2",
    "p3",
    "lambda_raw",
    "lambda_lb",
    "error_ub",
    "probability_raw",
    "probability",
)


def _verdict(num: int, name: str, failures: list, started: float, budget: float):
    elapsed = time.time() - started
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds budget {budget}s")
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({elapsed:.1f}s)")
    assert not failures, "\n".join(str(f) for f in failures)


def _round4(x: float) -> str:
    return str(Decimal(x).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def test_criterion_1_coherence_exactness():
    started = time.time()
    failures = []
    for k in range(1, 13):
        m = 2**k
        mu = build_identity_hadamard(m).mutual_coherence()
        if abs(mu - 1.0 / math.sqrt(m)) > 1e-12:
            failures.append(f"m={m}: mu={mu!r} != 1/sqrt(m)")
    for m, text in ((1024, "0.0313"), (2048, "0.0221"), (4096, "0.0156")):
        got = _round4(build_identity_hadamard(m).mutual_coherence())
        if got != text:
            failures.append(f"m={m}: 4-decimal coherence {got} != {text}")
    _verdict(1, "coherence-exactness", failures, started, budget=1.0)


def test_criterion_2_formula_fidelity():
    started = time.time()
    failures = []
    tol = 1e-12
    for i, point in enumerate(GRID):
        point = dict(point)
        alpha = point.pop("alpha")
        g = GuaranteeInputs(**point)

        got1 = thm1_probability(g, alpha)
        want1 = thm1_probability_oracle(g.n, g.tau, g.mu_max, g.s_min, g.beta, alpha)
        if rel_err(got1, want1) > tol:
            failures.append(f"point {i}: thm1 rel err {rel_err(got1, want1):.2e}")

        b = thm2_bound(g)
        want2 = thm2_oracle(g.n, g.tau, g.mu_max, g.s_min, g.s_max, g.sigma, g.beta)
        for field in BREAKDOWN_FIELDS:
            err = rel_err(getattr(b, field), want2[field])
            if err > tol:
                failures.append(f"point {i}: thm2.{field} rel err {err:.2e}")

        nu = (g.tau / g.n) * g.s_max**2 * g.mu_max**2
        c = g.mu_max * g.s_max
        xi = g.beta + g.s_min / 2.0
        err = rel_err(
            bernstein_tail(xi - g.beta, g.n, nu, c), lemma1_oracle(xi, g.beta, g.n, nu, c)
        )
        if err > tol:
            failures.append(f"point {i}: lemma1 rel err {err:.2e}")
        err = rel_err(
            bernstein_tail(g.s_min / 2.0, g.tau, nu, c),
            bernstein_oracle(g.s_min / 2.0, g.tau, nu, c),
        )
        if err > tol:
            failures.append(f"point {i}: bernstein rel err {err:.2e}")
    _verdict(2, "formula-fidelity", failures, started, budget=1.0)


def test_criterion_3_dominance_and_equivalence():
    started = time.time()
    failures = []
    checked = 0
    for i, point in enumerate(GRID):
        point = dict(point)
        alpha = point.pop("alpha")
        g = GuaranteeInputs(**point)
        b = thm2_bound(g)
        if not (thm1_condition(g) and b.condition_ok):
            continue
        checked += 1
        p1 = thm1_probability(g, alpha)
        if b.probability > p1 + 1e-12 * max(1.0, p1):
            failures.append(f"point {i}: thm2 {b.probability!r} > thm1 {p1!r}")
        # beta-form lambda bound vs alpha-form probability: same quantity.
        if rel_err(b.lambda_lb, p1) > 1e-12:
            failures.append(
                f"point {i}: lambda form {b.lambda_lb!r} != alpha form {p1!r}"
            )
    if checked < 10:
        failures.append(f"only {checked} grid points satisfy both conditions")
    _verdict(3, "dominance-and-equivalence", failures, started, budget=10.0)


def test_criterion_4_bound_soundness_desk_scale():
    started = time.time()
    failures = []
    m = 256
    d = build_identity_hadamard(m)
    for sigma_sq in (1e-6, 1e-4):
        sigma = math.sqrt(sigma_sq)
        beta = sigma * unit_correlation_max(d, 10_000, RngStream(GRID_SEED, 0))
        for tau in (2, 4, 8, 16):
            successes = count_successes(
                d, tau, 0.5, 1.0, sigma, 1000, GRID_SEED + tau, param_value=tau
            )
            g = GuaranteeInputs(d.n, tau, d.mutual_coherence(), 0.5, 1.0, sigma, beta)
            r = run_point(g, 1000, successes, param_value=tau)
            if r.thm2_condition and r.thm2_prob > r.empirical_prob + 3 * r.mc_stderr:
                failures.append(
                    f"sigma^2={sigma_sq}, tau={tau}: thm2 {r.thm2_prob:.4f} > "
                    f"empirical {r.empirical_prob:.4f} + 3se"
                )
    _verdict(4, "bound-soundness-desk-scale", failures, started, budget=120.0)


def test_criterion_5_lemma1_empirical_dominance():
    """Lemma 1's Bernstein tail bounds every off-support atom's Monte Carlo tail at m=8.

    It checks the ``tau gamma^2`` budget: ``N`` terms of variance
    ``nu = (tau / N) gamma^2``.  thm2's ``p2`` sums ``tau`` such terms, a
    budget of ``tau^2 gamma^2 / N``, which this criterion does not check.
    """
    started = time.time()
    failures = []
    m, tau, s_min, s_max, sigma = 8, 2, 0.5, 1.0, 0.01
    d = build_identity_hadamard(m)
    beta = sigma * unit_correlation_max(d, 10_000, RngStream(GRID_SEED, 0))
    xi = s_min / 2.0
    draws = 100_000
    g = RngStream(GRID_SEED, 1).generator()
    observed = np.empty((draws, m))
    noise = np.empty((draws, m))
    on_support = np.zeros((draws, d.n), dtype=bool)
    for k in range(draws):
        s = draw_sparse_signal(g, d.n, tau, s_min, s_max)
        # synthesize's noise and measurement, bit for bit (test_measurement_identity).
        noise[k] = sigma * g.standard_normal(m)
        observed[k] = d.matvec(s.values) + noise[k]
        on_support[k, s.support] = True
    gamma_stat = np.abs(d.correlate_all(observed))
    hypothesis_ok = np.abs(d.correlate_all(noise)) <= beta
    nu = (tau / d.n) * s_max**2 * d.mutual_coherence() ** 2
    c = d.mutual_coherence() * s_max
    bound = bernstein_tail(xi - beta, d.n, nu, c)
    for j in range(d.n):
        valid = ~on_support[:, j] & hypothesis_ok[:, j]
        estimate = float((gamma_stat[valid, j] >= xi).mean())
        if estimate > bound:
            failures.append(f"j={j}: empirical tail {estimate:.4f} > bound {bound:.4f}")
    _verdict(5, "lemma1-empirical-dominance", failures, started, budget=30.0)


def test_criterion_6_tau_sweep_qualitative():
    started = time.time()
    failures = []
    taus = tuple(range(5, 61, 5))
    for sigma_sq in (1e-6, 2.5e-5, 1e-4):
        sigma = math.sqrt(sigma_sq)
        cfg = ExperimentConfig(
            m=1024,
            sweep="tau",
            sweep_values=taus,
            tau=taus[0],
            s_min=0.5,
            s_max=1.0,
            sigma=sigma,
            trials=500,
            beta_draws=10_000,
            master_seed=GRID_SEED,
        )
        rows = run_sweep(cfg, workers=2)
        tag = f"sigma^2={sigma_sq}"

        # (a) the sharp-condition curve is a step: exactly zero wherever the
        # condition fails, high wherever it holds, and never re-enters.
        conds = [r.thm1_condition for r in rows]
        if any(b and not a for a, b in zip(conds, conds[1:])):
            failures.append(f"{tag}: thm1 condition re-enters along tau")
        if not (any(conds) and not all(conds)):
            failures.append(f"{tag}: thm1 condition never steps on this grid")
        for r in rows:
            if not r.thm1_condition and r.thm1_prob != 0.0:
                failures.append(f"{tag}, tau={r.param_value}: thm1 not zeroed")
            if r.thm1_condition and r.thm1_prob < 0.99:
                failures.append(f"{tag}, tau={r.param_value}: thm1 step too low")

        # (b) probabilistic curve: condition holds everywhere, values decay
        # smoothly (non-increasing, with interior values) instead of stepping.
        probs2 = [r.thm2_prob for r in rows]
        if not all(r.thm2_condition for r in rows):
            failures.append(f"{tag}: thm2 condition failed somewhere")
        if any(b > a + 1e-12 for a, b in zip(probs2, probs2[1:])):
            failures.append(f"{tag}: thm2 curve not non-increasing")
        if probs2[0] <= 0.5:
            failures.append(f"{tag}: thm2 starts at {probs2[0]:.3f}, expected high")
        if not any(0.01 < p < 0.99 for p in probs2):
            failures.append(f"{tag}: thm2 curve has no interior values")

        # (c) both bounds stay below the empirical curve within Monte Carlo noise.
        for r in rows:
            ceiling = r.empirical_prob + 3 * r.mc_stderr
            if r.thm1_prob > ceiling or r.thm2_prob > ceiling:
                failures.append(
                    f"{tag}, tau={r.param_value}: bound exceeds empirical "
                    f"({r.thm1_prob:.4f}/{r.thm2_prob:.4f} vs {ceiling:.4f})"
                )
    _verdict(6, "tau-sweep-qualitative", failures, started, budget=1800.0)


def test_criterion_7_noiseless_and_oracle_agreement():
    started = time.time()
    failures = []
    for m in (8, 16, 32, 64, 128, 256):
        d = build_identity_hadamard(m)
        successes = count_successes(d, 1, 0.5, 1.0, 0.0, 1000, GRID_SEED + m, param_value=1)
        if successes != 1000:
            failures.append(f"m={m}: {successes}/1000 noiseless recoveries")

    d = build_identity_hadamard(8)
    oracle_hits = 0
    for t in range(1, 1001):
        g = RngStream(GRID_SEED, t).generator()
        s = draw_sparse_signal(g, d.n, 2, 0.5, 1.0)
        y = synthesize(d, s, 0.01, g)
        oracle = exhaustive_l0(d, y, 2)
        if support_match(oracle.support, s.support):
            oracle_hits += 1
            greedy = omp(d, y, 2)
            if not support_match(greedy.support, oracle.support):
                failures.append(f"trial {t}: OMP disagrees with successful oracle")
    if oracle_hits == 0:
        failures.append("oracle never recovered the planted support")
    _verdict(7, "noiseless-recovery-and-oracle-agreement", failures, started, budget=300.0)


def test_criterion_8_sweep_determinism(tmp_path):
    started = time.time()
    failures = []
    cfg = tmp_path / "determinism.cfg"
    cfg.write_text(
        "m=64\n"
        "sweep=tau\n"
        "sweep_values=1,2,4,8\n"
        "s_min=0.5\n"
        "s_max=1\n"
        "sigma=0.02\n"
        "trials=100\n"
        "beta_draws=500\n"
    )
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    base = ["sweep", "--config", str(cfg), "--seed", "31"]
    if cli_main(base + ["--out", str(out1), "--workers", "1"]) != 0:
        failures.append("workers=1 run failed")
    if cli_main(base + ["--out", str(out2), "--workers", "2"]) != 0:
        failures.append("workers=2 run failed")
    if not failures and out1.read_bytes() != out2.read_bytes():
        failures.append("CSV differs across parallelism levels")
    _verdict(8, "sweep-determinism", failures, started, budget=120.0)
