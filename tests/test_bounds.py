import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ompbounds import (
    GuaranteeInputs,
    RngStream,
    alpha_from_beta,
    bernstein_tail,
    build_identity_hadamard,
    draw_sparse_signal,
    estimate_beta,
    synthesize,
    thm1_condition,
    thm1_probability,
    thm2_bound,
    unit_correlation_max,
)
from ompbounds import bounds
from oracles import (
    bernstein_oracle,
    beta_from_alpha,
    lemma1_oracle,
    random_guarantee_grid,
    rel_err,
    thm1_probability_oracle,
    thm2_oracle,
    unit_correlation_max_serial,
)

# Pinned on first computation: m=1024, sigma=0.01, draws=1e4, stream (2024, 0).
# Re-pinned for the Kronecker-factored transform, whose sums round
# differently from the butterfly's (which gave 0.05340645071101994).
BETA_FIXTURE = 0.053406450711019925


def _inputs(**kw):
    base = dict(n=2048, tau=10, mu_max=0.0313, s_min=0.5, s_max=1.0, sigma=0.001, beta=0.01)
    base.update(kw)
    return GuaranteeInputs(**base)


def test_bernstein_clamps_to_one():
    # 2 exp(-1/2) = 1.213... so the clamp engages.
    assert bernstein_tail(1.0, 1, 1.0, 0.0) == 1.0


def test_bernstein_vanishes_for_huge_delta():
    assert bernstein_tail(1e6, 1, 1.0, 1.0) < 1e-300


def test_bernstein_monotone_in_nu():
    lo = bernstein_tail(5.0, 1, 0.5, 0.1)
    hi = bernstein_tail(5.0, 1, 1.0, 0.1)
    assert lo < hi < 1.0


@pytest.mark.parametrize(
    "kw",
    [
        dict(delta=0.0, n_terms=1, nu=1.0, c=1.0),
        dict(delta=-1.0, n_terms=1, nu=1.0, c=1.0),
        dict(delta=1.0, n_terms=1, nu=0.0, c=0.0),
        dict(delta=1.0, n_terms=1, nu=-0.1, c=1.0),
        dict(delta=1.0, n_terms=-1, nu=1.0, c=1.0),
    ],
)
def test_bernstein_rejects_bad_arguments(kw):
    with pytest.raises(ValueError):
        bernstein_tail(**kw)


def test_bernstein_oracle_grid():
    rng = np.random.default_rng(42)
    for _ in range(40):
        delta = float(rng.uniform(0.01, 3.0))
        n_terms = int(rng.integers(0, 50))
        nu = float(rng.uniform(0.0, 0.1))
        c = float(rng.uniform(0.001, 0.5))
        got = bernstein_tail(delta, n_terms, nu, c)
        want = bernstein_oracle(delta, n_terms, nu, c)
        assert rel_err(got, want) <= 1e-12


def test_lemma1_is_shifted_bernstein():
    # The paper's Lemma 1 at xi is the Bernstein tail at xi - beta.
    got = bernstein_tail(0.3 - 0.05, 16, 0.02, 0.35)
    assert rel_err(got, lemma1_oracle(0.3, 0.05, 16, 0.02, 0.35)) <= 1e-12


def test_lemma1_reproduces_p2_at_xi_half_smin():
    # With the closed-form nu and c, the lemma at xi = s_min/2 and tau terms
    # is exactly the off-support tail p2 of the full bound, and N * p2 is
    # exactly the raw union error bound wherever p2 is not clamped and the
    # bound is not evaluated in log space.
    checked = 0
    for point in random_guarantee_grid(400, seed=17):
        point = dict(point)
        point.pop("alpha")
        g = GuaranteeInputs(**point)
        nu = (g.tau / g.n) * g.s_max**2 * g.mu_max**2
        c = g.mu_max * g.s_max
        b = thm2_bound(g)
        if b.rho <= 0:
            continue
        assert bernstein_tail(g.s_min / 2.0 - g.beta, g.tau, nu, c) == b.p2
        if b.p2 < 1.0 and bounds._bernstein_exponent(b.rho, g.tau, nu, c) <= bounds._EXP_SWITCH:
            assert b.error_ub == g.n * b.p2, point
            checked += 1
    assert checked >= 200


def test_lemma1_dominates_monte_carlo_tail():
    """Lemma 1's Bernstein tail bounds the Monte Carlo tail under the ``tau gamma^2`` budget.

    The bound sums ``N`` terms of variance ``nu = (tau / N) gamma^2``, a
    budget of ``N nu = tau gamma^2``.  thm2's ``p2`` sums ``tau`` such terms,
    a budget of ``tau^2 gamma^2 / N``; this test does not check that form.
    """
    # m=8 instance: empirical tail of |<A_j, A s + w>| for every j off the
    # support, conditioned on the |<A_j, w>| <= beta hypothesis.
    m, tau, s_min, s_max, sigma = 8, 2, 0.5, 1.0, 0.01
    d = build_identity_hadamard(m)
    beta = estimate_beta(d, sigma, 2000, RngStream(55, 0))
    xi = s_min / 2.0
    draws = 20_000
    g = RngStream(55, 1).generator()
    observed = np.empty((draws, m))
    noise = np.empty((draws, m))
    on_support = np.zeros((draws, d.n), dtype=bool)
    for k in range(draws):
        s = draw_sparse_signal(g, d.n, tau, s_min, s_max)
        meas = synthesize(d, s, sigma, g)
        observed[k] = meas.observed
        noise[k] = meas.noise
        on_support[k, s.support] = True
    gamma_stat = np.abs(d.correlate_all(observed))
    hypothesis_ok = np.abs(d.correlate_all(noise)) <= beta
    nu = (tau / d.n) * s_max**2 * d.mutual_coherence() ** 2
    c = d.mutual_coherence() * s_max
    bound = bernstein_tail(xi - beta, d.n, nu, c)
    for j in range(d.n):
        valid = ~on_support[:, j] & hypothesis_ok[:, j]
        assert valid.sum() > 10_000
        estimate = (gamma_stat[valid, j] >= xi).mean()
        assert estimate <= bound


def test_thm1_condition_examples():
    assert thm1_condition(_inputs(tau=1, beta=0.0, mu_max=0.3))
    # 0.5 * (1 - 63 * 0.0313) < 0.1: fails.
    assert not thm1_condition(_inputs(tau=32, mu_max=0.0313, s_min=0.5, beta=0.05))
    # 0.5 * 0.8596 = 0.4298 >= 0.02: holds.
    assert thm1_condition(_inputs(tau=5, mu_max=0.0156, s_min=0.5, beta=0.01))


def test_thm1_probability_zero_when_condition_fails():
    g = _inputs(tau=32, mu_max=0.0313, s_min=0.5, beta=0.05)
    assert thm1_probability(g, 1.0) == 0.0


def test_thm1_probability_value():
    g = _inputs(tau=1, beta=0.0)
    got = thm1_probability(g, 1.0)
    want = thm1_probability_oracle(2048, 1, 0.0313, 0.5, 0.0, 1.0)
    assert rel_err(got, want) <= 1e-12
    assert got == pytest.approx(0.999929454219879, abs=1e-15)


def test_thm1_probability_limit_alpha():
    assert thm1_probability(_inputs(tau=1, beta=0.0), 1e6) == 1.0
    with pytest.raises(ValueError):
        thm1_probability(_inputs(), 0.0)


def test_thm2_noiseless_degenerate():
    g = _inputs(sigma=0.0, beta=0.0)
    b = thm2_bound(g)
    assert b.condition_ok
    assert b.p3 == 0.0
    assert b.lambda_lb == 1.0
    assert b.probability == min(1.0, max(0.0, 1.0 - b.error_ub))


def test_thm2_condition_failure_yields_zero():
    g = _inputs(s_min=0.5, beta=0.3)
    b = thm2_bound(g)
    assert not b.condition_ok
    assert b.probability == 0.0
    assert b.rho < 0
    assert b.p1 == b.p2 == 1.0
    assert b.error_ub == 2.0 * g.n


def test_thm2_requires_beta_for_noise():
    with pytest.raises(ValueError):
        thm2_bound(_inputs(sigma=0.01, beta=0.0))


def test_thm2_reference_point_matches_oracle():
    g = _inputs()
    b = thm2_bound(g)
    want = thm2_oracle(g.n, g.tau, g.mu_max, g.s_min, g.s_max, g.sigma, g.beta)
    for field in (
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
    ):
        assert rel_err(getattr(b, field), want[field]) <= 1e-12, field
    assert b.condition_ok == want["condition_ok"]


def test_thm2_breakdown_invariants_on_grid():
    for point in random_guarantee_grid(60, seed=7):
        point = dict(point)
        point.pop("alpha")
        b = thm2_bound(GuaranteeInputs(**point))
        assert b.p1 <= b.p2
        assert 0.0 <= b.probability <= b.lambda_lb <= 1.0
        if not b.condition_ok:
            assert b.probability == 0.0


def test_thm2_tight_lambda_is_sharper():
    g = _inputs(sigma=0.01, beta=0.03)
    loose = thm2_bound(g)
    tight = thm2_bound(g, tight_lambda=True)
    assert tight.lambda_lb >= loose.lambda_lb
    assert tight.probability >= loose.probability


def test_grid_oracle_fidelity_small():
    for point in random_guarantee_grid(30, seed=11):
        alpha = point.pop("alpha")
        g = GuaranteeInputs(**point)
        got1 = thm1_probability(g, alpha)
        want1 = thm1_probability_oracle(
            g.n, g.tau, g.mu_max, g.s_min, g.beta, alpha
        )
        assert rel_err(got1, want1) <= 1e-12
        b = thm2_bound(g)
        want2 = thm2_oracle(g.n, g.tau, g.mu_max, g.s_min, g.s_max, g.sigma, g.beta)
        assert rel_err(b.probability, want2["probability"]) <= 1e-12


def test_dominance_and_equivalence_small_grid():
    checked = 0
    for point in random_guarantee_grid(60, seed=13):
        alpha = point.pop("alpha")
        g = GuaranteeInputs(**point)
        b = thm2_bound(g)
        if not (thm1_condition(g) and b.condition_ok):
            continue
        checked += 1
        p1 = thm1_probability(g, alpha)
        assert b.probability <= p1 + 1e-12
        # The lambda lower bound and the closed-form probability are the
        # same quantity written in beta- and alpha-form.
        assert rel_err(b.lambda_lb, p1) <= 1e-12
    assert checked >= 5


def test_monotonicity_in_each_parameter():
    taus = [thm2_bound(_inputs(tau=t)).probability for t in (1, 2, 4, 8, 16, 32)]
    assert all(a >= b for a, b in zip(taus, taus[1:]))
    mus = [thm2_bound(_inputs(mu_max=u)).probability for u in (0.01, 0.02, 0.05, 0.1, 0.2)]
    assert all(a >= b for a, b in zip(mus, mus[1:]))
    sigmas = [thm2_bound(_inputs(sigma=s)).probability for s in (0.001, 0.002, 0.003, 0.004)]
    assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))
    smins = [thm2_bound(_inputs(s_min=v)).probability for v in (0.1, 0.25, 0.5, 0.75, 1.0)]
    assert all(a <= b for a, b in zip(smins, smins[1:]))


def test_alpha_beta_round_trip():
    beta = beta_from_alpha(1.0, 0.01, 2048)
    assert beta == pytest.approx(2 * 0.01 * math.sqrt(math.log(2048)), rel=1e-15)
    ab = alpha_from_beta(beta, 0.01, 2048)
    assert ab.valid and ab.alpha == pytest.approx(1.0, rel=1e-12)
    assert beta_from_alpha(ab.alpha, 0.01, 2048) == pytest.approx(beta, rel=1e-12)


def test_alpha_boundary_flagged_invalid():
    beta = 0.01 * math.sqrt(2 * math.log(2048))
    ab = alpha_from_beta(beta, 0.01, 2048)
    assert abs(ab.alpha) < 1e-12
    # Anything at or below the boundary is unusable; probe just inside it
    # (the exact boundary lands within one rounding error of zero).
    below = alpha_from_beta(beta * (1.0 - 1e-12), 0.01, 2048)
    assert not below.valid
    assert below.alpha < 0


@pytest.mark.parametrize("kw", [dict(beta=0.0), dict(sigma=0.0), dict(n=1)])
def test_alpha_from_beta_validation(kw):
    base = dict(beta=0.05, sigma=0.01, n=2048)
    base.update(kw)
    with pytest.raises(ValueError):
        alpha_from_beta(**base)


def test_estimate_beta_zero_sigma():
    d = build_identity_hadamard(16)
    assert estimate_beta(d, 0.0, 100, RngStream(0, 0)) == 0.0


def test_estimate_beta_exact_scaling():
    d = build_identity_hadamard(64)
    b1 = estimate_beta(d, 0.01, 500, RngStream(9, 0))
    b2 = estimate_beta(d, 0.02, 500, RngStream(9, 0))
    assert b2 == 2.0 * b1


def test_estimate_beta_fixture_and_range():
    d = build_identity_hadamard(1024)
    got = estimate_beta(d, 0.01, 10_000, RngStream(2024, 0))
    assert got == BETA_FIXTURE
    assert 0.03 < got < 0.07
    other = estimate_beta(d, 0.01, 10_000, RngStream(9001, 0))
    assert 0.03 < other < 0.07


def test_unit_correlation_max_batch_invariant(monkeypatch):
    d = build_identity_hadamard(32)
    monkeypatch.setattr(bounds, "_BETA_BATCH", 7)
    a = unit_correlation_max(d, 333, RngStream(4, 0))
    monkeypatch.setattr(bounds, "_BETA_BATCH", 256)
    b = unit_correlation_max(d, 333, RngStream(4, 0))
    assert a == b


def test_unit_correlation_max_memory_is_bounded():
    # A batch of 256 draws at m=16384 held 160 MB; batches are now bounded
    # in bytes and their buffers reused.
    d = build_identity_hadamard(16384)
    tracemalloc.start()
    try:
        unit_correlation_max(d, 256, RngStream(1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("m,rows", [(2, 256), (64, 256), (1024, 32), (4096, 8), (2**16, 1)])
def test_unit_correlation_max_batch_rows(monkeypatch, m, rows):
    # One correlate_all call per batch; its row count follows the byte bound.
    seen = []
    real = bounds.Dictionary.correlate_all

    def spy(self, u, out=None):
        seen.append(u.shape)
        return real(self, u, out=out)

    monkeypatch.setattr(bounds.Dictionary, "correlate_all", spy)
    unit_correlation_max(build_identity_hadamard(m), 2 * rows + 1, RngStream(0, 0))
    assert seen == [(rows, m), (rows, m), (1, m)]


@pytest.mark.parametrize("m,rows", [(2, 256), (64, 256), (1024, 32), (4096, 8)])
def test_unit_correlation_max_bit_identical_to_serial_oracle(m, rows):
    # Draw counts around one and two batches: a short last batch, a full
    # one, and one row past it.
    d = build_identity_hadamard(m)
    for seed in (0, 7, 2024):
        for draws in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 1}):
            want = unit_correlation_max_serial(d, draws, RngStream(seed, 3))
            assert unit_correlation_max(d, draws, RngStream(seed, 3)) == want


class _SecondCallFails:
    """Wraps a callable; its second call raises ``RuntimeError``."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("second batch failed")
        return self.fn(*args, **kwargs)


@pytest.mark.parametrize("step", ["draw", "correlate"])
def test_unit_correlation_max_raises_and_leaves_no_thread(monkeypatch, step):
    # The second of three batches fails, in the calling thread (draw) or
    # in the helper (correlate): the error reaches the caller, and no
    # helper thread is left running.
    d = build_identity_hadamard(64)
    threads = threading.active_count()
    assert unit_correlation_max(d, 600, RngStream(5, 0)) > 0
    assert threading.active_count() == threads
    if step == "correlate":
        failing = _SecondCallFails(bounds.Dictionary.correlate_all)
        monkeypatch.setattr(bounds.Dictionary, "correlate_all", lambda *a, **k: failing(*a, **k))
    else:
        real = RngStream.generator
        failing = _SecondCallFails(None)

        def generator(self):
            failing.fn = real(self).standard_normal
            return SimpleNamespace(standard_normal=failing)

        monkeypatch.setattr(RngStream, "generator", generator)
    with pytest.raises(RuntimeError, match="second batch failed"):
        unit_correlation_max(d, 600, RngStream(5, 0))
    assert failing.calls == 2
    assert threading.active_count() == threads


# Run in a fresh interpreter: the beta pass's helper thread comes from
# threading alone, so neither concurrent.futures nor the logging it loads
# is imported.
BETA_PASS_IMPORTS = """
import sys
from ompbounds import RngStream, build_identity_hadamard, unit_correlation_max
assert unit_correlation_max(build_identity_hadamard(64), 600, RngStream(0, 0)) > 0
print(" ".join(m for m in ("concurrent.futures", "logging") if m in sys.modules))
"""


def test_beta_pass_loads_no_executor():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BETA_PASS_IMPORTS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_guarantee_inputs_validation():
    for kw in (
        dict(n=1),
        dict(tau=0),
        dict(mu_max=0.0),
        dict(mu_max=1.0),
        dict(s_min=0.0),
        dict(s_min=2.0, s_max=1.0),
        dict(sigma=-1.0),
        dict(beta=-0.1),
        dict(sigma=math.nan),
        dict(sigma=math.inf),
        dict(beta=math.nan),
        dict(s_max=math.inf),
        dict(tau=2049),
    ):
        with pytest.raises(ValueError):
            _inputs(**kw)


@pytest.mark.parametrize(
    "field,value", [("n", 2048.5), ("n", 2048.0), ("tau", 2.5), ("tau", 3.0), ("tau", True)]
)
def test_guarantee_inputs_n_and_tau_are_integers(field, value):
    # A fractional n or tau changed the bounds without a word; numpy
    # integers pass, as they do in omp.
    assert _inputs(n=np.int64(2048), tau=np.int32(3)).tau == 3
    bounds = {"n": ">= 2", "tau": "in [1, 2048]"}[field]
    message = f"{field} must be an integer {bounds}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _inputs(**{field: value})


@pytest.mark.parametrize(
    "call",
    [
        lambda: thm1_probability(_inputs(tau=1, beta=0.0), math.nan),
        lambda: thm1_probability(_inputs(tau=1, beta=0.0), math.inf),
        lambda: alpha_from_beta(math.nan, 0.01, 16),
        lambda: alpha_from_beta(0.05, math.inf, 16),
        lambda: bernstein_tail(math.nan, 4, 0.01, 0.3),
        lambda: bernstein_tail(0.5, 4, math.inf, 0.3),
        lambda: synthesize(
            build_identity_hadamard(4),
            draw_sparse_signal(RngStream(0, 1).generator(), 8, 2, 0.5, 1.0),
            math.nan,
            RngStream(0, 1).generator(),
        ),
    ],
    ids=[
        "thm1_alpha_nan",
        "thm1_alpha_inf",
        "alpha_from_beta_beta_nan",
        "alpha_from_beta_sigma_inf",
        "bernstein_delta_nan",
        "bernstein_nu_inf",
        "synthesize_sigma_nan",
    ],
)
def test_non_finite_scalars_rejected(call):
    # Each comparison with NaN is false, so range checks alone let it
    # through: it came back as probability 0 or 1, valid=False, or an
    # all-NaN observation.
    with pytest.raises(ValueError, match="must be a finite real"):
        call()
