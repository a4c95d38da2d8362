import argparse
import concurrent.futures
import math
import re
import sys

import numpy as np
import pytest

from ompbounds import (
    Dictionary,
    ExperimentConfig,
    GuaranteeInputs,
    RngStream,
    SparseSignal,
    alpha_from_beta,
    bernstein_tail,
    build_identity_hadamard,
    count_successes,
    draw_sparse_signal,
    omp,
    run_point,
    run_sweep,
    synthesize,
    thm1,
    thm1_probability,
    thm2_bound,
    unit_correlation_max,
)
from ompbounds import cli
from ompbounds.montecarlo import draw_chunk

D = build_identity_hadamard(8)


def _config(**kw):
    base = dict(m=64, sweep="s_min", sweep_values=(0.5,), tau=2, s_min=0.5, s_max=1.0,
                sigma=0.01, trials=4, beta_draws=4)
    return ExperimentConfig(**{**base, **kw})


def _inputs(**kw):
    base = dict(n=16, tau=2, mu_max=0.25, s_min=0.5, s_max=1.0, sigma=0.01, beta=0.05)
    return GuaranteeInputs(**{**base, **kw})


def _estimate_beta(sigma=0.01, draws=4):
    # The beta command's estimate, sigma times unit_correlation_max, as main runs it.
    return cli._cmd_beta(argparse.Namespace(m=8, sigma=sigma, draws=draws, seed=0))


# Every integer boundary: (call with the value, name, lo, hi or None, an
# integer outside [lo, hi]).
BOUNDARIES = {
    "build_identity_hadamard_m": (build_identity_hadamard, "m", 2, None, 1),
    "dictionary_m": (Dictionary, "m", 2, None, 1),
    "config_m": (lambda v: _config(m=v), "m", 2, None, 1),
    "config_tau": (lambda v: _config(tau=v), "tau", 1, 64, 65),
    "config_swept_tau": (lambda v: _config(sweep="tau", sweep_values=(v,), tau=1), "tau", 1, 64, 0),
    "config_trials": (lambda v: _config(trials=v), "trials", 1, None, 0),
    "config_beta_draws": (lambda v: _config(beta_draws=v), "beta_draws", 1, None, 0),
    "config_master_seed": (lambda v: _config(master_seed=v), "master_seed", 0, None, -1),
    # One beta task and four single-trial chunks: 5 tasks, so 5 workers at most.
    "run_sweep_workers": (
        lambda v: run_sweep(_config(m=4, tau=1, beta_draws=1), workers=v), "workers", 1, 5, 6
    ),
    "count_successes_trials": (
        lambda v: count_successes(D, 2, 0.5, 1.0, 0.01, v, 0), "trials", 1, None, 0
    ),
    # Checked before any draw: 2.0 once reached range() as a TypeError.
    "count_successes_tau": (
        lambda v: count_successes(D, v, 0.5, 1.0, 0.01, 2, 0), "tau", 1, 8, 17
    ),
    "count_successes_master_seed": (
        lambda v: count_successes(D, 2, 0.5, 1.0, 0.01, 4, v), "master_seed", 0, None, -1
    ),
    "run_point_trials": (
        lambda v: run_point(_inputs(), v, 1), "trials", 1, None, 0
    ),
    "run_point_successes": (
        lambda v: run_point(_inputs(), 4, v), "successes", 0, 4, 5
    ),
    "guarantee_n": (lambda v: _inputs(n=v), "n", 2, None, 1),
    "guarantee_tau": (lambda v: _inputs(tau=v), "tau", 1, 16, 17),
    "column_j": (D.column, "j", 0, 15, 16),
    "omp_tau": (lambda v: omp(D, np.ones(8), v), "tau", 1, 8, 9),
    # numpy took True as seed 1 and refused -1 and 1.0 without naming the field.
    "rng_stream_master_seed": (lambda v: RngStream(v, 0), "master_seed", 0, None, -1),
    "rng_stream_stream_id": (lambda v: RngStream(0, v), "stream_id", 0, None, -1),
    "draw_sparse_signal_n": (
        lambda v: draw_sparse_signal(RngStream(0, 1).generator(), v, 0, 0.5, 1.0), "n", 0, None, -1
    ),
    "draw_sparse_signal_tau": (
        lambda v: draw_sparse_signal(RngStream(0, 1).generator(), 16, v, 0.5, 1.0), "tau", 0, 16, 17
    ),
    "unit_correlation_max_draws": (
        lambda v: unit_correlation_max(D, v, RngStream(0, 0)), "draws", 1, None, 0
    ),
    "estimate_beta_draws": (lambda v: _estimate_beta(draws=v), "draws", 1, None, 0),
    "alpha_from_beta_n": (lambda v: alpha_from_beta(0.1, 0.01, v), "n", 2, None, 1),
    "bernstein_tail_n_terms": (lambda v: bernstein_tail(0.1, v, 0.1, 0.1), "n_terms", 0, None, -1),
    # Trials are numbered from 1, and a range [t_lo, t_hi) is never empty:
    # an empty or reversed one once reached omp as a (0, m) block.
    "draw_chunk_t_lo": (lambda v: draw_chunk(D, 2, 0.5, 1.0, 0.01, 0, v, 5), "t_lo", 1, None, 0),
    "draw_chunk_t_hi": (lambda v: draw_chunk(D, 2, 0.5, 1.0, 0.01, 0, 3, v), "t_hi", 4, None, 3),
}


@pytest.mark.parametrize("kind", ["bool", "fraction", "whole_float", "out_of_range", "numpy"])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_integer_boundaries_share_one_rule(monkeypatch, boundary, kind):
    # Each refused value once passed some boundary: True ran one trial or
    # one draw, 2.5 changed a bound, 5.0 passed as a tau.  No case may
    # start a process.
    def unreachable(*args, **kwargs):
        raise AssertionError("a process pool was built for a bad worker count")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unreachable)
    call, name, lo, hi, outside = BOUNDARIES[boundary]
    if kind == "numpy":
        call(np.int64(lo))  # accepted, at the lower end of the range
        return
    value = {"bool": True, "fraction": 2.5, "whole_float": 2.0, "out_of_range": outside}[kind]
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    message = f"{name} must be an integer {bounds}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


NO_SUPPORT = np.zeros(0, dtype=int)


def _gen():
    return RngStream(0, 1).generator()


def _unchecked_inputs(**kw):
    # GuaranteeInputs refuses a beta that is not a finite real >= 0 before
    # thm2_bound sees it; built unchecked, thm2_bound's own rule shows.
    g = object.__new__(GuaranteeInputs)
    vars(g).update(vars(_inputs()), **kw)
    return g


# Every real boundary: (call with the value, name, rule, a finite real that
# breaks the rule, an accepted value: a Python int wherever the range holds one).
REAL_BOUNDARIES = {
    "guarantee_mu_max": (lambda v: _inputs(mu_max=v), "mu_max", " > 0 and < 1", 1.0, 0.25),
    "guarantee_s_min": (lambda v: _inputs(s_min=v), "s_min", " > 0", 0.0, 1),
    "guarantee_s_max": (lambda v: _inputs(s_max=v), "s_max", " >= 0.5", 0.4, 1),
    "guarantee_sigma": (lambda v: _inputs(sigma=v), "sigma", " >= 0", -1.0, 0),
    "guarantee_beta": (lambda v: _inputs(beta=v), "beta", " >= 0", -0.1, 0),
    "config_s_min": (lambda v: _config(s_min=v), "s_min", " > 0", 0.0, 1),
    "config_s_max": (lambda v: _config(s_max=v), "s_max", " >= 0.5", 0.4, 1),
    "config_sigma": (lambda v: _config(sigma=v), "sigma", " >= 0", -1.0, 0),
    "config_swept_s_min": (lambda v: _config(sweep_values=(v,)), "s_min", " > 0", 0.0, 1),
    "config_swept_sigma": (
        lambda v: _config(sweep="sigma", sweep_values=(v,)), "sigma", " >= 0", -1.0, 0
    ),
    "sparse_signal_s_min": (
        lambda v: SparseSignal(np.zeros(4), NO_SUPPORT, v, 1.0), "s_min", " > 0", 0.0, 1
    ),
    "sparse_signal_s_max": (
        lambda v: SparseSignal(np.zeros(4), NO_SUPPORT, 0.5, v), "s_max", " >= 0.5", 0.4, 1
    ),
    "draw_sparse_signal_s_min": (
        lambda v: draw_sparse_signal(_gen(), 16, 2, v, 1.0), "s_min", " > 0", 0.0, 1
    ),
    "draw_sparse_signal_s_max": (
        lambda v: draw_sparse_signal(_gen(), 16, 2, 0.5, v), "s_max", " >= 0.5", 0.4, 1
    ),
    "synthesize_sigma": (
        lambda v: synthesize(D, draw_sparse_signal(_gen(), 16, 2, 0.5, 1.0), v, _gen()),
        "sigma", " >= 0", -1.0, 0,
    ),
    "estimate_beta_sigma": (lambda v: _estimate_beta(sigma=v), "sigma", " >= 0", -1.0, 0),
    "thm1_probability_alpha": (lambda v: thm1_probability(_inputs(), v), "alpha", " > 0", 0.0, 1),
    "thm1_alpha": (lambda v: thm1(_inputs(), v), "alpha", " > 0", 0.0, 1),
    "alpha_from_beta_beta": (lambda v: alpha_from_beta(v, 0.01, 16), "beta", " > 0", 0.0, 1),
    "alpha_from_beta_sigma": (lambda v: alpha_from_beta(0.05, v, 16), "sigma", " > 0", 0.0, 1),
    "bernstein_tail_delta": (lambda v: bernstein_tail(v, 4, 0.01, 0.3), "delta", " > 0", 0.0, 1),
    "bernstein_tail_nu": (lambda v: bernstein_tail(0.5, 4, v, 0.3), "nu", " >= 0", -1.0, 0),
    "bernstein_tail_c": (lambda v: bernstein_tail(0.5, 4, 0.01, v), "c", " >= 0", -1.0, 0),
    "thm2_bound_noisy_beta": (
        lambda v: thm2_bound(_unchecked_inputs(beta=v)), "beta", " > 0", 0.0, 1
    ),
    # The CLI reads sigma_sq as text, so the value goes in as its str().
    "cli_sigma_sq": (
        lambda v: cli._coerce_config({"sigma_sq": str(v)}), "sigma_sq", " >= 0", -1.0, 0
    ),
}


@pytest.mark.parametrize("kind", ["bool", "numpy_bool", "nan", "inf", "out_of_range", "accepted"])
@pytest.mark.parametrize("boundary", REAL_BOUNDARIES)
def test_real_boundaries_share_one_rule(boundary, kind):
    # Each refused value once passed some boundary or came back as a
    # confident number: True ran s_min = 1.0, a NaN sigma gave a CSV of NaN
    # betas, a NaN alpha gave probability 0 or 1.
    call, name, rule, outside, inside = REAL_BOUNDARIES[boundary]
    if kind == "accepted":
        call(inside)
        call(np.float64(inside))
        return
    value = {
        "bool": True, "numpy_bool": np.True_, "nan": math.nan, "inf": math.inf,
        "out_of_range": outside,
    }[kind]
    message = f"{name} must be a finite real{rule}, got {value!r}"
    if boundary == "cli_sigma_sq" and "bool" in kind:
        # The text "True" is not a float to begin with.
        message = "config key 'sigma_sq' expects float, got 'True'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


SMALLEST, LARGEST = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)

# Every boundary of sigma, beta and the magnitudes, where the value is
# squared: (call with the value, name).  Each s_min is given the largest
# s_max, and each s_max the smallest s_min.
SCALE_BOUNDARIES = {
    "guarantee_s_min": (lambda v: _inputs(s_min=v, s_max=LARGEST), "s_min"),
    "guarantee_s_max": (lambda v: _inputs(s_min=SMALLEST, s_max=v), "s_max"),
    "config_swept_s_min": (lambda v: _config(sweep_values=(v,), s_max=LARGEST), "s_min"),
    "config_s_max": (
        lambda v: _config(s_min=SMALLEST, sweep_values=(SMALLEST,), s_max=v), "s_max"
    ),
    "draw_sparse_signal_s_max": (
        lambda v: draw_sparse_signal(_gen(), 16, 2, SMALLEST, v), "s_max"
    ),
    "guarantee_sigma": (lambda v: _inputs(sigma=v), "sigma"),
    "guarantee_beta": (lambda v: _inputs(beta=v), "beta"),
    "config_sigma": (lambda v: _config(sigma=v), "sigma"),
    "config_swept_sigma": (lambda v: _config(sweep="sigma", sweep_values=(v,)), "sigma"),
    "synthesize_sigma": (
        lambda v: synthesize(D, draw_sparse_signal(_gen(), 16, 2, 0.5, 1.0), v, _gen()), "sigma"
    ),
    "estimate_beta_sigma": (lambda v: _estimate_beta(sigma=v), "sigma"),
    # At sigma = 1 the largest beta still gives a finite alpha; at 0.01 its
    # alpha overflows, which alpha_from_beta refuses by a rule of its own.
    "alpha_from_beta_beta": (lambda v: alpha_from_beta(v, 1.0, 16), "beta"),
    "alpha_from_beta_sigma": (lambda v: alpha_from_beta(0.05, v, 16), "sigma"),
    "thm2_bound_noisy_beta": (lambda v: thm2_bound(_unchecked_inputs(beta=v)), "beta"),
}


@pytest.mark.parametrize(
    "kind", ["underflow", "subnormal_square", "overflow", "smallest", "largest"]
)
@pytest.mark.parametrize("boundary", SCALE_BOUNDARIES)
def test_scale_boundaries_share_one_rule(boundary, kind):
    # sigma, beta and the magnitudes enter the bounds squared: 2 sigma^2
    # underflowed to a ZeroDivisionError at 1e-300, beta^2 and s_max^2
    # overflowed at 1e200, and a subnormal square at 1e-160 gave
    # thm1_prob=0.9994997481538116 where every normal sigma with the same
    # beta/sigma gives 0.9994997241638214.
    call, name = SCALE_BOUNDARIES[boundary]
    if (boundary, kind) == ("estimate_beta_sigma", "largest"):
        # sigma passes, and the beta it gives, a few times sigma, is refused.
        with pytest.raises(ValueError, match="^beta must square to a normal float"):
            call(LARGEST)
        return
    if kind in ("smallest", "largest"):
        call(SMALLEST if kind == "smallest" else LARGEST)  # accepted: its square is normal
        return
    value = {"underflow": 1e-300, "subnormal_square": 1e-160, "overflow": 1e200}[kind]
    message = (
        f"{name} must square to a normal float: when positive, in "
        f"[1.492e-154, 1.341e+154], got {value!r}"
    )
    if name == "s_max" and value < SMALLEST:
        # s_max >= s_min, and the smallest s_min squares to a normal float.
        message = f"s_max must be a finite real >= {SMALLEST!r}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def _lazy_signals(g, count):
    return (draw_sparse_signal(g, 16, 2, 0.5, 1.0) for _ in range(count))


GENERATORS = "a numpy Generator or a sequence of them"
# Every rng boundary, given a kind of rng it does not take: (call, with g the
# generator its signals would be drawn from, the kind it takes, the type it
# is given).  unit_correlation_max takes a stream key and synthesize the
# generators that drew its signals; the other kind once failed deep inside
# as an AttributeError or a TypeError.
RNG_BOUNDARIES = {
    "unit_correlation_max_generator": (
        lambda g: unit_correlation_max(D, 4, g), "an RngStream", "Generator"
    ),
    "unit_correlation_max_seed": (lambda g: unit_correlation_max(D, 4, 7), "an RngStream", "int"),
    "synthesize_stream": (
        lambda g: synthesize(D, _lazy_signals(g, 1), 0.1, RngStream(0, 1)), GENERATORS, "RngStream"
    ),
    "synthesize_streams": (
        lambda g: synthesize(D, _lazy_signals(g, 2), 0.1, [RngStream(0, 1), RngStream(0, 2)]),
        GENERATORS, "RngStream",
    ),
    "synthesize_seed": (lambda g: synthesize(D, _lazy_signals(g, 1), 0.1, 7), GENERATORS, "int"),
}


@pytest.mark.parametrize("boundary", RNG_BOUNDARIES)
def test_rng_of_the_wrong_kind_refused_before_a_draw(boundary):
    call, kind, given = RNG_BOUNDARIES[boundary]
    g = _gen()
    state = g.bit_generator.state
    message = f"rng must be {kind}, got {given}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(g)
    assert g.bit_generator.state == state


def test_alpha_from_beta_refuses_a_ratio_whose_alpha_overflows():
    # beta and sigma each square to a normal float, but beta^2 / (2 sigma^2
    # log n) does not fit a float; alpha = inf once reached thm1_probability,
    # which refused it by a name the caller never set.
    message = (
        f"beta^2 / (2 sigma^2 log n) at beta={LARGEST!r}, sigma=0.01 "
        "must be a finite real, got inf"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        alpha_from_beta(LARGEST, 0.01, 16)
