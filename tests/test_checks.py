import os
import re

import numpy as np
import pytest

from ompbounds import (
    ExperimentConfig,
    GuaranteeInputs,
    RngStream,
    alpha_from_beta,
    bernstein_tail,
    build_identity_hadamard,
    count_successes,
    draw_support,
    estimate_beta,
    omp,
    run_point,
    run_sweep,
    unit_correlation_max,
)
from ompbounds import montecarlo

D = build_identity_hadamard(8)
CPUS = os.cpu_count() or 1


def _config(**kw):
    base = dict(m=64, sweep="s_min", sweep_values=(0.5,), tau=2, s_min=0.5, s_max=1.0,
                sigma=0.01, trials=4, beta_draws=4)
    return ExperimentConfig(**{**base, **kw})


def _inputs(**kw):
    base = dict(n=16, tau=2, mu_max=0.25, s_min=0.5, s_max=1.0, sigma=0.01, beta=0.05)
    return GuaranteeInputs(**{**base, **kw})


# Every integer boundary: (call with the value, name, lo, hi or None, an
# integer outside [lo, hi]).
BOUNDARIES = {
    "build_identity_hadamard_m": (build_identity_hadamard, "m", 2, None, 1),
    "config_m": (lambda v: _config(m=v), "m", 2, None, 1),
    "config_tau": (lambda v: _config(tau=v), "tau", 1, 64, 65),
    "config_swept_tau": (lambda v: _config(sweep="tau", sweep_values=(v,), tau=1), "tau", 1, 64, 0),
    "config_trials": (lambda v: _config(trials=v), "trials", 1, None, 0),
    "config_beta_draws": (lambda v: _config(beta_draws=v), "beta_draws", 1, None, 0),
    "config_master_seed": (lambda v: _config(master_seed=v), "master_seed", 0, None, -1),
    "run_sweep_workers": (
        lambda v: run_sweep(_config(m=4, tau=1, beta_draws=1), workers=v),
        "workers", 1, CPUS, CPUS + 1,
    ),
    "count_successes_trials": (
        lambda v: count_successes(D, 2, 0.5, 1.0, 0.01, v, 0), "trials", 1, None, 0
    ),
    "run_point_trials": (
        lambda v: run_point(D, 2, 0.5, 1.0, 0.01, v, 0.05, 1), "trials", 1, None, 0
    ),
    "run_point_successes": (
        lambda v: run_point(D, 2, 0.5, 1.0, 0.01, 4, 0.05, v), "successes", 0, 4, 5
    ),
    "guarantee_n": (lambda v: _inputs(n=v), "n", 2, None, 1),
    "guarantee_tau": (lambda v: _inputs(tau=v), "tau", 1, 16, 17),
    "column_j": (D.column, "j", 0, 15, 16),
    "omp_tau": (lambda v: omp(D, np.ones(8), v), "tau", 1, 8, 9),
    "draw_support_tau": (
        lambda v: draw_support(RngStream(0, 1).generator(), 16, v), "tau", 0, 16, 17
    ),
    "unit_correlation_max_draws": (
        lambda v: unit_correlation_max(D, v, RngStream(0, 0)), "draws", 1, None, 0
    ),
    "estimate_beta_draws": (
        lambda v: estimate_beta(D, 0.01, v, RngStream(0, 0)), "draws", 1, None, 0
    ),
    "alpha_from_beta_n": (lambda v: alpha_from_beta(0.1, 0.01, v), "n", 2, None, 1),
    "bernstein_tail_n_terms": (lambda v: bernstein_tail(0.1, v, 0.1, 0.1), "n_terms", 0, None, -1),
}


@pytest.mark.parametrize("kind", ["bool", "fraction", "whole_float", "out_of_range", "numpy"])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_integer_boundaries_share_one_rule(monkeypatch, boundary, kind):
    # Each refused value once passed some boundary: True ran one trial or
    # one draw, 2.5 changed a bound, 5.0 passed as a tau.  No case may
    # start a process.
    def unreachable(*args, **kwargs):
        raise AssertionError("a process pool was built for a bad worker count")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", unreachable)
    call, name, lo, hi, outside = BOUNDARIES[boundary]
    if kind == "numpy":
        call(np.int64(lo))  # accepted, at the lower end of the range
        return
    value = {"bool": True, "fraction": 2.5, "whole_float": 2.0, "out_of_range": outside}[kind]
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    message = f"{name} must be an integer {bounds}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
