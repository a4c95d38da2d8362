"""OMP support recovery: solver, coherence-based probability bounds, Monte Carlo."""

from .bounds import (
    AlphaBeta,
    BoundBreakdown,
    GuaranteeInputs,
    alpha_from_beta,
    bernstein_tail,
    estimate_beta,
    thm1_condition,
    thm1_probability,
    thm2_bound,
    unit_correlation_max,
)
from .dictionary import Dictionary, build_identity_hadamard, fwht
from .montecarlo import ExperimentConfig, SweepResult, count_successes, run_point, run_sweep, thm1
from .omp import OmpResult, SingularSystemError, omp, support_match
from .signals import (
    Measurement,
    RngStream,
    SparseSignal,
    draw_sparse_signal,
    draw_support,
    synthesize,
)

__all__ = [
    "AlphaBeta",
    "BoundBreakdown",
    "Dictionary",
    "ExperimentConfig",
    "GuaranteeInputs",
    "Measurement",
    "OmpResult",
    "RngStream",
    "SingularSystemError",
    "SparseSignal",
    "SweepResult",
    "alpha_from_beta",
    "bernstein_tail",
    "build_identity_hadamard",
    "count_successes",
    "draw_sparse_signal",
    "draw_support",
    "estimate_beta",
    "fwht",
    "omp",
    "run_point",
    "run_sweep",
    "support_match",
    "synthesize",
    "thm1",
    "thm1_condition",
    "thm1_probability",
    "thm2_bound",
    "unit_correlation_max",
]

__version__ = "0.1.0"
