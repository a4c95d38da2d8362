"""Greedy sparse recovery: orthogonal matching pursuit.

``omp`` runs a fixed number of iterations equal to the target sparsity
(the support-size comparison used throughout the experiments assumes the
sparsity is known), selecting at each step the atom most correlated with
the current residual and re-solving least squares on the whole active set.
Its references live in ``tests/oracles.py``: ``omp_qr``, the same QR
solver with every atom built (``omp`` matches it bit for bit), a
from-scratch re-solving OMP and an exhaustive best-support search.
"""

import math
from dataclasses import dataclass

import numpy as np

from .checks import require_int
from .dictionary import Dictionary

# A candidate atom whose component orthogonal to the active span falls
# below this norm makes the active set numerically rank deficient.
RANK_TOL = 1e-12


class SingularSystemError(RuntimeError):
    """Active set became numerically rank deficient at ``iteration`` (1-based).

    A Monte Carlo point also names where: the sweep value ``param_value``
    and the trial, which replays alone on stream ``(seed, trial)``.
    """

    def __init__(
        self,
        iteration: int,
        trial: int | None = None,
        seed: int | None = None,
        param_value: float | None = None,
    ):
        self.iteration = iteration
        self.trial = trial
        self.seed = seed
        self.param_value = param_value
        # Pickling rebuilds the error from ``args``, so every field goes there
        # for the error to survive the trip back from a worker process.
        super().__init__(iteration, trial, seed, param_value)

    def __str__(self):
        msg = f"active set numerically singular at iteration {self.iteration}"
        if self.trial is not None:
            stream = f"stream ({self.seed}, {self.trial})"
            msg = f"sweep value {self.param_value!r}, trial {self.trial} on {stream}: {msg}"
        return msg


@dataclass(frozen=True)
class OmpResult:
    """Solver output.

    ``support`` preserves selection order; ``coefficients`` is the
    least-squares solution over those atoms, aligned with ``support``.
    ``residual_norms`` records the residual 2-norm after each iteration.
    """

    support: np.ndarray
    coefficients: np.ndarray
    residual_norms: np.ndarray


def omp(d: Dictionary, y: np.ndarray, tau: int) -> OmpResult:
    """Orthogonal matching pursuit for exactly ``tau`` iterations.

    Each iteration picks ``argmax_j |<A_j, r>|`` over unselected atoms
    (ties broken by lowest index), then re-solves least squares over all
    selected atoms through a QR factorization of the active set, updated
    one column per iteration.  The scores of every iteration land in one
    buffer.  The first ``d.unit_atoms`` atoms are standard basis vectors
    (all ``m`` of them on the identity-Hadamard dictionary), so the
    projections of such an atom onto the active span are read off as a
    column of the orthonormal basis instead of multiplied out; the atom is
    never built.  This computes the same floating-point operations as the
    multiplied-out update, so supports, coefficients and residual norms are
    bit-identical to ``tests/oracles.py::omp_qr`` (a zero may differ in
    sign).

    Raises ``ValueError`` for a ``y`` of the wrong shape or with a NaN or
    infinite entry, and for a ``tau`` that is not an integer in
    ``[1, min(m, n)]`` (a bool or a float is refused); raises
    ``SingularSystemError`` if the active set becomes numerically rank
    deficient.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (d.m,):
        raise ValueError(f"measurement shape {y.shape} != ({d.m},)")
    if not np.isfinite(y).all():
        raise ValueError("measurement y must be finite, got a NaN or infinite entry")
    require_int("tau", tau, 1, min(d.m, d.n))

    # The orthonormal basis of the active span, one row per selected atom,
    # so every projection below is a contiguous matrix-vector product.
    q_rows = np.zeros((tau, d.m))
    r_factor = np.zeros((tau, tau))
    qty = np.zeros(tau)
    selected = np.zeros(tau, dtype=np.int64)
    residual = y.copy()
    history = np.zeros(tau)
    scores = np.empty(d.n)
    unit_atoms = d.unit_atoms

    for k in range(tau):
        d.correlate_all(residual, out=scores)
        np.abs(scores, out=scores)
        scores[selected[:k]] = -1.0
        j = int(scores.argmax())
        selected[k] = j

        # Orthogonalize the new atom against the active span; one
        # re-orthogonalization pass keeps Q orthonormal to machine precision.
        active = q_rows[:k]
        if j < unit_atoms:
            # a = e_j: active @ a is column j of the basis, and a - x is -x
            # plus 1 at j.  The copy keeps proj += corr out of q_rows.
            proj = active[:, j].copy()
            q = -(proj @ active)
            q[j] += 1.0
        else:
            a = d.column(j)
            proj = active @ a
            q = a - proj @ active
        corr = active @ q
        q -= corr @ active
        proj += corr
        norm_q = math.sqrt(float(q @ q))
        if norm_q < RANK_TOL:
            raise SingularSystemError(iteration=k + 1)
        q /= norm_q

        r_factor[:k, k] = proj
        r_factor[k, k] = norm_q
        q_rows[k] = q
        coef = float(q @ residual)
        qty[k] = coef
        residual -= coef * q
        history[k] = math.sqrt(float(residual @ residual))

    coefficients = np.linalg.solve(r_factor, qty)
    return OmpResult(support=selected, coefficients=coefficients, residual_norms=history)


def support_match(found, truth) -> bool:
    """True iff the two index sets are equal, ignoring order."""
    return set(np.asarray(found, dtype=np.int64).tolist()) == set(
        np.asarray(truth, dtype=np.int64).tolist()
    )
