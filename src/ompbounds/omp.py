"""Greedy sparse recovery: orthogonal matching pursuit.

``omp`` runs a fixed number of iterations equal to the target sparsity
(the support-size comparison used throughout the experiments assumes the
sparsity is known), selecting at each step the atom most correlated with
the current residual and extending the least-squares fit on the whole
active set through a factored inverse Gram matrix.  A batch of
measurements, such as a Monte Carlo chunk's trials, is solved in lockstep,
one row each.
Its references live in ``tests/oracles.py``: ``omp_qr``, a scalar solver
that updates a QR factorization of the built atoms, a from-scratch
re-solving OMP and an exhaustive best-support search.
"""

import math
import threading
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .checks import require_int
from .dictionary import Dictionary

# A candidate atom whose squared distance to the active span, the Gram
# pivot ``1 - g^T G^-1 g``, falls below this makes the active set
# numerically singular.  A duplicated atom, and every singular set seen on
# the identity-Hadamard dictionary, gives exactly 0 in exact arithmetic and
# at most 1.1e-16 under the factored G^-1.  The smallest regular pivot seen
# there was 0.5 at m=4, 0.167 at m=16 and 0.1 at m=64 (tau up to m), 0.964
# at m=1024 (tau up to 60) and 0.918 at m=4096 (tau 300 and 600).
PIVOT_TOL = 1e-10

# Memory for one lockstep call's working arrays, per row three of length
# 2 m (the first scores, the current scores and the coefficients) and the
# (tau, tau) factor U of the inverse Gram.  At m = 1024 that is 21 rows at
# tau = 2, 13 at 60 and 2 at 200.  A larger batch amortizes more of each
# iteration's fixed cost but raises a serial sweep's peak memory.  A thread
# keeps the arrays of a call within this budget, plus its length-m residual
# rows (about 1.2 MB at m = 1024), for its next call.
_BATCH_BYTES = 2**20

# Each thread's float64 buffer that omp carves its working arrays from, so
# that a sweep's calls reuse pages already faulted in.
_workspace = threading.local()


class SingularSystemError(RuntimeError):
    """Active set became numerically rank deficient at ``iteration`` (1-based).

    ``omp`` on a batch names the ``row``.  A Monte Carlo point also names
    where: the sweep value ``param_value`` and the trial, which replays
    alone on stream ``(seed, trial)``.
    """

    def __init__(
        self,
        iteration: int,
        trial: int | None = None,
        seed: int | None = None,
        param_value: float | None = None,
        row: int | None = None,
    ):
        self.iteration = iteration
        self.trial = trial
        self.seed = seed
        self.param_value = param_value
        self.row = row
        # Pickling rebuilds the error from ``args``, so every field goes there
        # for the error to survive the trip back from a worker process.
        super().__init__(iteration, trial, seed, param_value, row)

    def __str__(self):
        msg = f"active set numerically singular at iteration {self.iteration}"
        if self.row is not None:
            msg += f" in row {self.row}"
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
    Each has shape ``(tau,)``, or ``(B, tau)``, one row per measurement.
    """

    support: np.ndarray
    coefficients: np.ndarray
    residual_norms: np.ndarray


def _row_bytes(n: int, tau: int) -> int:
    return 8 * (3 * n + tau * tau)


def batch_rows(n: int, tau: int) -> int:
    """Rows of one lockstep call on ``n`` atoms whose arrays fit ``_BATCH_BYTES`` (at least 1)."""
    return max(1, _BATCH_BYTES // _row_bytes(n, tau))


def _working_arrays(batch: int, m: int, n: int, tau: int) -> list[np.ndarray]:
    """``alpha0``, ``scores``, ``dense``, ``residual`` and ``factor``, unset, in the workspace."""
    shapes = [(batch, n)] * 3 + [(batch, m), (batch, tau, tau)]
    counts = [math.prod(shape) for shape in shapes]
    # Each array starts a multiple of 64 bytes into the buffer.
    starts = list(accumulate((-(-c // 8) * 8 for c in counts), initial=0))
    buf = getattr(_workspace, "buf", None)
    if buf is None or len(buf) < starts[-1]:
        buf = np.empty(starts[-1])
        if batch * _row_bytes(n, tau) <= _BATCH_BYTES:
            _workspace.buf = buf
    return [buf[s : s + c].reshape(shape) for s, c, shape in zip(starts, counts, shapes)]


def omp(d: Dictionary, y: np.ndarray, tau: int) -> OmpResult:
    """Orthogonal matching pursuit for exactly ``tau`` iterations on ``y``, ``(m,)`` or ``(B, m)``.

    The rows of a batch run in lockstep; one measurement runs as a batch of
    one.  Each iteration picks ``argmax_j |<A_j, r>|`` over unselected atoms
    (ties to the lowest index) and extends the fit in Gram space (Batch-OMP;
    Rubinstein, Zibulevsky & Elad, Technion CS-2008-08): with ``g`` the new
    atom's exact Gram entries against the active set (``d.gram``),
    ``v = G^-1 g`` and the pivot ``1 - g^T v``, the new coefficient is
    ``t = (<A_j, y> - g^T x) / pivot`` and the old ones move by ``-t v``.
    ``G^-1`` is kept factored as ``U^T D U``: iteration ``i`` appends the
    row ``u_i = [-v_i, 1]`` to ``U`` and ``1 / pivot_i`` to the diagonal
    ``D``, so ``v = U^T (D (U g))`` costs two products and no update of
    ``G^-1``.  The residual ``y - A_I x`` is one ``d.apply`` per iteration,
    and every reduction is a stacked matrix product, so a row's result does
    not depend on its batch.

    A thread keeps its working arrays between calls: the first and current
    scores, the coefficients scattered over all atoms, the residual and
    ``U``.  It keeps them up to the largest call whose batch fits
    ``batch_rows`` without its floor of one (21 rows at ``m = 1024,
    tau = 2``, about 1.2 MB with the residual rows); a larger call's arrays
    are freed on return.  Each call zeroes the coefficients and ``U`` on
    entry, so a call that raised leaves nothing behind, and no result is a
    view of these arrays.

    Results have the batch shape of ``y``: ``(tau,)`` or ``(B, tau)``.
    Raises ``ValueError`` for a ``y`` of another shape or with a NaN or
    infinite entry, and for a ``tau`` that is not an integer in
    ``[1, min(m, n)]`` (a bool or a float is refused).  A row whose pivot
    falls below ``PIVOT_TOL`` is frozen; after the last iteration
    ``SingularSystemError`` names the lowest such row's iteration, and for
    a batch the ``row``.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.shape[-1] != d.m or y.size == 0:
        raise ValueError(f"measurement shape {y.shape} is neither ({d.m},) nor (B, {d.m})")
    if not np.isfinite(y).all():
        raise ValueError("measurement y must be finite, got a NaN or infinite entry")
    require_int("tau", tau, 1, min(d.m, d.n))

    ys = y.reshape(-1, d.m)
    batch = len(ys)
    rows = np.arange(batch)
    alpha0, scores, dense, residual, factor = _working_arrays(batch, d.m, d.n, tau)
    d.correlate_all(ys, out=alpha0)  # <A_j, y>, kept for every coefficient update
    dense[:] = 0.0  # x scattered over all n atoms
    # G^-1 = U^T D U: row i of U is iteration i's u_i = [-v_i, 1], zero-padded,
    # and D = diag(1 / pivot_i).
    factor[:] = 0.0
    pivots = np.ones((batch, tau))
    x = np.zeros((batch, tau))
    selected = np.zeros((batch, tau), dtype=np.int64)
    history = np.zeros((batch, tau))
    singular_at = np.zeros(batch, dtype=np.int64)  # 1-based iteration, 0 while regular
    frozen = None

    for k in range(tau):
        np.abs(d.correlate_all(residual, out=scores) if k else alpha0, out=scores)
        active = selected[:, :k]
        scores[rows[:, None], active] = -1.0
        j = scores.argmax(axis=1)
        selected[:, k] = j

        g = d.gram(active, j)[:, None, :]
        if frozen is not None:
            g[frozen] = 0.0  # pivot 1 and t 0: a frozen row's fit stays put
        f = factor[:, :k, :k]
        v = f.transpose(0, 2, 1) @ ((f @ g.transpose(0, 2, 1)) / pivots[:, :k, None])
        pivot = 1.0 - (g @ v)[:, 0, 0]
        fresh = pivot < PIVOT_TOL
        if fresh.any():
            singular_at[fresh] = k + 1
            frozen = singular_at > 0
            v[fresh] = 0.0
            pivot[fresh] = 1.0
        t = (alpha0[rows, j] - (g @ x[:, :k, None])[:, 0, 0]) / pivot
        if frozen is not None:
            t[frozen] = 0.0

        # U gains the row u = [-v, 1] and D the pivot; x grows by t u.
        u = factor[:, k, : k + 1]
        np.negative(v[:, :, 0], out=u[:, :k])
        u[:, k] = 1.0
        pivots[:, k] = pivot
        x[:, : k + 1] += t[:, None] * u
        dense[rows[:, None], selected[:, : k + 1]] = x[:, : k + 1]
        np.subtract(ys, d.apply(dense, out=residual), out=residual)
        history[:, k] = np.sqrt((residual[:, None, :] @ residual[:, :, None])[:, 0, 0])

    if singular_at.any():
        row = int(np.flatnonzero(singular_at)[0])
        raise SingularSystemError(int(singular_at[row]), row=row if y.ndim == 2 else None)
    if y.ndim == 1:
        return OmpResult(support=selected[0], coefficients=x[0], residual_norms=history[0])
    return OmpResult(support=selected, coefficients=x, residual_norms=history)


def support_match(found, truth) -> bool:
    """True iff the two index sets are equal, ignoring order."""
    return set(np.asarray(found, dtype=np.int64).tolist()) == set(
        np.asarray(truth, dtype=np.int64).tolist()
    )
