"""Independent reference implementations used as oracles in tests.

The bound evaluators are coded directly from the definitions in mpmath at
50 significant digits, and the Walsh-Hadamard butterfly in plain NumPy,
without calling the library under test, so any agreement is meaningful.
The OMP references share only the dictionary's correlations and atoms with
the library: ``omp_qr`` is the incremental-QR solver with every atom built
and multiplied out, ``omp_direct`` re-solves least squares from scratch
every iteration, and the exhaustive search tries every support.
``dense_identity_hadamard`` builds the library's dictionary as a dense
matrix from the butterfly, and ``DenseDictionary`` stands in for that
dictionary where a test needs a matrix it cannot be.
``unit_correlation_max_serial`` is the beta pass with no overlap: each batch
is drawn, then correlated, on the calling thread.
"""

import math
from itertools import combinations

import mpmath as mp
import numpy as np

from ompbounds import OmpResult, SingularSystemError, bounds

mp.mp.dps = 50

# A candidate atom whose component orthogonal to the active span falls
# below this norm makes the active set numerically rank deficient, for
# ``omp_qr`` and ``omp_direct``.
RANK_TOL = 1e-12


def fwht_butterfly(x):
    """Unnormalized Sylvester-ordered Walsh-Hadamard transform, last axis.

    The in-place radix-2 butterfly: log2(n) stages, each replacing every
    pair ``(a, b)`` at distance ``h`` by ``(a + b, a - b)``.
    """
    a = np.array(x, dtype=np.float64, copy=True, order="C")
    n = a.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    lead = a.shape[:-1]
    h = 1
    while h < n:
        b = a.reshape(lead + (-1, 2, h))
        top = b[..., 0, :].copy()
        b[..., 0, :] = top + b[..., 1, :]
        b[..., 1, :] = top - b[..., 1, :]
        h *= 2
    return a


def dense_identity_hadamard(m):
    """The ``(m, 2m)`` matrix ``[I, H/sqrt(m)]``, with ``H`` from the butterfly."""
    return np.hstack([np.eye(m), fwht_butterfly(np.eye(m)) * (1.0 / math.sqrt(m))])


def unit_correlation_max_serial(d, draws, rng):
    """``bounds.unit_correlation_max`` as one loop: draw a batch, correlate it, repeat.

    Same generator, draw order and batch shapes as the library, all on the
    calling thread, so the two must agree bit for bit.
    """
    g = rng.generator()
    rows = max(1, min(bounds._BETA_BATCH, bounds._BETA_BATCH_BYTES // (8 * d.m)))
    noise = np.empty((rows, d.m))
    corr = np.empty((rows, 2 * d.m))
    best = 0.0
    for start in range(0, draws, rows):
        k = min(rows, draws - start)
        u, c = noise[:k], corr[:k]
        g.standard_normal(out=u)
        d.correlate_all(u, out=c)
        np.abs(c, out=c)
        best = max(best, float(c.max()))
    return best


def beta_from_alpha(alpha, sigma, n):
    """Forward map ``beta = sigma sqrt(2 (1 + alpha) log n)``; ``alpha_from_beta`` inverts it."""
    return sigma * math.sqrt(2.0 * (1.0 + alpha) * math.log(n))


def omp_qr(d, y, tau, trace=None):
    """OMP with an incrementally updated QR factorization of the active set.

    The scalar reference for ``ompbounds.omp``: the same selection rule,
    but every atom comes from ``d.column`` and is orthogonalized against the
    active span by matrix-vector products, with one re-orthogonalization
    pass, and the coefficients come from one triangular solve at the end.
    ``trace``, if a list, receives ``(margin, residual_norm)`` before each
    pick: the relative argmax margin ``(best - second) / best`` of the
    scores (0 when every score is 0) and the residual's 2-norm.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (d.m,):
        raise ValueError(f"measurement shape {y.shape} != ({d.m},)")
    if not 1 <= tau <= min(d.m, d.n):
        raise ValueError(f"need 1 <= tau <= {min(d.m, d.n)}, got {tau}")

    # The orthonormal basis of the active span, one row per selected atom,
    # so every projection below is a contiguous matrix-vector product.
    q_rows = np.zeros((tau, d.m))
    r_factor = np.zeros((tau, tau))
    qty = np.zeros(tau)
    selected = np.zeros(tau, dtype=np.int64)
    residual = y.copy()
    history = np.zeros(tau)

    for k in range(tau):
        scores = d.correlate_all(residual)
        np.abs(scores, out=scores)
        scores[selected[:k]] = -1.0
        j = int(np.argmax(scores))
        selected[k] = j
        if trace is not None:
            best, second = np.partition(scores, -2)[-2:][::-1]
            margin = (best - second) / best if best > 0 else 0.0
            trace.append((float(margin), math.sqrt(float(residual @ residual))))

        # Orthogonalize the new atom against the active span; one
        # re-orthogonalization pass keeps Q orthonormal to machine precision.
        a = d.column(j)
        active = q_rows[:k]
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


def omp_direct(d, y, tau):
    """OMP that re-solves least squares over the whole active set each iteration.

    The slow reference for ``ompbounds.omp``: same selection rule, same
    ``RANK_TOL`` singularity test, no factorization carried between steps.
    """
    selected: list[int] = []
    residual = y.copy()
    history = np.zeros(tau)
    coefficients = np.zeros(0)
    for k in range(tau):
        scores = np.abs(d.correlate_all(residual))
        scores[selected] = -1.0
        j = int(np.argmax(scores))
        a = d.column(j)
        if selected:
            active = np.column_stack([d.column(i) for i in selected])
            fit, *_ = np.linalg.lstsq(active, a, rcond=None)
            if math.sqrt(float(np.sum((a - active @ fit) ** 2))) < RANK_TOL:
                raise SingularSystemError(iteration=k + 1)
        selected.append(j)
        active = np.column_stack([d.column(i) for i in selected])
        coefficients, *_ = np.linalg.lstsq(active, y, rcond=None)
        residual = y - active @ coefficients
        history[k] = math.sqrt(float(residual @ residual))
    return OmpResult(
        support=np.array(selected, dtype=np.int64),
        coefficients=coefficients,
        residual_norms=history,
    )


def exhaustive_l0(d, y, tau):
    """Best size-``tau`` support by brute force over all ``C(n, tau)`` supports.

    Minimizes the least-squares residual norm; ties go to the
    lexicographically smallest support.
    """
    best_support, best_coef, best_sq = None, None, math.inf
    for combo in combinations(range(d.n), tau):
        active = np.column_stack([d.column(i) for i in combo])
        coef, *_ = np.linalg.lstsq(active, y, rcond=None)
        resid = y - active @ coef
        sq = float(resid @ resid)
        if sq < best_sq:
            best_support, best_coef, best_sq = combo, coef, sq
    return OmpResult(
        support=np.array(best_support, dtype=np.int64),
        coefficients=best_coef,
        residual_norms=np.array([math.sqrt(best_sq)]),  # the final residual only
    )


class DenseDictionary:
    """An explicit real matrix with unit-norm columns, duck-typed as a ``Dictionary``.

    Coherence is the pairwise scan over all columns, O(m n^2).
    """

    def __init__(self, a):
        a = np.asarray(a, dtype=np.float64)
        self._matrix = a / np.linalg.norm(a, axis=0)
        self.m, self.n = a.shape

    def column(self, j):
        return self._matrix[:, j].copy()

    def correlate_all(self, r, out=None):
        """``r @ A`` along the last axis; ``out``, if given, receives it as in ``Dictionary``."""
        r = np.asarray(r, dtype=np.float64)
        shape = r.shape[:-1] + (self.n,)
        if out is not None and (
            out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous
        ):
            raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
        return np.matmul(r, self._matrix, out=out)

    def matvec(self, s, out=None):
        """``A @ s`` for ``(n,)`` or ``(B, n)`` coefficients; ``out`` as in :meth:`apply`."""
        s = np.asarray(s, dtype=np.float64)
        if s.ndim not in (1, 2) or s.shape[-1] != self.n:
            raise ValueError(
                f"coefficient shape {s.shape} is neither ({self.n},) nor (B, {self.n})"
            )
        return self.apply(s, out=out)

    def apply(self, s, out=None):
        """``A @ s`` along the last axis; ``out``, if given, receives it."""
        return np.matmul(s, self._matrix.T, out=out)

    def gram(self, support, j):
        """``A[:, support].T @ A[:, j]`` for each row of ``support`` and its ``j``."""
        atoms = self._matrix.T
        return (atoms[support] @ atoms[j][..., None])[..., 0]

    def mutual_coherence(self):
        g = np.abs(self._matrix.T @ self._matrix)
        np.fill_diagonal(g, 0.0)
        return float(g.max())


def bernstein_oracle(delta, n_terms, nu, c):
    delta, nu, c = mp.mpf(delta), mp.mpf(nu), mp.mpf(c)
    denom = 2 * (n_terms * nu + c * delta / 3)
    if denom == 0:
        return mp.mpf(0)
    return min(mp.mpf(1), 2 * mp.exp(-(delta**2) / denom))


def lemma1_oracle(xi, beta, n_terms, nu, c):
    xi, beta = mp.mpf(xi), mp.mpf(beta)
    if xi == beta:
        return mp.mpf(1)
    return bernstein_oracle(xi - beta, n_terms, nu, c)


def thm1_condition_oracle(n, tau, mu_max, s_min, beta):
    s_min, mu_max, beta = mp.mpf(s_min), mp.mpf(mu_max), mp.mpf(beta)
    return s_min * (1 - (2 * tau - 1) * mu_max) >= 2 * beta


def thm1_probability_oracle(n, tau, mu_max, s_min, beta, alpha):
    if not thm1_condition_oracle(n, tau, mu_max, s_min, beta):
        return mp.mpf(0)
    n, alpha = mp.mpf(n), mp.mpf(alpha)
    term = n ** (-alpha) / mp.sqrt(mp.pi * (1 + alpha) * mp.log(n))
    return max(mp.mpf(0), 1 - term)


def thm2_oracle(n, tau, mu_max, s_min, s_max, sigma, beta, tight_lambda=False):
    """Full breakdown as a dict of mpmath values, mirroring BoundBreakdown."""
    mu_max, s_min, s_max = mp.mpf(mu_max), mp.mpf(s_min), mp.mpf(s_max)
    sigma, beta = mp.mpf(sigma), mp.mpf(beta)
    one = mp.mpf(1)

    rho = s_min / 2 - beta
    gamma = mu_max * s_max
    condition_ok = rho >= 0
    nu = (mp.mpf(tau) / n) * s_max**2 * mu_max**2
    rho_eff = max(rho, mp.mpf(0))
    if rho_eff > 0:
        p1 = bernstein_oracle(rho_eff, tau - 1, nu, gamma)
        p2 = bernstein_oracle(rho_eff, tau, nu, gamma)
    else:
        p1 = p2 = one

    if sigma == 0:
        p3 = mp.mpf(0)
    else:
        p3 = mp.sqrt(2 / mp.pi) * (sigma / beta) * mp.exp(-(beta**2) / (2 * sigma**2))
    if tight_lambda:
        lambda_raw = (1 - min(p3, one)) ** n
    else:
        lambda_raw = 1 - n * p3
    lambda_lb = min(one, max(mp.mpf(0), lambda_raw))

    error_ub = 2 * n * mp.exp(-n * rho_eff**2 / (2 * tau**2 * gamma**2 + 2 * n * gamma * rho_eff / 3))
    probability_raw = lambda_lb * (1 - error_ub)
    probability = min(one, max(mp.mpf(0), probability_raw))
    return {
        "rho": rho,
        "gamma": gamma,
        "p1": p1,
        "p2": p2,
        "p3": p3,
        "lambda_raw": lambda_raw,
        "lambda_lb": lambda_lb,
        "error_ub": error_ub,
        "probability_raw": probability_raw,
        "probability": probability,
        "condition_ok": condition_ok,
    }


def rel_err(value, reference) -> float:
    """|value - reference| / max(|reference|, tiny), as a float."""
    reference = mp.mpf(reference)
    scale = max(abs(reference), mp.mpf("1e-300"))
    return float(abs(mp.mpf(value) - reference) / scale)


def random_guarantee_grid(count, seed):
    """Random parameter points spanning the experiment regimes.

    ``beta`` is tied to ``sigma`` through an ``alpha`` in [0.2, 4], the way
    an empirical worst-case estimate behaves, so derived quantities stay in
    numerically honest ranges.
    """
    import math
    import numpy as np

    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        m = 2 ** int(rng.integers(6, 13))
        n = 2 * m
        tau = int(rng.integers(1, 41))
        mu_max = float(rng.uniform(0.01, 0.35))
        s_min = float(rng.uniform(0.1, 1.0))
        s_max = s_min * float(1.0 + 3.0 * rng.uniform())
        sigma = float(10 ** rng.uniform(-4, -1.3))
        alpha = float(rng.uniform(0.2, 4.0))
        beta = sigma * math.sqrt(2.0 * (1.0 + alpha) * math.log(n))
        points.append(
            {
                "n": n,
                "tau": tau,
                "mu_max": mu_max,
                "s_min": s_min,
                "s_max": s_max,
                "sigma": sigma,
                "beta": beta,
                "alpha": alpha,
            }
        )
    return points
