"""Support-recovery probability bounds for OMP, evaluated from coherence.

Two guarantees are computed side by side and carried through sweep output
under the column prefixes ``thm1`` and ``thm2``:

* ``thm1`` - the classical sharp-condition guarantee: if
  ``s_min (1 - (2 tau - 1) mu_max) >= 2 beta`` then recovery succeeds with
  probability at least ``1 - N^-alpha / sqrt(pi (1 + alpha) log N)``, where
  ``beta = sigma sqrt(2 (1 + alpha) log N)`` ties ``alpha`` to the noise
  level.  If the condition fails the guarantee says nothing and the
  reported probability is zero.

* ``thm2`` - a probabilistic guarantee that needs only ``s_min / 2 >= beta``
  and accounts for the signal statistics.  With ``rho = s_min/2 - beta``
  and ``gamma = mu_max * s_max`` the recovery probability is at least

      lambda * (1 - 2 N exp(-N rho^2 / (2 tau^2 gamma^2 + 2 N gamma rho / 3)))

  where ``lambda = Pr{ |<A_j, w>| <= beta for all j } >= 1 - N P3`` and
  ``P3 = sqrt(2/pi) (sigma/beta) exp(-beta^2 / (2 sigma^2))``.

The second factor of ``thm2`` comes from a Bernstein tail bound on the
off-support correlation statistic ``|<A_j, A s + w>|``; the generic
inequality and that tail are exposed as ``bernstein_tail`` and
``lemma1_tail``.  ``beta`` itself is measured empirically in the worst
case, as the maximum of ``|<A_j, w>|`` over many noise draws.  Every real
input passes ``checks.require_real`` (a finite int or float, never a bool,
in the range its formula needs), and ``n``, ``tau``, ``n_terms`` and
``draws`` pass ``checks.require_int``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_magnitudes, check_sigma, require_int, require_real
from .dictionary import Dictionary
from .signals import RngStream

# exp(-x) underflows near 745; switch to log-space accumulation before that.
_EXP_SWITCH = 700.0
# unit_correlation_max draws at most _BETA_BATCH noise vectors per
# correlate_all call, and fewer when m is large: a batch's noise fits in
# _BETA_BATCH_BYTES and its correlations in twice that.
_BETA_BATCH = 256
_BETA_BATCH_BYTES = 2**18


@dataclass(frozen=True)
class GuaranteeInputs:
    """Scalar parameter bundle shared by both guarantees, with ``2 <= n`` and ``1 <= tau <= n``."""

    n: int
    tau: int
    mu_max: float
    s_min: float
    s_max: float
    sigma: float
    beta: float

    def __post_init__(self):
        require_real("mu_max", self.mu_max, gt=0, lt=1)
        require_real("beta", self.beta, ge=0)
        check_magnitudes(self.s_min, self.s_max)
        check_sigma(self.sigma)
        require_int("n", self.n, 2)
        require_int("tau", self.tau, 1, self.n)


@dataclass(frozen=True)
class BoundBreakdown:
    """All intermediate quantities behind the ``thm2`` probability.

    ``lambda_raw`` and ``probability_raw`` keep the unclamped values for
    diagnostics; ``lambda_lb`` and ``probability`` are clamped to [0, 1].
    ``p1``/``p2`` are the on-support and off-support per-atom tail bounds
    (``p1 <= p2``), ``p3`` the per-atom noise-correlation tail, and
    ``error_ub`` the raw union bound ``2 N exp(...)`` which may exceed 1.
    """

    rho: float
    gamma: float
    p1: float
    p2: float
    p3: float
    lambda_raw: float
    lambda_lb: float
    error_ub: float
    probability_raw: float
    probability: float
    condition_ok: bool


@dataclass(frozen=True)
class AlphaBeta:
    """The ``alpha`` of ``beta = sigma sqrt(2(1+alpha) log n)`` for a given ``beta``.

    ``valid`` is False when the derived ``alpha`` is not strictly positive,
    in which case the sharp-condition guarantee does not apply.
    """

    alpha: float
    valid: bool


def bernstein_tail(delta: float, n_terms: int, nu: float, c: float) -> float:
    """Two-sided Bernstein tail bound, clamped to [0, 1].

    For a sum of ``n_terms`` independent centered variables with
    ``E{x^2} <= nu`` and ``|x| <= c`` almost surely,

        Pr{ |sum x| >= delta } <= 2 exp(-delta^2 / (2 (n_terms nu + c delta / 3)))
    """
    require_real("delta", delta, gt=0)
    require_real("nu", nu, ge=0)
    require_real("c", c, ge=0)
    if nu == 0 and c == 0:
        raise ValueError("nu and c must not both be zero")
    require_int("n_terms", n_terms, 0)
    denom = 2.0 * (n_terms * nu + c * delta / 3.0)
    if denom == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-delta * delta / denom))


def lemma1_tail(xi: float, beta: float, n_terms: int, nu: float, c: float) -> float:
    """Tail bound on the correlation statistic ``|<A_j, A s + w>|``.

    Assuming ``|<A_j, w>| <= beta`` and ``xi >= beta``,

        Pr{ |<A_j, A s + w>| >= xi } <= 2 exp(-(xi-beta)^2 / (2 (n nu + c (xi-beta)/3)))

    with ``nu`` and ``c`` bounding the per-term second moment and magnitude
    as in :func:`bernstein_tail`.  ``xi == beta`` yields the vacuous bound 1.
    """
    require_real("beta", beta, ge=0)
    require_real("xi", xi, ge=beta)
    if xi == beta:
        return 1.0
    return bernstein_tail(xi - beta, n_terms, nu, c)


def thm1_condition(g: GuaranteeInputs) -> bool:
    """Sharp recovery condition ``s_min (1 - (2 tau - 1) mu_max) >= 2 beta``."""
    return bool(g.s_min * (1.0 - (2 * g.tau - 1) * g.mu_max) >= 2.0 * g.beta)


def thm1_probability(g: GuaranteeInputs, alpha: float) -> float:
    """Success probability of the sharp-condition guarantee.

    Returns ``max(0, 1 - N^-alpha / sqrt(pi (1+alpha) log N))`` when the
    condition holds and 0 otherwise (a failed condition gives no guarantee,
    reported as zero success probability).
    """
    require_real("alpha", alpha, gt=0)
    if not thm1_condition(g):
        return 0.0
    log_n = math.log(g.n)
    term = math.exp(-alpha * log_n) / math.sqrt(math.pi * (1.0 + alpha) * log_n)
    return max(0.0, 1.0 - term)


def thm2_bound(g: GuaranteeInputs, *, tight_lambda: bool = False) -> BoundBreakdown:
    """Full evaluation of the probabilistic guarantee with its breakdown.

    The condition is ``s_min / 2 >= beta``.  When it fails the probability
    is zero but the breakdown fields are still populated, with the tail
    quantities evaluated at the vacuous point ``rho = 0`` (``p1 = p2 = 1``,
    ``error_ub = 2N``).

    ``tight_lambda`` switches the lower bound on ``lambda`` from the
    default linearized form ``1 - N P3`` to the sharper ``(1 - P3)^N``.
    """
    n, tau = g.n, g.tau
    if g.sigma > 0:
        require_real("beta", g.beta, gt=0)
    rho = g.s_min / 2.0 - g.beta
    gamma = g.mu_max * g.s_max
    condition_ok = rho >= 0

    # Per-term Bernstein parameters: |mu s| <= gamma and, averaging over
    # uniformly random support placement, E{mu^2 s^2} <= (tau/n) s_max^2 mu_max^2.
    nu = (tau / n) * g.s_max**2 * g.mu_max**2
    c = gamma
    rho_eff = max(rho, 0.0)
    if rho_eff > 0.0:
        p1 = bernstein_tail(rho_eff, tau - 1, nu, c)
        p2 = bernstein_tail(rho_eff, tau, nu, c)
    else:
        p1 = p2 = 1.0

    if g.sigma == 0.0:
        p3 = 0.0
    else:
        p3 = math.sqrt(2.0 / math.pi) * (g.sigma / g.beta) * math.exp(
            -g.beta**2 / (2.0 * g.sigma**2)
        )
    if tight_lambda:
        lambda_raw = (1.0 - min(p3, 1.0)) ** n
    else:
        lambda_raw = 1.0 - n * p3
    lambda_lb = min(1.0, max(0.0, lambda_raw))

    exponent = n * rho_eff**2 / (2.0 * tau**2 * gamma**2 + 2.0 * n * gamma * rho_eff / 3.0)
    if exponent > _EXP_SWITCH:
        error_ub = math.exp(math.log(2.0 * n) - exponent)
    else:
        error_ub = 2.0 * n * math.exp(-exponent)

    probability_raw = lambda_lb * (1.0 - error_ub)
    probability = min(1.0, max(0.0, probability_raw))
    return BoundBreakdown(
        rho=rho,
        gamma=gamma,
        p1=p1,
        p2=p2,
        p3=p3,
        lambda_raw=lambda_raw,
        lambda_lb=lambda_lb,
        error_ub=error_ub,
        probability_raw=probability_raw,
        probability=probability,
        condition_ok=condition_ok,
    )


def alpha_from_beta(beta: float, sigma: float, n: int) -> AlphaBeta:
    """Invert ``beta = sigma sqrt(2 (1 + alpha) log n)`` for ``alpha``.

    A nonpositive ``alpha`` is flagged via ``valid=False`` rather than
    raised: the caller decides whether the sharp-condition guarantee is
    usable.
    """
    require_real("beta", beta, gt=0)
    require_real("sigma", sigma, gt=0)
    require_int("n", n, 2)
    alpha = beta**2 / (2.0 * sigma**2 * math.log(n)) - 1.0
    return AlphaBeta(alpha=alpha, valid=alpha > 0)


def unit_correlation_max(d: Dictionary, draws: int, rng: RngStream) -> float:
    """Max over ``draws`` unit-variance noise vectors of ``max_j |<A_j, w>|``.

    The noise comes from one generator built from the stream ``rng``, drawn
    in batches of ``min(_BETA_BATCH, _BETA_BATCH_BYTES // (8 m))`` vectors
    (at least one): 256 at ``m = 64``, 32 at 1024, 8 at 4096.  The noise
    and correlation buffers are allocated once per call and refilled for
    every batch, so memory stays near ``4 * _BETA_BATCH_BYTES`` whatever
    ``m`` and ``draws`` are.  The vectors are drawn in one sequence and
    each correlation is computed row by row, so the value does not depend
    on the batch size.  The estimate for noise level ``sigma`` is exactly
    ``sigma`` times this value, so one pass serves every noise level under
    the same stream.
    """
    require_int("draws", draws, 1)
    g = rng.generator()
    rows = max(1, min(_BETA_BATCH, _BETA_BATCH_BYTES // (8 * d.m)))
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


def estimate_beta(d: Dictionary, sigma: float, draws: int, rng: RngStream) -> float:
    """Empirical worst-case ``beta``: max of ``|<A_j, w>|`` over noise draws.

    ``w ~ N(0, sigma^2 I)``, drawn from the keyed stream ``rng``; 10^4 draws
    give a stable worst-case estimate.  Scaling is exact: doubling ``sigma``
    under the same stream exactly doubles the estimate.
    """
    check_sigma(sigma)
    return sigma * unit_correlation_max(d, draws, rng)
