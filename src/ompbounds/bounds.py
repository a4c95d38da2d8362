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

The second factor of ``thm2`` is one minus a union bound over the N atoms
of the paper's Lemma 1, the tail of ``|<A_j, A s + w>|`` at ``xi = s_min/2``,
which is ``bernstein_tail(xi - beta, ...)``: ``error_ub`` is N times that
tail, ``p2``, before its clamp.  ``beta`` itself is measured empirically in
the worst case, as the maximum of ``|<A_j, w>|`` over many noise draws.
Real inputs pass ``checks.require_real``, and ``sigma``, ``beta``, ``s_min``
and ``s_max`` also ``checks.require_scale``; ``n``, ``tau``, ``n_terms`` and
``draws`` pass ``checks.require_int``.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .checks import check_magnitudes, check_sigma, require_int, require_real, require_scale
from .dictionary import Dictionary
from .omp import _BATCH_BYTES
from .signals import RngStream

# exp(-x) underflows near 745; switch to log-space accumulation before that.
_EXP_SWITCH = 700.0
# unit_correlation_max draws at most _BETA_BATCH noise vectors a batch, and
# fewer when m is large: two noise slots and the correlations fit _BATCH_BYTES.
_BETA_BATCH = 256


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
        require_scale("beta", self.beta, ge=0)
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
    ``error_ub`` N times the unclamped ``p2`` tail, which may exceed 1.
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
    return min(1.0, 2.0 * math.exp(-_bernstein_exponent(delta, n_terms, nu, c)))


def _bernstein_exponent(delta: float, n_terms: int, nu: float, c: float) -> float:
    """The ``x`` of :func:`bernstein_tail`'s ``2 exp(-x)``; ``inf`` for a zero denominator."""
    require_real("delta", delta, gt=0)
    require_real("nu", nu, ge=0)
    require_real("c", c, ge=0)
    if nu == 0 and c == 0:
        raise ValueError("nu and c must not both be zero")
    require_int("n_terms", n_terms, 0)
    denom = 2.0 * (n_terms * nu + c * delta / 3.0)
    return math.inf if denom == 0.0 else delta * delta / denom


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
        require_scale("beta", g.beta, gt=0)
    rho = g.s_min / 2.0 - g.beta
    gamma = g.mu_max * g.s_max
    condition_ok = rho >= 0

    # Per-term Bernstein parameters: |mu s| <= gamma and, averaging over
    # uniformly random support placement, E{mu^2 s^2} <= (tau/n) s_max^2 mu_max^2.
    nu = (tau / n) * g.s_max**2 * g.mu_max**2
    if rho > 0.0:
        p1 = bernstein_tail(rho, tau - 1, nu, gamma)
        x = _bernstein_exponent(rho, tau, nu, gamma)
    else:
        p1, x = 1.0, 0.0
    p2 = min(1.0, 2.0 * math.exp(-x))
    if x > _EXP_SWITCH:
        error_ub = math.exp(math.log(2.0 * n) - x)
    else:
        error_ub = n * (2.0 * math.exp(-x))

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
    usable.  A ratio ``beta / sigma`` so large that ``alpha`` overflows is
    refused, naming both.
    """
    require_scale("beta", beta, gt=0)
    require_scale("sigma", sigma, gt=0)
    require_int("n", n, 2)
    ratio = beta**2 / (2.0 * sigma**2 * math.log(n))
    require_real(f"beta^2 / (2 sigma^2 log n) at beta={beta!r}, sigma={sigma!r}", ratio)
    alpha = ratio - 1.0
    return AlphaBeta(alpha=alpha, valid=alpha > 0)


def unit_correlation_max(d: Dictionary, draws: int, rng: RngStream) -> float:
    """Max over ``draws`` unit-variance noise vectors of ``max_j |<A_j, w>|``.

    The noise comes from one generator built from the stream ``rng``, drawn
    in batches of ``min(_BETA_BATCH, _BATCH_BYTES // (32 m))`` vectors
    (at least one): 256 at ``m = 64``, 32 at 1024, 8 at 4096.  Drawing and
    correlating overlap: the calling thread draws batch ``i + 1`` into one
    of two noise slots while one helper thread correlates batch ``i`` in
    the other and takes its maximum.  Both steps run numpy code that
    releases the interpreter lock.  Batches are correlated in order, and a
    slot is refilled only once its batch has been correlated.  The helper
    is joined before this returns or raises, and an exception it raises is
    raised here.  The buffers are allocated once per call and refilled for
    every batch, so they fit ``_BATCH_BYTES`` whatever ``draws`` is, up to
    ``m = 2**15``.  The vectors are drawn in one sequence and
    each correlation is computed row by row, so the value does not depend
    on the batch size or on how the two threads interleave.  The estimate
    for noise level ``sigma`` is exactly ``sigma`` times this value, so one
    pass serves every noise level under the same stream.  Another kind of
    ``rng`` is refused before a draw.
    """
    require_int("draws", draws, 1)
    if not isinstance(rng, RngStream):
        raise ValueError(f"rng must be an RngStream, got {type(rng).__name__}")
    # Built before the helper starts: while it runs, only the helper calls
    # into the library, so a per-process span tracer sees one call stack.
    g = rng.generator()
    rows = max(1, min(_BETA_BATCH, _BATCH_BYTES // (32 * d.m)))
    batches = -(-draws // rows)
    noise = np.empty((2, rows, d.m))
    corr = np.empty((rows, 2 * d.m))
    drawn = threading.Semaphore(0)  # batches drawn and not yet correlated
    free = threading.Semaphore(2)  # noise slots that may be drawn into
    best, error, stop = 0.0, None, False

    def correlate():
        nonlocal best, error
        try:
            for i in range(batches):
                drawn.acquire()
                if stop:
                    return
                k = min(rows, draws - i * rows)
                c = corr[:k]
                d.correlate_all(noise[i % 2, :k], out=c)
                np.abs(c, out=c)
                best = max(best, float(c.max()))
                free.release()
        except BaseException as exc:  # handed to the calling thread
            error = exc
            free.release()

    helper = threading.Thread(target=correlate, name="unit_correlation_max")
    helper.start()
    try:
        for i in range(batches):
            free.acquire()
            if error is not None:
                break
            g.standard_normal(out=noise[i % 2, : min(rows, draws - i * rows)])
            drawn.release()
    except BaseException:
        stop = True
        drawn.release()
        raise
    finally:
        helper.join()
    if error is not None:
        raise error
    return best
