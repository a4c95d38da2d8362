"""Seeded Monte Carlo trials and parameter sweeps of OMP support recovery.

A point runs ``trials`` independent trials: draw a sparse signal, add
noise, run OMP for exactly ``tau`` iterations, and count the trial as a
success when the recovered support equals the planted one
(:func:`count_successes`); :func:`run_point` then puts the success count
next to both bounds at the point's :class:`GuaranteeInputs`, thm1 as
:func:`thm1` reports it.  Point ``i`` of a sweep draws a 64-bit point seed
from ``SeedSequence((master_seed, 1 + i))`` and its trial ``t = 1..trials``
owns the stream ``(point_seed, t)``; the outcome is an integer success
count, so results are bit-identical regardless of execution order or
degree of parallelism.  The worst-case ``beta`` estimate runs on
``(master_seed, 0)``, which no trial stream can equal, so ``beta_draws``
never shifts the trials.

A point's trials are cut once, alike on any host, into chunks that each
draw their trials in order, synthesize them in one stacked transform and
solve them in one lockstep ``omp`` call; a row's result does not depend on
its batch, so neither does a count.

A sweep is one ordered task list, the ``beta`` pass and then every point's
trial chunks; results are taken in that order.  One worker runs each task
when its result is reached; a process pool is given every task before any
result is awaited, so the ``beta`` pass runs alongside the trials.  The
pool is imported only then, so a serial process never loads
``multiprocessing``.  Every point's bound inputs are checked as soon
as the ``beta`` pass returns, before any trial result is taken.  Neither
the schedule nor the chunking changes a result.  Counts, ``tau``, seeds and
``workers`` may be numpy integers; a record stores counts as ``int``.
"""

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice, pairwise

import numpy as np

from .bounds import (
    GuaranteeInputs,
    alpha_from_beta,
    thm1_condition,
    thm1_probability,
    thm2_bound,
    unit_correlation_max,
)
from .checks import check_m, check_magnitudes, check_sigma, require_int
from .dictionary import Dictionary, build_identity_hadamard
from .omp import SingularSystemError, batch_rows, kept_arrays, omp, support_match
from .signals import RngStream, draw_sparse_signal, synthesize

SWEEP_KINDS = ("tau", "s_min", "sigma")

# The fewest trial chunks a sweep point is cut into (fewer only if there are
# fewer trials), on any host.  Fewer chunks make larger lockstep batches but
# leave less to share among workers: a 64-trial point at m = 1024 runs as
# five batches of 12-13 rows, up to the 13 that fit at tau = 60.  Five is the
# fewest at which a point of five trials still solves each trial in its own
# omp call, which the benchmark's span tests count.
_CHUNKS = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: vary ``sweep`` over ``sweep_values``, fix the rest.

    Each name in ``SWEEP_KINDS`` is the field that a sweep value replaces;
    :meth:`point` does the replacement.  ``sigma`` is the noise standard
    deviation throughout (variances from experiment write-ups must be
    square-rooted; the CLI accepts a ``sigma_sq`` alias that does the
    conversion).
    """

    m: int
    sweep: str
    sweep_values: tuple  # from any iterable, so a generator runs once and a config hashes
    tau: int
    s_min: float
    s_max: float
    sigma: float
    trials: int = 5000
    beta_draws: int = 10_000
    master_seed: int = 0

    def __post_init__(self):
        check_m(self.m)
        if self.sweep not in SWEEP_KINDS:
            raise ValueError(f"sweep must be one of {SWEEP_KINDS}, got {self.sweep!r}")
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty")
        # The fixed point and every swept value, as given, obey the same rules.
        fixed = {"tau": self.tau, "s_min": self.s_min, "sigma": self.sigma}
        for given in [fixed] + [{**fixed, self.sweep: v} for v in self.sweep_values]:
            require_int("tau", given["tau"], 1, self.m)
            check_magnitudes(given["s_min"], self.s_max)
            check_sigma(given["sigma"])
        if any(b <= a for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise ValueError("sweep_values must be strictly increasing")
        require_int("trials", self.trials, 1)
        require_int("beta_draws", self.beta_draws, 1)
        require_int("master_seed", self.master_seed, 0)

    def point(self, value) -> tuple[int, float, float]:
        """``(tau, s_min, sigma)`` at one sweep value."""
        fixed = {"tau": self.tau, "s_min": self.s_min, "sigma": self.sigma, self.sweep: value}
        return int(fixed["tau"]), float(fixed["s_min"]), float(fixed["sigma"])


@dataclass(frozen=True)
class SweepResult:
    """One sweep point: its parameters, empirical success ratio and both guarantees.

    After ``param_value`` the fields follow the sweep CSV's column order.
    """

    param_value: float
    tau: int
    s_min: float
    s_max: float
    sigma: float
    beta: float
    trials: int
    successes: int
    empirical_prob: float
    mc_stderr: float
    thm1_condition: bool
    thm1_prob: float
    thm2_condition: bool
    thm2_prob: float


def _chunks(d: Dictionary, tau: int, trials: int) -> list[tuple[int, int]]:
    """``min(_CHUNKS, trials)`` ranges ``[lo, hi)`` of trials, or more so each fits one batch."""
    n_chunks = max(min(_CHUNKS, trials), -(-trials // batch_rows(d.n, tau)))
    return list(pairwise(1 + i * trials // n_chunks for i in range(n_chunks + 1)))


def _count_successes(
    d: Dictionary,
    tau: int,
    s_min: float,
    s_max: float,
    sigma: float,
    master_seed: int,
    t_lo: int,
    t_hi: int,
    param_value: float,
) -> int:
    """Successes over trials ``t_lo..t_hi-1``, each on its own stream, in one ``omp`` call.

    Each trial draws its signal and then its noise from its own stream; the
    chunk is synthesized in one stacked :func:`synthesize` into this
    thread's kept block of measurements (:func:`~ompbounds.omp.kept_arrays`),
    which goes to ``omp`` as it is.  ``param_value`` only labels the error
    of a singular trial, the first in trial order.
    """
    streams = [RngStream(master_seed, t).generator() for t in range(t_lo, t_hi)]
    signals = [draw_sparse_signal(g, d.n, tau, s_min, s_max) for g in streams]
    (observed,) = kept_arrays("observed", [(len(streams), d.m)])
    synthesize(d, signals, sigma, streams, out=observed)
    try:
        result = omp(d, observed, tau)
    except SingularSystemError as err:
        raise SingularSystemError(err.iteration, t_lo + err.row, master_seed, param_value) from err
    return sum(support_match(found, x.support) for found, x in zip(result.support, signals))


def count_successes(
    d: Dictionary,
    tau: int,
    s_min: float,
    s_max: float,
    sigma: float,
    trials: int,
    master_seed: int,
    *,
    param_value: float = math.nan,
) -> int:
    """Number of trials ``1..trials`` under ``master_seed`` that recover the support.

    The trials run here in a sweep's chunks, its floor of ``_CHUNKS``
    included, so both make the same ``omp`` calls.  A singular one raises
    :class:`SingularSystemError` naming ``param_value``, the trial and its
    stream; the first such trial in trial order is the one reported.
    """
    require_int("tau", tau, 1, d.m)
    require_int("trials", trials, 1)
    require_int("master_seed", master_seed, 0)
    args = (d, tau, s_min, s_max, sigma, master_seed)
    return sum(_count_successes(*args, lo, hi, param_value) for lo, hi in _chunks(d, tau, trials))


def thm1(g: GuaranteeInputs, alpha: float | None = None) -> tuple[bool, float, float | None, str]:
    """thm1 as reported at one point: ``(condition, probability, alpha, source)``.

    ``source`` is ``"given"`` for a given ``alpha``, which must be finite and
    positive; else ``"undefined"`` at ``sigma = 0``, whose noiseless limit
    leaves the condition alone; else ``"derived"`` from ``beta > 0``, or
    ``"derived, invalid"`` with probability 0 when that alpha is not positive.
    """
    condition = thm1_condition(g)
    if alpha is not None:
        return condition, thm1_probability(g, alpha), alpha, "given"
    if g.sigma == 0.0:
        return condition, 1.0 if condition else 0.0, None, "undefined"
    ab = alpha_from_beta(g.beta, g.sigma, g.n)
    if not ab.valid:
        return condition, 0.0, ab.alpha, "derived, invalid"
    return condition, thm1_probability(g, ab.alpha), ab.alpha, "derived"


def run_point(
    g: GuaranteeInputs, trials: int, successes: int, *, param_value: float = math.nan
) -> SweepResult:
    """The record of one parameter point: ``successes`` of ``trials``, plus both bounds at ``g``.

    ``g.beta`` is the (externally estimated) worst-case noise correlation;
    both theoretical columns are evaluated at ``g``, thm1 by :func:`thm1`,
    and the record's point parameters are ``g``'s.  The success count comes
    from :func:`count_successes` or, in a sweep, from the trials that
    :func:`run_sweep` schedules.
    """
    require_int("trials", trials, 1)
    require_int("successes", successes, 0, trials)
    trials, successes = int(trials), int(successes)
    p_hat = successes / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    breakdown = thm2_bound(g)
    cond1, prob1, _, _ = thm1(g)
    return SweepResult(
        param_value=float(param_value),
        tau=int(g.tau),
        s_min=float(g.s_min),
        s_max=float(g.s_max),
        sigma=float(g.sigma),
        beta=float(g.beta),
        trials=trials,
        successes=successes,
        empirical_prob=p_hat,
        mc_stderr=stderr,
        thm1_condition=cond1,
        thm1_prob=prob1,
        thm2_condition=breakdown.condition_ok,
        thm2_prob=breakdown.probability,
    )


def _point_master_seed(master_seed: int, point_index: int) -> int:
    """Fresh 64-bit master seed for one sweep point (trial streams live under it)."""
    seq = np.random.SeedSequence((master_seed, 1 + point_index))
    return int(seq.generate_state(1, np.uint64)[0])


def run_sweep(cfg: ExperimentConfig, *, workers: int = 1) -> list[SweepResult]:
    """Run one point per sweep value; deterministic given ``master_seed``.

    ``beta`` comes from a single worst-case pass on stream
    ``(master_seed, 0)`` at unit noise; it scales exactly linearly in
    ``sigma``, so each point's ``beta`` is its ``sigma`` times that pass's
    maximum, and a sigma sweep needs no second pass.

    ``workers`` is an integer in ``[1, tasks]``.  The sweep is one ordered
    list of ``tasks``, the ``beta`` pass and then each point's trial chunks
    from :func:`_chunks`, one ``omp`` call each, mapped lazily and in order.  At
    one worker each task runs in this process when its result is reached, so
    nothing after a failed trial runs.  At more, every task is submitted to
    one process pool before any result is awaited, so the ``beta`` pass runs
    alongside the trials and no point waits for the one before it.  Once the
    ``beta`` pass returns, every point's :class:`GuaranteeInputs` is built
    before any trial result is taken, so a point whose bound inputs break a
    rule (a ``beta`` without a normal square, say) stops the sweep at once:
    at one worker before any trial runs.  Records are then built in sweep
    order, so the first failure in sweep order is the one raised, whatever
    finished first; on any exception the chunks not yet started are
    cancelled.  Every number returned is independent of the schedule and of
    ``workers``.
    """
    d = build_identity_hadamard(cfg.m)
    tasks = [partial(unit_correlation_max, d, cfg.beta_draws, RngStream(cfg.master_seed, 0))]
    points = []
    for i, value in enumerate(cfg.sweep_values):
        tau, s_min, sigma = cfg.point(value)
        seed = _point_master_seed(cfg.master_seed, i)
        args = (d, tau, s_min, cfg.s_max, sigma, seed)
        chunks = _chunks(d, tau, cfg.trials)
        tasks += [partial(_count_successes, *args, lo, hi, float(value)) for lo, hi in chunks]
        points.append((tau, s_min, sigma, len(chunks)))
    # A worker beyond the task count would never get a task.
    require_int("workers", workers, 1, len(tasks))
    pool = None
    if workers > 1:
        # Imported here, so that a serial process never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        if pool is None:
            outcomes = (task() for task in tasks)
        else:
            futures = [pool.submit(task) for task in tasks]
            outcomes = (f.result() for f in futures)
        unit_max = next(outcomes)
        mu_max = d.mutual_coherence()
        inputs = [
            GuaranteeInputs(d.n, tau, mu_max, s_min, cfg.s_max, sigma, sigma * unit_max)
            for tau, s_min, sigma, _ in points
        ]
        return [
            run_point(g, cfg.trials, sum(islice(outcomes, n)), param_value=float(value))
            for g, (*_, n), value in zip(inputs, points, cfg.sweep_values)
        ]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
