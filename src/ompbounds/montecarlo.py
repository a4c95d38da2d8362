"""Seeded Monte Carlo trials and parameter sweeps of OMP support recovery.

A point runs ``trials`` independent trials: draw a sparse signal, add
noise, run OMP for exactly ``tau`` iterations, and count the trial as a
success when the recovered support equals the planted one
(:func:`count_successes`); :func:`run_point` then puts the success count
next to both bounds.  Point ``i`` of a sweep draws a 64-bit point seed from
``SeedSequence((master_seed, 1 + i))`` and its trial ``t`` owns the stream
``(point_seed, t)`` for ``t = 1..trials``; the outcome is an integer
success count, so results are bit-identical regardless of execution order
or degree of parallelism.  The worst-case ``beta`` estimate runs on
``(master_seed, 0)``, which no trial stream can equal, so ``beta_draws``
never shifts the trials.

A sweep is scheduled as tasks on one executor: the ``beta`` pass first,
then every point's trial chunks, all submitted before any is waited on, so
the ``beta`` pass runs alongside the trials.  Results are then collected
in sweep order.  Neither the schedule nor the chunking changes a result.
"""

import math
import os
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import (
    GuaranteeInputs,
    alpha_from_beta,
    require_finite,
    thm1_condition,
    thm1_probability,
    thm2_bound,
    unit_correlation_max,
)
from .dictionary import Dictionary, build_identity_hadamard, check_m
from .omp import SingularSystemError, omp, support_match
from .signals import RngStream, check_magnitudes, check_sigma, draw_sparse_signal, synthesize

SWEEP_KINDS = ("tau", "s_min", "sigma")


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
    sweep_values: tuple
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
        vals = tuple(self.sweep_values)
        if not vals:
            raise ValueError("sweep_values must be nonempty")
        require_finite("sweep_values", *vals)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep_values must be strictly increasing")
        taus = (self.tau, *vals) if self.sweep == "tau" else (self.tau,)
        if not all(float(t).is_integer() for t in taus):
            raise ValueError(f"tau values must be integers, got {taus}")
        # The fixed point and every swept point obey the same rules.
        points = [(self.tau, self.s_min, self.sigma)] + [self.point(v) for v in vals]
        for tau, s_min, sigma in points:
            if not 1 <= tau <= self.m:
                raise ValueError(f"need 1 <= tau <= {self.m}, got {tau}")
            check_magnitudes(s_min, self.s_max)
            check_sigma(sigma)
        for name in ("trials", "beta_draws"):
            count = getattr(self, name)
            # bool is an int subclass; a float or bool count would reach the CSV.
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")

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
    """Successes over trials ``t_lo..t_hi-1``, each on its own stream.

    ``param_value`` only labels the error of a singular trial.
    """
    count = 0
    for t in range(t_lo, t_hi):
        g = RngStream(master_seed, t).generator()
        signal = draw_sparse_signal(g, d.n, tau, s_min, s_max)
        measurement = synthesize(d, signal, sigma, g)
        try:
            result = omp(d, measurement.observed, tau)
        except SingularSystemError as err:
            raise SingularSystemError(err.iteration, t, master_seed, param_value) from err
        count += support_match(result.support, signal.support)
    return count


class _DeferredFuture(Future):
    """A future whose task runs in the calling thread when its result is first asked for."""

    def __init__(self, fn, args, kwargs):
        super().__init__()
        self._task = (fn, args, kwargs)

    def result(self, timeout=None):
        task, self._task = self._task, None
        if task is not None and self.set_running_or_notify_cancel():
            fn, args, kwargs = task
            try:
                self.set_result(fn(*args, **kwargs))
            except Exception as err:
                self.set_exception(err)
        return super().result(timeout)


class _InProcessExecutor(Executor):
    """Runs each task in the calling process when its result is first asked for.

    One worker takes the same submit-then-collect path as a process pool,
    and a task whose result is never asked for, such as one queued after a
    failed trial, never runs.
    """

    def submit(self, fn, /, *args, **kwargs):
        return _DeferredFuture(fn, args, kwargs)


def _submit_trials(
    pool: Executor,
    d: Dictionary,
    tau: int,
    s_min: float,
    s_max: float,
    sigma: float,
    trials: int,
    master_seed: int,
    param_value: float,
) -> list[Future]:
    """Submit trials ``1..trials`` to ``pool`` in chunks; each future yields a success count."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # Four chunks per core keep the workers busy to the end of a sweep.
    n_chunks = min(4 * (os.cpu_count() or 1), trials)
    edges = np.linspace(1, trials + 1, n_chunks + 1, dtype=int).tolist()
    args = (d, tau, s_min, s_max, sigma, master_seed)
    return [
        pool.submit(_count_successes, *args, lo, hi, param_value)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


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
    pool: Executor | None = None,
) -> int:
    """Number of trials ``1..trials`` under ``master_seed`` that recover the support.

    Given a ``pool``, the trials run on it in chunks; the count is the
    same with or without one.  A singular trial raises
    :class:`SingularSystemError` naming ``param_value``, the trial and its
    stream; the first such trial in trial order is the one reported.
    """
    futures = _submit_trials(
        pool or _InProcessExecutor(), d, tau, s_min, s_max, sigma, trials, master_seed, param_value
    )
    return sum(f.result() for f in futures)


def run_point(
    d: Dictionary,
    tau: int,
    s_min: float,
    s_max: float,
    sigma: float,
    trials: int,
    beta: float,
    successes: int,
    *,
    param_value: float = math.nan,
) -> SweepResult:
    """The record of one parameter point: ``successes`` of ``trials``, plus both bounds.

    ``beta`` is the (externally estimated) worst-case noise correlation;
    both theoretical columns are evaluated with it.  The success count
    comes from :func:`count_successes` or, in a sweep, from the trials
    that :func:`run_sweep` schedules.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials={trials}, got {successes}")
    p_hat = successes / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    g = GuaranteeInputs(
        n=d.n,
        tau=tau,
        mu_max=d.mutual_coherence(),
        s_min=s_min,
        s_max=s_max,
        sigma=sigma,
        beta=beta,
    )
    breakdown = thm2_bound(g)
    cond1 = thm1_condition(g)
    if sigma == 0.0:
        # Noiseless limit: the probability factor tends to 1, leaving the
        # sharp condition (with beta = 0) as the whole guarantee.
        prob1 = 1.0 if cond1 else 0.0
    else:
        ab = alpha_from_beta(beta, sigma, d.n)
        prob1 = thm1_probability(g, ab.alpha) if ab.valid else 0.0
    return SweepResult(
        param_value=float(param_value),
        tau=int(tau),
        s_min=float(s_min),
        s_max=float(s_max),
        sigma=float(sigma),
        beta=float(beta),
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
    ``(master_seed, 0)``; it scales exactly linearly in ``sigma``, so a
    sigma sweep re-estimates it per point while other sweeps share one
    value.

    Schedule: the ``beta`` pass and then every point's trial chunks are
    submitted to one executor before any result is waited on, so no
    trial waits for ``beta`` and no point waits for the one before it.
    ``workers > 1`` uses a process pool; ``workers == 1`` uses an
    in-process executor that runs each task when its result is first asked
    for.  Records are then built in sweep order, so the first failure in
    sweep order is the one raised, whatever finished first; on any failure
    the chunks not yet started are cancelled.  Every number returned is
    independent of the schedule and of ``workers``.
    """
    d = build_identity_hadamard(cfg.m)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else _InProcessExecutor()
    with pool:
        try:
            unit_max = pool.submit(
                unit_correlation_max, d, cfg.beta_draws, RngStream(cfg.master_seed, 0)
            )
            points = []
            for i, value in enumerate(cfg.sweep_values):
                tau, s_min, sigma = cfg.point(value)
                seed = _point_master_seed(cfg.master_seed, i)
                chunks = _submit_trials(
                    pool, d, tau, s_min, cfg.s_max, sigma, cfg.trials, seed, float(value)
                )
                points.append((value, tau, s_min, sigma, chunks))
            results = []
            for value, tau, s_min, sigma, chunks in points:
                successes = sum(f.result() for f in chunks)
                results.append(
                    run_point(
                        d,
                        tau,
                        s_min,
                        cfg.s_max,
                        sigma,
                        cfg.trials,
                        sigma * unit_max.result(),
                        successes,
                        param_value=float(value),
                    )
                )
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return results
