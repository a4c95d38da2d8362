"""Random sparse signals and noisy measurements.

A trial signal has a uniformly random size-``tau`` support; nonzero
magnitudes are i.i.d. uniform on ``[s_min, s_max]`` with independent
random signs, and the measurement adds white Gaussian noise of standard
deviation ``sigma``.  A trial draws its signal and then its noise from one
``numpy.random.Generator``, built from the trial's keyed :class:`RngStream`,
so that trials are reproducible and independent of scheduling.  The
rules on ``tau``, the magnitudes and ``sigma`` are those of ``checks``.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .checks import check_magnitudes, check_sigma, require_int
from .dictionary import Dictionary


@dataclass(frozen=True)
class RngStream:
    """Keyed, reproducible random stream.

    Distinct ``(master_seed, stream_id)`` pairs yield statistically
    independent sequences; identical pairs reproduce the same sequence
    bit for bit on any platform.
    """

    master_seed: int
    stream_id: int

    def generator(self) -> Generator:
        seq = np.random.SeedSequence((self.master_seed, self.stream_id))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class SparseSignal:
    """Length-``n`` vector with exactly ``len(support)`` nonzeros.

    Off-support entries are zero; on-support magnitudes lie in
    ``[s_min, s_max]``.
    """

    values: np.ndarray
    support: np.ndarray
    s_min: float
    s_max: float

    def __post_init__(self):
        check_magnitudes(self.s_min, self.s_max)
        if len(set(self.support.tolist())) != len(self.support):
            raise ValueError("support indices must be distinct")
        mask = np.zeros(len(self.values), dtype=bool)
        mask[self.support] = True
        if np.any(self.values[~mask] != 0.0):
            raise ValueError("nonzero entry outside the support")
        mags = np.abs(self.values[self.support])
        if len(mags) and not (mags.min() >= self.s_min and mags.max() <= self.s_max):
            raise ValueError("on-support magnitude outside [s_min, s_max]")


@dataclass(frozen=True)
class Measurement:
    """Observation ``observed = A @ s + noise`` with its noise retained."""

    observed: np.ndarray
    noise: np.ndarray


def draw_support(rng: Generator, n: int, tau: int) -> np.ndarray:
    """First ``tau`` indices of a uniform random permutation of ``0..n-1``.

    Every size-``tau`` subset is equally likely; ``n >= 0`` and ``tau`` in
    ``[0, n]`` are integers.
    """
    require_int("n", n, 0)
    require_int("tau", tau, 0, n)
    return rng.permutation(n)[:tau]


def draw_sparse_signal(rng: Generator, n: int, tau: int, s_min: float, s_max: float) -> SparseSignal:
    """Draw a sparse signal: uniform support, uniform magnitudes, random signs.

    Draw order is fixed (support, then magnitudes, then signs) so a given
    generator state always produces the same signal.  The result satisfies
    every check of :class:`SparseSignal` by construction, so it is built
    without running them again.
    """
    check_magnitudes(s_min, s_max)
    support = draw_support(rng, n, tau)
    magnitudes = rng.uniform(s_min, s_max, size=tau)
    signs = 2.0 * rng.integers(0, 2, size=tau) - 1.0
    values = np.zeros(n)
    values[support] = signs * magnitudes
    signal = object.__new__(SparseSignal)
    vars(signal).update(values=values, support=support, s_min=s_min, s_max=s_max)
    return signal


def synthesize(d: Dictionary, s: SparseSignal, sigma: float, rng: Generator) -> Measurement:
    """Form ``observed = A @ s + w`` with ``w ~ N(0, sigma^2 I)``.

    The noise is drawn at unit variance and scaled by ``sigma`` afterwards,
    so from a fixed generator state the noise vector for ``sigma=c`` is
    exactly ``c`` times the one for ``sigma=1``.
    """
    check_sigma(sigma)
    if len(s.values) != d.n:
        raise ValueError(f"signal length {len(s.values)} != dictionary n={d.n}")
    noise = sigma * rng.standard_normal(d.m)
    return Measurement(observed=d.matvec(s.values) + noise, noise=noise)
