"""Random sparse signals and noisy measurements.

A trial signal has a uniformly random size-``tau`` support; nonzero
magnitudes are i.i.d. uniform on ``[s_min, s_max]`` with independent
random signs, and the measurement adds white Gaussian noise of standard
deviation ``sigma``.  A trial draws its signal and then its noise from one
``numpy.random.Generator``, built from the trial's keyed :class:`RngStream`,
so that trials are reproducible and independent of scheduling;
:func:`synthesize` takes one trial or a stack of them, each with its own
generator, and a row of a stack has the bits of that trial alone.  The
rules on ``tau``, the magnitudes and ``sigma`` are those of ``checks``.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .checks import check_magnitudes, check_out, check_sigma, require_int
from .dictionary import Dictionary
from .omp import kept_arrays


@dataclass(frozen=True)
class RngStream:
    """Keyed, reproducible random stream.

    Distinct ``(master_seed, stream_id)`` pairs yield statistically
    independent sequences; identical pairs reproduce the same sequence
    bit for bit on any platform.
    """

    master_seed: int
    stream_id: int

    def __post_init__(self):
        # numpy's own refusals name neither field, and it takes True as 1.
        require_int("master_seed", self.master_seed, 0)
        require_int("stream_id", self.stream_id, 0)

    def generator(self) -> Generator:
        seq = np.random.SeedSequence((self.master_seed, self.stream_id))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class SparseSignal:
    """Length-``n`` vector with exactly ``len(support)`` nonzeros.

    ``support`` is a 1-D integer array of distinct indices into ``values``.
    Off-support entries are zero; on-support magnitudes lie in
    ``[s_min, s_max]``.
    """

    values: np.ndarray
    support: np.ndarray
    s_min: float
    s_max: float

    def __post_init__(self):
        check_magnitudes(self.s_min, self.s_max)
        n, support = len(self.values), self.support
        if not (
            isinstance(support, np.ndarray)
            and support.ndim == 1
            and support.dtype.kind in "iu"
            and np.all((support >= 0) & (support < n))
        ):
            shown = " ".join(repr(support).split())  # numpy wraps a long repr
            raise ValueError(
                f"support must be a 1-D integer array of indices in [0, {n}), got {shown}"
            )
        if len(set(support.tolist())) != len(support):
            raise ValueError("support indices must be distinct")
        mask = np.zeros(n, dtype=bool)
        mask[support] = True
        if np.any(self.values[~mask] != 0.0):
            raise ValueError("nonzero entry outside the support")
        mags = np.abs(self.values[support])
        if len(mags) and not (mags.min() >= self.s_min and mags.max() <= self.s_max):
            raise ValueError("on-support magnitude outside [s_min, s_max]")


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


def synthesize(
    d: Dictionary,
    s: SparseSignal | Iterable[SparseSignal],
    sigma: float,
    rng: Generator | Sequence[Generator],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The measurement ``A @ s + w`` with ``w ~ N(0, sigma^2 I)``: ``(m,)``, or ``(B, m)``.

    ``s`` is one :class:`SparseSignal` and ``rng`` its generator, or ``s`` is
    an iterable of ``B`` signals and ``rng`` one generator for each; then the
    result is a ``(B, m)`` block, a row per signal.  The signals are taken
    one at a time into one stack of coefficients, which goes through one
    :meth:`Dictionary.matvec`; then each noise vector is drawn from its own
    generator.  So each generator's draws come in the order they would
    alone, a lazily drawn signal is kept only until it is stacked, and row
    ``i`` has the bits of signal ``i`` and generator ``i`` alone.

    The noise is drawn at unit variance and scaled by ``sigma`` afterwards,
    so from a fixed generator state the noise vector for ``sigma=c`` is
    exactly ``c`` times the one for ``sigma=1``.  The stack, and then the
    noise in its first ``B m`` entries, use this thread's kept memory
    (:func:`~ompbounds.omp.kept_arrays`); the transform's temporaries are
    fresh.  The result is a fresh array, or ``out``, a C-contiguous float64
    array of its shape.  ``rng`` (not an :class:`RngStream` key) and ``out``
    are checked before any signal is taken.
    """
    check_sigma(sigma)
    signals = iter([s] if isinstance(s, SparseSignal) else s)
    rngs = list(rng) if isinstance(rng, Iterable) else [rng]
    bad = [type(g).__name__ for g in rngs if not isinstance(g, Generator)]
    if bad:
        raise ValueError(f"rng must be a numpy Generator or a sequence of them, got {bad[0]}")
    shape = (d.m,) if isinstance(s, SparseSignal) else (len(rngs), d.m)
    if out is None:
        out = np.empty(shape)
    else:
        check_out(out, shape)
    (coefficients,) = kept_arrays("coefficients", [(len(rngs), d.n)])
    rows = 0
    for row, x in zip(coefficients, signals):
        if len(x.values) != d.n:
            raise ValueError(f"signal length {len(x.values)} != dictionary n={d.n}")
        row[:] = x.values
        rows += 1
    given = rows + sum(1 for _ in signals)
    if given != len(rngs):
        raise ValueError(f"{given} signals need as many generators, got {len(rngs)}")
    observed = d.matvec(coefficients, out=out.reshape(-1, d.m))
    # The stack is spent: the noise goes in its first B m entries.
    noise = coefficients.reshape(-1)[: observed.size].reshape(observed.shape)
    for w, g in zip(noise, rngs):
        g.standard_normal(out=w)
    noise *= sigma
    observed += noise
    return out
