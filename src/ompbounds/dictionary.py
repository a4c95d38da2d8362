"""Measurement dictionaries with fast coherence and correlation queries.

The workhorse is the identity-Hadamard concatenation ``A = [I, H/sqrt(m)]``
(an ``m x 2m`` dictionary whose mutual coherence is exactly ``1/sqrt(m)``).
Its Hadamard half is never stored.  Because ``H_m = H_p (x) H_q`` (a
Kronecker product of two small Sylvester matrices with ``p q = m``), only
the two factors are kept: atoms are outer products of one row of each, and
correlations and matrix-vector products are two small BLAS matrix
products, ``H_p @ X @ H_q`` with ``X`` the vector reshaped to ``(p, q)``.
It is the only dictionary the library builds, and it is never materialized:
tests build its dense form with ``tests/oracles.py::dense_identity_hadamard``
and other dictionaries with ``tests/oracles.py::DenseDictionary``.
"""

import functools
import math

import numpy as np

from .checks import check_m, check_out, require_int


@functools.cache
def _sylvester(n: int) -> np.ndarray:
    """Read-only Sylvester Hadamard matrix of order ``n`` (a power of two)."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _kronecker_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(H_p, H_q)`` with ``H_n = H_p (x) H_q``, ``p = 2^floor(log2(n)/2)``, ``q = n/p``."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"fwht length must be a power of two, got {n}")
    p = 1 << ((n.bit_length() - 1) // 2)
    return _sylvester(p), _sylvester(n // p)


def _kronecker_apply(
    x: np.ndarray, hp: np.ndarray, hq: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``(hp (x) hq) @ v`` for every length-``p q`` vector ``v``, given as ``(p, q)`` matrices.

    ``x`` has shape ``(..., p, q)``: each vector ``v`` reshaped to a matrix
    ``X``, which maps to ``hp @ X @ hq.T``; the factors used here are
    symmetric, so ``hq.T`` is ``hq``.  Stacked inputs go through one matrix
    product per vector, so a row of a batch is computed exactly as it
    would be alone.  The result has the shape of ``x``; ``out``, if given,
    must have that shape and receives it.
    """
    return np.matmul(hp, x @ hq, out=out)


def fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    Uses the Sylvester (natural) ordering, i.e. ``fwht(x) == H_n @ x`` for
    the recursive construction ``H_2n = [[H_n, H_n], [H_n, -H_n]]``.  The
    transform is an involution up to scale: applying it twice multiplies
    the input by ``n``.

    It is computed Kronecker-factored: with ``H_n = H_p (x) H_q``,
    ``p = 2^floor(log2(n)/2)`` and ``q = n/p``, each vector reshaped to
    ``(p, q)`` becomes ``H_p @ X @ H_q``, two BLAS matrix products costing
    ``O(n^1.5)`` flops per vector.  That is more arithmetic than the
    ``O(n log n)`` butterfly but far fewer interpreter-level steps.  The
    sums are taken in another order than the butterfly's, so results may
    differ from it in the last bits (at most 7.1e-14 at ``n = 1024`` and
    2.3e-13 at ``n = 4096`` on standard normal input).  They are still
    deterministic: a given input gives the same bits with one BLAS thread
    or the default number, and a row of a batch equals the same vector
    transformed alone, so sweeps stay byte-identical at any worker count.  The factors
    are built on first use of each ``n`` and cached.
    """
    a = np.asarray(x, dtype=np.float64)
    hp, hq = _kronecker_factors(a.shape[-1])
    mats = a.reshape(a.shape[:-1] + (hp.shape[0], hq.shape[0]))
    return _kronecker_apply(mats, hp, hq).reshape(a.shape)


class Dictionary:
    """The ``m x 2m`` identity-Hadamard dictionary ``[I, H/sqrt(m)]``.

    Instances are immutable after construction and safe to share across
    concurrent trials.  ``m`` is an integer power of two ``>= 2``.  The
    Kronecker factors are built on first use, so asking only for ``m``,
    ``n`` or the coherence allocates nothing of size ``m``.
    """

    def __init__(self, m: int):
        check_m(m)
        self.m = int(m)
        self.n = 2 * self.m
        self._inv_sqrt_m = 1.0 / math.sqrt(self.m)

    @functools.cached_property
    def _hp_scaled(self) -> np.ndarray:
        # H_m / sqrt(m) = (H_p / sqrt(m)) (x) H_q: the scale is folded
        # into the left factor, so every product of factor entries is
        # exactly +-1/sqrt(m).
        return _kronecker_factors(self.m)[0] * self._inv_sqrt_m

    @functools.cached_property
    def _hq(self) -> np.ndarray:
        return _kronecker_factors(self.m)[1]

    def __reduce__(self):
        # Workers rebuild the factors from m instead of unpickling them.
        return (build_identity_hadamard, (self.m,))

    def column(self, j: int) -> np.ndarray:
        """Return atom ``j``, an integer in ``[0, n)``, as a length-``m`` unit vector."""
        require_int("j", j, 0, self.n - 1)
        if j < self.m:
            e = np.zeros(self.m)
            e[j] = 1.0
            return e
        # Hadamard column j - m = i q + k is row i of the scaled H_p times
        # row k of H_q, flattened: exact, since each entry is +-1/sqrt(m).
        i, k = divmod(j - self.m, self._hq.shape[0])
        return np.multiply.outer(self._hp_scaled[i], self._hq[k]).reshape(self.m)

    def correlate_all(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inner products of every atom with ``r``: the OMP selection statistic.

        ``r`` has shape ``(m,)`` or ``(..., m)`` (applied along the last
        axis).  The Hadamard half is two small Kronecker-factor products per
        vector, O(m^1.5) flops, written straight into the second half of
        the result.  ``out``, if given, is a C-contiguous float64 array of
        the result's shape ``r.shape[:-1] + (2 m,)``; it receives the
        result and is returned, with the same bits a fresh result would have.
        """
        r = np.asarray(r, dtype=np.float64)
        if r.shape[-1] != self.m:
            raise ValueError(f"vector length {r.shape[-1]} != m={self.m}")
        lead = r.shape[:-1]
        shape = lead + (2 * self.m,)
        if out is None:
            out = np.empty(shape)
        else:
            check_out(out, shape)
        hp, hq = self._hp_scaled, self._hq
        mats = r.reshape(lead + (hp.shape[0], hq.shape[0]))
        # Halves as a leading axis of 2: halves[..., 1, :, :] is a view of
        # out, so the product lands in the result without a copy.
        halves = out.reshape(lead + (2,) + mats.shape[-2:])
        halves[..., 0, :, :] = mats
        _kronecker_apply(mats, hp, hq, out=halves[..., 1, :, :])
        return out

    def matvec(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ s`` for a length-``n`` vector or a ``(B, n)`` stack (:meth:`apply`, checked).

        A row of a stack has the bits of the same vector computed alone.
        ``out`` is as in :meth:`apply`.
        """
        s = np.asarray(s, dtype=np.float64)
        if s.ndim not in (1, 2) or s.shape[-1] != self.n:
            raise ValueError(
                f"coefficient shape {s.shape} is neither ({self.n},) nor (B, {self.n})"
            )
        return self.apply(s, out=out)

    def apply(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ s`` for every length-``n`` vector ``s`` along the last axis.

        The Hadamard halves go through one stacked Kronecker product, so a
        row of a batch is computed exactly as it would be alone, and the
        identity halves are added to it.  ``out``, if given, is a
        C-contiguous float64 array of the result's shape ``s.shape[:-1] +
        (m,)``; it receives the result and is returned.
        """
        s = np.asarray(s, dtype=np.float64)
        if s.shape[-1:] != (self.n,):
            raise ValueError(f"last axis of shape {s.shape} must have length n={self.n}")
        lead = s.shape[:-1]
        shape = lead + (self.m,)
        if out is None:
            out = np.empty(shape)
        else:
            check_out(out, shape)
        hp, hq = self._hp_scaled, self._hq
        mats = s[..., self.m :].reshape(lead + (hp.shape[0], hq.shape[0]))
        _kronecker_apply(mats, hp, hq, out=out.reshape(mats.shape))
        out += s[..., : self.m]
        return out

    @functools.cached_property
    def _signs(self) -> np.ndarray:
        # (-1)^popcount(x) / sqrt(m) for x in [0, m): the last Hadamard
        # atom, exact like every atom.
        return np.multiply.outer(self._hp_scaled[-1], self._hq[-1]).reshape(self.m)

    def gram(self, support: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``<A_i, A_j>`` for ``i`` in each row of ``support`` and that row's ``j``.

        ``support`` has shape ``(..., k)`` and ``j`` shape ``(...)``.  The
        entries are exact: 1 on the diagonal, 0 between distinct atoms of one
        half, and between a unit atom ``e_i`` and a Hadamard atom ``h_c``
        the Sylvester entry ``H[i, c] / sqrt(m) = (-1)^popcount(i & c) /
        sqrt(m)``, which is ``hp_scaled[c // q, i // q] hq[c % q, i % q]``.
        """
        i, c = support, j[..., None]
        # Bit log2(m) of an atom index is its half, and the bits below it
        # are its row or column of H.
        cross = (i ^ c) >> (self.m.bit_length() - 1)
        return self._signs[i & c & (self.m - 1)] * cross + (i == c)

    def mutual_coherence(self) -> float:
        """Maximum absolute inner product over distinct atoms: exactly ``1/sqrt(m)``."""
        return self._inv_sqrt_m


def build_identity_hadamard(m: int) -> Dictionary:
    """Build the ``[I, H/sqrt(m)]`` dictionary for power-of-two ``m >= 2``.

    Columns ``0..m-1`` are the standard basis; columns ``m..2m-1`` are the
    Sylvester-ordered Hadamard columns scaled to unit norm.  The dictionary
    keeps only the two Kronecker factors of ``H_m`` (at most ``sqrt(2m)``
    on a side), with ``1/sqrt(m)`` folded into one of them.
    """
    return Dictionary(m)
