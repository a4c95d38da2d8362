"""Input rules, the lowest module of the package.

Every public boundary states the rules of its inputs with these helpers:
``require_int`` for a count, size, index or seed, ``require_real`` for a
real parameter (``require_scale`` for ``sigma`` and ``beta``), and
``check_magnitudes``, ``check_sigma`` and ``check_m`` for the rules that
several boundaries share.  Each raises ``ValueError`` with a one-line
message that names the input.
"""

import math

import numpy as np

# Python ints and numpy integers are finite by construction; math.isfinite
# would overflow on a Python int beyond the float range.
_INTS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
# The positive reals whose square is a normal float, ends included.
_SCALE_MIN = math.sqrt(np.finfo(float).tiny)
_SCALE_MAX = math.sqrt(np.finfo(float).max)


def require_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer in ``[lo, hi]`` (``>= lo`` if no ``hi``).

    A Python or numpy integer passes.  A bool and any float, even a whole
    one, are refused: as a count or a size it would change a reported
    number, or reach the CSV as a float or a boolean, without an error.
    """
    is_int = isinstance(value, _INTS) and not isinstance(value, bool)
    if not (is_int and lo <= value and (hi is None or value <= hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def require_real(name: str, value, *, gt=None, ge=None, lt=None) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite real ``> gt``, ``>= ge`` and ``< lt``.

    A Python or numpy int or float passes; a bound left ``None`` is not
    checked.  A bool, numpy's included, is refused: ``True`` would pass as
    ``1.0``.  NaN and infinities are refused too: a NaN compares false
    against every bound, so range checks alone let it through and it
    surfaces later as a confident-looking wrong number.
    """
    if (
        type(value) is not bool
        and isinstance(value, _REALS)
        and (isinstance(value, _INTS) or math.isfinite(value))
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
    ):
        return
    bounds = ((" >", gt), (" >=", ge), (" <", lt))
    rule = " and".join(f"{op} {b}" for op, b in bounds if b is not None)
    raise ValueError(f"{name} must be a finite real{rule}, got {value!r}")


def require_scale(name: str, value, *, gt=None, ge=None) -> None:
    """:func:`require_real`, and refuse a positive ``value`` whose square is not a normal float.

    The bounds divide by ``2 sigma^2``: a square that underflows to zero
    divides by zero, one that overflows raises, and a subnormal one gives a
    confident wrong probability.
    """
    require_real(name, value, gt=gt, ge=ge)
    if value > 0 and not _SCALE_MIN <= value <= _SCALE_MAX:
        rule = f"when positive, in [{_SCALE_MIN:.4g}, {_SCALE_MAX:.4g}]"
        raise ValueError(f"{name} must square to a normal float: {rule}, got {value!r}")


def check_magnitudes(s_min: float, s_max: float) -> None:
    """Raise ``ValueError`` unless ``0 < s_min <= s_max``."""
    require_real("s_min", s_min, gt=0)
    require_real("s_max", s_max, ge=s_min)


def check_sigma(sigma: float) -> None:
    """Raise ``ValueError`` unless the noise deviation ``sigma`` is 0 or a positive scale."""
    require_scale("sigma", sigma, ge=0)


def check_m(m) -> None:
    """Raise ``ValueError`` unless ``m`` is an integer power of two ``>= 2``."""
    require_int("m", m, 2)
    if m & (m - 1):
        raise ValueError(f"m must be a power of two >= 2, got {m!r}")
