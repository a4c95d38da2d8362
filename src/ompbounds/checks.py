"""Input rules, the lowest module of the package.

Every public boundary states the rules of its inputs with these helpers.
Each raises ``ValueError`` with a one-line message that names the input.
"""

import math

import numpy as np


def require_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer in ``[lo, hi]`` (``>= lo`` if no ``hi``).

    A Python or numpy integer passes.  A bool and any float, even a whole
    one, are refused: as a count or a size it would change a reported
    number, or reach the CSV as a float or a boolean, without an error.
    """
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (is_int and lo <= value and (hi is None or value <= hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def require_finite(name: str, *values) -> None:
    """Raise ``ValueError`` if any of ``values``, all named ``name``, is NaN or infinite.

    A NaN compares false against every bound, so range checks alone let it
    through and it surfaces later as a confident-looking wrong number.
    """
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def check_magnitudes(s_min: float, s_max: float) -> None:
    """Raise ``ValueError`` unless ``0 < s_min <= s_max``, both finite."""
    require_finite("s_min", s_min)
    require_finite("s_max", s_max)
    if not 0.0 < s_min <= s_max:
        raise ValueError(f"need 0 < s_min <= s_max, got {s_min}, {s_max}")


def check_sigma(sigma: float) -> None:
    """Raise ``ValueError`` unless the noise deviation ``sigma`` is finite and nonnegative."""
    require_finite("sigma", sigma)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")


def check_m(m) -> None:
    """Raise ``ValueError`` unless ``m`` is an integer power of two ``>= 2``."""
    require_int("m", m, 2)
    if m & (m - 1):
        raise ValueError(f"m must be a power of two >= 2, got {m!r}")
