"""Error taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: usage 2, domain 3, capacity/precision 4,
anything else 5.
"""

import math


class MobiusflowError(Exception):
    """Base class for library errors."""


class DomainError(MobiusflowError):
    """Input outside the mathematical domain of an operation."""


class CapacityError(MobiusflowError):
    """Requested computation exceeds a representable-size or memory budget."""


class PrecisionError(MobiusflowError):
    """Requested accuracy cannot be certified from the given inputs."""


def whole(v, refusal: str, lo: float = -float("inf"), hi: float = float("inf")) -> int:
    """v as an int if it is an integer in [lo, hi], a float such as 1e3 included but no
    bool (the one rule for counts, limits, checkpoints and frequencies); else
    DomainError(f"{refusal}, got {v!r}")."""
    try:
        if not isinstance(v, bool) and v == int(v) and lo <= v <= hi:
            return int(v)
    except (TypeError, ValueError, OverflowError):  # int() of None, NaN or an infinity
        pass
    raise DomainError(f"{refusal}, got {v!r}")


def finite(v, refusal: str, kind=float):
    """kind(v), a float or an exact Fraction, if v is a finite number (the one rule for
    points, translations and coordinates); NaN and the infinities are refused with
    DomainError(f"{refusal}, got {v!r}")."""
    try:
        x = kind(v)  # Fraction() itself raises on NaN and the infinities
        if kind is not float or math.isfinite(x):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{refusal}, got {v!r}")
