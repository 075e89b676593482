"""Exception types shared across the package, and the rules for the
numbers that steer it: counts, seeds, rates and distribution parameters."""

from math import inf, nan
from numbers import Integral, Real


class EdrepError(Exception):
    """Base class for all library errors."""


class ValidationError(EdrepError):
    """Input violates a documented precondition or invariant."""


class DimensionError(ValidationError):
    """Matrix shapes are not conformable."""


class NumericError(EdrepError):
    """A computation left (or would leave) the finite floating-point range."""


def check_whole(value, name: str, least: int, most: int | None = None):
    """``value`` unchanged if it is an integer (numpy's included) from
    ``least`` to ``most``, or of at least ``least`` if ``most`` is None.
    A bool, a float (2.0 included), a string or None is refused, never
    truncated: one ValidationError names the parameter and the value."""
    whole = isinstance(value, Integral) and not isinstance(value, bool)
    if not (whole and least <= value and (most is None or value <= most)):
        bound = f"of at least {least}" if most is None else f"from {least} to {most}"
        raise ValidationError(f"{name} must be a whole number {bound}, got {value!r}")
    return value


def check_real(value, name: str, high: float = inf, closed: bool = False) -> float:
    """``value`` as a float (so a numpy float32 brings no float32 arithmetic)
    if it is a real number in (0, ``high``), or (0, ``high``] if ``closed``.
    A bool, NaN, a complex number, a string, None or an integer past float's
    range is refused: one ValidationError names the parameter and the value."""
    try:
        x = float(value) if isinstance(value, Real) and not isinstance(value, bool) else nan
    except OverflowError:
        x = nan
    if not (0 < x and (x <= high if closed else x < high)):
        bound = f"(0, {high}{']' if closed else ')'}"
        raise ValidationError(f"{name} must be a real number in {bound}, got {value!r}")
    return x
