"""Exception types shared across the package, and the rule for the whole
numbers that steer it: counts, sizes and seeds."""

from numbers import Integral


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
