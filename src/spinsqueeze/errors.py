"""Exception types shared across the package, and the check of an integer count."""

from numbers import Integral


class DomainError(ValueError):
    """Invalid argument for an operation (out of range, mismatched sizes, ...)."""


class DegenerateDirectionError(DomainError):
    """Mean spin too short to define a perpendicular plane."""


class ResourceError(RuntimeError):
    """Requested computation exceeds a hard size limit."""


def check_count(name: str, value, least: int) -> None:
    """Raise DomainError naming the count unless value is an integer, not a bool, of at least least."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        bound = f"an integer of at least {least}" if least else "a nonnegative integer"
        raise DomainError(f"{name} must be {bound}, got {value!r}")
