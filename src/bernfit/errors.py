"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DataError -> 1, ConfigError -> 2,
NumericalError -> 3.
"""

from numbers import Integral


class BernfitError(Exception):
    """Base class for all package errors."""


class DataError(BernfitError):
    """Input data is malformed, inconsistent, or insufficient."""


class ConfigError(BernfitError):
    """A run configuration or model specification is invalid."""


class NumericalError(BernfitError):
    """A numerical procedure failed to converge or produced invalid output."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class InfeasibleError(ConfigError):
    """The requested constraint system admits no solution.

    ``certificate`` holds the indices of constraint rows whose combination
    proves infeasibility (a Farkas-type certificate).
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate if certificate is not None else []


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, Python's or NumPy's; a bool is none."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def config_cast(value, cast, name: str):
    """``value`` as a ``cast`` (bool, int or float), raising ConfigError for any other type.

    Nothing is coerced: a bool field takes only true or false, an int field an
    integer (4.0 reads as 4, 3.7 is refused) and a float field any number; a
    boolean is no number here, and a string is never one.
    """
    if cast is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    kinds = {bool: bool, int: int, float: (int, float)}[cast]
    if isinstance(value, kinds) and isinstance(value, bool) == (cast is bool):
        try:
            return cast(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be of type {cast.__name__}, got {value!r}")
