"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DataError -> 1, ConfigError -> 2,
NumericalError -> 3.
"""


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


def config_cast(value, cast, name: str):
    """``cast(value)``, raising ConfigError if the value has the wrong type.

    A bool field takes only true or false, since bool() accepts any value.
    """
    try:
        if cast is bool and not isinstance(value, bool):
            raise TypeError
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be of type {cast.__name__}, got {value!r}") from None
