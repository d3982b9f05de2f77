"""Exception types shared across the package.

Everything derives from :class:`CrpstailError` so callers can catch broadly;
the subclasses exist because calling code (and the CLI exit-code mapping)
needs to tell parameter misuse, data problems, and numerical failures apart.
"""


class CrpstailError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CrpstailError, ValueError):
    """A parameter is outside its admissible range (``row``: the batch row at fault)."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DomainError(CrpstailError, ValueError):
    """An argument (probability level, support point, ...) is out of domain."""


class UnsupportedFamilyError(CrpstailError, ValueError):
    """The requested closed form or operation is not defined for this family."""


class InfiniteMeanError(CrpstailError, ValueError):
    """The score requires a finite mean and the distribution has none."""


class DivergenceError(CrpstailError, ValueError):
    """A required integral diverges for the given distribution/weight pair."""


class ConditioningError(CrpstailError, ValueError):
    """Conditioning event has probability zero (e.g. survival(u) == 0)."""


class ConstructionError(CrpstailError, ValueError):
    """A composite object (tail splice, ...) violates its validity conditions."""


class InsufficientDataError(CrpstailError, ValueError):
    """Not enough data points for the requested estimate."""


class DegenerateDataError(CrpstailError, ValueError):
    """Input data carry no usable variation (e.g. all values equal)."""


class DataFormatError(CrpstailError, ValueError):
    """A record file or serialized object does not match the documented schema."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
