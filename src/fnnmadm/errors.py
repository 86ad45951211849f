"""Exception hierarchy shared across the library."""


class FnnError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FnnError):
    """A raw value failed the construction-time validity rules."""


class SpreadNonPositive(ValidationError):
    """Spread parameter xi must be strictly positive."""


class NotFinite(ValidationError):
    """A location, spread or distance was NaN or infinite, as given or
    after a float64 overflow."""


class MembershipOutOfRange(ValidationError):
    """A membership degree fell outside [0, 1]."""


class CubicSumExceeded(ValidationError):
    """The cubic sum of membership degrees exceeded its bound."""


class WeightNonPositive(FnnError):
    """Scalar weight for scaling/powering must be strictly positive."""


class NormalDomainError(FnnError):
    """Fractional power of a negative location parameter."""


class LambdaInvalid(FnnError):
    """The operation parameter must be a real number >= 1."""


class LengthMismatch(FnnError):
    """Items and weights (or row widths) disagree in length."""


class DuplicateLabel(FnnError):
    """Alternative or attribute labels must be unique."""


class WeightInvalid(FnnError):
    """Weight vector entries must be positive and sum to 1."""


class ZeroLocation(FnnError):
    """Normalization needs every location parameter to be positive."""


class EmptyInput(FnnError):
    """An aggregate or extremum of zero values is undefined."""


class UnknownName(FnnError, KeyError):
    """An operator or metric name that is not one of the choices."""

    __str__ = FnnError.__str__  # the message as given, not KeyError's repr of it


class DegenerateCloseness(FnnError):
    """Both ideal distances vanished, leaving closeness undefined."""


class ParseError(FnnError):
    """A problem file could not be parsed; carries the offending location."""

    def __init__(self, reason: str, row: int | None = None, col: int | None = None):
        self.reason = reason
        self.row = row
        self.col = col
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {col})" if col is not None else ")")
        super().__init__(reason + where)
