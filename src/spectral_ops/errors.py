"""Exception types shared across the library."""


class InvalidShapeError(ValueError):
    """An operand's rank or extents violate an operation's contract."""


class FormatError(ValueError):
    """A tensor file is corrupt or not in the FTNS format."""


class ConfigError(ValueError):
    """A model/kernel configuration is internally inconsistent."""


class NonFiniteError(ValueError):
    """An operand holds NaN or infinity where an operation needs finite values."""
