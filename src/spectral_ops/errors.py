"""Exception types shared across the library."""

import numpy as np


class InvalidShapeError(ValueError):
    """An operand's rank or extents violate an operation's contract."""


class FormatError(ValueError):
    """A tensor file is corrupt or not in the FTNS format."""


class ConfigError(ValueError):
    """A model/kernel configuration is internally inconsistent."""


class NonFiniteError(ValueError):
    """An operand holds NaN or infinity where an operation needs finite values."""


def require_finite(**operands) -> None:
    """Raise NonFiniteError naming the first operand that holds a NaN or an
    infinity (None is skipped): through an FFT one such value reaches every output."""
    for name, a in operands.items():
        if a is not None and not np.isfinite(a).all():
            raise NonFiniteError(f"{name} holds a NaN or infinite value")
