"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors exit 2 (argparse),
DataError exits 3, as does a ValueError raised for an
option value the library rejects; NumericError exits 4.
"""


class EvosError(Exception):
    """Base class for package errors."""


class DataError(EvosError):
    """Malformed, missing, or degenerate input data."""


class NumericError(EvosError):
    """Non-finite values where finite ones are required (diverged training,
    NaN/Inf gradients)."""
