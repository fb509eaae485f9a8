"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors exit 2 (argparse),
DataError and its subclasses exit 3, as does a ValueError raised for an
option value the library rejects; NumericError exits 4.
"""


class EvosError(Exception):
    """Base class for package errors."""


class DataError(EvosError):
    """Malformed, missing, or degenerate input data."""


class CalibrationError(DataError):
    """Threshold calibration is impossible on the given records
    (e.g. the validation set contains no errors, or no correct predictions)."""


class NumericError(EvosError):
    """Non-finite values where finite ones are required (diverged training,
    NaN/Inf gradients)."""
