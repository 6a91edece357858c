"""Exception hierarchy.

Every error carries a stable machine-readable ``code`` (used by the CLI
for one-line diagnostics) and an ``exit_code`` grouping it into one of
three classes: 2 validation, 3 I/O, 4 domain.
"""


class LpnError(Exception):
    """Base class for all package errors."""

    code = "error"
    exit_code = 2


class InvalidParameterError(LpnError):
    code = "invalid-parameter"


class DelayTooSmallError(InvalidParameterError):
    code = "delay-too-small"


class PathTooShortError(LpnError):
    code = "path-too-short"


class TraceTooShortError(LpnError):
    code = "trace-too-short"


class EmptyTraceError(LpnError):
    code = "empty-trace"


class EmptyPsdError(LpnError):
    code = "empty-psd"


class LengthMismatchError(LpnError):
    code = "length-mismatch"


class TooFewBitsError(LpnError):
    code = "too-few-bits"


class AmbiguousInputError(LpnError):
    code = "ambiguous-input"


class MissingMetadataError(LpnError):
    code = "missing-metadata"
    exit_code = 3


class VarianceOutOfRangeError(LpnError):
    code = "variance-out-of-range"
    exit_code = 4


class ClassicalExceedsMeasuredError(LpnError):
    code = "classical-exceeds-measured"
    exit_code = 4


class AllPointsFailedError(LpnError):
    code = "all-points-failed"
    exit_code = 4
