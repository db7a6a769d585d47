"""Error types shared across the package.

Every error the CLI can surface carries a stable ``code`` used as the
prefix of the diagnostic line, so scripts can match on it.
"""


class AlignboundError(Exception):
    """Base class for all package errors."""

    code = "internal"


class LogParseError(AlignboundError):
    code = "parse"


class ModelError(AlignboundError):
    code = "model"


class StateBoundError(ModelError):
    """Raised when a state-space search exceeds the configured bound."""

    code = "state-bound"


class ProxyError(AlignboundError):
    code = "proxy"


class BoundsError(AlignboundError):
    code = "bounds"


class ReportError(AlignboundError):
    code = "report"


class ExperimentError(AlignboundError):
    code = "experiment"


class OutputError(AlignboundError):
    """Raised when an output file cannot be written."""

    code = "output"
