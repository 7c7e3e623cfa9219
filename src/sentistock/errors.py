"""Exception types shared across the pipeline.

Every recoverable input, validation, or numerical failure raises a subclass
of :class:`PipelineError` so callers (and the CLI) have a single catch point.
"""


class PipelineError(Exception):
    """Base class for all validation and processing errors."""


class ConfigError(PipelineError, ValueError):
    """A setting is out of range (epochs, lookback, split fraction, ...)."""


# ingestion

class MissingColumn(PipelineError):
    """A column named in the schema map is absent from the CSV header."""


class DuplicateDate(PipelineError):
    """Two OHLCV rows share the same calendar date."""


class NotUtf8(PipelineError):
    """An input file (CSV, JSONL, lexicon TSV, or config INI) holds bytes that are not UTF-8."""


class EmptyInput(PipelineError):
    """An input stream yielded no usable records."""


class InvalidBar(PipelineError):
    """An OHLCV row violates a bar-level constraint (price box, volume sign)."""


class DateParseError(PipelineError):
    """A date column fits neither supported date format."""


class EmptyTradingCalendar(PipelineError):
    """Tweet alignment was asked to run against an empty trading calendar."""


# sentiment

class DuplicateTerm(PipelineError):
    """The lexicon lists the same term more than once."""


class PolarityOutOfRange(PipelineError):
    """A lexicon polarity falls outside [-1, 1]."""


class MalformedRow(PipelineError):
    """A lexicon row does not have the expected shape or value types."""


# feature pipeline

class AllMissingColumn(PipelineError):
    """A numeric field has no present value inside the training range."""


class DegenerateRange(PipelineError):
    """A feature column is constant over the training rows."""


class ShapeMismatch(PipelineError):
    """Array shapes do not line up with the declared parameters."""


class MissingSentimentDate(PipelineError):
    """A trading date has no sentiment record (hisa mode only)."""


class TooFewRows(PipelineError):
    """Not enough rows to build the requested split or windows."""


# model

class NonFiniteLoss(PipelineError):
    """Training loss became NaN or infinite; carries the offending epoch."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training loss became non-finite at epoch {epoch}")


class CheckpointFormatError(PipelineError):
    """The checkpoint document is not JSON or lacks or misshapes a field."""


class CheckpointVersionError(CheckpointFormatError):
    """The checkpoint document declares a version this code cannot load."""


# evaluation

class ZeroActual(PipelineError):
    """MAPE is undefined when an actual value is zero."""


class LengthMismatch(PipelineError):
    """Two series that must align have different lengths."""
