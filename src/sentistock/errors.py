"""Exception types shared across the pipeline.

Every recoverable input, validation, or numerical failure raises
:class:`PipelineError`, and its message names the check that failed. The
subclasses are the failures a caller handles differently: an empty input
stream and a training run whose loss diverged.
"""


class PipelineError(Exception):
    """Base class for all validation and processing errors."""


class EmptyInput(PipelineError):
    """An input stream yielded no usable records."""


class NonFiniteLoss(PipelineError):
    """Training loss became NaN or infinite; carries the offending epoch."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training loss became non-finite at epoch {epoch}")

    def __reduce__(self):
        # Exception pickles only ``args`` (the message); rebuild from both
        # fields, so a divergence raised in a child process keeps its text.
        return type(self), (self.epoch, str(self)), self.__dict__
