"""Exception types shared across the package.

Each CLI exit code maps onto one of these (the table is `cli.EXIT_CODES`),
so library code raises the most specific class it can and never calls
sys.exit itself.
"""


class MsastError(Exception):
    """Base class for all package errors."""


class ShapeError(MsastError):
    """Operands have incompatible shapes; message names both shapes."""


class ConfigError(MsastError):
    """Invalid configuration value or unknown config key."""


class DataError(MsastError):
    """Malformed dataset content (labels, lengths, class ids)."""


class FileFormatError(MsastError):
    """Malformed binary file: bad magic, truncation, or shape mismatch."""


class NumericError(MsastError):
    """Non-finite loss or gradient in training, or non-finite logits at inference."""


class ModeError(MsastError):
    """Operation invoked in the wrong mode: a model of the wrong causality,
    or training with grad mode off."""


class ResourceError(MsastError, MemoryError):
    """Allocating a model's weights or Adam moments failed although the
    memory bound admitted them; the message names the step."""
