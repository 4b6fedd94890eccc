"""Exception hierarchy shared across the toolkit.

Every data-level failure derives from :class:`MultibridgeError` so callers
(and the CLI) can distinguish bad input data (exit code 2) from usage
errors (exit code 1) and genuine bugs.
"""


class MultibridgeError(Exception):
    """Base class for all toolkit errors caused by input data or config."""


class ConfigError(MultibridgeError):
    """A pipeline configuration is invalid or references missing paths."""
