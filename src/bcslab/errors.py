"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so they are kept separate
from plain ValueError/RuntimeError raised by third-party code.
"""


class ValidationError(ValueError):
    """Input violates a structural constraint (bad kernel, asymmetric table, ...)."""


class ResourceLimitError(RuntimeError):
    """Requested dimension exceeds the configured cap."""


class ConvergenceError(RuntimeError):
    """An iterative routine hit its hard iteration ceiling."""
