"""Exception hierarchy shared by every martkit module.

The split mirrors the CLI exit-code contract: argument/flag problems are
``ConfigError`` (exit 2) and mathematically out-of-range inputs are
``DomainError`` or ``UnsupportedModelError`` (exit 3).  Failures of the
hard-assertion suite raise nothing: ``run_verification_suite`` collects
them in its report, and ``martkit verify`` exits 4 when the report has
not passed.
"""


class ToolkitError(Exception):
    """Base class for all martkit errors."""


class DomainError(ToolkitError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConfigError(ToolkitError, ValueError):
    """A configuration object or CLI invocation is structurally invalid."""


class UnsupportedModelError(ToolkitError):
    """The requested computation needs structure this model does not provide."""
