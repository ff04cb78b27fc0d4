"""The exceptions that the command line turns into exit codes.

A leaf module: it imports nothing from the package, so the command line
can name every error it catches without loading the engines that raise
them.  Each engine re-exports its own classes:
``sectorlab.algebra.GenerationError`` is this module's ``GenerationError``.
"""


class InputFormatError(ValueError):
    """Malformed or inconsistent input data."""


class ExpressionError(ValueError):
    """Malformed generator expression."""


class DimensionCapError(ValueError):
    """Ambient dimension exceeds the dense-matrix feasibility cap."""


class CentralProjectionError(RuntimeError):
    """Eigenvalue grouping stayed ambiguous after the retry budget."""


class GenerationError(RuntimeError):
    """A generated algebra is unresolved or misses one of its generators."""


class IsotypicError(RuntimeError):
    """Decomposition failed to resolve after the retry budget."""


class EigenvalueGapError(RuntimeError):
    """Spectrum could not be clustered at the grouping gap."""
