"""Exception hierarchy shared across the package.

Everything raised on a user-facing error path derives from
:class:`TaguchiKitError` so the CLI can catch one type and exit nonzero.
"""

from __future__ import annotations


class TaguchiKitError(Exception):
    """Base class for all errors raised by taguchikit."""


class UnknownArrayError(TaguchiKitError, LookupError):
    """Requested array name is not in the catalog."""


class CapacityError(TaguchiKitError):
    """No catalog array can hold the requested factor count / level count."""


class ArrayStructureError(TaguchiKitError, ValueError):
    """Matrix is ragged, non-integer, or has out-of-range cells.

    Distinct from an orthogonality failure: a structurally broken matrix
    cannot even be checked for balance.
    """


class BindError(TaguchiKitError, ValueError):
    """Factors cannot be bound to the array columns."""


class ResultsFormatError(TaguchiKitError, ValueError):
    """Results table is malformed (bad header, non-numeric cell, ...)."""


class IncompleteResultsError(TaguchiKitError, ValueError):
    """Some design runs have no recorded result; analysis refuses to guess."""


class SingularityError(TaguchiKitError, ValueError):
    """S/N ratio undefined for the given values (log or reciprocal of zero)."""


class InvalidLevelError(TaguchiKitError, ValueError):
    """A chosen level index or physical value is not among a factor's levels."""


class UnknownResponseError(TaguchiKitError, LookupError):
    """Response name not present in the analysis or evaluator."""


class UnbalancedDesignError(TaguchiKitError, ValueError):
    """Operation requires a balanced design and the source design is not."""


class ConfirmationError(TaguchiKitError, ValueError):
    """Confirmation value unusable for error-percentage arithmetic."""


class ConfigError(TaguchiKitError, ValueError):
    """Project config file is missing, unparsable, or fails validation."""
