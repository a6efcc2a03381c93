"""Exception types shared across the package.

Each maps to a CLI exit code: InputError -> 2, GuardExceeded -> 3,
InternalInvariantError -> 1. Verification rejections also use exit code 1,
without an exception type of their own.
"""

from __future__ import annotations


class EpkitError(Exception):
    """Base class for package errors."""


class InputError(EpkitError):
    """Malformed input or violated operation precondition."""


class GuardExceeded(EpkitError):
    """A desk-scale size guard tripped; the exact computation was not attempted."""


class InternalInvariantError(EpkitError):
    """An invariant the algorithms guarantee failed; indicates a bug, not bad input."""
