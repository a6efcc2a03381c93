"""Exception types shared across the package.

Each maps to a CLI exit code: InputError -> 2, GuardExceeded -> 3,
UnimplementedBranch -> 4. Verification rejections use exit code 1 without an
exception type of their own.
"""

from __future__ import annotations


class EpkitError(Exception):
    """Base class for package errors."""


class InputError(EpkitError):
    """Malformed input or violated operation precondition."""


class GuardExceeded(EpkitError):
    """A desk-scale size guard tripped; the exact computation was not attempted."""


class UnimplementedBranch(EpkitError):
    """A construction reached a case it does not implement; `solve` catches
    the one raise (the clique branch's unsettled central block) and answers
    by another branch."""


class InternalInvariantError(EpkitError):
    """An invariant the algorithms guarantee failed; indicates a bug, not bad input."""
