"""Exception types raised across the package.

Everything derives from SublistsError so callers can catch domain errors
with one clause; the CLI maps them to usage failures (exit code 2).
"""

from __future__ import annotations


class SublistsError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeMismatch(SublistsError):
    """Two trees combined tip-wise disagree in shape."""


class NotATip(SublistsError):
    """A tree expected to be a single tip has internal structure."""


class NotSingleton(SublistsError):
    """A sequence expected to hold exactly one element does not."""


class OutOfRange(SublistsError):
    """A selection count k lies outside the valid range for its input."""


class MalformedLevel(SublistsError):
    """A tree fed to the level-raising step is not shaped like a level, a level fed to it does not hold
    its C(m, k) answers, or a block it raises gets other than one answer per row."""


class LengthMismatch(SublistsError):
    """An input sequence does not have the length the index demands."""


class EmptyInput(SublistsError):
    """An operation that needs at least one element received none."""
