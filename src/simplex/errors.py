"""Exception types shared across the library.

Every error raised on purpose by this package derives from SimplexError so
callers can catch the whole family with one clause.  Data-path errors are
recoverable signals, not traps: an operation that refuses to run leaves the
register file in its prior state.
"""

from __future__ import annotations

__all__ = [
    "SimplexError",
    "DisabledError",
    "HardwareUnavailableError",
    "BackendConfigError",
    "NullSlotAddressError",
    "ForkFailedError",
    "HarnessMismatchError",
    "DomainError",
]


class SimplexError(Exception):
    """Base class for all errors raised by this package."""


class DisabledError(SimplexError):
    """An accessor or mutator ran against a register file that is not enabled."""


class HardwareUnavailableError(SimplexError):
    """The hardware backend was demanded but this machine cannot provide it."""


class BackendConfigError(SimplexError):
    """SIMPLEX_BACKEND (or an equivalent override) holds an unknown value."""


class NullSlotAddressError(SimplexError):
    """A slot-addressed operation found no usable address in its slot.

    Raised when the slot reads back zero, or when it still holds the
    post-reset pattern; both mean nothing was stored there.  unhide_combine
    also raises it when BND2/BND3 no longer hold its HiddenBuffer's share
    addresses, because a later hide_split on the same file re-pointed them.
    """


class ForkFailedError(SimplexError):
    """A harness lost a child process or thread."""


class HarnessMismatchError(SimplexError):
    """A context harness log diverged from its expected table.

    Carries the first diverging row so failures point at a concrete cell.
    """

    def __init__(self, row_index: int, expected, actual):
        self.row_index = row_index
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"first mismatch at row {row_index}: expected {expected!r}, got {actual!r}"
        )


class DomainError(SimplexError, ValueError):
    """An aggregate was asked to fold a value outside its domain."""
