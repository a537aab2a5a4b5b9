"""Exception types shared across the simulator.

The CLI exits with 2 on a ConfigurationError (bad configuration or input
file) and with 3 on a ContractViolationError (a broken runtime contract).
No subcommand decodes wire bytes, so a DecodeError reaches only the
caller of masking.decode; `dpga check` reports one as a failed suite.
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """A config value is out of range, unknown, or inconsistent."""


class ContractViolationError(ValueError):
    """Arguments that break an operation's contract, or client/server
    bookkeeping out of sync (queue overflow, round mismatch)."""


class DecodeError(ValueError):
    """A wire message failed to decode. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset
