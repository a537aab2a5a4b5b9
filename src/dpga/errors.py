"""Exception types shared across the simulator, each with one CLI exit code.

ConfigurationError and DecodeError exit with 2 (bad configuration or
input); ContractViolationError exits with 3 (a broken runtime contract).
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
