"""Exception types shared across the package."""

from __future__ import annotations


class MMSeqError(Exception):
    """Base class for package errors."""


class ConfigError(MMSeqError):
    """Invalid generator configuration or invalid instance data."""


class ParseError(MMSeqError):
    """A file could not be parsed; the message names the offending field or line."""


class SizeGuardError(MMSeqError):
    """An exponential-cost routine was asked to exceed its documented size guard."""


class StaleStateError(MMSeqError):
    """A cached evaluation state does not belong to the sequence it was offered with."""
