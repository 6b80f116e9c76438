"""Exception types shared across the package.

I/O failures are reported with the builtin OSError; everything
domain-specific derives from IpstatError so callers can catch one base.
"""

from __future__ import annotations


class IpstatError(Exception):
    """Base class for all ipstat-specific errors."""


class MalformedAddress(IpstatError):
    """A record is not a well-formed dotted-quad IPv4 address."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class OctetOutOfRange(MalformedAddress):
    """A dotted-quad part is numeric but exceeds 255."""


class BinaryFormatError(IpstatError):
    """A binary record file has a bad magic, header, or truncated body."""


class CountOverflow(IpstatError):
    """A counter slot would exceed its 64-bit unsigned range."""


class InvalidPlan(IpstatError):
    """A partition plan is malformed or does not match the chosen method."""


class InvalidSpec(IpstatError):
    """A dataset specification is internally inconsistent."""


class GroundTruthMismatch(IpstatError):
    """A recount of a dataset disagrees with its ground-truth sidecar."""


class ValidationFailure(IpstatError):
    """A benchmark run produced a top-k list that contradicts ground truth."""
