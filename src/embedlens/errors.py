"""Exception hierarchy shared by all embedlens modules.

The CLI maps these onto exit codes: validation failures exit 2, size
guards exit 3, parse errors exit 4. A failed internal self-check raises
AssertionError, which the CLI reports as an internal error with exit 5.
"""


class EmbedlensError(Exception):
    """Base class for all embedlens errors."""


class ValidationError(EmbedlensError):
    """Input violates a documented precondition or invariant."""


class SizeGuardError(EmbedlensError):
    """An exact enumeration would exceed its configured size guard."""


class ParseError(EmbedlensError):
    """A file or JSON payload does not match its documented format."""
