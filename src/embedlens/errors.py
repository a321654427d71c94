"""Exception hierarchy and the JSON file boundary shared by all embedlens modules.

The CLI maps these onto exit codes: validation failures exit 2, size
guards exit 3, parse errors and files that cannot be read or written exit
4. A failed internal self-check raises AssertionError, which the CLI
reports as an internal error with exit 5. Every file the package reads or
writes goes through `read_json` and `write_json`, and every payload parser
turns PAYLOAD_ERRORS into a ParseError.
"""

import json

# a missing key, a wrong type or shape, a number out of range (inf, 1/0)
PAYLOAD_ERRORS = (KeyError, TypeError, ValueError, AttributeError, ArithmeticError)


class EmbedlensError(Exception):
    """Base class for all embedlens errors."""


class ValidationError(EmbedlensError):
    """Input violates a documented precondition or invariant."""


class SizeGuardError(EmbedlensError):
    """An exact enumeration would exceed its configured size guard."""


class ParseError(EmbedlensError):
    """A file or JSON payload does not match its documented format."""


class WriteError(EmbedlensError):
    """An output file cannot be written."""


def read_json(path: str):
    """The JSON value in a UTF-8 file; a file that is not UTF-8 JSON is a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ParseError(f"{path}: {exc}") from exc


def write_json(path: str, data) -> None:
    """Write `data` as indented JSON with sorted keys and a final newline."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise WriteError(str(exc)) from exc
