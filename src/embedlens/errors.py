"""Exception hierarchy and the JSON file boundary shared by all embedlens modules.

The CLI maps these onto exit codes: validation failures exit 2, size
guards (an output integer over the digit limit included) exit 3, parse
errors and files that cannot be read or written exit 4. A failed internal
self-check raises AssertionError, which the CLI reports as an internal
error with exit 5. Every file the package reads or writes goes through
`read_json` and `write_json`, every payload parser turns PAYLOAD_ERRORS
into a ParseError, and every JSON text the package writes comes from one
walk, `render`: the indented text for a file or stdout and the compact text
a manifest digest hashes. A distribution goes into it as a `Fragment`, whose
two texts are rendered once, straight from its codes and integer weights.
"""

import json
import sys
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

# a missing key, a wrong type or shape, a number out of range (inf, 1/0)
PAYLOAD_ERRORS = (KeyError, TypeError, ValueError, AttributeError, ArithmeticError)


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer. A float, a bool or a string is a
    TypeError naming the field, where int() would truncate or parse it."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value


def json_list(value, name: str) -> list:
    """`value` if it is a JSON list. A string or an object is a TypeError
    naming the field, where iterating would read its characters or keys."""
    if type(value) is not list:
        raise TypeError(f"{name} must be a list, not {type(value).__name__}")
    return value


def json_symbols(value, name: str) -> list:
    """`value` if it is a JSON list of strings. Any other item is a
    TypeError naming the field, where str() would read null as "None"."""
    if set(map(type, json_list(value, name))) - {str}:  # one pass in C
        raise TypeError(f"{name} must be a list of JSON strings")
    return value


def json_pairs(values, name: str) -> list[complex]:
    """re + i im for each item of `values`, a two-element list of JSON numbers.
    A bool, a string or any other item is a TypeError or ValueError, where
    complex() would read "5", [1] or [true, false]."""
    if not set(map(type, chain.from_iterable(values))) <= {int, float}:  # one pass in C
        raise TypeError(f"{name} must be [re, im] pairs of JSON numbers")
    return [complex(re, im) for re, im in values]


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


def unwritable(exc: ValueError) -> EmbedlensError:
    """The error for data that `render` refused with `exc`: an integer longer
    than CPython's int-to-str digit limit is a size guard, and anything else
    (NaN or an infinity) a non-finite number."""
    if "integer string conversion" in str(exc):
        return SizeGuardError(f"output would hold an integer over the "
                              f"{sys.get_int_max_str_digits()}-digit limit of "
                              f"int-to-str conversion: {exc}")
    return ValidationError(f"output would hold a non-finite number: {exc}")


class Fragment:
    """A JSON value given as text: `render(depth)` returns its indented text
    at `depth`, where `render` places it, and its compact text. It is
    rendered when written, so its errors are raised inside the `try` of the
    writer."""

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render


def atom_list_text(symbols, columns, weights, denominator: int, depth: int) -> tuple[str, str]:
    """A distribution's atom list, {"p": [w/g, D/g], "x": [symbols]} per atom
    with g = gcd(w, D): its indented text at `depth` and its compact text,
    as `render` writes them.

    `symbols[j]` holds the symbols of coordinate j and `columns[j]` the
    atoms' codes there. Each symbol is quoted once, each distinct weight's
    "p" pair is converted once, and each text is one join over per-column
    lookups of the codes."""
    quoted = [list(map(_quote, column)) for column in symbols]
    pairs = {}  # weight -> the texts of w/g and D/g
    for w in set(weights):
        g = gcd(w, denominator)
        pairs[w] = _int_text(w // g), _int_text(denominator // g)
    indented = _atom_list(quoted, columns, weights, pairs, _breaks(depth, 4), ": ")
    return indented, _atom_list(quoted, columns, weights, pairs, [""] * 4, ":")


def _atom_list(quoted, columns, weights, pairs, brk, colon) -> str:
    """`atom_list_text`'s text with the line breaks `brk` and `colon` after a key."""
    atom, field, cell = brk[1], brk[2], brk[3]
    # weight -> the atom's text up to its first symbol
    heads = {w: f'{{{field}"p"{colon}[{cell}{num},{cell}{den}{field}],{field}"x"{colon}'
                + (f"[{cell}" if quoted else "[]")
             for w, (num, den) in pairs.items()}
    # per column, symbol index -> the symbol's text with the separator before it
    cells = [[f",{cell}{q}" for q in column] for column in quoted]
    if cells:
        cells[0] = quoted[0]
    close = (f"{field}]" if quoted else "") + f"{atom}}}"
    atoms = zip(repeat(f",{atom}"), map(heads.__getitem__, weights),
                *[map(c.__getitem__, col) for c, col in zip(cells, columns)], repeat(close))
    # one join, the list's opening in place of the first atom's separator
    body = islice(chain.from_iterable(atoms), 1, None)
    return "".join(chain([f"[{atom}"], body, [f"{brk[0]}]"]))


def write_json(path: str, data) -> None:
    """Write `render(data)`'s indented text and a final newline to `path`.

    The text is built before the file is opened, so data that cannot be
    written (a non-finite number, an integer over the digit limit) raises
    `unwritable`'s error and leaves the file untouched."""
    try:
        text = render(data)[0] + "\n"
    except ValueError as exc:
        raise unwritable(exc) from exc
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteError(str(exc)) from exc


_int_text = int.__repr__
_float_repr = float.__repr__
_INF = float("inf")


def _float_text(x) -> str:
    if x != x or x == _INF or x == -_INF:
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return _float_repr(x)


_SCALARS = {str: _quote, int: _int_text, float: _float_text}


def _breaks(depth: int, count: int = 2) -> list[str]:
    """A newline and the indent of each depth from `depth` on: `count` of them."""
    return ["\n" + "  " * (depth + d) for d in range(count)]


def render(data, depth: int = 0) -> tuple[str, str]:
    """The JSON texts of `data` placed at `depth`: indented, as
    `json.dumps(data, indent=2, sort_keys=True, allow_nan=False)` writes it,
    and compact, as `json.dumps(data, sort_keys=True, separators=(",", ":"),
    allow_nan=False)` writes it (the text a manifest digest hashes).

    One walk writes both: each scalar and key is converted once, by exact
    type, to json's C string quoting or the `int`/`float` repr, and joined
    into each text; a list of one scalar type is converted in one `map`. A
    Fragment gives its two texts. `data` holds dicts with str keys, lists,
    str, int, float, bool, None and Fragments, by exact type: any other type
    is a TypeError naming it. A non-finite float or an integer over the
    int-to-str digit limit raises json's ValueError (see `unwritable`)."""
    t = type(data)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        text = scalar(data)
        return text, text
    if t is list:
        if not data:
            return "[]", "[]"
        outer, inner = _breaks(depth)
        kinds = set(map(type, data))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if scalar is None:
            indented, compact = zip(*map(render, data, repeat(depth + 1)))
        else:
            indented = compact = list(map(scalar, data))
        return f"[{inner}{f',{inner}'.join(indented)}{outer}]", f"[{','.join(compact)}]"
    if t is dict:
        if not data:
            return "{}", "{}"
        outer, inner = _breaks(depth)
        indented, compact = [], []  # one join each, so a long value (a Fragment) is copied once
        for key, value in sorted(data.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            quoted = _quote(key)
            ind, comp = render(value, depth + 1)
            indented += (",", inner, quoted, ": ", ind)
            compact += (",", quoted, ":", comp)
        indented[0] = compact[0] = "{"
        indented.append(outer + "}")
        compact.append("}")
        return "".join(indented), "".join(compact)
    if data is None:
        return "null", "null"
    if t is bool:
        text = "true" if data else "false"
        return text, text
    if t is Fragment:
        return data.render(depth)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
