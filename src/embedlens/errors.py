"""Exception hierarchy and the JSON file boundary shared by all embedlens modules.

The CLI maps these onto exit codes: validation failures exit 2, size
guards (an output integer over the digit limit included) exit 3, parse
errors and files that cannot be read or written exit 4. A failed internal
self-check raises AssertionError, which the CLI reports as an internal
error with exit 5. Every file the package reads or writes goes through
`read_json` and `write_json`, every payload parser turns PAYLOAD_ERRORS
into a ParseError, and every JSON text the package writes, to a file or to
stdout, is built by `dumps`, and every digest text by `canonical`. A
distribution goes into them as a `Fragment`, whose text is rendered once,
straight from its codes and integer weights.
"""

import json
import sys
from itertools import chain, count, repeat
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
    """The error for data that `dumps` refused with `exc`: an integer longer
    than CPython's int-to-str digit limit is a size guard, and anything else
    (NaN or an infinity) a non-finite number."""
    if "integer string conversion" in str(exc):
        return SizeGuardError(f"output would hold an integer over the "
                              f"{sys.get_int_max_str_digits()}-digit limit of "
                              f"int-to-str conversion: {exc}")
    return ValidationError(f"output would hold a non-finite number: {exc}")


class Fragment:
    """A JSON value given as text: `render(depth)` returns its indented text
    at `depth`, where `dumps` places it, and `render(None)` its compact text,
    the form `canonical` writes. It is rendered when written, so its errors
    are raised inside the `try` of the writer."""

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render


def canonical(data) -> str:
    """`json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)`,
    the text a manifest digest hashes, with each Fragment's compact text
    where it stands.

    json writes each fragment as a marker string, which is then replaced. If
    json wrote the marker more often than it met fragments, some string of
    `data` equals it, and the next marker is tried."""
    for attempt in count():
        marker, found = f"\x00fragment {attempt}\x00", []

        def default(o):
            if type(o) is Fragment:
                found.append(o.render(None))
                return marker
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

        text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          default=default)
        if not found:
            return text
        parts = text.split(_quote(marker))
        if len(parts) == len(found) + 1:
            return "".join(chain.from_iterable(zip(parts, found))) + parts[-1]


def atom_list_text(symbols, columns, weights, denominator: int, depth: int | None) -> str:
    """A distribution's atom list, {"p": [w/g, D/g], "x": [symbols]} per atom
    with g = gcd(w, D), as `dumps` writes it at `depth` or, for None, as
    `canonical` writes it.

    `symbols[j]` holds the symbols of coordinate j and `columns[j]` the
    atoms' codes there. Each symbol is quoted once, each distinct weight's
    "p" pair is written once, and the atoms are one join over per-column
    lookups of the codes."""
    if depth is None:
        brk, colon = [""] * 4, ":"
    else:
        brk, colon = ["\n" + "  " * (depth + d) for d in range(4)], ": "
    atom, field, cell = brk[1], brk[2], brk[3]
    quoted = [list(map(_quote, column)) for column in symbols]
    heads = {}  # weight -> the atom's text up to its first symbol
    for w in set(weights):
        g = gcd(w, denominator)
        heads[w] = (f'{{{field}"p"{colon}[{cell}{_int_text(w // g)},{cell}'
                    f'{_int_text(denominator // g)}{field}],{field}"x"{colon}'
                    + (f"[{cell}" if quoted else "[]"))
    # per column, symbol index -> the symbol's text with the separator before it
    cells = [[f",{cell}{q}" for q in column] for column in quoted]
    if cells:
        cells[0] = quoted[0]
    tail = (f"{field}]" if quoted else "") + f"{atom}}},{atom}"
    pieces = zip(map(heads.__getitem__, weights),
                 *[map(c.__getitem__, col) for c, col in zip(cells, columns)], repeat(tail))
    return f"[{atom}" + "".join(chain.from_iterable(pieces))[:-len(atom) - 1] + f"{brk[0]}]"


def write_json(path: str, data) -> None:
    """Write `dumps(data)` and a final newline to `path`.

    The text is built before the file is opened, so data that cannot be
    written (a non-finite number, an integer over the digit limit) raises
    `unwritable`'s error and leaves the file untouched."""
    try:
        text = dumps(data) + "\n"
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


def _key_text(key) -> str:
    """A dict key as json converts it, in json's order of tests."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return _int_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


_SCALAR_LISTS = {str: _quote, int: _int_text, float: _float_text}


def dumps(data) -> str:
    """`json.dumps(data, indent=2, sort_keys=True, allow_nan=False)`: the
    same text, or the same exception, built from C-level pieces.

    With `indent` set, json runs its pure-Python encoder, one generator
    step per token. Here scalars go by exact type to json's C string
    quoting and the `int`/`float` reprs, a list of one scalar type is one
    `str.join`, and each `"key": ` prefix is quoted once per call.
    A Fragment is written as its text at the depth where it stands.
    Subclasses (such as `np.float64`) and tuples take json's isinstance
    tests; keys, their order, and the errors for unsupported types,
    non-finite floats and circular containers are json's. A level of
    nesting costs three recursion levels where json's costs one, so
    RecursionError comes at about a third of json's depth (over 300 levels
    at the default limit)."""
    breaks = ["\n"]  # breaks[d]: a newline and the indent of depth d
    prefixes: dict[str, str] = {}  # str key -> '"key": '
    path: set[int] = set()  # ids of the containers being written

    def value(o, depth: int) -> str:
        t = type(o)
        if t is str:
            return _quote(o)
        if t is int:
            return _int_text(o)
        if t is float:
            return _float_text(o)
        if t is list or t is tuple:
            return array(o, depth)
        if t is dict:
            return obj(o, depth)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if t is Fragment:
            return o.render(depth)
        # a subclass: json's isinstance tests, in its order
        if isinstance(o, str):
            return _quote(o)
        if isinstance(o, int):
            return _int_text(o)
        if isinstance(o, float):
            return _float_text(o)
        if isinstance(o, (list, tuple)):
            return array(o, depth)
        if isinstance(o, dict):
            return obj(o, depth)
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    def enter(container, depth: int) -> str:
        """The break before each item of `container`, which is now on the path."""
        if id(container) in path:
            raise ValueError("Circular reference detected")
        path.add(id(container))
        while len(breaks) <= depth + 1:
            breaks.append(breaks[-1] + "  ")
        return breaks[depth + 1]

    def array(lst, depth: int) -> str:
        if not lst:
            return "[]"
        kinds = set(map(type, lst))
        scalar = _SCALAR_LISTS.get(kinds.pop()) if len(kinds) == 1 else None
        inner = enter(lst, depth)
        if scalar is None:
            body = f",{inner}".join(map(value, lst, repeat(depth + 1)))
        else:
            body = f",{inner}".join(map(scalar, lst))
        path.discard(id(lst))
        return "[" + inner + body + breaks[depth] + "]"

    def obj(dct, depth: int) -> str:
        if not dct:
            return "{}"
        inner = enter(dct, depth)
        sep = "," + inner
        pieces = []  # one join, so a long value (a Fragment) is copied once
        for key, val in sorted(dct.items()):
            if type(key) is str:
                prefix = prefixes.get(key)
                if prefix is None:
                    prefix = prefixes[key] = _quote(key) + ": "
            else:
                prefix = _quote(_key_text(key)) + ": "
            pieces += (sep, prefix, value(val, depth + 1))
        path.discard(id(dct))
        pieces[0] = "{" + inner
        pieces.append(breaks[depth] + "}")
        return "".join(pieces)

    return value(data, 0)
