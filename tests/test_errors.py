"""The JSON file boundary: `read_json`, `write_json`, `render`, the
distribution Fragment and every payload parser."""

import ast
import itertools
import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import embedlens
from embedlens import fixtures
from embedlens.dicttest import (
    Predicate,
    TestInstance,
    load_symbol_function,
    symbol_function_from_json,
)
from embedlens.distributions import JointDistribution, alphabet
from embedlens.embedding import EmbeddingWitness
from embedlens.errors import (ParseError, SizeGuardError, ValidationError, WriteError, read_json,
                             render, write_json)
from embedlens.functions import ProductFunction, TableFunction, load_function, load_function_file
from oracles import distribution_columns, distribution_json

INF = float("inf")
PRED = {"alphabet": ["0", "1"], "k": 1, "truth": [1, 1]}

# (parser, payload): each payload is malformed in a different way.
MALFORMED = [
    (JointDistribution.from_json, 5),
    (JointDistribution.from_json, {"alphabets": 5, "atoms": []}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "atoms": [{"x": ["0"], "p": [1]}]}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "atoms": [{"x": ["0"], "p": [1, 0]}]}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "atoms": [{"x": ["0"], "p": [INF, 1]}]}),
    (EmbeddingWitness.from_json, {"modulus": 2, "sigma": [5]}),
    (EmbeddingWitness.from_json, {"modulus": INF, "sigma": []}),
    (EmbeddingWitness.from_json, {"sigma": []}),
    (EmbeddingWitness.from_json, [1]),
    (Predicate.from_json, {"alphabet": ["0", "1"], "k": INF, "truth": []}),
    (Predicate.from_json, {"alphabet": ["0", "1"], "k": 1, "truth": ["x", "y"]}),
    (Predicate.from_json, "predicate"),
    (TestInstance.from_json, {"predicate": PRED, "constraints": 5}),
    (TestInstance.from_json, {"predicate": PRED,
                              "constraints": [{"w": [1, 0], "mu": [{"x": ["0"], "p": [1, 1]}]}]}),
    (TestInstance.from_json, {"predicate": PRED,
                              "constraints": [{"w": [1, 1], "mu": [{"x": ["0"], "p": [1]}]}]}),
    (TestInstance.from_json, {"predicate": PRED, "constraints": [{"w": [1, 1], "mu": [5]}]}),
    (symbol_function_from_json, {"n": INF, "alphabet": ["0"], "dictator": 0}),
    (symbol_function_from_json, {"n": 1, "alphabet": ["0"]}),
    (symbol_function_from_json, [1]),
    (TableFunction.from_json, {"n": 1, "alphabet": ["0"], "values": [5]}),
    (TableFunction.from_json, {"n": INF, "alphabet": ["0"], "values": [[1, 0]]}),
    (ProductFunction.from_json, {"alphabet": ["0"], "factors": [5]}),
    (ProductFunction.from_json, {"alphabet": ["0"], "factors": [{"0": [10 ** 400, 0]}]}),
    (load_function, 5),
    (load_function, {"alphabet": ["0"]}),
    # integer fields that int() would truncate or read from a bool
    (EmbeddingWitness.from_json, {"modulus": 2.5, "sigma": []}),
    (EmbeddingWitness.from_json, {"modulus": 2, "sigma": [{"0": 0, "1": True}]}),
    # value pairs that complex() would read, and a factor key outside the alphabet
    (ProductFunction.from_json, {"alphabet": ["0"], "factors": [{"0": "5"}]}),
    (ProductFunction.from_json, {"alphabet": ["0"], "factors": [{"0": [1]}]}),
    (ProductFunction.from_json, {"alphabet": ["0"], "factors": [{"0": [True, False]}]}),
    (ProductFunction.from_json, {"alphabet": ["0"], "factors": [{"0": [1, 0], "1": [1, 0]}]}),
    (TableFunction.from_json, {"n": 0, "alphabet": ["0"], "values": ["5"]}),
    (TableFunction.from_json, {"n": 0, "alphabet": ["0"], "values": [[1]]}),
    (TableFunction.from_json, {"n": 0, "alphabet": ["0"], "values": [[True, False]]}),
    # accepted cells that are not JSON integers, and a predicate with both or
    # neither of "accept" and "truth"
    (Predicate.from_json, {"alphabet": ["0", "1"], "k": 1, "accept": [0.0]}),
    (Predicate.from_json, {"alphabet": ["0", "1"], "k": 1, "accept": [True]}),
    (Predicate.from_json, {"alphabet": ["0", "1"], "k": 1, "accept": ["1"]}),
    (Predicate.from_json, {**PRED, "accept": [0, 1]}),
    (Predicate.from_json, {"alphabet": ["0", "1"], "k": 1}),
    # a string or an object where a JSON list is required, read element by element
    (JointDistribution.from_json, {"alphabets": [["a"], ["b"]],
                                   "atoms": [{"x": "ab", "p": [1, 1]}]}),
    (JointDistribution.from_json, {"alphabets": [["a"], ["b"]],
                                   "atoms": [{"x": {"a": 0, "b": 0}, "p": [1, 1]}]}),
    (JointDistribution.from_json, {"alphabets": ["ab"], "atoms": [{"x": ["a"], "p": [1, 1]}]}),
    (JointDistribution.from_json, {"alphabets": [{"a": 0}], "atoms": [{"x": ["a"], "p": [1, 1]}]}),
    (JointDistribution.from_json, {"alphabets": "a", "atoms": [{"x": ["a"], "p": [1, 1]}]}),
    (TableFunction.from_json, {"n": 1, "alphabet": "01", "values": [[1, 0], [0, 0]]}),
    (ProductFunction.from_json, {"alphabet": "01", "factors": [{"0": [1, 0], "1": [1, 0]}]}),
    (Predicate.from_json, {"alphabet": "01", "k": 1, "accept": [1]}),
    (symbol_function_from_json, {"n": 1, "alphabet": "01", "dictator": 0}),
    (symbol_function_from_json, {"n": 1, "alphabet": {"0": 0, "1": 1}, "dictator": 0}),
    # columnar payloads whose fields do not fit together
    (JointDistribution.from_json, {"alphabets": [["0"]], "columns": [[0]], "w": [0], "den": 1}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "columns": [[0, 0]], "w": [1], "den": 1}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "columns": [], "w": [1], "den": 1}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "columns": "0", "w": [1], "den": 1}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "columns": [[0.0]], "w": [1], "den": 1}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "columns": [[2 ** 63]], "w": [1],
                                   "den": 1}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "columns": [[0]], "w": [1], "den": True}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "columns": [[0]], "w": [1]}),
    (JointDistribution.from_json, {"alphabets": [["0"]], "columns": [[0]], "w": [1], "den": 1,
                                   "atoms": []}),
]


@pytest.mark.parametrize("parser, payload", MALFORMED,
                         ids=[f"{p.__qualname__}-{i}" for i, (p, _) in enumerate(MALFORMED)])
def test_malformed_payload_is_a_parse_error(parser, payload):
    with pytest.raises(ParseError):
        parser(payload)


LOADERS = [JointDistribution.load, TestInstance.load, load_symbol_function, load_function_file]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__qualname__)
@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", b"5", b"[]"],
                         ids=["not-json", "not-utf8", "number", "list"])
def test_file_loaders_turn_bad_files_into_parse_errors(loader, content, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ParseError):
        loader(str(path))


def test_read_json_of_a_missing_file_is_an_os_error(tmp_path):
    with pytest.raises(OSError):
        read_json(str(tmp_path / "missing.json"))


def test_write_json_bytes(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"b": [1, 2], "a": "x"})
    assert path.read_bytes() == b'{\n  "a": "x",\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert read_json(str(path)) == {"a": "x", "b": [1, 2]}


def test_write_json_to_a_missing_directory_is_a_write_error(tmp_path):
    target = tmp_path / "missing" / "out.json"
    with pytest.raises(WriteError, match="out.json"):
        write_json(str(target), {})


def test_instance_round_trip_keeps_the_distribution_atom_format(tmp_path):
    inst = fixtures.three_lin_instance()
    path = tmp_path / "inst.json"
    inst.save(str(path))
    data = json.loads(path.read_text())
    mu = inst.constraints[0][1]
    assert data["constraints"][0]["mu"] == distribution_columns(mu)
    assert TestInstance.load(str(path)) == inst
    mu.save(str(path))
    assert json.loads(path.read_text()) == {"alphabets": [["0", "1"]] * 3,
                                            **distribution_columns(mu)}


def test_witness_round_trip(tmp_path):
    witness = EmbeddingWitness(3, ({"0": 0, "1": 1, "2": 2},) * 3)
    path = tmp_path / "w.json"
    write_json(str(path), witness.to_json())
    assert EmbeddingWitness.from_json(read_json(str(path))) == witness


def test_write_json_refuses_non_finite_numbers_and_leaves_the_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("before\n")
    with pytest.raises(ValidationError, match="non-finite"):
        write_json(str(path), {"a": [1.0, float("nan")]})
    assert path.read_text() == "before\n"
    with pytest.raises(ValidationError, match="non-finite"):
        write_json(str(tmp_path / "new.json"), {"a": INF})
    assert not (tmp_path / "new.json").exists()


def test_write_json_refuses_an_integer_over_the_digit_limit_as_a_size_guard(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("before\n")
    with pytest.raises(SizeGuardError, match="digit limit"):
        write_json(str(path), {"a": [1, 10 ** 5000]})
    assert path.read_text() == "before\n"


# ---------------------------------------------------------------------------
# `render` against json.dumps: indented (indent=2) and compact (separators), both
# with sort_keys=True and allow_nan=False

def json_outcome(encode, data):
    """The text, or the type and message of the error."""
    try:
        return encode(data)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def reference(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False)


def compact_reference(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def indented(data) -> str:
    return render(data)[0]


SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 80)
           | st.integers(-2 ** 80, -2 ** 64) | st.floats() | st.just(-0.0) | st.text()
           | st.sampled_from(["é", "\x00\x1f", " ", "😀", '"\\/', "\x00fragment 0\x00"]))
SAME_TYPE_LISTS = (st.lists(st.text(), min_size=1) | st.lists(st.integers(), min_size=1)
                   | st.lists(st.floats(), min_size=1))
# Trees as (data, want) pairs: `want` is `data` with each atom Fragment written
# out as the json values it stands for.
HUGE = 10 ** 50
FRAGMENTS = st.sampled_from([
    JointDistribution([], {(): Fraction(1)}), fixtures.three_lin(),
    JointDistribution([alphabet(['"', "é\n"]), alphabet(["\x00"])],
                      {('"', "\x00"): Fraction(1, HUGE + 1), ("é\n", "\x00"): Fraction(HUGE, HUGE + 1)}),
]).map(lambda mu: (mu.to_json()["atoms"], distribution_json(mu)["atoms"]))


def _paired_list(items):
    return [data for data, _ in items], [want for _, want in items]


def _paired_dict(items):
    return {k: data for k, (data, _) in items.items()}, {k: want for k, (_, want) in items.items()}


PAIRED_TREES = st.recursive(
    (SCALARS | SAME_TYPE_LISTS).map(lambda x: (x, x)) | FRAGMENTS,
    lambda inner: (st.lists(inner, max_size=4).map(_paired_list)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4).map(_paired_dict)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(pair=PAIRED_TREES, depth=st.integers(0, 3))
def test_dumps_matches_json(pair, depth):
    """Both texts of `render`, Fragments included at any depth, against json."""
    data, want = pair
    try:
        texts = render(data, depth)
    except ValueError as exc:  # a non-finite float
        assert (ValueError, str(exc)) == json_outcome(reference, want)
        return
    assert texts == (reference(want).replace("\n", "\n" + "  " * depth), compact_reference(want))


# ---------------------------------------------------------------------------
# A distribution's payload, its atoms a Fragment, against json.dumps of its dict

SYMBOLS = st.text(max_size=3) | st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "é", "😀", "a b"])


@st.composite
def rendered_distributions(draw):
    """A distribution with escaped and non-ASCII symbols, k = 1 included,
    one atom or several, and small weights (which share factors with D) or
    huge ones."""
    k = draw(st.integers(1, 3))
    alphabets = [alphabet(draw(st.lists(SYMBOLS, min_size=1, max_size=3, unique=True)))
                 for _ in range(k)]
    cells = list(itertools.product(*[a.symbols for a in alphabets]))
    support = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=6, unique=True))
    sizes = st.integers(1, 6) | st.integers(10 ** 40, 10 ** 60)
    weights = draw(st.lists(sizes, min_size=len(support), max_size=len(support)))
    total = sum(weights)
    return JointDistribution(alphabets, {x: Fraction(w, total) for x, w in zip(support, weights)})


def _placed(value, depth: int):
    """`value` under `depth` levels of alternating lists and dicts."""
    for level in range(depth):
        value = {"v": value, "a": 1} if level % 2 else [0, value]
    return value


@settings(max_examples=150, deadline=None)
@given(mu=rendered_distributions(), atoms_only=st.booleans())
def test_a_distribution_payload_writes_json_text_of_its_dict(mu, atoms_only):
    want = distribution_json(mu)["atoms"] if atoms_only else distribution_json(mu)
    payload = mu.to_json()["atoms"] if atoms_only else mu.to_json()
    for depth in range(5):
        assert render(_placed(payload, depth)) == (reference(_placed(want, depth)),
                                                   compact_reference(_placed(want, depth)))


def test_a_fragment_without_coordinates_writes_empty_lists():
    mu = JointDistribution([], {(): Fraction(1)})
    assert indented([mu.to_json()]) == reference([distribution_json(mu)])
    assert render(mu.to_json())[1] == '{"alphabets":[],"atoms":[{"p":[1,1],"x":[]}]}'


def _circular_list():
    a = [1]
    a.append([a])
    return a


def _circular_dict():
    d = {"a": 1}
    d["b"] = {"c": (d,)}
    return d


def _nested(depth):
    data = 1
    for _ in range(depth):
        data = [data]
    return data


# (data, the type `render` refuses in it, or None where its outcome is json's).
# The program writes only exact dicts with str keys, lists, str, int, float,
# bool, None and Fragments: a tuple, a numpy scalar, a set, any other object or
# a non-str key is a TypeError naming its type, and a cycle of lists runs into
# the recursion limit.
CASES = [
    (_circular_list(), RecursionError), (_circular_dict(), "tuple"), ([1.0, float("nan")], None),
    ({"a": -INF}, None), ([np.float64("nan")], "float64"), ({float("nan"): 1}, "float"),
    ({1: "a", "b": 2}, "int"), ({(1, 2): 3}, "tuple"), ([1, object()], "object"),
    ([np.int64(1)], "int64"), ({"a": {1, 2}}, "set"), (10 ** 5000, None), (_nested(300), None),
    ({"z": [[[]], {}, ()], "a": {"": [True, False, None]}}, "tuple"),
]


@pytest.mark.parametrize("data, refused", CASES, ids=[type(data).__name__ for data, _ in CASES])
def test_dumps_matches_json_on_errors_and_deep_nesting(data, refused):
    if refused is None:
        assert json_outcome(indented, data) == json_outcome(reference, data)
    elif refused is RecursionError:
        with pytest.raises(RecursionError):
            render(data)
    else:
        with pytest.raises(TypeError, match=rf"\b{refused}\b"):
            render(data)


# ---------------------------------------------------------------------------
# The one JSON boundary: a scan of the package source.

PACKAGE = os.path.dirname(embedlens.__file__)
# cli._print points a broken stdout at os.devnull so the flush at exit is quiet
ALLOWED_OPENS = {("cli.py", "os.open(os.devnull, os.O_WRONLY)")}


def _calls(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")))
def test_only_errors_quotes_json_strings_and_writes_digest_text(name):
    """Every JSON text, the indented one and the digest text, comes from
    `errors.render`: no module, `errors` included, runs json's encoder, and
    only `errors` quotes JSON strings itself."""
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {a.name for a in node.names} | {getattr(node, "module", None) or ""}
            assert not names & {"dumps", "JSONEncoder"}, ast.unparse(node)
            assert name == "errors.py" or not any(
                "encode_basestring" in n or n == "json.encoder" for n in names), ast.unparse(node)
        if isinstance(node, ast.Attribute):
            assert ast.unparse(node) not in ("json.dumps", "json.JSONEncoder"), ast.unparse(node)
            assert name == "errors.py" or not node.attr.startswith("encode_basestring"), \
                ast.unparse(node)


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")))
def test_only_errors_opens_files_and_runs_json_file_io(name):
    for call in _calls(name):
        func = ast.unparse(call.func)
        if name != "errors.py":
            opens = func == "open" or func.endswith((".open", ".read_text", ".write_text",
                                                    ".read_bytes", ".write_bytes"))
            assert not opens or (name, ast.unparse(call)) in ALLOWED_OPENS, ast.unparse(call)
            assert func not in ("json.dump", "json.load"), ast.unparse(call)
        if func == "json.dumps":  # the compact digest form only: the indented text is `dumps`
            assert "indent" not in {kw.arg for kw in call.keywords}, ast.unparse(call)
