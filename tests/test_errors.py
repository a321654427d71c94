"""The JSON file boundary: `read_json`, `write_json` and every payload parser."""

import json

import pytest

from embedlens import fixtures
from embedlens.dicttest import (
    Predicate,
    TestInstance,
    load_symbol_function,
    symbol_function_from_json,
)
from embedlens.distributions import JointDistribution
from embedlens.embedding import EmbeddingWitness
from embedlens.errors import ParseError, WriteError, read_json, write_json
from embedlens.functions import ProductFunction, TableFunction, load_function, load_function_file

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
    assert data["constraints"][0]["mu"] == mu.to_json()["atoms"]
    assert TestInstance.load(str(path)) == inst


def test_witness_round_trip(tmp_path):
    witness = EmbeddingWitness(3, ({"0": 0, "1": 1, "2": 2},) * 3)
    path = tmp_path / "w.json"
    write_json(str(path), witness.to_json())
    assert EmbeddingWitness.from_json(read_json(str(path))) == witness
