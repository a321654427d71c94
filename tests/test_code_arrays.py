"""The code array against the tuple-of-codes oracles: the row and columnar
readers, marginal, condition, decompose_mixture, build_paired_copies and
pairwise_connected on random supports with repeated row-form atoms, zero
masses, k = 1, singleton alphabets and weights past int64."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from embedlens import fixtures
from embedlens.distributions import JointDistribution, decompose_mixture
from embedlens.embedding import pairwise_connected
from embedlens.errors import ValidationError, render
from embedlens.reduction import build_paired_copies
from oracles import (
    dfs_pairwise_connected,
    tuple_condition,
    tuple_form_of,
    tuple_from_json,
    tuple_marginal,
    tuple_mixture,
    tuple_paired_copies,
    union_find_pairwise_connected,
)

WEIGHTS = st.integers(0, 6) | st.integers(10 ** 20, 10 ** 40)


@st.composite
def row_payloads(draw, sizes=None):
    """A valid row-form payload on at most 10 entries: an atom may repeat,
    a mass may be zero, and each "p" pair is w * m / (W * m) for the
    weights' sum W and a drawn m, so most pairs are not reduced."""
    if sizes is None:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    alphabets = [[f"s{c}" for c in range(size)] for size in sizes]
    cells = list(product(*[range(size) for size in sizes]))
    rows = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=10))
    weights = draw(st.lists(WEIGHTS, min_size=len(rows), max_size=len(rows)))
    weights[-1] += not sum(weights)
    m = draw(st.integers(1, 3))
    return {"alphabets": alphabets,
            "atoms": [{"x": [a[c] for a, c in zip(alphabets, row)], "p": [w * m, sum(weights) * m]}
                      for row, w in zip(rows, weights)]}


def columnar(dist: JointDistribution, order=None) -> dict:
    """The file `dist.save` writes, its atoms in `order` when given."""
    data = {"alphabets": [list(a.symbols) for a in dist.alphabets], **dist.columnar_json()}
    if order is not None:
        data["columns"] = [[col[r] for r in order] for col in data["columns"]]
        data["w"] = [data["w"][r] for r in order]
    return json.loads(render(data)[0])


@settings(max_examples=300, deadline=None)
@given(payload=row_payloads(), seed=st.integers(0, 2 ** 16))
def test_both_forms_read_as_the_tuple_reader(payload, seed):
    dist = JointDistribution.from_json(payload)
    assert tuple_form_of(dist) == tuple_from_json(payload)
    order = list(range(len(dist.weights)))
    random.Random(seed).shuffle(order)
    assert JointDistribution.from_json(columnar(dist)) == dist
    assert JointDistribution.from_json(columnar(dist, order)) == dist
    assert JointDistribution.from_json(json.loads(render(dist.to_json())[0])) == dist


@settings(max_examples=300, deadline=None)
@given(payload=row_payloads(), data=st.data())
def test_array_operations_match_the_tuple_oracles(payload, data):
    dist = JointDistribution.from_json(payload)
    coords = data.draw(st.sets(st.integers(0, dist.k - 1), min_size=1), label="coords")
    assert tuple_form_of(dist.marginal(coords)) == tuple_marginal(dist, coords)
    for coord, a in enumerate(dist.alphabets):
        for value in a.symbols:
            want = tuple_condition(dist, coord, value)
            if want is None:
                with pytest.raises(ValidationError, match="zero-mass value"):
                    dist.condition(coord, value)
            else:
                assert tuple_form_of(dist.condition(coord, value)) == want
    base = JointDistribution.from_json(data.draw(
        row_payloads([len(a) for a in dist.alphabets]), label="base"))
    c = data.draw(st.fractions(0, 1, max_denominator=40).filter(lambda c: 0 < c < 1), label="c")
    want = tuple_mixture(dist, base, c)
    if want is None:
        with pytest.raises(ValidationError, match="negative residual"):
            decompose_mixture(dist, base, c)
    else:
        assert tuple_form_of(decompose_mixture(dist, base, c)) == want
    assert pairwise_connected(dist) == union_find_pairwise_connected(dist)
    assert pairwise_connected(dist) == dfs_pairwise_connected(dist)
    if dist.k > 1:
        assert tuple_form_of(build_paired_copies(dist)) == tuple_paired_copies(dist)


@pytest.mark.parametrize("name", sorted(fixtures.NAMED))
def test_the_columnar_and_row_forms_of_each_fixture_load_equal(name):
    made = fixtures.NAMED[name]()
    for dist in [mu for _, mu in made.constraints] if hasattr(made, "constraints") else [made]:
        assert JointDistribution.from_json(columnar(dist)) == dist
        assert JointDistribution.from_json(json.loads(render(dist.to_json())[0])) == dist


@pytest.mark.parametrize("data, message", [
    ({"columns": [[0, 2]], "w": [1, 1], "den": 2}, "atom 1: code 2 not in alphabet 0"),
    ({"columns": [[-1, 0]], "w": [1, 1], "den": 2}, "atom 0: code -1 not in alphabet 0"),
    ({"columns": [[0, 1]], "w": [1, 1], "den": 3}, "mass sum != 1 (got 2/3)"),
    # a repeated atom's weights add, as in the row form
    ({"columns": [[1, 1]], "w": [1, 1], "den": 3}, "mass sum != 1 (got 2/3)"),
])
def test_columnar_payloads_are_validated_as_arrays(data, message):
    with pytest.raises(ValidationError) as info:
        JointDistribution.from_json({"alphabets": [["0", "1"]], **data})
    assert str(info.value) == message


def test_a_repeated_columnar_atom_adds_its_weights():
    dist = JointDistribution.from_json({"alphabets": [["0", "1"]], "columns": [[1, 0, 1]],
                                        "w": [1, 2, 1], "den": 4})
    assert dist.atoms == {("0",): Fraction(1, 2), ("1",): Fraction(1, 2)}
