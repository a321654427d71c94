import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embedlens import fixtures
from embedlens.distributions import alphabet, univariate
from embedlens.embedding import detect_embedding
from embedlens.errors import SizeGuardError, ValidationError
from embedlens.functions import (
    ProductFunction,
    TableFunction,
    character_function,
    efron_stein,
    expectation,
    global_inverse_check,
    inner_product,
    l2_norm,
    low_degree_project,
    noise_apply,
    restrict,
    stability,
    uniform_measure,
)
from oracles import functions, measures, subset_efron_stein

B = alphabet(["0", "1"])
UB = uniform_measure(B)


def random_table(rng: random.Random, n: int, alpha=B) -> TableFunction:
    vals = []
    for _ in range(len(alpha) ** n):
        r = rng.random() ** 0.5
        t = rng.random()
        vals.append(r * cmath.exp(2j * cmath.pi * t))
    return TableFunction(n, alpha, vals)


def parity(n: int) -> TableFunction:
    return TableFunction.from_callable(n, B, lambda x: (-1) ** sum(int(s) for s in x))


def test_inner_product_of_ones():
    one = TableFunction.constant(3, B, 1)
    assert inner_product(one, one, UB) == pytest.approx(1)


def test_inner_product_self_nonnegative_real():
    rng = random.Random(0)
    f = random_table(rng, 3)
    v = inner_product(f, f, UB)
    assert v.imag == pytest.approx(0, abs=1e-14)
    assert v.real >= 0


def test_inner_product_orthogonal_pair():
    f = TableFunction(1, B, [1, -1])
    g = TableFunction(1, B, [1, 1])
    assert inner_product(f, g, UB) == pytest.approx(0)


def test_noise_identity_and_total():
    rng = random.Random(1)
    f = random_table(rng, 2)
    assert np.allclose(noise_apply(f, 1.0, UB).values, f.values)
    collapsed = noise_apply(f, 0.0, UB)
    mean = expectation(f, UB)
    assert np.allclose(collapsed.values, mean)


def test_noise_single_coordinate_formula():
    rng = random.Random(2)
    f = random_table(rng, 1)
    rho = 0.37
    expected = rho * f.values + (1 - rho) * expectation(f, UB)
    assert np.allclose(noise_apply(f, rho, UB).values, expected)


def test_noise_is_averaging_and_unital():
    rng = random.Random(3)
    f = random_table(rng, 3)
    g = noise_apply(f, 0.6, UB)
    assert g.sup_norm() <= f.sup_norm() + 1e-12
    one = TableFunction.constant(3, B, 1)
    assert np.allclose(noise_apply(one, 0.6, UB).values, 1)


def test_noise_semigroup():
    rng = random.Random(4)
    for n in (1, 2):
        f = random_table(rng, n)
        lhs = noise_apply(noise_apply(f, 0.8, UB), 0.5, UB)
        rhs = noise_apply(f, 0.4, UB)
        assert np.allclose(lhs.values, rhs.values, atol=1e-10)


def test_stability_constant_and_mean_zero():
    c = TableFunction.constant(2, B, 0.3 + 0.4j)
    assert stability(c, 0.7, UB) == pytest.approx(0.25)
    rng = random.Random(5)
    g = random_table(rng, 1)
    g0 = TableFunction(1, B, g.values - expectation(g, UB))
    rho = 0.42
    assert stability(g0, rho, UB) == pytest.approx(rho * inner_product(g0, g0, UB).real)


def test_stability_parity_is_rho_to_n():
    for n in (1, 2, 3, 4):
        for rho in (0.0, 0.3, 0.9, 1.0):
            assert stability(parity(n), rho, UB) == pytest.approx(rho ** n, abs=1e-12)


def test_efron_stein_constant():
    c = TableFunction.constant(2, B, 0.5j)
    dec = efron_stein(c, UB)
    assert dec.degree_weights[0] == pytest.approx(0.25)
    assert sum(dec.degree_weights[1:]) == pytest.approx(0, abs=1e-12)


def test_efron_stein_sum_of_mean_zero_singles():
    rng = random.Random(6)
    gs = []
    for _ in range(3):
        g = random_table(rng, 1)
        gs.append(g.values - expectation(g, UB))
    f = TableFunction.from_callable(3, B, lambda x: sum(gs[j][B.index(x[j])] for j in range(3)))
    dec = efron_stein(f, UB)
    assert dec.degree_weights[1] == pytest.approx(dec.norm_sq, abs=1e-10)


def test_efron_stein_parity_top_degree():
    dec = efron_stein(parity(3), UB)
    assert dec.degree_weights[3] == pytest.approx(1)
    assert sum(dec.degree_weights[:3]) == pytest.approx(0, abs=1e-12)


def test_efron_stein_reconstruction_and_orthogonality():
    rng = random.Random(7)
    T = alphabet(["a", "b", "c"])
    nu = univariate(T, {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)})
    f = random_table(rng, 2, T)
    dec = efron_stein(f, nu)
    total = sum(p.values for p in dec.parts)
    assert np.allclose(total, f.values, atol=1e-10)
    for i in range(len(dec.parts)):
        for j in range(i + 1, len(dec.parts)):
            assert abs(inner_product(dec.parts[i], dec.parts[j], nu)) < 1e-10
    assert sum(dec.degree_weights) == pytest.approx(dec.norm_sq, abs=1e-10)


def test_efron_stein_work_guard():
    # n = 19 is the smallest n whose 20 stacked degree parts exceed the guard
    f = TableFunction.constant(19, B, 1)
    with pytest.raises(SizeGuardError):
        efron_stein(f, UB)


def test_stability_diagonalization_random():
    rng = random.Random(9)
    T = alphabet(["x", "y", "z"])
    nu = univariate(T, {"x": Fraction(2, 5), "y": Fraction(2, 5), "z": Fraction(1, 5)})
    for _ in range(10):
        n = rng.randrange(1, 4)
        f = random_table(rng, n, T)
        dec = efron_stein(f, nu)
        for rho in (0.0, 0.3, 1.0):
            predicted = sum(rho ** d * w for d, w in enumerate(dec.degree_weights))
            assert stability(f, rho, nu) == pytest.approx(predicted, abs=1e-10)


def test_low_degree_project():
    f = parity(3)
    full, norm = low_degree_project(f, 3, UB)
    assert np.allclose(full.values, f.values, atol=1e-10)
    zero, znorm = low_degree_project(f, 2, UB)
    assert np.allclose(zero.values, 0, atol=1e-10) and znorm < 1e-10
    rng = random.Random(10)
    g = random_table(rng, 2)
    const, cnorm = low_degree_project(g, 0, UB)
    assert np.allclose(const.values, expectation(g, UB), atol=1e-10)
    assert cnorm <= l2_norm(g, UB) + 1e-12


def test_restrict_basics():
    rng = random.Random(11)
    f = random_table(rng, 3)
    assert np.allclose(restrict(f, {}).values, f.values)
    z = {0: "1", 1: "0", 2: "1"}
    r = restrict(f, z)
    assert r.n == 0
    assert r.values[0] == pytest.approx(f.evaluate(("1", "0", "1")))
    part = restrict(f, {1: "0"})
    assert part.n == 2
    assert part.evaluate(("1", "1")) == pytest.approx(f.evaluate(("1", "0", "1")))


def test_restrict_commutes_with_noise_on_free_coordinates():
    rng = random.Random(12)
    f = random_table(rng, 3)
    rho = 0.55
    noisy = noise_apply(f, rho, UB, coords=[0, 2])
    lhs = restrict(noisy, {1: "1"})
    rhs = noise_apply(restrict(f, {1: "1"}), rho, UB)
    assert np.allclose(lhs.values, rhs.values, atol=1e-12)


def test_product_restriction_factorizes():
    rng = random.Random(13)
    rows = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)] for _ in range(3)]
    p = ProductFunction(B, np.array(rows))
    scalar, rest = p.restrict({1: "0"})
    assert scalar == pytest.approx(rows[1][0])
    table = p.to_table()
    restricted = restrict(table, {1: "0"})
    assert np.allclose(restricted.values, scalar * rest.to_table().values)


def test_character_function_three_lin_parity():
    mu = fixtures.three_lin()
    w = detect_embedding(mu).witness
    f = character_function(w, 0, 3, alpha=B)
    table = f.to_table()
    assert np.allclose(table.values, parity(3).values)


def test_character_constant_sigma_gives_one():
    from embedlens.embedding import EmbeddingWitness

    w = EmbeddingWitness(2, ({"0": 0, "1": 0}, {"0": 0, "1": 1}, {"0": 0, "1": 1}))
    f = character_function(w, 0, 2, alpha=B)
    assert np.allclose(f.to_table().values, 1)


def test_character_z3_romega():
    mu = fixtures.z3_sum()
    w = detect_embedding(mu).witness
    f = character_function(w, 0, 1, alpha=mu.alphabets[0])
    omega = cmath.exp(2j * cmath.pi / 3)
    vals = f.to_table().values
    expected = [omega ** w.sigma[0][s] for s in mu.alphabets[0].symbols]
    assert np.allclose(vals, expected)


def test_character_integer_witness_phase():
    from embedlens.embedding import EmbeddingWitness

    w = EmbeddingWitness(0, ({"0": 0, "1": 3}, {"0": 0, "1": -3}))
    f = character_function(w, 0, 1, alpha=B)
    # span 6, theta = 1/7: nonconstant factor, exact rational phases
    assert f.phases[0][1] == Fraction(3, 7)
    g = character_function(w, 1, 1, alpha=B)
    assert g.phases[0][1] == Fraction(-3, 7) % 1


def test_global_inverse_check_product_self():
    rng = random.Random(14)
    rows = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)] for _ in range(3)]
    p = ProductFunction(B, np.array(rows))
    f = p.to_table()
    one = TableFunction.constant(3, B, 1)
    rep = global_inverse_check(f, one, p, UB, degree_bound=0)
    assert rep.value == pytest.approx(1)
    assert rep.all_ok


def test_global_inverse_check_orthogonality_and_parity():
    f = parity(3)
    one_prod = ProductFunction(B, np.ones((3, 2)))
    low, _ = low_degree_project(f, 2, UB)
    rep = global_inverse_check(f, TableFunction.constant(3, B, 1), one_prod, UB, degree_bound=2)
    assert rep.value == pytest.approx(0, abs=1e-12)
    rep2 = global_inverse_check(f, f, one_prod, UB, degree_bound=3)
    assert rep2.value == pytest.approx(1)
    assert rep2.degree == 3 and rep2.degree_ok and rep2.norm_ok


def test_character_correlation_is_one_every_n():
    # the defining computation: product of characters over a support atom is 1
    mu = fixtures.three_lin()
    w = detect_embedding(mu).witness
    for n in (1, 2, 5):
        fs = [character_function(w, i, n, alpha=mu.alphabets[i]) for i in range(3)]
        for x in mu.support:
            rows = [(sym,) * n for sym in x]
            prod = 1 + 0j
            for i, row in enumerate(rows):
                prod *= fs[i].evaluate(row)
            assert prod == pytest.approx(1)


def test_function_json_roundtrip(tmp_path):
    rng = random.Random(15)
    f = random_table(rng, 2)
    data = f.to_json()
    again = TableFunction.from_json(data)
    assert np.allclose(again.values, f.values)
    p = ProductFunction(B, np.array([[1, -1], [1j, 1]]))
    q = ProductFunction.from_json(p.to_json())
    assert np.allclose(q.factors, p.factors)


def test_table_function_validates_shape():
    with pytest.raises(ValidationError):
        TableFunction(2, B, [1, 2, 3])
    with pytest.raises(ValidationError):
        inner_product(TableFunction(1, B, [1, 1]), TableFunction.constant(2, B, 1), UB)


@settings(max_examples=150, deadline=None)
@given(size=st.integers(1, 3), n=st.integers(0, 3), data=st.data())
def test_efron_stein_matches_subset_components(size, n, data):
    alpha = alphabet([str(s) for s in range(size)])
    nu = data.draw(measures(alpha))
    f = data.draw(functions(n, alpha))
    comps = subset_efron_stein(f, nu)
    dec = efron_stein(f, nu)
    assert len(dec.parts) == n + 1
    for d, part in enumerate(dec.parts):
        want = sum(c.values for s, c in comps.items() if len(s) == d)
        assert np.max(np.abs(part.values - want)) <= 1e-12
        weight = sum(inner_product(c, c, nu).real for s, c in comps.items() if len(s) == d)
        assert abs(dec.degree_weights[d] - weight) <= 1e-12
    for d in range(-1, n + 1):
        low, _ = low_degree_project(f, d, nu)
        want = sum((c.values for s, c in comps.items() if len(s) <= d), np.zeros(size ** n))
        assert np.max(np.abs(low.values - want)) <= 1e-12
