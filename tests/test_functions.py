import cmath
import math
import random
from fractions import Fraction
from itertools import product as iprod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embedlens import fixtures, functions as functions_module
from embedlens.distributions import alphabet, univariate
from embedlens.embedding import detect_embedding
from embedlens.errors import SizeGuardError, ValidationError
from embedlens.functions import (
    CharacterProduct,
    ProductFunction,
    TableFunction,
    axis_map,
    character_function,
    efron_stein,
    expectation,
    fsums,
    inner_product,
    noise_apply,
    restrict,
    stabilities,
    stability,
    uniform_measure,
)
from oracles import (character_numerators, evaluate, fsum_inner_product, fsum_stability,
                     functions, measures, ordered_axis_map, phase, subset_efron_stein)

B = alphabet(["0", "1"])
UB = uniform_measure(B)


def random_table(rng: random.Random, n: int, alpha=B) -> TableFunction:
    vals = []
    for _ in range(len(alpha) ** n):
        r = rng.random() ** 0.5
        t = rng.random()
        vals.append(r * cmath.exp(2j * cmath.pi * t))
    return TableFunction(n, alpha, vals)


@pytest.mark.parametrize("den", [8, 2 ** 61 - 1, 2 ** 89 - 1])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_character_evaluate_many_is_evaluate_bit_for_bit(den, data):
    """Phase sums in int64 and, past 2^62, in Python integers, against the
    oracle's Fraction sums: on seeded rows over den, whose integer form must
    read back as those rows, and on a character the strategy draws."""
    rng = random.Random(den)
    alpha = alphabet("012")
    rows = [[Fraction(rng.randrange(den), den) for _ in alpha.symbols] for _ in range(4)]
    f = CharacterProduct(alpha, rows)
    assert [[phase(f, j, s) for s in range(3)] for j in range(4)] == rows
    words = np.array(list(iprod(range(3), repeat=4)))
    for g in (f, data.draw(functions(4, alpha, kinds=("character",)))):
        for word, re, im in zip(words, *g.evaluate_many(words)):
            value = evaluate(g, [alpha.symbols[s] for s in word])
            assert (re.hex(), im.hex()) == (value.real.hex(), value.imag.hex())


class Phase(Fraction):
    """A Fraction subclass, which the constructor reads as any other number."""


# Phase kinds the constructor takes: each maps a Fraction in [-3, 3] with a
# denominator up to 2^70 (so past 2^62 too) onto one input type.
PHASE_KINDS = {
    "fraction": lambda q: q,
    "subclass": Phase,
    "str": str,
    "int": lambda q: q.numerator // q.denominator,
    "float": float,
}


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 3), n=st.integers(0, 6), data=st.data())
def test_character_constructor_matches_the_per_element_reference(size, n, data):
    """Rows of one kind or mixed kinds, negative phases and phases of 1 or
    more, against `oracles.character_numerators`: the same denominator, the
    same numerators, int64 exactly while D < 2^62."""
    alpha = alphabet([str(s) for s in range(size)])
    kinds = data.draw(st.lists(st.sampled_from(sorted(PHASE_KINDS)), min_size=1, unique=True))
    phase_in = st.tuples(st.sampled_from(kinds), st.fractions(-3, 3, max_denominator=2 ** 70))
    rows = [[PHASE_KINDS[kind](q) for kind, q in data.draw(
        st.lists(phase_in, min_size=size, max_size=size))] for _ in range(n)]
    f = CharacterProduct(alpha, rows)
    numerators, den = character_numerators(rows)
    assert f.denominator == den
    assert f.numerators.shape == (n, size) and not f.numerators.flags.writeable
    assert f.numerators.dtype == (np.int64 if den < 2 ** 62 else object)
    assert f.numerators.tolist() == numerators


@pytest.mark.parametrize("rows", [[[0, Fraction(1, 2)], [0]], [[0], [Fraction(1, 3), 0, 1]],
                                  [[0, 1, 2]]])
def test_character_rows_must_match_the_alphabet(rows):
    """A ragged row is refused, also when the lengths add up to n |alphabet|."""
    with pytest.raises(ValidationError, match="phase row length must match alphabet size"):
        CharacterProduct(B, rows)


def test_character_with_no_columns():
    f = CharacterProduct(B, [])
    assert (f.n, f.denominator, f.numerators.shape, f.numerators.dtype) == (0, 1, (0, 2), np.int64)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 3), n=st.integers(0, 3), data=st.data())
def test_character_factors_are_the_single_column_values(size, n, data):
    """Factor j of `to_product` at symbol s is, bit for bit, the oracle's value
    at the word (s,) of the one-column character with phase row j."""
    alpha = alphabet([str(s) for s in range(size)])
    f = data.draw(functions(n, alpha, kinds=("character",)))
    factors = f.to_product().factors
    assert factors.shape == (n, size)
    for j in range(n):
        column = CharacterProduct(alpha, [[phase(f, j, s) for s in range(size)]])
        for s, sym in enumerate(alpha.symbols):
            want = evaluate(column, (sym,))
            assert (factors[j, s].real.hex(), factors[j, s].imag.hex()) == (
                want.real.hex(), want.imag.hex())


def parity(n: int) -> TableFunction:
    return TableFunction(n, B, [(-1) ** sum(x) for x in iprod(range(2), repeat=n)])


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


FLOATS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0, 1e-300])


@settings(max_examples=150, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
def test_axis_map_adds_in_index_order(shape, data):
    """Against a Python-float loop, bit for bit, on any axis of any shape,
    through a real matrix or a measure's w[None]; and against np.tensordot,
    within 1e-12 of the sum of the terms' magnitudes, also through a complex
    matrix."""
    axis = data.draw(st.integers(0, len(shape) - 1))
    size = math.prod(shape)
    parts = data.draw(st.lists(FLOATS, min_size=2 * size, max_size=2 * size))
    arr = np.array([complex(*p) for p in zip(parts[:size], parts[size:])]).reshape(shape)
    a = shape[axis]
    if data.draw(st.booleans()):  # a measure: w[None]
        w = np.array(data.draw(st.lists(st.integers(0, 5), min_size=a, max_size=a).filter(any)))
        matrix = (w / w.sum())[None]
    else:
        out = data.draw(st.integers(1, 4))
        matrix = np.array(data.draw(st.lists(FLOATS, min_size=out * a, max_size=out * a)))
        matrix = matrix.reshape(out, a)
    got = axis_map(arr, matrix, axis)
    want = ordered_axis_map(arr, matrix, axis)
    assert got.shape == want.shape
    assert [(v.real.hex(), v.imag.hex()) for v in got.ravel().tolist()] == [
        (v.real.hex(), v.imag.hex()) for v in want.ravel().tolist()]
    if data.draw(st.booleans()):
        matrix = matrix * np.exp(1j * np.array(data.draw(st.lists(
            st.floats(0, 7), min_size=matrix.size, max_size=matrix.size)))).reshape(matrix.shape)
        got = axis_map(arr, matrix, axis)

    def contract(m, x):
        return np.moveaxis(np.tensordot(m, x, axes=([1], [axis])), 0, axis)

    assert np.all(np.abs(got - contract(matrix, arr)) <= 1e-12 * contract(np.abs(matrix), np.abs(arr)))


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
    assert np.abs(g.values).max() <= np.abs(f.values).max() + 1e-12
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
    f = TableFunction(3, B, [sum(gs[j][x[j]] for j in range(3)) for x in iprod(range(2), repeat=3)])
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
    # n = 19 is the smallest n whose 21 summed rows (20 degree parts and f) exceed the guard
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


def low_degree_part(f, d, nu) -> tuple[np.ndarray, float]:
    """f^{<=d} as the sum of the degree parts up to d, and its squared norm sum_{e<=d} W_e."""
    dec = efron_stein(f, nu)
    return sum(part.values for part in dec.parts[:d + 1]), sum(dec.degree_weights[:d + 1])


def test_low_degree_project():
    f = parity(3)
    full, norm_sq = low_degree_part(f, 3, UB)
    assert np.allclose(full, f.values, atol=1e-10) and norm_sq == pytest.approx(1)
    zero, znorm_sq = low_degree_part(f, 2, UB)
    assert np.allclose(zero, 0, atol=1e-10) and znorm_sq < 1e-20
    rng = random.Random(10)
    g = random_table(rng, 2)
    const, cnorm_sq = low_degree_part(g, 0, UB)
    assert np.allclose(const, expectation(g, UB), atol=1e-10)
    assert cnorm_sq == pytest.approx(abs(expectation(g, UB)) ** 2)
    assert cnorm_sq <= inner_product(g, g, UB).real + 1e-12


def test_restrict_basics():
    rng = random.Random(11)
    f = random_table(rng, 3)
    assert np.allclose(restrict(f, {}).values, f.values)
    z = {0: "1", 1: "0", 2: "1"}
    r = restrict(f, z)
    assert r.n == 0
    assert r.values[0] == pytest.approx(evaluate(f, ("1", "0", "1")))
    part = restrict(f, {1: "0"})
    assert part.n == 2
    assert evaluate(part, ("1", "1")) == pytest.approx(evaluate(f, ("1", "0", "1")))


def test_restrict_commutes_with_noise_on_free_coordinates():
    # fixing x_1 = 1 after noise on every coordinate is noise on the free
    # ones applied to rho f|_{x_1=1} + (1 - rho) E_{x_1} f
    rng = random.Random(12)
    f = random_table(rng, 3)
    rho = 0.55
    lhs = restrict(noise_apply(f, rho, UB), {1: "1"})
    mixed = TableFunction(2, B, rho * restrict(f, {1: "1"}).values + (1 - rho) * 0.5 * (
        restrict(f, {1: "0"}).values + restrict(f, {1: "1"}).values))
    rhs = noise_apply(mixed, rho, UB)
    assert np.allclose(lhs.values, rhs.values, atol=1e-12)


def test_product_restriction_factorizes():
    rng = random.Random(13)
    rows = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)] for _ in range(3)]
    p = ProductFunction(B, np.array(rows))
    rest = ProductFunction(B, np.array([rows[0], rows[2]]))
    restricted = restrict(p.to_table(), {1: "0"})
    assert np.allclose(restricted.values, rows[1][0] * rest.to_table().values)


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
    assert (f.denominator, f.numerators.tolist()) == (7, [[0, 3]])
    g = character_function(w, 1, 1, alpha=B)
    assert (g.denominator, g.numerators.tolist()) == (7, [[0, 4]])  # -3/7 mod 1


# The inverse theorem asks for L with deg L <= d and ||L|| <= 1 correlating with f.
# The best such delta is ||f^{<=d}|| = sqrt(sum_{e<=d} W_e), attained by the
# normalized low-degree part: the degree weights of `stability --decompose`.

def best_inverse_delta(f, d, nu) -> float:
    return sum(efron_stein(f, nu).degree_weights[:d + 1]) ** 0.5


def test_global_inverse_check_product_self():
    rng = random.Random(14)
    rows = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)] for _ in range(3)]
    f = ProductFunction(B, np.array(rows)).to_table()
    assert best_inverse_delta(f, 3, UB) == pytest.approx(1)
    assert best_inverse_delta(f, 0, UB) == pytest.approx(abs(expectation(f, UB)))
    for d in range(4):
        low, norm_sq = low_degree_part(f, d, UB)
        if norm_sq > 1e-12:
            L = TableFunction(3, B, low / norm_sq ** 0.5)
            assert abs(inner_product(f, L, UB)) == pytest.approx(best_inverse_delta(f, d, UB))


def test_global_inverse_check_orthogonality_and_parity():
    f = parity(3)
    for d in range(3):
        assert best_inverse_delta(f, d, UB) == pytest.approx(0, abs=1e-12)
    assert best_inverse_delta(f, 3, UB) == pytest.approx(1)
    rng = random.Random(18)
    g = random_table(rng, 3)
    for d in range(4):
        low, norm_sq = low_degree_part(random_table(rng, 3), d, UB)
        L = TableFunction(3, B, low / max(norm_sq ** 0.5, 1))  # deg L <= d, ||L|| <= 1
        assert abs(inner_product(f, L, UB)) <= best_inverse_delta(f, d, UB) + 1e-12
        assert abs(inner_product(g, L, UB)) <= best_inverse_delta(g, d, UB) + 1e-12


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
                prod *= evaluate(fs[i], row)
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
    assert_weights_are_fsum_inner_products(dec, f, nu)


def assert_weights_are_fsum_inner_products(dec, f, nu):
    """Each W_d and ||f||^2 is exactly the math.fsum inner product of the oracle."""
    for part, weight in zip(dec.parts, dec.degree_weights):
        assert weight.hex() == fsum_inner_product(part, part, nu).real.hex()
    assert dec.norm_sq.hex() == fsum_inner_product(f, f, nu).real.hex()


@settings(max_examples=25, deadline=None)
@given(size=st.integers(2, 3), data=st.data())
def test_degree_weights_past_the_fsum_crossover_are_exact(size, data):
    """Tables of 2^9 to 2^10 or 3^6 to 3^7 entries, whose rows the bucketed
    kernel of `fsums` sums, give the oracle's weights to the bit."""
    alpha = alphabet([str(s) for s in range(size)])
    n = data.draw(st.integers(9, 10) if size == 2 else st.integers(6, 7))
    assert size ** n > functions_module.FSUM_CROSSOVER
    nu = data.draw(measures(alpha))
    f = data.draw(functions(n, alpha))
    assert_weights_are_fsum_inner_products(efron_stein(f, nu), f, nu)


@settings(max_examples=80, deadline=None)
@given(size=st.integers(1, 3), n=st.integers(0, 4), batch=st.integers(1, 40),
       rho=st.floats(0, 1), data=st.data())
def test_stabilities_are_each_rows_stability_to_the_bit(size, n, batch, rho, data):
    """A batch of tables against one noise_apply and math.fsum inner product
    per table: the batch is noised at once, by elementwise sums that give each
    row the bits it gets alone."""
    alpha = alphabet([str(s) for s in range(size)])
    nu = data.draw(measures(alpha))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shape = (batch, size ** n)
    rows = np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape))
    got = stabilities(rows, n, alpha, rho, nu)
    want = [fsum_stability(TableFunction(n, alpha, row), rho, nu) for row in rows]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert stability(TableFunction(n, alpha, rows[0]), rho, nu) == got[0]


# ---------------------------------------------------------------------------
# fsums: math.fsum of each row, bit for bit

KERNEL_SETTINGS = [  # (crossover, block): the program's, and the kernel on every row in small blocks
    (functions_module.FSUM_CROSSOVER, functions_module.FSUM_BLOCK), (0, 64)]


def outcome(fn, row) -> str:
    """The sum's hex form (which shows the sign of a zero) or the exception's name."""
    try:
        return fn(row).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def exact_outcome(row) -> str:
    """The exact sum of a finite row, rounded once, or OverflowError past the doubles."""
    return outcome(lambda r: float(sum(map(Fraction, r), Fraction(0))), row)


@st.composite
def float_rows(draw, lengths):
    """1 to 3 rows of doubles with exponents in a drawn window of [-1074, 1023]
    (subnormals included), some zeros of either sign, and optionally each row
    followed by its negated entries, so that its sum cancels exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.integers(-1074, 1023))
    hi = draw(st.integers(lo, min(1023, lo + draw(st.sampled_from([0, 3, 60, 2100])))))
    length = draw(st.sampled_from(lengths))
    cancel = draw(st.booleans()) and length % 2 == 0
    shape = (draw(st.integers(1, 3)), length // 2 if cancel else length)
    mant = rng.integers(2 ** 52, 2 ** 53, shape).astype(np.float64) * rng.choice([-1.0, 1.0], shape)
    rows = np.ldexp(mant, rng.integers(lo, hi + 1, shape) - 52)  # rounds into subnormals below 2^-1022
    rows[rng.random(shape) < draw(st.sampled_from([0, 0.1, 1]))] = 0.0
    rows[rng.random(shape) < 0.5] *= -1.0  # the zeros too
    if cancel:
        rows = rng.permuted(np.concatenate((rows, -rows), axis=1), axis=1)
    return rows


def lengths_around(crossover: int, block: int) -> list[int]:
    return sorted({0, 1, 2, max(0, crossover - 1), crossover, crossover + 1, crossover + 2,
                   block - 1, block, block + 2, 3 * block + 6})


@pytest.mark.parametrize("crossover, block", KERNEL_SETTINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fsums_is_fsum_bit_for_bit(crossover, block, data):
    """Equal to math.fsum wherever fsum returns. Where fsum raises
    OverflowError, fsums raises too or, if only fsum's partial sums
    overflowed, returns the exact sum rounded once (the documented
    difference); past the doubles both raise."""
    rows = data.draw(float_rows(lengths_around(crossover, block)))
    with mock.patch.multiple(functions_module, FSUM_CROSSOVER=crossover, FSUM_BLOCK=block):
        got = [outcome(lambda r: fsums(r[None])[0], row) for row in rows]
        if "OverflowError" not in got:
            assert [s.hex() for s in fsums(rows)] == got  # the batch, rows sharing blocks
    for row, value in zip(rows, got):
        want = outcome(math.fsum, row.tolist())
        assert value == want or want == "OverflowError" and value == exact_outcome(row)


@pytest.mark.parametrize("crossover, block", KERNEL_SETTINGS)
@pytest.mark.parametrize("length", [1, 300, 2 ** 14 + 1])
def test_fsums_of_zeros_keeps_fsums_sign(crossover, block, length):
    rows = np.zeros((3, length))
    rows[0] = -0.0
    rows[1, ::2] = -0.0
    rows[2, 0] = 2.0 ** -1074
    rows[2, -1] -= 2.0 ** -1074  # exact cancellation when length > 1
    with mock.patch.multiple(functions_module, FSUM_CROSSOVER=crossover, FSUM_BLOCK=block):
        got = [s.hex() for s in fsums(rows)]
    assert got == [math.fsum(row).hex() for row in rows.tolist()]


def test_fsums_of_empty_rows_and_of_no_rows():
    assert fsums(np.zeros((3, 0))) == [0.0, 0.0, 0.0]
    assert fsums(np.zeros((0, 5))) == []
    assert fsums(np.zeros((0, 2 ** 15))) == []


@pytest.mark.parametrize("crossover, block", KERNEL_SETTINGS)
@pytest.mark.parametrize("length", [3, 300, 2 ** 14 + 1])
@pytest.mark.parametrize("specials", [[math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
                                      [math.inf, math.inf], [math.nan, math.inf]])
def test_fsums_keeps_fsums_inf_and_nan_rules(crossover, block, length, specials):
    rng = np.random.default_rng(length)
    row = rng.standard_normal(length) * 1e300
    row[rng.choice(length, len(specials), replace=False)] = specials
    with mock.patch.multiple(functions_module, FSUM_CROSSOVER=crossover, FSUM_BLOCK=block):
        got = outcome(lambda r: fsums(r[None])[0], row)
    assert got == outcome(math.fsum, row.tolist())


def test_fsums_raises_past_the_largest_double_and_sums_through_fsums_overflow():
    top = np.full(2 ** 14, 2.0 ** 1023)
    for crossover, block in KERNEL_SETTINGS:
        with mock.patch.multiple(functions_module, FSUM_CROSSOVER=crossover, FSUM_BLOCK=block):
            with pytest.raises(OverflowError):
                fsums(top[None])
            with pytest.raises(OverflowError):
                fsums(np.array([[1.5 * 2.0 ** 1023, 2.0 ** 1022]]))
    # math.fsum overflows adding the first two entries; the exact sum is
    # 2^1022, and the kernel's buckets never overflow.
    row = [1.5 * 2.0 ** 1023, 2.0 ** 1022, -1.5 * 2.0 ** 1023]
    with pytest.raises(OverflowError):
        math.fsum(row)
    with mock.patch.multiple(functions_module, FSUM_CROSSOVER=0):
        assert fsums(np.array([row])) == [2.0 ** 1022]
