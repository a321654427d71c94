import cmath
import random
from fractions import Fraction
from itertools import product as iprod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embedlens import correlation, fixtures
from embedlens.distributions import JointDistribution, alphabet, univariate
from embedlens.embedding import detect_embedding
from embedlens.errors import SizeGuardError, ValidationError
from embedlens.correlation import (
    best_product_correlation,
    exact_correlation,
    hoeffding_half_width,
    mc_correlation,
    restricted_product_correlation,
)
from embedlens.functions import (
    CharacterProduct,
    ProductFunction,
    TableFunction,
    character_function,
    uniform_measure,
)
from oracles import (
    DENOMINATORS,
    distributions,
    enumerate_correlation,
    fraction_characters,
    functions,
    masses_over,
    prime_masses,
    sample_loop_correlation,
)

B = alphabet(["0", "1"])


def random_table(rng, n, alpha=B):
    vals = []
    for _ in range(len(alpha) ** n):
        r = rng.random() ** 0.5
        t = rng.random()
        vals.append(r * cmath.exp(2j * cmath.pi * t))
    return TableFunction(n, alpha, vals)


def characters_for(dist, n):
    w = detect_embedding(dist).witness
    return [character_function(w, i, n, alpha=dist.alphabets[i]) for i in range(dist.k)]


def test_constant_ones_give_one():
    mu = fixtures.three_lin()
    ones = [TableFunction.constant(2, B, 1) for _ in range(3)]
    res = exact_correlation(mu, ones, 2)
    assert res.value == 1
    assert res.mode == "exact" and res.half_width == 0


def test_three_lin_characters_exactly_one():
    mu = fixtures.three_lin()
    for n in (1, 3, 6, 10):
        res = exact_correlation(mu, characters_for(mu, n), n)
        assert res.exact == (Fraction(1), Fraction(0))
        assert res.value == 1 + 0j


def test_z3_characters_exactly_one():
    mu = fixtures.z3_sum()
    for n in (1, 4, 10):
        res = exact_correlation(mu, characters_for(mu, n), n)
        assert res.exact == (Fraction(1), Fraction(0))
        assert res.value == 1 + 0j


def test_punctured_cube_parity_decay():
    mu = fixtures.punctured_cube()
    half = Fraction(1, 2)
    for n in (1, 2, 5, 10):
        par = [CharacterProduct(B, [[Fraction(0), half]] * n) for _ in range(3)]
        res = exact_correlation(mu, par, n)
        assert res.exact == (Fraction(1, 7) ** n, Fraction(0))


def test_fast_path_equals_slow_path():
    rng = random.Random(21)
    mu = fixtures.three_lin()
    for n in (1, 2, 3, 4):
        prods = []
        for _ in range(3):
            rows = [[cmath.exp(2j * cmath.pi * rng.random()) * rng.random() for _ in range(2)]
                    for _ in range(n)]
            prods.append(ProductFunction(B, np.array(rows)))
        fast = exact_correlation(mu, prods, n)
        slow = exact_correlation(mu, [p.to_table() for p in prods], n)
        assert fast.value == pytest.approx(slow.value, abs=1e-10)


def test_correlation_bounded_by_sup_norms():
    rng = random.Random(22)
    mu = fixtures.z3_sum()
    for n in (1, 2):
        fs = [random_table(rng, n, mu.alphabets[i]) for i in range(3)]
        res = exact_correlation(mu, fs, n)
        bound = 1.0
        for f in fs:
            bound *= np.abs(f.values).max()
        assert abs(res.value) <= bound + 1e-10


def test_exact_size_guard():
    # 3-LIN has 4 distinct first-two columns; 4^12 exceeds the dense-tensor guard
    mu = fixtures.three_lin()
    fs = [random_table(random.Random(1), 12) for _ in range(3)]
    with pytest.raises(SizeGuardError):
        exact_correlation(mu, fs, 12)


def test_arity_mismatch_rejected():
    mu = fixtures.three_lin()
    fs = [TableFunction.constant(2, B, 1)] * 3
    with pytest.raises(ValidationError):
        exact_correlation(mu, fs, 3)
    with pytest.raises(ValidationError):
        exact_correlation(mu, fs[:2], 2)


def test_mc_constant_is_exact_one():
    mu = fixtures.three_lin()
    ones = [TableFunction.constant(2, B, 1) for _ in range(3)]
    res = mc_correlation(mu, ones, 2, samples=500, seed=9)
    assert res.value == 1
    assert res.half_width == pytest.approx(hoeffding_half_width(500))
    assert res.mode == "monte-carlo" and res.samples == 500


def test_mc_characters_always_one():
    mu = fixtures.three_lin()
    res = mc_correlation(mu, characters_for(mu, 3), 3, samples=2000, seed=17)
    assert res.value == pytest.approx(1, abs=1e-12)


def test_mc_reproducible_and_near_exact():
    rng = random.Random(23)
    mu = fixtures.three_lin()
    fs = [random_table(rng, 3) for _ in range(3)]
    a = mc_correlation(mu, fs, 3, samples=4000, seed=31)
    b = mc_correlation(mu, fs, 3, samples=4000, seed=31)
    assert a.value == b.value
    exact = exact_correlation(mu, fs, 3)
    assert abs(a.value - exact.value) <= 3 * a.half_width


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), samples=st.integers(1, 30),
       seed=st.integers(0, 2 ** 64), block=st.integers(1, 12))
def test_batched_mc_matches_the_sample_loop_bit_for_bit(data, n, samples, seed, block):
    """Blocks of draws (shrunk here so that samples cross them), on masses
    over 1, 2^j, 2^j + 1, >2^32, >2^63 or many primes, with table, product
    and character functions mixed."""
    if data.draw(st.booleans(), label="prime masses"):
        alphabets, atoms = data.draw(prime_masses())
    else:
        alphabets = [alphabet([str(s) for s in range(data.draw(st.integers(1, 3)))])
                     for _ in range(data.draw(st.integers(1, 3)))]
        atoms = data.draw(masses_over(alphabets, data.draw(DENOMINATORS)))
    mu = JointDistribution(alphabets, atoms)
    fs = [data.draw(functions(n, a, kinds=("table", "product", "character"))) for a in alphabets]
    with mock.patch.object(correlation, "MC_BLOCK", block):
        got = mc_correlation(mu, fs, n, samples, seed).value
    want = sample_loop_correlation(mu, fs, n, samples, seed)
    assert [got.real.hex(), got.imag.hex()] == [want.real.hex(), want.imag.hex()]


def test_ascent_recovers_unimodular_product():
    rng = random.Random(24)
    nu = uniform_measure(B)
    for n in (1, 2, 3):
        rows = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)] for _ in range(n)]
        p = ProductFunction(B, np.array(rows))
        res = best_product_correlation(nu, p.to_table(), seed=100 + n)
        assert res.value >= 1 - 1e-9
        assert np.abs(res.product.factors).max() <= 1 + 1e-12


def test_ascent_dictator_closed_form():
    rng = random.Random(25)
    nu = univariate(B, {"0": Fraction(1, 3), "1": Fraction(2, 3)})
    g = [0.9 * cmath.exp(0.7j), 0.4 * cmath.exp(-1.2j)]
    f = TableFunction(2, B, [g[0], g[0], g[1], g[1]])  # g of the first coordinate
    res = best_product_correlation(nu, f, seed=5)
    expected = float(Fraction(1, 3)) * abs(g[0]) + float(Fraction(2, 3)) * abs(g[1])
    assert res.value == pytest.approx(expected, abs=1e-9)


def test_ascent_zero_function():
    nu = uniform_measure(B)
    res = best_product_correlation(nu, TableFunction.constant(2, B, 0), seed=0)
    assert res.value == 0


def test_ascent_trace_monotone():
    rng = random.Random(26)
    nu = uniform_measure(B)
    for _ in range(20):
        f = random_table(rng, 3)
        res = best_product_correlation(nu, f, restarts=3, seed=rng.randrange(10 ** 6))
        for a, b in zip(res.trace, res.trace[1:]):
            assert b >= a - 1e-12


def test_ascent_refuses_a_negative_seed():
    # random.Random seeds from |seed|: -1 would replay the stream of seed 1
    nu = uniform_measure(B)
    f = random_table(random.Random(31), 3)
    with pytest.raises(ValidationError):
        best_product_correlation(nu, f, restarts=4, seed=-1)
    with pytest.raises(ValidationError):
        restricted_product_correlation(f, nu, 0.5, 20, -1, 0.8)


def test_ascent_keeps_the_stream_of_a_seed():
    # values recorded while the routines still seeded random.Random directly
    nu = uniform_measure(B)
    f = random_table(random.Random(31), 3)
    res = best_product_correlation(nu, f, restarts=4, seed=5)
    want = ["0x1.c35d7fde2e260p-2", "0x1.e413a69435611p-2", "0x1.e4b69f0ffb43bp-2",
            "0x1.e4b888e6a41d8p-2", "0x1.e4b88ed3b78e4p-2", "0x1.e4b88ee62e9dcp-2",
            "0x1.e4b88ee668325p-2"]
    assert res.trace == pytest.approx([float.fromhex(x) for x in want], rel=1e-12, abs=0)
    assert restricted_product_correlation(f, nu, 0.5, 20, 7, 0.8) == 0.1
    assert restricted_product_correlation(f, nu, 0.5, 20, 1, 0.8) == 0.05


def test_restricted_correlation_unimodular_product_is_one():
    rng = random.Random(27)
    nu = uniform_measure(B)
    rows = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)] for _ in range(4)]
    p = ProductFunction(B, np.array(rows))
    frac = restricted_product_correlation(p.to_table(), nu, delta=0.4, trials=20,
                                          seed=3, threshold=1 - 1e-9)
    assert frac == 1.0


def test_restricted_correlation_zero_function():
    nu = uniform_measure(B)
    f = TableFunction.constant(3, B, 0)
    frac = restricted_product_correlation(f, nu, delta=0.5, trials=10, seed=4, threshold=0.1)
    assert frac == 0.0


def test_restricted_correlation_character_input():
    mu = fixtures.three_lin()
    nu = mu.marginal([0])
    f = characters_for(mu, 4)[0].to_table()
    frac = restricted_product_correlation(f, nu, delta=0.3, trials=15, seed=8,
                                          threshold=1 - 1e-9)
    assert frac == 1.0


def test_result_json():
    mu = fixtures.three_lin()
    res = exact_correlation(mu, characters_for(mu, 2), 2)
    payload = res.to_json()
    assert payload["exact"] == [[1, 1], [0, 1]]
    assert payload["value"] == [1.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(dist=distributions(), n=st.integers(0, 3), data=st.data())
def test_exact_correlation_matches_enumeration(dist, n, data):
    # every route, tables mixed with products and characters included
    fs = [data.draw(functions(n, a, kinds=("table", "product", "character")))
          for a in dist.alphabets]
    got = exact_correlation(dist, fs, n).value
    assert abs(got - enumerate_correlation(dist, fs, n)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(raw=prime_masses(), n=st.integers(1, 5), data=st.data())
def test_character_fold_matches_fraction_oracle(raw, n, data):
    """Denominators differ across the functions; columns repeat within one.
    150 examples keep as many exact folds (phase sums on the quarters) as
    100 gave when every denominator was at most 12."""
    alphabets, atoms = raw
    fs = [data.draw(functions(n, a, kinds=("character",))) for a in alphabets]
    res = exact_correlation(JointDistribution(alphabets, atoms), fs, n)
    value, exact = fraction_characters(atoms, fs, n)
    assert res.exact == exact
    assert res.value == value


@st.composite
def column_pool_characters(draw, alphabets, n):
    """One character per alphabet whose columns are drawn from a pool of 1-3
    columns, so that a column's count reaches n and covers every bit of the
    squaring loop. A pool column is one phase row per character, over 4
    (on the quarters) or over 3, 8 or 12 (mostly off them), so pools mix
    exact and float-only columns."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        den = draw(st.sampled_from([4, 4, 3, 8, 12]))
        pool.append([[Fraction(draw(st.integers(0, den - 1)), den) for _ in a.symbols]
                     for a in alphabets])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return [CharacterProduct(a, [pool[p][i] for p in picks]) for i, a in enumerate(alphabets)]


@settings(max_examples=150, deadline=None)
@given(raw=prime_masses(), n=st.integers(0, 64), data=st.data())
def test_long_character_folds_match_the_fraction_oracle(raw, n, data):
    """Few distinct columns with counts up to 64: the exact value raised to
    the counts and the float value multiplied in column order, bit for bit."""
    alphabets, atoms = raw
    fs = data.draw(column_pool_characters(alphabets, n))
    res = exact_correlation(JointDistribution(alphabets, atoms), fs, n)
    value, exact = fraction_characters(atoms, fs, n)
    assert res.exact == exact
    assert res.value == value


# Pairwise coprime denominators near 2^40: each character's numerators are
# int64, while the lcm of two of them is past 2^62 (Python-int scaling).
NEAR_2_40 = (2 ** 40 - 1, 2 ** 40 + 1, 2 ** 40 + 3)
# On the equality support of {0,1}^3, the first two phases cancel up to 1/4 at
# (1, 1, 0); the third character's phase at "1" is never read.
EQUAL_PAIR = {("0", "0", "0"): Fraction(2, 5), ("1", "1", "0"): Fraction(3, 5)}


@pytest.mark.parametrize("dens", [NEAR_2_40[:2], NEAR_2_40, (2 ** 64 + 13,) * 3,
                                  (2 ** 64 + 13, 12, 2 ** 40 + 1)])
@pytest.mark.parametrize("n", [1, 7, 40])
def test_wide_phase_denominators_match_the_fraction_oracle(dens, n):
    """Phases off the quarters (float only), and the cancelling pair on the
    equality support (exact), against the Fraction oracle; a denominator past
    2^62 keeps its numerators as Python ints."""
    rng = random.Random(repr((dens, n)))
    atoms = {x: Fraction(1, 2 ** len(dens)) for x in iprod("01", repeat=len(dens))}
    offs = [CharacterProduct(B, [[Fraction(rng.randrange(den), den) for _ in "01"]
                                 for _ in range(n)]) for den in dens]
    p, q = dens[0], dens[-1]
    a = rng.randrange(1, p)
    cancel = [CharacterProduct(B, [[0, Fraction(a, p)]] * n),
              CharacterProduct(B, [[0, Fraction(p - a, p) + Fraction(1, 4)]] * n),
              CharacterProduct(B, [[0, Fraction(1, q)]] * n)]
    for fs, atoms in ((offs, atoms), (cancel, EQUAL_PAIR)):
        for f in fs:
            assert f.numerators.dtype == (np.int64 if f.denominator < 2 ** 62 else object)
        alphabets = [B] * len(fs)
        res = exact_correlation(JointDistribution(alphabets, atoms), fs, n)
        value, exact = fraction_characters(atoms, fs, n)
        assert res.exact == exact
        assert res.value == value
    assert exact is not None  # the cancelling pair folds exactly: (2/5 + 3i/5)^n
