import cmath
import dataclasses
import random
from fractions import Fraction
from itertools import product as iprod
from math import log
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from embedlens import fixtures
from embedlens.distributions import (JointDistribution, alphabet, decompose_mixture, uniform_on,
                                     univariate)
from embedlens.embedding import pairwise_connected
from embedlens.errors import SizeGuardError, ValidationError
from embedlens.correlation import exact_correlation
from embedlens.functions import (
    ProductFunction,
    TableFunction,
    expectation,
    inner_product,
    stability,
)
from embedlens.reduction import (
    STAR,
    StarCouplingParams,
    build_g,
    build_paired_copies,
    build_star_coupling,
    check_coupling_identity,
    diagonal_pairing,
    pair_symbol,
    conditional_product_given_first,
    conditional_product_given_last,
    star_alphabet,
    star_coupling_params,
)
from oracles import (
    assert_exact,
    distributions,
    enumerate_conditional_product_given_last,
    enumerate_g,
    evaluate,
    fraction_paired_copies,
    fraction_star_coupling,
    fraction_star_params,
    functions,
    group_elements,
    measures,
    per_term_coupling_rhs,
    prime_masses,
    triple_product,
)

B = alphabet(["0", "1"])


def random_table(rng, n, alpha=B, bounded=True):
    vals = []
    for _ in range(len(alpha) ** n):
        r = rng.random() ** 0.5 if bounded else 2 * rng.random()
        vals.append(r * cmath.exp(2j * cmath.pi * rng.random()))
    return TableFunction(n, alpha, vals)


def random_unimodular_product(rng, n, alpha=B):
    rows = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in alpha.symbols] for _ in range(n)]
    return ProductFunction(alpha, np.array(rows))


def product_of(dists):
    # independent product of univariate distributions
    alphabets = [d.alphabets[0] for d in dists]
    atoms = {}
    for combo in iprod(*[d.support for d in dists]):
        key = tuple(x[0] for x in combo)
        mass = Fraction(1)
        for d, x in zip(dists, combo):
            mass *= d.atoms[x]
        atoms[key] = mass
    return JointDistribution(alphabets, atoms)


def test_star_alphabet_shape():
    star = star_alphabet(B)
    assert len(star) == 5
    assert STAR in star
    assert pair_symbol("0", "1") == "0|1"
    assert "0|1" in star


def test_build_paired_copies_product_input_tensors():
    nu1 = univariate(B, {"0": Fraction(1, 3), "1": Fraction(2, 3)})
    nu2 = univariate(B, {"0": Fraction(1, 4), "1": Fraction(3, 4)})
    mu = product_of([nu1, nu2])
    mm = build_paired_copies(mu)
    # independence of the last coordinate makes the two copies independent
    for a in "01":
        for b in "01":
            assert mm.mass((a, b)) == nu1.mass((a,)) * nu1.mass((b,))


def test_build_paired_copies_three_lin():
    mm = build_paired_copies(fixtures.three_lin())
    assert len(mm.support) == 8
    assert set(mm.atoms.values()) == {Fraction(1, 8)}
    # pairs share the parity class of the conditioning bit
    for (a, b, c, d) in mm.support:
        assert (int(a) + int(b)) % 2 == (int(c) + int(d)) % 2


def test_build_paired_copies_symmetric_under_swap():
    for fix in (fixtures.three_lin, fixtures.z3_sum, fixtures.punctured_cube):
        mm = build_paired_copies(fix())
        half = len(mm.alphabets) // 2
        swapped = {x[half:] + x[:half]: p for x, p in mm.atoms.items()}
        assert swapped == mm.atoms


def test_diagonal_dominance():
    for fix in (fixtures.three_lin, fixtures.z3_sum, fixtures.punctured_cube,
                fixtures.full_support_cube, fixtures.disconnected_pair):
        mu = fix()
        mm = build_paired_copies(mu)
        rest = mu.marginal(list(range(mu.k - 1)))
        for y, p in rest.atoms.items():
            assert mm.mass(y + y) >= p * p


def test_alpha_squared_mixture_succeeds_on_fixtures():
    for fix in (fixtures.three_lin, fixtures.z3_sum, fixtures.punctured_cube,
                fixtures.full_support_cube, fixtures.disconnected_pair):
        mu = fix()
        alpha = mu.min_atom_mass()
        mm = build_paired_copies(mu)
        diag = diagonal_pairing(mu.marginal(list(range(mu.k - 1))))
        nu = decompose_mixture(mm, diag, alpha * alpha)
        for x in mm.support:
            assert alpha * alpha * diag.mass(x) + (1 - alpha * alpha) * nu.mass(x) == mm.mass(x)


def test_single_atom_pairing_is_exact_diagonal():
    mu = fixtures.single_atom()
    mm = build_paired_copies(mu)
    diag = diagonal_pairing(mu.marginal(list(range(mu.k - 1))))
    assert mm == diag  # alpha = 1: the mixture is all base, no nu component


def test_build_xi_degenerate_branches():
    mu1 = univariate(B, {"0": Fraction(1, 3), "1": Fraction(2, 3)})
    nu1 = product_of([mu1, mu1])
    c0 = build_star_coupling(StarCouplingParams(Fraction(0), Fraction(0), nu1, mu1))
    assert set(c0.support) == {("0", "0", "0|0"), ("1", "1", "1|1")}
    assert c0.mass(("0", "0", "0|0")) == Fraction(1, 3)
    c1 = build_star_coupling(StarCouplingParams(Fraction(0), Fraction(1), nu1, mu1))
    assert set(c1.support) == {("0", "0", STAR), ("1", "1", STAR)}


def test_build_xi_generic_pairwise_connected():
    for fix in (fixtures.three_lin, fixtures.z3_sum, fixtures.punctured_cube,
                fixtures.full_support_cube):
        params = star_coupling_params(fix(), Fraction(1, 3))
        coupling = build_star_coupling(params)
        ok, _ = pairwise_connected(coupling)
        assert ok


def test_build_xi_atom_mass_lower_bound():
    # every atom mass is at least its branch probability times the smallest
    # constituent mass; with the derived parameters that gives
    # alpha^2 * p_star * min(mu1) as the floor
    for fix in (fixtures.three_lin, fixtures.z3_sum, fixtures.punctured_cube,
                fixtures.full_support_cube):
        mu = fix()
        alpha = mu.min_atom_mass()
        p_star = Fraction(1, 3)
        params = star_coupling_params(mu, p_star)
        coupling = build_star_coupling(params)
        floor = alpha * alpha * p_star * params.mu1.min_atom_mass()
        assert coupling.min_atom_mass() >= floor





def test_build_g_values():
    mu1 = univariate(B, {"0": Fraction(1, 3), "1": Fraction(2, 3)})
    rng = random.Random(1)
    f1 = random_table(rng, 1)
    g = build_g(f1, mu1)
    # no star: plain pair product
    assert evaluate(g, (pair_symbol("0", "1"),)) == pytest.approx(
        evaluate(f1, ("0",)) * evaluate(f1, ("1",)).conjugate())
    # star: the shared fill gives the second moment
    expected = float(Fraction(1, 3)) * abs(evaluate(f1, ("0",))) ** 2 + \
        float(Fraction(2, 3)) * abs(evaluate(f1, ("1",))) ** 2
    assert evaluate(g, (STAR,)) == pytest.approx(expected)


def test_build_g_constant_one():
    mu1 = univariate(B, {"0": Fraction(1, 2), "1": Fraction(1, 2)})
    g = build_g(TableFunction.constant(2, B, 1), mu1)
    assert np.allclose(g.values, 1)


def test_build_g_one_bounded():
    mu1 = univariate(B, {"0": Fraction(1, 2), "1": Fraction(1, 2)})
    rng = random.Random(2)
    g = build_g(random_table(rng, 2), mu1)
    assert np.abs(g.values).max() <= 1 + 1e-12


def test_coupling_identity_constant_function():
    rep = check_coupling_identity(fixtures.three_lin(), TableFunction.constant(1, B, 1), 1,
                      Fraction(15, 16), Fraction(1, 3))
    assert rep.lhs == pytest.approx(1)
    assert rep.rhs == pytest.approx(1)


def test_coupling_identity_rate_resolution():
    # of the two candidate restriction rates only 1 - alpha^2 closes the identity
    mu = fixtures.three_lin()
    alpha = mu.min_atom_mass()
    rng = random.Random(7)
    good, bad = [], []
    for _ in range(5):
        f1 = random_table(rng, 1)
        good.append(check_coupling_identity(mu, f1, 1, 1 - alpha ** 2, Fraction(1, 3)).gap)
        bad.append(check_coupling_identity(mu, f1, 1, 1 - alpha, Fraction(1, 3)).gap)
    assert max(good) <= 1e-12
    assert min(bad) > 1e-6


def test_coupling_identity_gap_small_n2():
    mu = fixtures.three_lin()
    alpha = mu.min_atom_mass()
    rng = random.Random(8)
    for _ in range(5):
        f1 = random_table(rng, 2)
        rep = check_coupling_identity(mu, f1, 2, 1 - alpha ** 2, Fraction(1, 4))
        assert rep.gap <= 1e-10


def test_coupling_identity_holds_on_ternary_fixture():
    mu = fixtures.z3_sum()
    alpha = mu.min_atom_mass()
    rng = random.Random(21)
    for n in (1, 2):
        f1 = random_table(rng, n, mu.alphabets[0])
        rep = check_coupling_identity(mu, f1, n, 1 - alpha ** 2, Fraction(2, 5))
        assert rep.gap <= 1e-10


def test_coupling_identity_size_guard():
    with pytest.raises(SizeGuardError):
        check_coupling_identity(fixtures.three_lin(), TableFunction.constant(4, B, 1), 4,
                    Fraction(15, 16), Fraction(1, 3))


@pytest.mark.parametrize("rate", [Fraction(5), Fraction(-1), Fraction(17, 16)])
def test_coupling_identity_rejects_a_rate_outside_the_unit_interval(rate):
    with pytest.raises(ValidationError, match="restriction rate"):
        check_coupling_identity(fixtures.three_lin(), TableFunction.constant(1, B, 1), 1,
                                rate, Fraction(1, 3))


def test_conditional_product_last_constant_ones():
    mu = fixtures.three_lin()
    fs = [TableFunction.constant(2, B, 1) for _ in range(2)]
    t = conditional_product_given_last(mu, fs)
    assert np.allclose(t.values, 1)


def test_conditional_product_last_k2_is_conditional_expectation():
    nu1 = univariate(B, {"0": Fraction(1, 3), "1": Fraction(2, 3)})
    mu = JointDistribution(
        [B, B],
        {("0", "0"): Fraction(1, 6), ("1", "0"): Fraction(1, 3),
         ("0", "1"): Fraction(1, 4), ("1", "1"): Fraction(1, 4)},
    )
    rng = random.Random(9)
    f1 = random_table(rng, 1)
    t = conditional_product_given_last(mu, [f1])
    for v in "01":
        cond = mu.condition(1, v)
        expected = sum(evaluate(f1, (s,)) * float(cond.mass((s,))) for s in "01")
        assert evaluate(t, (v,)) == pytest.approx(expected)


def test_conditional_product_last_cauchy_schwarz_chain():
    rng = random.Random(10)
    mu = fixtures.z3_sum()
    for n in (1, 2):
        fs = [random_table(rng, n, mu.alphabets[i]) for i in range(2)]
        fk = random_table(rng, n, mu.alphabets[2])
        eps = abs(exact_correlation(mu, fs + [fk], n).value)
        t = conditional_product_given_last(mu, fs)
        muk = mu.marginal([2])
        norm_sq = inner_product(t, t, muk).real
        assert eps ** 2 <= norm_sq + 1e-10
        # the norm identity: the squared norm equals the correlation against the conjugate
        chain = abs(exact_correlation(mu, fs + [t.conj()], n).value)
        assert chain == pytest.approx(norm_sq, abs=1e-10)
        assert np.abs(t.values).max() <= 1 + 1e-12


def test_conditional_product_last_rejects_zero_mass_symbol():
    missing = JointDistribution(
        [B, B, B],
        {("0", "0", "0"): Fraction(1, 2), ("1", "1", "0"): Fraction(1, 2)},
    )
    with pytest.raises(ValidationError, match="zero-probability"):
        conditional_product_given_last(missing, [TableFunction.constant(1, B, 1)] * 2)


def test_conditional_product_first_ones():
    mu = fixtures.three_lin()
    ones = [ProductFunction(B, np.ones((2, 2))) for _ in range(2)]
    t = conditional_product_given_first(mu, ones)
    assert np.allclose(t.factors, 1)


def test_conditional_product_first_correlation_transfer():
    rng = random.Random(11)
    for fix in (fixtures.three_lin, fixtures.z3_sum):
        mu = fix()
        mu1 = mu.marginal([0])
        for n in (1, 2, 3):
            products = [random_unimodular_product(rng, n, mu.alphabets[i]) for i in (1, 2)]
            tp = conditional_product_given_first(mu, products)
            f = random_table(rng, n, mu.alphabets[0])
            lhs = exact_correlation(mu, [f, *products], n).value
            rhs = expectation(f * tp.to_table(), mu1)
            assert abs(lhs) == pytest.approx(abs(rhs), abs=1e-10)


def stability_transfer_holds(mu, f, products) -> bool:
    """Stab_{1-gamma}(f) >= delta^2 / 4 under the first marginal, where delta is
    f's exact correlation with the products and gamma = 1e-2 delta^2 / log(1/delta)
    (capped at 1/2); vacuous at delta = 0."""
    delta = abs(exact_correlation(mu, [f, *products], f.n).value)
    if delta <= 1e-6:
        return True
    gamma = min(1e-2 * (delta * delta / log(1 / delta) if delta < 1 else 1), 0.5)
    return stability(f, 1 - gamma, mu.marginal([0])) >= delta * delta / 4 - 1e-12


def test_stability_transfer_on_character_like_inputs():
    rng = random.Random(16)
    mu = fixtures.three_lin()
    for n in (1, 2, 3):
        products = [random_unimodular_product(rng, n, mu.alphabets[i]) for i in (1, 2)]
        # conditional expectations of 1-bounded products are 1-bounded
        f = conditional_product_given_first(mu, products).to_table()
        assert stability_transfer_holds(mu, f, products)


def test_stability_transfer_noisy_perturbation():
    rng = random.Random(17)
    mu = fixtures.three_lin()
    n = 2
    products = [random_unimodular_product(rng, n, mu.alphabets[i]) for i in (1, 2)]
    base = conditional_product_given_first(mu, products).to_table()
    noise = np.array([0.05 * cmath.exp(2j * cmath.pi * rng.random())
                      for _ in range(len(base.values))])
    perturbed = TableFunction(n, base.alphabet, np.clip ((np.abs(base.values + noise)), 0, 1) *
                              np.exp(1j * np.angle(base.values + noise)))
    assert stability_transfer_holds(mu, perturbed, products)


@settings(max_examples=150, deadline=None)
@given(dist=distributions(k=st.integers(2, 3), full_last=True), n=st.integers(0, 3),
       data=st.data())
def test_conditional_product_last_matches_enumeration(dist, n, data):
    fs = [data.draw(functions(n, a)) for a in dist.alphabets[:-1]]
    got = conditional_product_given_last(dist, fs)
    want = enumerate_conditional_product_given_last(dist, fs)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 3), n=st.integers(0, 3), data=st.data())
def test_build_g_matches_enumeration(size, n, data):
    sigma = alphabet([str(s) for s in range(size)])
    mu1 = data.draw(measures(sigma))
    f1 = data.draw(functions(n, sigma))
    got = build_g(f1, mu1)
    want = enumerate_g(f1, mu1)
    assert got.alphabet == want.alphabet
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


def uniform_triple_product(alternating):
    """(alphabets, atom -> mass) of the uniform distribution on {xyz = e} of A4 or S4."""
    alphabets, support = triple_product(group_elements(4, alternating))
    return alphabets, {x: Fraction(1, len(support)) for x in support}


@settings(max_examples=150, deadline=None)
@given(raw=prime_masses(k=st.integers(2, 4)), p_star=st.fractions(0, 1, max_denominator=30),
       p_nu=st.fractions(0, 1, max_denominator=30))
@example(raw=uniform_triple_product(True), p_star=Fraction(1, 5), p_nu=Fraction(2, 3))
# S4: the whole paired space the oracle builds is 24^3 = 13,824 atoms
@example(raw=uniform_triple_product(False), p_star=Fraction(1, 5), p_nu=Fraction(2, 3))
def test_paired_copies_and_star_coupling_match_fraction_oracles(raw, p_star, p_nu):
    alphabets, atoms = raw
    mu = JointDistribution(alphabets, atoms)
    assert_exact(build_paired_copies(mu), fraction_paired_copies(atoms, mu.k))
    assert_exact(diagonal_pairing(mu), {x + x: p for x, p in atoms.items()})
    params = star_coupling_params(mu, p_star)
    want_p_nu, nu1, mu1 = fraction_star_params(atoms, mu.k)
    assert params.p_nu == want_p_nu
    assert_exact(params.nu1, nu1)
    assert_exact(params.mu1, mu1)
    assert_exact(build_star_coupling(params),
                 fraction_star_coupling(want_p_nu, p_star, nu1, mu1))
    assert_exact(build_star_coupling(dataclasses.replace(params, p_nu=p_nu)),
                 fraction_star_coupling(p_nu, p_star, nu1, mu1))


def test_star_coupling_pairs_at_most_two_coordinates():
    """nu1 is a (first, first') marginal, so the star coupling pairs the
    (first, last) marginal and never the whole support."""
    cases = [fix() for fix in (fixtures.three_lin, fixtures.z3_sum, fixtures.punctured_cube,
                               fixtures.full_support_cube, fixtures.single_atom)]
    cases += [JointDistribution(*uniform_triple_product(True)),
              uniform_on([B] * 4, [x for x in iprod("01", repeat=4) if x.count("1") % 2 == 0])]
    for mu in cases:
        with mock.patch("embedlens.reduction.build_paired_copies",
                        wraps=build_paired_copies) as paired:
            star_coupling_params(mu, Fraction(1, 3))
        assert paired.call_count and max(call.args[0].k for call in paired.call_args_list) <= 2


@st.composite
def full_support(draw):
    """A 3-ary distribution on every cell of alphabets of 2 or 3 symbols."""
    alphabets = [alphabet([str(v) for v in range(draw(st.integers(2, 3)))]) for _ in range(3)]
    cells = list(iprod(*[a.symbols for a in alphabets]))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(cells), max_size=len(cells)))
    return JointDistribution(alphabets, {x: Fraction(r, sum(raw)) for x, r in zip(cells, raw)})


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 3),
       rate=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(15, 16), Fraction(1)]),
       p_star=st.fractions(0, 1, max_denominator=12), guard=st.sampled_from([10 ** 7, 1, 5]),
       data=st.data())
def test_batched_coupling_rhs_matches_the_per_term_oracle(n, rate, p_star, guard, data):
    """The rhs, batched per inside set (in blocks of at most `guard` entries),
    equals one `stability` per assignment summed by math.fsum, to the bit."""
    dist = data.draw(st.sampled_from([fixtures.three_lin(), fixtures.z3_sum()]) | full_support())
    f1 = data.draw(functions(n, dist.alphabets[0]))
    with mock.patch("embedlens.reduction.TENSOR_GUARD", guard):
        got = check_coupling_identity(dist, f1, n, rate, p_star).rhs
    assert got.hex() == per_term_coupling_rhs(dist, f1, n, rate, p_star).hex()
