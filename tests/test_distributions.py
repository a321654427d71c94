import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from embedlens.distributions import (
    MC_DRAW_GUARD,
    Alphabet,
    ExactChooser,
    JointDistribution,
    ProductPowerSampler,
    _read_rows,
    alphabet,
    check_draws,
    decompose_mixture,
    randbelow,
    uniform_on,
    univariate,
)
from embedlens.errors import ParseError, SizeGuardError, ValidationError
from oracles import (
    DENOMINATORS,
    WordStream,
    assert_exact,
    distribution_json,
    fraction_condition,
    fraction_from_json,
    fraction_marginal,
    fraction_mixture,
    prime_masses,
)

B = alphabet(["0", "1"])


def three_lin():
    support = [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")]
    return uniform_on([B, B, B], support)


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValidationError):
        Alphabet(("a", "a"))


def test_check_draws_bounds_samples_times_n():
    check_draws(MC_DRAW_GUARD, 1)
    check_draws(1, MC_DRAW_GUARD)
    with pytest.raises(SizeGuardError):
        check_draws(MC_DRAW_GUARD + 1, 1)
    with pytest.raises(SizeGuardError):
        check_draws(2, MC_DRAW_GUARD // 2 + 1)


def test_validate_uniform_cube():
    atoms = {(a, b, c): Fraction(1, 8) for a in "01" for b in "01" for c in "01"}
    mu = JointDistribution([B, B, B], atoms)
    assert mu.atoms == atoms
    assert mu.min_atom_mass() == Fraction(1, 8)


def test_validate_flags_bad_mass_sum():
    atoms = {(a, b, c): Fraction(1, 8) for a in "01" for b in "01" for c in "01"}
    del atoms[("1", "1", "1")]
    with pytest.raises(ValidationError, match="mass sum"):
        JointDistribution([B, B, B], atoms)


def test_validate_flags_negative_mass():
    atoms = {("0",): Fraction(9, 8), ("1",): Fraction(-1, 8)}
    with pytest.raises(ValidationError, match="negative"):
        JointDistribution([B], atoms)


def test_marginal_of_three_lin_is_uniform():
    mu = three_lin()
    m = mu.marginal([0, 1])
    assert m.atoms == {(a, b): Fraction(1, 4) for a in "01" for b in "01"}


def test_marginal_all_coords_is_identity():
    mu = three_lin()
    assert mu.marginal([0, 1, 2]) == mu


def test_marginal_of_product_factorizes():
    nu1 = univariate(B, {"0": Fraction(1, 3), "1": Fraction(2, 3)})
    nu2 = univariate(B, {"0": Fraction(1, 4), "1": Fraction(3, 4)})
    prod = JointDistribution(
        [B, B],
        {(a, b): nu1.mass((a,)) * nu2.mass((b,)) for a in "01" for b in "01"},
    )
    assert prod.marginal([1]) == nu2


def test_condition_three_lin():
    mu = three_lin()
    cond = mu.condition(2, "0")
    assert cond.atoms == {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 2)}


def test_condition_on_zero_mass_value_raises():
    mu = uniform_on([B, B], [("0", "0"), ("1", "1")])
    one_sided = uniform_on([B, B], [("0", "0"), ("0", "1")])
    with pytest.raises(ValidationError):
        one_sided.condition(0, "1")
    assert mu.condition(0, "0").atoms == {("0",): Fraction(1)}


def test_condition_of_product_is_independent_of_value():
    nu1 = univariate(B, {"0": Fraction(1, 3), "1": Fraction(2, 3)})
    prod = JointDistribution(
        [B, B],
        {(a, b): nu1.mass((a,)) * Fraction(1, 2) for a in "01" for b in "01"},
    )
    assert prod.condition(1, "0") == nu1
    assert prod.condition(1, "1") == nu1


def test_decompose_mixture_identity_case():
    mu = three_lin()
    nu = decompose_mixture(mu, mu, Fraction(1, 2))
    assert nu == mu


def test_decompose_mixture_roundtrip_exact():
    rng = random.Random(7)
    for _ in range(20):
        masses = [Fraction(rng.randrange(1, 9), 1) for _ in range(4)]
        tot = sum(masses)
        total = JointDistribution(
            [B, B], {(a, b): m / tot for (a, b), m in zip([("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")], masses)}
        )
        base = uniform_on([B, B], [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")])
        c = Fraction(1, 64)
        nu = decompose_mixture(total, base, c)
        for x in total.support:
            assert c * base.mass(x) + (1 - c) * nu.mass(x) == total.mass(x)


def test_decompose_mixture_reports_witness_atom():
    total = uniform_on([B], [("0",), ("1",)])
    base = univariate(B, {"0": Fraction(1)})
    with pytest.raises(ValidationError, match="atom"):
        decompose_mixture(total, base, Fraction(3, 4))


def test_min_atom_mass():
    assert uniform_on([B, B], [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]).min_atom_mass() == Fraction(1, 4)
    d = univariate(B, {"0": Fraction(1, 3), "1": Fraction(2, 3)})
    assert d.min_atom_mass() == Fraction(1, 3)
    assert univariate(B, {"0": Fraction(1)}).min_atom_mass() == 1


def test_zero_mass_atoms_dropped():
    d = JointDistribution([B], {("0",): Fraction(1), ("1",): Fraction(0)})
    assert d.support == (("0",),)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=4, max_size=4), st.data())
def test_marginal_composes(masses, data):
    tot = sum(masses)
    atoms = {
        (a, b, c): Fraction(m, tot)
        for (a, b, c), m in zip(
            [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0")], masses
        )
    }
    mu = JointDistribution([B, B, B], atoms)
    outer = data.draw(st.sets(st.integers(0, 2), min_size=1), label="outer")
    inner = data.draw(st.sets(st.sampled_from(sorted(outer)), min_size=1), label="inner")
    # marginal indices are positions within the reduced tuple
    reduced = mu.marginal(outer)
    positions = [sorted(outer).index(c) for c in sorted(inner)]
    assert reduced.marginal(positions) == mu.marginal(inner)


def test_condition_then_average_reconstructs_marginal():
    mu = three_lin()
    muk = mu.marginal([2])
    mixed: dict = {}
    for (v,), w in muk.atoms.items():
        cond = mu.condition(2, v)
        for y, p in cond.atoms.items():
            mixed[y] = mixed.get(y, Fraction(0)) + w * p
    assert mixed == mu.marginal([0, 1]).atoms


def test_sampler_reproducible():
    mu = three_lin()
    a = ProductPowerSampler(mu, 6, seed=123).sample()
    b = ProductPowerSampler(mu, 6, seed=123).sample()
    c = ProductPowerSampler(mu, 6, seed=124).sample()
    assert a == b
    assert len(a) == 3 and len(a[0]) == 6
    assert a != c  # overwhelmingly likely; fixed seeds make it deterministic


def test_sampler_columns_come_from_support():
    mu = three_lin()
    s = ProductPowerSampler(mu, 50, seed=5)
    rows = s.sample()
    for j in range(50):
        col = tuple(rows[i][j] for i in range(3))
        assert col in mu.atoms


@settings(max_examples=200, deadline=None)
@given(total=DENOMINATORS | st.integers(1, 2 ** 200), count=st.integers(0, 60),
       seed=st.integers(0, 2 ** 64))
def test_randbelow_replays_randrange(total, count, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    assert randbelow(rng, total, count).tolist() == [ref.randrange(total) for _ in range(count)]
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("total", [1, 2, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1])
@pytest.mark.parametrize("count", [0, 1, 5000])
def test_randbelow_replays_randrange_at_word_boundaries(total, count):
    """Bit lengths 1 and 32 (no shift), both sides of 2^31, and past one word
    (the call-at-a-time loop); 5,000 values take several rounds of words.
    Then on a stream of the least word the loop rejects below 2^32 and its
    neighbours."""
    rng, ref = random.Random(total + count), random.Random(total + count)
    assert randbelow(rng, total, count).tolist() == [ref.randrange(total) for _ in range(count)]
    assert rng.getstate() == ref.getstate()
    edge = total << max(0, 32 - total.bit_length())
    words = [w % 2 ** 32 for w in (edge - 1, edge, edge + 1, 0, 2 ** 32 - 1, edge // 3)]
    rng, ref = WordStream(words), WordStream(words)
    assert randbelow(rng, total, count).tolist() == [ref.randrange(total) for _ in range(count)]
    assert rng.served == ref.served


@settings(max_examples=100, deadline=None)
@given(weights=st.lists(st.integers(0, 9) | st.integers(0, 2 ** 70), min_size=1, max_size=6)
       .filter(any), count=st.integers(0, 40), seed=st.integers(0, 2 ** 32))
def test_locate_picks_what_draw_picks(weights, count, seed):
    """With and without int64 bounds, zero weights included."""
    chooser = ExactChooser(weights)
    rng, ref = random.Random(seed), random.Random(seed)
    got = chooser.locate(randbelow(rng, chooser.total, count))
    assert got.tolist() == [chooser.draw(ref) for _ in range(count)]


def test_sample_indices_continue_the_sample_stream():
    mu = three_lin()
    batched, single = ProductPowerSampler(mu, 5, seed=3), ProductPowerSampler(mu, 5, seed=3)
    for count in (1, 4, 2):
        for atoms in batched.sample_indices(count):
            rows = single.sample()
            assert [mu.support[i] for i in atoms] == list(zip(*rows))


def test_uniform_on_an_empty_support_is_a_validation_error():
    with pytest.raises(ValidationError, match="non-empty support"):
        uniform_on([B], [])


def test_json_roundtrip(tmp_path):
    mu = three_lin()
    path = tmp_path / "mu.json"
    mu.save(str(path))
    assert JointDistribution.load(str(path)) == mu


@settings(max_examples=150, deadline=None)
@given(raw=prime_masses(), data=st.data())
def test_integer_operations_match_fraction_oracles(raw, data):
    alphabets, atoms = raw
    mu = JointDistribution(alphabets, atoms)
    assert_exact(mu, atoms)
    assert JointDistribution.from_json(distribution_json(mu)) == mu
    coords = data.draw(st.sets(st.integers(0, mu.k - 1), min_size=1), label="coords")
    assert_exact(mu.marginal(coords), fraction_marginal(atoms, coords))
    coord = data.draw(st.integers(0, mu.k - 1), label="coord")
    value = data.draw(st.sampled_from(alphabets[coord].symbols), label="value")
    want = fraction_condition(atoms, coord, value)
    if want is None:
        with pytest.raises(ValidationError, match="zero-mass value"):
            mu.condition(coord, value)
    else:
        assert_exact(mu.condition(coord, value), want)
    base = data.draw(prime_masses(alphabets=alphabets), label="base")[1]
    c = data.draw(st.fractions(0, 1, max_denominator=60).filter(lambda c: 0 < c < 1))
    want = fraction_mixture(atoms, base, c)
    if want is None:
        with pytest.raises(ValidationError, match="negative residual"):
            decompose_mixture(mu, JointDistribution(alphabets, base), c)
    else:
        assert_exact(decompose_mixture(mu, JointDistribution(alphabets, base), c), want)


@pytest.mark.parametrize("pair", [[1, None], ["1/2", None], [0, None], [0.5, None]])
def test_a_null_denominator_is_a_parse_error(pair):
    data = {"alphabets": [["0", "1"]], "atoms": [{"x": ["0"], "p": pair}]}
    for read in (JointDistribution.from_json, fraction_from_json):
        with pytest.raises(ParseError, match="null denominator"):
            read(data)


HALF = Fraction(1, 2)


@pytest.mark.parametrize("atoms, want", [
    # a symbol is a JSON string: an int is no symbol, not even its text
    ([{"x": ["0"], "p": [1, 4]}, {"x": [0], "p": [1, 4]}, {"x": ["1"], "p": [2, 4]}],
     (ParseError, "bad distribution payload: atom x must be a list of JSON strings")),
    # a string of symbols is no atom
    ([{"x": ["0"], "p": [1, 2]}, {"x": "1", "p": [1, 2]}],
     (ParseError, "bad distribution payload: atom x must be a list, not str")),
    # a negative mass that a repeat of its atom makes positive
    ([{"x": ["1"], "p": [-1, 2]}, {"x": ["1"], "p": [1, 1]}, {"x": ["0"], "p": [1, 2]}],
     {("0",): HALF, ("1",): HALF}),
    # an int pair's reduction is never reused for an equal float or bool pair
    ([{"x": ["0"], "p": [1, 2]}, {"x": ["1"], "p": [1.0, 2]}],
     (ParseError, "bad distribution payload: both arguments should be Rational instances")),
    ([{"x": ["0"], "p": [1, 2]}, {"x": ["1"], "p": [True, 2]}],
     (ParseError, "bad distribution payload: mass pair entries must be integers, not bools")),
    ([{"x": ["0"], "p": [1, 2]}, {"x": ["1"], "p": [1, 2.0]}],
     (ParseError, "bad distribution payload: both arguments should be Rational instances")),
    ([{"x": ["0"], "p": [1, 2]}, {"x": ["1"], "p": ["1", 2]}],
     (ParseError, "bad distribution payload: both arguments should be Rational instances")),
    ([{"x": 5, "p": [1, 1]}],
     (ParseError, "bad distribution payload: atom x must be a list, not int")),
    # bad symbols, a wrong arity and a negative mass, named in input order
    ([{"x": ["2"], "p": [1, 2]}, {"x": ["0"], "p": [-1, 2]}, {"x": ["0", "1"], "p": [1, 2]},
      {"x": ["1"], "p": [1, 1]}],
     (ValidationError, "atom ('2',): symbol '2' not in alphabet 0; negative mass at atom ('0',); "
      "atom ('0', '1') has arity 2, expected 1")),
    # a list is no symbol either: a parse error, before the faults above are named
    ([{"x": ["2"], "p": [1, 2]}, {"x": ["0"], "p": [-1, 2]}, {"x": [["0"]], "p": [1, 2]},
      {"x": ["0", "1"], "p": [1, 2]}, {"x": ["1"], "p": [1, 1]}],
     (ParseError, "bad distribution payload: atom x must be a list of JSON strings")),
])
def test_from_json_reads_atoms_as_the_fraction_reader(atoms, want):
    """The coded reader and the Fraction reader on repeated atoms, pairs that
    are not int pairs and bad symbols: the same masses, or the same error
    type and message."""
    data = {"alphabets": [["0", "1"]], "atoms": atoms}
    for read in (JointDistribution.from_json, fraction_from_json):
        if isinstance(want, dict):
            assert_exact(read(data), want)
            continue
        with pytest.raises((ParseError, ValidationError)) as info:
            read(data)
        assert (type(info.value), str(info.value)) == want


# "p" entries: most pairs valid (negative, zero and huge parts included),
# the rest a zero denominator, a float, a string, a bool or the wrong arity
PAIR_PARTS = (st.integers(-3, 12) | st.integers(10 ** 20, 10 ** 22) | st.booleans()
              | st.sampled_from([0.5, "1", None]))
PAIRS = (st.tuples(st.integers(-2, 12), st.integers(-12, 12)).map(list)
         | st.lists(PAIR_PARTS, min_size=2, max_size=2) | st.lists(PAIR_PARTS, max_size=3))
PAYLOAD_SYMBOLS = st.sampled_from(["0", "1", "2", 0, 1, True])


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 3), atoms=st.lists(st.fixed_dictionaries({
    "x": st.lists(PAYLOAD_SYMBOLS, min_size=1, max_size=4), "p": PAIRS}), max_size=6),
    complete=st.booleans())
def test_from_json_matches_the_fraction_reader(k, atoms, complete):
    """Repeated atoms, zero and negative masses, bad pairs, unknown symbols
    and wrong arities: the same distribution, or the same error."""
    if complete:  # often a valid distribution: top up the last atom's mass to one
        atoms = atoms + [{"x": ["0"] * k, "p": [1, 1]}]
    data = {"alphabets": [["0", "1"]] * k, "atoms": atoms}

    def outcome(read):
        try:
            return read(data)
        except (ParseError, ValidationError) as exc:
            return type(exc), str(exc)

    assert outcome(JointDistribution.from_json) == outcome(fraction_from_json)


# A fault planted in a valid payload that the column-wise read takes: the
# per-entry read must then name it exactly as the Fraction reader does,
# also with a second fault after it.
FAULTS = {
    "no x": lambda e: {"p": e["p"]},
    "no p": lambda e: {"x": e["x"]},
    "short x": lambda e: {**e, "x": e["x"][:-1]},
    "long x": lambda e: {**e, "x": e["x"] + ["0"]},
    "unknown symbol": lambda e: {**e, "x": ["9"] + e["x"][1:]},
    "int symbol": lambda e: {**e, "x": [int(e["x"][0])] + e["x"][1:]},
    "x not a list": lambda e: {**e, "x": 7},
    "x a string": lambda e: {**e, "x": "".join(e["x"])},
    "float p": lambda e: {**e, "p": [float(e["p"][0]), e["p"][1]]},
    "bool p": lambda e: {**e, "p": [True, e["p"][1]]},
    "string p": lambda e: {**e, "p": [str(e["p"][0]), e["p"][1]]},
    "zero denominator": lambda e: {**e, "p": [e["p"][0], 0]},
    "null denominator": lambda e: {**e, "p": [e["p"][0], None]},
    "negative mass": lambda e: {**e, "p": [-e["p"][0], e["p"][1]]},
    "three-part p": lambda e: {**e, "p": e["p"] + [1]},
    "p not a list": lambda e: {**e, "p": 3},
}


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 3), size=st.integers(2, 3), data=st.data())
def test_the_column_read_falls_back_to_the_entry_read_on_any_fault(k, size, data):
    cells = data.draw(st.lists(st.tuples(*[st.integers(0, size - 1)] * k), min_size=1,
                               max_size=12, unique=True), label="cells")
    atoms = [{"x": [str(c) for c in x], "p": [1, len(cells)]} for x in cells]
    payload = {"alphabets": [[str(s) for s in range(size)]] * k, "atoms": atoms}
    lookups = [{sym: i for i, sym in enumerate(a)} for a in payload["alphabets"]]
    assert _read_rows(lookups, atoms) is not None  # the column-wise read takes it
    assert JointDistribution.from_json(payload) == fraction_from_json(payload)
    for at in data.draw(st.lists(st.integers(0, len(atoms) - 1), min_size=1, max_size=2,
                                 unique=True), label="at"):
        fault = data.draw(st.sampled_from(sorted(FAULTS) + ["repeat"]), label="fault")
        entry = atoms[data.draw(st.integers(0, len(atoms) - 1))] if fault == "repeat" else None
        atoms = atoms[:at] + [entry or FAULTS[fault](atoms[at])] + atoms[at + 1:]
    payload = {**payload, "atoms": atoms}

    def outcome(read):
        try:
            return read(payload)
        except (ParseError, ValidationError) as exc:
            return type(exc), str(exc)

    assert outcome(JointDistribution.from_json) == outcome(fraction_from_json)
