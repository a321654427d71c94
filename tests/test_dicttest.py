import random
from fractions import Fraction
from itertools import product as iprod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from embedlens import dicttest, fixtures
from embedlens.distributions import JointDistribution, alphabet, uniform_on
from embedlens.dicttest import (
    ConstantSymbolFunction,
    DenseSymbolFunction,
    DictatorFunction,
    Predicate,
    TestInstance,
    run_test_exact,
    run_test_mc,
    symbol_function_from_json,
    validate_instance,
)
from embedlens.errors import SizeGuardError, ValidationError
from oracles import (
    dicttest_instances,
    enumerate_acceptance,
    max_acceptance,
    sample_loop_acceptance,
    symbol_functions,
    wide_instances,
)

B = alphabet(["0", "1"])


def xor_instance():
    return fixtures.three_lin_instance()


def test_predicate_roundtrip_and_eval():
    pred = xor_instance().predicate
    assert pred.evaluate(("0", "0", "0"))
    assert not pred.evaluate(("1", "0", "0"))
    again = Predicate.from_json(pred.to_json())
    assert again == pred


def test_instance_rejects_bad_shapes():
    pred = xor_instance().predicate
    with pytest.raises(ValidationError):
        TestInstance(pred, ())
    with pytest.raises(ValidationError):
        TestInstance(pred, ((Fraction(0), fixtures.three_lin()),))
    with pytest.raises(ValidationError):
        TestInstance(pred, ((Fraction(1), fixtures.disconnected_pair()),))


def test_validate_instance_three_lin():
    rep = validate_instance(xor_instance())
    assert rep.weights_normalized
    assert rep.constraints[0].support_ok
    # 3-LIN locally admits the parity embedding: hypothesis screening reports it
    assert rep.constraints[0].admits_embedding
    assert rep.constraints[0].witness_modulus == 2
    assert not rep.constraints[0].connected
    assert rep.constraints[0].pairwise_connected
    assert not rep.violations


def test_validate_instance_flags_falsifying_atom():
    pred = xor_instance().predicate
    bad_mu = uniform_on([B, B, B], [("0", "0", "0"), ("1", "0", "0")])
    rep = validate_instance(TestInstance(pred, ((Fraction(1), bad_mu),)))
    assert any("falsifying" in v for v in rep.violations)
    assert not rep.constraints[0].support_ok


def test_dictator_completeness_three_lin():
    inst = xor_instance()
    for n in (1, 2, 3, 4):
        for j in range(n):
            f = DictatorFunction(n, B, j)
            assert run_test_exact(inst, f, n) == 1


def test_constant_acceptance_closed_form():
    inst = xor_instance()
    f0 = ConstantSymbolFunction(3, B, "0")
    f1 = ConstantSymbolFunction(3, B, "1")
    assert run_test_exact(inst, f0, 3) == 1  # (0,0,0) satisfies even parity
    assert run_test_exact(inst, f1, 3) == 0  # (1,1,1) falsifies it


def test_exact_identity_function_n1():
    inst = xor_instance()
    ident = DenseSymbolFunction(1, B, ("0", "1"))
    assert run_test_exact(inst, ident, 1) == 1


def test_exact_matches_bruteforce_small():
    # independent oracle: direct enumeration of all column tuples
    inst = xor_instance()
    rng = random.Random(3)
    mu = inst.constraints[0][1]
    for n in (1, 2):
        for _ in range(10):
            table = [rng.choice("01") for _ in range(2 ** n)]
            f = DenseSymbolFunction(n, B, table)
            got = run_test_exact(inst, f, n)
            from itertools import product as iprod

            expect = Fraction(0)
            for cols in iprod(mu.support, repeat=n):
                w = Fraction(1)
                for c in cols:
                    w *= mu.atoms[c]
                rows = [[c[i] for c in cols] for i in range(3)]
                if inst.predicate.evaluate([f.evaluate(r) for r in rows]):
                    expect += w
            assert got == expect


def test_exact_weighted_two_constraints():
    pred = xor_instance().predicate
    mu_even = fixtures.three_lin()
    odd_support = [x for x in fixtures.full_support_cube().support
                   if x not in set(mu_even.support)]
    mu_odd = uniform_on([B, B, B], odd_support)
    inst = TestInstance(pred, ((Fraction(1, 3), mu_even), (Fraction(2, 3), mu_odd)))
    # dictators accept the even-parity constraint always, the odd one never
    f = DictatorFunction(2, B, 0)
    assert run_test_exact(inst, f, 2) == Fraction(1, 3)


def test_acceptance_invariant_under_relabeling():
    from itertools import product as iprod

    inst = xor_instance()
    rng = random.Random(5)
    relabel = {"0": "b", "1": "a"}
    back = {v: k for k, v in relabel.items()}
    alpha2 = alphabet(["b", "a"])  # image order permutes the symbol indices
    pred2 = Predicate.from_callable(
        alpha2, 3, lambda x: inst.predicate.evaluate(tuple(back[s] for s in x)))
    mu = inst.constraints[0][1]
    mu2 = JointDistribution([alpha2] * 3,
                            {tuple(relabel[s] for s in x): p for x, p in mu.atoms.items()})
    inst2 = TestInstance(pred2, ((Fraction(1), mu2),))
    n = 2
    for _ in range(5):
        table = [rng.choice("01") for _ in range(2 ** n)]
        f = DenseSymbolFunction(n, B, table)
        f2 = DenseSymbolFunction(
            n, alpha2,
            [relabel[f.evaluate(tuple(back[s] for s in x))]
             for x in iprod(alpha2.symbols, repeat=n)])
        assert run_test_exact(inst, f, n) == run_test_exact(inst2, f2, n)


def test_validate_instance_a5():
    rep = validate_instance(fixtures.a5_instance())
    assert not rep.violations
    c = rep.constraints[0]
    assert c.support_ok
    assert not c.admits_embedding  # hypothesis screening: no Abelian embedding
    assert not c.connected
    assert c.pairwise_connected


def test_a5_dictator_completeness_exact():
    inst = fixtures.a5_instance()
    alpha = inst.predicate.alphabet
    for n in (1, 2, 3, 4):
        for j in range(n):
            f = DictatorFunction(n, alpha, j)
            assert run_test_exact(inst, f, n) == 1


def test_a5_falsifying_constant_zero():
    inst = fixtures.a5_instance()
    alpha = inst.predicate.alphabet
    # a constant g with g*g*g != identity falsifies the triple product
    for sym in alpha.symbols:
        if not inst.predicate.evaluate((sym, sym, sym)):
            f = ConstantSymbolFunction(2, alpha, sym)
            assert run_test_exact(inst, f, 2) == 0
            break
    else:
        pytest.fail("no falsifying constant found")


def test_state_guard_trips_on_dense_table_with_big_support(monkeypatch):
    monkeypatch.setattr(dicttest, "TRANSITION_GUARD", 10_000)
    inst = fixtures.a5_instance()
    alpha = inst.predicate.alphabet
    rng = random.Random(6)
    table = [rng.choice(alpha.symbols) for _ in range(len(alpha) ** 2)]
    f = DenseSymbolFunction(2, alpha, table)
    with pytest.raises(SizeGuardError):
        run_test_exact(inst, f, 2)


def test_mc_dictator_all_accept():
    inst = xor_instance()
    f = DictatorFunction(3, B, 1)
    res = run_test_mc(inst, f, samples=2000, seed=11)
    assert res.acceptance == 1.0 and res.accepted == 2000


def test_mc_reproducible_and_matches_exact():
    inst = xor_instance()
    rng = random.Random(7)
    table = [rng.choice("01") for _ in range(2)]
    f = DenseSymbolFunction(1, B, table)
    a = run_test_mc(inst, f, samples=4000, seed=13)
    b = run_test_mc(inst, f, samples=4000, seed=13)
    assert a.acceptance == b.acceptance
    exact = float(run_test_exact(inst, f, 1))
    assert abs(a.acceptance - exact) <= 3 * a.half_width


@settings(max_examples=80, deadline=None)
@given(data=st.data(), a=st.integers(1, 3), k=st.integers(1, 3), n=st.integers(0, 3),
       samples=st.integers(1, 30), seed=st.integers(0, 2 ** 64), block=st.integers(1, 12))
def test_batched_mc_acceptance_matches_the_sample_loop(data, a, k, n, samples, seed, block):
    """Blocks of draws (shrunk here so that samples cross them), on one to
    three constraints with unequal weights, over 1, 2^j, 2^j + 1, >2^32 or
    >2^63 for both the weights and the local masses."""
    alpha = alphabet([str(s) for s in range(a)])
    inst = data.draw(wide_instances(alpha, k))
    f = data.draw(symbol_functions(n, alpha))
    with mock.patch.object(dicttest, "MC_BLOCK", block):
        got = run_test_mc(inst, f, samples, seed)
    assert got.accepted == sample_loop_acceptance(inst, f, samples, seed)
    assert got.acceptance == got.accepted / samples


def test_max_acceptance_diagnostic():
    inst = xor_instance()
    best, f = max_acceptance(inst, 1)
    assert best == 1  # dictators are among the tables
    with pytest.raises(SizeGuardError):
        max_acceptance(inst, 5)


def test_symbol_function_json_forms():
    d = symbol_function_from_json({"n": 3, "alphabet": ["0", "1"], "dictator": 2})
    assert isinstance(d, DictatorFunction) and d.evaluate(("0", "0", "1")) == "1"
    c = symbol_function_from_json({"n": 2, "alphabet": ["0", "1"], "constant": "1"})
    assert isinstance(c, ConstantSymbolFunction) and c.evaluate(("0", "0")) == "1"
    t = symbol_function_from_json({"n": 1, "alphabet": ["0", "1"], "symbols": ["1", "0"]})
    assert isinstance(t, DenseSymbolFunction) and t.evaluate(("0",)) == "1"


def test_instance_json_roundtrip(tmp_path):
    inst = xor_instance()
    path = tmp_path / "inst.json"
    inst.save(str(path))
    again = TestInstance.load(str(path))
    assert again.predicate == inst.predicate
    assert again.constraints[0][0] == 1
    assert again.constraints[0][1] == inst.constraints[0][1]


# ---------------------------------------------------------------------------
# The decision-diagram DP against brute-force enumeration, guards, huge sizes

@settings(max_examples=150, deadline=None)
@given(data=st.data(), a=st.integers(2, 3), k=st.integers(1, 3), n=st.integers(0, 3))
def test_exact_matches_enumeration_oracle(data, a, k, n):
    alpha = alphabet([str(s) for s in range(a)])
    inst = data.draw(dicttest_instances(alpha, k))
    f = data.draw(symbol_functions(n, alpha))
    assert run_test_exact(inst, f, n) == enumerate_acceptance(inst, f, n)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), a=st.integers(2, 3), k=st.integers(1, 3), n=st.integers(1, 4))
def test_dp_has_one_layer_per_coordinate_read(data, a, k, n):
    """Dictators at every coordinate (compact and as tables), juntas and
    xors of a coordinate subset: the diagram has a layer for exactly the
    coordinates f depends on, and the DP still matches the enumeration."""
    alpha = alphabet([str(s) for s in range(a)])
    inst = data.draw(dicttest_instances(alpha, k))
    support = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
    words = list(iprod(range(a), repeat=n))
    kind = data.draw(st.sampled_from(["dictator", "junta", "xor"]))
    if kind == "dictator":
        c = support[0]
        fs = [DictatorFunction(n, alpha, c),
              DenseSymbolFunction(n, alpha, [str(x[c]) for x in words])]
    elif kind == "junta":
        g = data.draw(st.lists(st.sampled_from(alpha.symbols), min_size=a ** len(support),
                               max_size=a ** len(support)))
        fs = [DenseSymbolFunction(n, alpha, [g[sum(x[j] * a ** i for i, j in enumerate(support))]
                                             for x in words])]
    else:
        shift = data.draw(st.integers(0, a - 1))
        fs = [DenseSymbolFunction(n, alpha, [str((sum(x[j] for j in support) + shift) % a)
                                             for x in words])]
    for f in fs:
        read = [j for j in range(n) if any(
            f.evaluate(tuple(alpha.symbols[v] for v in x))
            != f.evaluate(tuple(alpha.symbols[(v + 1) % a if i == j else v] for i, v in enumerate(x)))
            for x in words)]
        assert len(dicttest._diagram(f)[1]) == len(read)
        assert run_test_exact(inst, f, n) == enumerate_acceptance(inst, f, n)


def test_deep_dictator_costs_one_layer(monkeypatch):
    monkeypatch.setattr(dicttest, "TRANSITION_GUARD", 4)  # one state times 4 atoms
    assert run_test_exact(xor_instance(), DictatorFunction(50_000, B, 49_999), 50_000) == 1


def test_exact_two_constraints_with_different_denominators():
    pred = xor_instance().predicate
    mu_third = JointDistribution([B] * 3, {("0", "0", "0"): Fraction(1, 3),
                                           ("0", "1", "1"): Fraction(2, 3)})
    mu_quarter = JointDistribution([B] * 3, {("1", "1", "0"): Fraction(3, 4),
                                             ("1", "0", "0"): Fraction(1, 4)})
    inst = TestInstance(pred, ((Fraction(2, 7), mu_third), (Fraction(5, 7), mu_quarter)))
    rng = random.Random(8)
    for n in (1, 2, 3):
        for _ in range(5):
            f = DenseSymbolFunction(n, B, [rng.choice("01") for _ in range(2 ** n)])
            assert run_test_exact(inst, f, n) == enumerate_acceptance(inst, f, n)


def test_state_guard_bounds_total_transitions(monkeypatch):
    # 4 atoms: a dictator at coordinate 3 reads one layer, so it costs 1 * 4
    # transitions, as a table or not; the xor of coordinates 1 and 3 reads
    # two layers, from 1 state and then from one per atom: 4 + 4 * 4
    inst = xor_instance()
    as_table = DenseSymbolFunction(4, B, [x[3] for x in iprod("01", repeat=4)])
    xor13 = DenseSymbolFunction(4, B, [str((int(x[1]) + int(x[3])) % 2)
                                       for x in iprod("01", repeat=4)])
    for f, cost in ((DictatorFunction(4, B, 3), 4), (as_table, 4), (xor13, 20)):
        monkeypatch.setattr(dicttest, "TRANSITION_GUARD", cost)
        assert run_test_exact(inst, f, 4) == 1
        monkeypatch.setattr(dicttest, "TRANSITION_GUARD", cost - 1)
        with pytest.raises(SizeGuardError):
            run_test_exact(inst, f, 4)


def test_a5_instance_accepts_exactly_the_support():
    inst = fixtures.a5_instance()
    (_, mu), = inst.constraints
    support = set(mu.support)
    assert inst.predicate == Predicate.from_callable(mu.alphabets[0], 3,
                                                     lambda x: tuple(x) in support)


def test_huge_table_sizes_fail_fast():
    with pytest.raises(ValidationError, match="wrong length"):
        DenseSymbolFunction(10 ** 30, B, [])
    with pytest.raises(ValidationError, match="wrong length"):
        Predicate(B, 10 ** 30, ())
