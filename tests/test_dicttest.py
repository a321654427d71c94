import random
from fractions import Fraction
from itertools import product as iprod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embedlens import dicttest, fixtures
from embedlens.distributions import JointDistribution, alphabet, integer_weights, uniform_on
from embedlens.dicttest import (
    Predicate,
    SymbolFunction,
    TestInstance,
    run_test_exact,
    run_test_mc,
    symbol_function_from_json,
    validate_instance,
)
from embedlens.errors import SizeGuardError, ValidationError
from oracles import (
    WordStream,
    dicttest_instances,
    enumerate_acceptance,
    instance_json,
    max_acceptance,
    predicate_from_callable,
    predicate_holds,
    row_symmetric_instances,
    sample_loop_acceptance,
    subset_sum_specs,
    symbol_at,
    symbol_specs,
    unmerged_acceptance,
    wide_instances,
)

B = alphabet(["0", "1"])
dictator = SymbolFunction.dictator
constant = SymbolFunction.constant
table = SymbolFunction.table


def table_spec(n, symbols, alpha=B):
    return {"n": n, "alphabet": list(alpha.symbols), "symbols": list(symbols)}


def xor_instance():
    return fixtures.three_lin_instance()


def skewed_three_lin():
    """The 3-LIN support under masses 1/8, 1/8, 1/4, 1/2, which no swap of
    two rows fixes."""
    return JointDistribution([B] * 3, {("0", "0", "0"): Fraction(1, 8),
                                       ("0", "1", "1"): Fraction(1, 8),
                                       ("1", "0", "1"): Fraction(1, 4),
                                       ("1", "1", "0"): Fraction(1, 2)})


def test_predicate_roundtrip_and_eval():
    pred = xor_instance().predicate
    assert predicate_holds(pred, ("0", "0", "0"))
    assert not predicate_holds(pred, ("1", "0", "0"))
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
    assert rep.violations == ["constraint 0: mass on falsifying atom ('1', '0', '0')"]
    assert not rep.constraints[0].support_ok


def test_dictator_completeness_three_lin():
    inst = xor_instance()
    for n in (1, 2, 3, 4):
        for j in range(n):
            f = dictator(n, B, j)
            assert run_test_exact(inst, f, n) == 1


def test_constant_acceptance_closed_form():
    inst = xor_instance()
    f0 = constant(3, B, "0")
    f1 = constant(3, B, "1")
    assert run_test_exact(inst, f0, 3) == 1  # (0,0,0) satisfies even parity
    assert run_test_exact(inst, f1, 3) == 0  # (1,1,1) falsifies it


def test_exact_identity_function_n1():
    inst = xor_instance()
    ident = table(1, B, ("0", "1"))
    assert run_test_exact(inst, ident, 1) == 1


def test_exact_matches_bruteforce_small():
    # independent oracle: direct enumeration of all column tuples
    inst = xor_instance()
    rng = random.Random(3)
    for n in (1, 2):
        for _ in range(10):
            spec = table_spec(n, [rng.choice("01") for _ in range(2 ** n)])
            got = run_test_exact(inst, symbol_function_from_json(spec), n)
            assert got == enumerate_acceptance(inst, spec, n)


def test_exact_weighted_two_constraints():
    pred = xor_instance().predicate
    mu_even = fixtures.three_lin()
    odd_support = [x for x in fixtures.full_support_cube().support
                   if x not in set(mu_even.support)]
    mu_odd = uniform_on([B, B, B], odd_support)
    inst = TestInstance(pred, ((Fraction(1, 3), mu_even), (Fraction(2, 3), mu_odd)))
    # dictators accept the even-parity constraint always, the odd one never
    f = dictator(2, B, 0)
    assert run_test_exact(inst, f, 2) == Fraction(1, 3)


def test_acceptance_invariant_under_relabeling():
    inst = xor_instance()
    rng = random.Random(5)
    relabel = {"0": "b", "1": "a"}
    back = {v: k for k, v in relabel.items()}
    alpha2 = alphabet(["b", "a"])  # image order permutes the symbol indices
    pred2 = predicate_from_callable(
        alpha2, 3, lambda x: predicate_holds(inst.predicate, tuple(back[s] for s in x)))
    mu = inst.constraints[0][1]
    mu2 = JointDistribution([alpha2] * 3,
                            {tuple(relabel[s] for s in x): p for x, p in mu.atoms.items()})
    inst2 = TestInstance(pred2, ((Fraction(1), mu2),))
    n = 2
    for _ in range(5):
        spec = table_spec(n, [rng.choice("01") for _ in range(2 ** n)])
        f2 = table(n, alpha2, [relabel[symbol_at(spec, tuple(back[s] for s in x))]
                               for x in iprod(alpha2.symbols, repeat=n)])
        assert run_test_exact(inst, symbol_function_from_json(spec), n) == \
            run_test_exact(inst2, f2, n)


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
            f = dictator(n, alpha, j)
            assert run_test_exact(inst, f, n) == 1


def test_a5_falsifying_constant_zero():
    inst = fixtures.a5_instance()
    alpha = inst.predicate.alphabet
    # a constant g with g*g*g != identity falsifies the triple product
    for sym in alpha.symbols:
        if not predicate_holds(inst.predicate, (sym, sym, sym)):
            f = constant(2, alpha, sym)
            assert run_test_exact(inst, f, 2) == 0
            break
    else:
        pytest.fail("no falsifying constant found")


def test_state_guard_trips_on_dense_table_with_big_support(monkeypatch):
    monkeypatch.setattr(dicttest, "TRANSITION_GUARD", 10_000)
    inst = fixtures.a5_instance()
    alpha = inst.predicate.alphabet
    rng = random.Random(6)
    f = table(2, alpha, [rng.choice(alpha.symbols) for _ in range(len(alpha) ** 2)])
    with pytest.raises(SizeGuardError):
        run_test_exact(inst, f, 2)


def test_mc_dictator_all_accept():
    inst = xor_instance()
    f = dictator(3, B, 1)
    res = run_test_mc(inst, f, samples=2000, seed=11)
    assert res.acceptance == 1.0 and res.accepted == 2000


def test_mc_reproducible_and_matches_exact():
    inst = xor_instance()
    rng = random.Random(7)
    f = table(1, B, [rng.choice("01") for _ in range(2)])
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
    spec = data.draw(symbol_specs(n, alpha))
    with mock.patch.object(dicttest, "MC_BLOCK", block):
        got = run_test_mc(inst, symbol_function_from_json(spec), samples, seed)
    assert got.accepted == sample_loop_acceptance(inst, spec, samples, seed)
    assert got.acceptance == got.accepted / samples


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), n=st.integers(0, 12), samples=st.integers(500, 700),
       seed=st.integers(0, 2 ** 64), spare=st.integers(1, 40), budget=st.integers(1, 300),
       edges=st.booleans())
def test_replayed_mc_acceptance_refills_and_carries(data, k, n, samples, seed, spare, budget,
                                                    edges):
    """The replay from words in bulk, with blocks of a few samples (so that
    samples cross them and unused words carry over) and word budgets so
    small that blocks run dry and are walked again, on one to three
    constraints: picks below small totals, columns below one total of 1, 2,
    3, 2^31, 2^31 + 1 or 2^32 - 1 shared by every local distribution. f is
    a random table that reads every column. With `edges`, both runs draw
    from a WordStream in which half the words are the least word a pick or
    a column draw rejects, or a neighbour of it."""
    den = data.draw(st.sampled_from([1, 2, 3, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1]))
    inst = data.draw(wide_instances(B, k, weights=st.integers(1, 9), min_atoms=2,
                                    weight_dens=st.sampled_from([1, 2, 3, 8]), dens=st.just(den)))
    spec = {"n": n, "alphabet": ["0", "1"], "symbols": random.Random(seed).choices("01", k=2 ** n)}
    stream = random.Random
    if edges:
        pick_total = sum(integer_weights([w for w, _ in inst.constraints])[0])
        least = [t << (32 - t.bit_length()) for t in (pick_total, den)]
        pool = random.Random(seed)
        words = [pool.getrandbits(32) if pool.random() < 0.5
                 else (pool.choice(least) + pool.choice((-1, 0, 1))) % 2 ** 32 for _ in range(97)]
        stream = lambda _: WordStream(words)  # noqa: E731
    with mock.patch.object(dicttest, "MC_BLOCK", n + spare), \
            mock.patch.object(dicttest, "_word_budget", lambda count, rate: budget), \
            mock.patch.object(dicttest, "_looped_blocks", side_effect=AssertionError), \
            mock.patch.object(random, "Random", stream):
        got = run_test_mc(inst, symbol_function_from_json(spec), samples, seed)
        expected = sample_loop_acceptance(inst, spec, samples, seed)
    assert got.accepted == expected


def test_max_acceptance_diagnostic():
    inst = xor_instance()
    best, f = max_acceptance(inst, 1)
    assert best == 1  # dictators are among the tables
    with pytest.raises(SizeGuardError):
        max_acceptance(inst, 5)


def test_symbol_function_json_forms():
    d = symbol_function_from_json({"n": 3, "alphabet": ["0", "1"], "dictator": 2})
    assert d.reads == (2,) and d.evaluate_many(np.array([[0, 0, 1]])).tolist() == [1]
    c = symbol_function_from_json({"n": 2, "alphabet": ["0", "1"], "constant": "1"})
    assert (c.root, c.layers, c.reads) == (1, [], ())
    t = symbol_function_from_json({"n": 1, "alphabet": ["0", "1"], "symbols": ["1", "0"]})
    assert t.reads == (0,) and t.evaluate_many(np.array([[0], [1]])).tolist() == [1, 0]


def assert_matches_definition(spec):
    """evaluate_many on every word of alpha^n, in the narrow dtype Monte Carlo
    passes, against the definition of f."""
    alpha, n = alphabet(spec["alphabet"]), spec["n"]
    words = list(iprod(range(len(alpha)), repeat=n))
    got = symbol_function_from_json(spec).evaluate_many(
        np.array(words, dtype=np.uint8).reshape(len(words), n))
    assert [alpha.symbols[v] for v in got] == [
        symbol_at(spec, tuple(alpha.symbols[v] for v in x)) for x in words]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), a=st.integers(1, 3), n=st.integers(0, 4))
def test_evaluate_many_matches_the_definition(data, a, n):
    """Random tables, constant tables, juntas and tables with unused symbols."""
    assert_matches_definition(data.draw(symbol_specs(n, alphabet([str(s) for s in range(a)]))))


def test_evaluate_many_of_every_dictator_and_constant():
    for a in (1, 2, 3):
        symbols = [str(s) for s in range(a)]
        for n in range(5):  # constants from n = 0
            for form in [{"dictator": c} for c in range(n)] + [{"constant": s} for s in symbols]:
                assert_matches_definition({"n": n, "alphabet": symbols, **form})


def test_instance_json_roundtrip(tmp_path):
    inst = xor_instance()
    path = tmp_path / "inst.json"
    inst.save(str(path))
    again = TestInstance.load(str(path))
    assert again.predicate == inst.predicate
    assert again.constraints[0][0] == 1
    assert again.constraints[0][1] == inst.constraints[0][1]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), a=st.integers(1, 3), k=st.integers(1, 3), n=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32))
def test_accept_and_truth_payloads_read_back_alike(data, a, k, n, seed):
    """One instance read from its "accept" and its "truth" payload: equal
    predicates that accept by definition, and the same exact and Monte
    Carlo acceptance."""
    alpha = alphabet([str(s) for s in range(a)])
    inst = data.draw(dicttest_instances(alpha, k) | wide_instances(alpha, k))
    table = instance_json(inst)
    by_table = TestInstance.from_json(table)
    by_cells = TestInstance.from_json({**table, "predicate": inst.predicate.to_json()})
    pred = by_cells.predicate
    assert by_table.predicate == pred == inst.predicate
    words = list(iprod(alpha.symbols, repeat=k))
    assert pred.holds(np.arange(len(words))).tolist() == [predicate_holds(pred, w) for w in words]
    f = symbol_function_from_json(data.draw(symbol_specs(n, alpha)))
    assert run_test_exact(by_table, f, n) == run_test_exact(by_cells, f, n)
    assert run_test_mc(by_table, f, 40, seed) == run_test_mc(by_cells, f, 40, seed)


# ---------------------------------------------------------------------------
# The decision-diagram DP against brute-force enumeration, guards, huge sizes

@settings(max_examples=150, deadline=None)
@given(data=st.data(), a=st.integers(2, 3), k=st.integers(1, 3), n=st.integers(0, 3))
def test_exact_matches_enumeration_oracle(data, a, k, n):
    alpha = alphabet([str(s) for s in range(a)])
    inst = data.draw(dicttest_instances(alpha, k))
    spec = data.draw(symbol_specs(n, alpha))
    assert run_test_exact(inst, symbol_function_from_json(spec), n) == \
        enumerate_acceptance(inst, spec, n)


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
    spec = {"n": n, "alphabet": list(alpha.symbols)}
    if kind == "dictator":
        c = support[0]
        specs = [{**spec, "dictator": c}, {**spec, "symbols": [str(x[c]) for x in words]}]
    elif kind == "junta":
        g = data.draw(st.lists(st.sampled_from(alpha.symbols), min_size=a ** len(support),
                               max_size=a ** len(support)))
        specs = [{**spec, "symbols": [g[sum(x[j] * a ** i for i, j in enumerate(support))]
                                      for x in words]}]
    else:
        shift = data.draw(st.integers(0, a - 1))
        specs = [{**spec, "symbols": [str((sum(x[j] for j in support) + shift) % a)
                                      for x in words]}]
    for spec in specs:
        read = tuple(j for j in range(n) if any(
            symbol_at(spec, tuple(alpha.symbols[v] for v in x))
            != symbol_at(spec, tuple(alpha.symbols[(v + 1) % a if i == j else v]
                                     for i, v in enumerate(x)))
            for x in words))
        f = symbol_function_from_json(spec)
        assert f.reads == read and len(f.layers) == len(read)
        assert run_test_exact(inst, f, n) == enumerate_acceptance(inst, spec, n)


def test_deep_dictator_costs_one_layer(monkeypatch):
    monkeypatch.setattr(dicttest, "TRANSITION_GUARD", 4)  # one state times 4 atoms
    assert run_test_exact(xor_instance(), dictator(50_000, B, 49_999), 50_000) == 1


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
            spec = table_spec(n, [rng.choice("01") for _ in range(2 ** n)])
            assert run_test_exact(inst, symbol_function_from_json(spec), n) == \
                enumerate_acceptance(inst, spec, n)


def test_state_guard_bounds_total_transitions(monkeypatch):
    # 4 atoms: a dictator at coordinate 3 reads one layer, so it costs 1 * 4
    # transitions, as a table or not. The xor of coordinates 1 and 3 reads
    # two layers. Its first costs 1 * 4, and leaves one state per atom: with
    # u, v the nodes after a 0 and a 1, (u,u,u), (u,v,v), (v,u,v), (v,v,u).
    # 3-LIN is fixed by every permutation of its rows, so these are 2
    # orbits, and the second layer costs 2 * 4: 4 + 2 * 4 = 12. Under masses
    # that no swap of two rows fixes, the 4 states stay: 4 + 4 * 4 = 20.
    three_lin = xor_instance()
    skewed = TestInstance(three_lin.predicate, ((Fraction(1), skewed_three_lin()),))
    as_table = table(4, B, [x[3] for x in iprod("01", repeat=4)])
    xor13 = table(4, B, [str((int(x[1]) + int(x[3])) % 2) for x in iprod("01", repeat=4)])
    for inst, f, cost in ((three_lin, dictator(4, B, 3), 4), (three_lin, as_table, 4),
                          (three_lin, xor13, 12), (skewed, xor13, 20)):
        monkeypatch.setattr(dicttest, "TRANSITION_GUARD", cost)
        assert run_test_exact(inst, f, 4) == 1
        monkeypatch.setattr(dicttest, "TRANSITION_GUARD", cost - 1)
        with pytest.raises(SizeGuardError):
            run_test_exact(inst, f, 4)


# ---------------------------------------------------------------------------
# DP states merged over the orbits of row swaps

def blocks_of(inst):
    """The blocks of rows `_row_blocks` finds for each constraint."""
    found = []
    for _, mu in inst.constraints:
        order, blocks = dicttest._row_blocks(mu, inst.predicate)
        found.append([order[block] for block in blocks])
    return found


def test_row_blocks_are_joined_by_swaps_fixing_mu_and_the_predicate():
    three_lin = xor_instance()
    assert blocks_of(three_lin) == [[[0, 1, 2]]]
    assert blocks_of(fixtures.a5_instance()) == [[]]  # its rows' cyclic shift is no swap
    skewed = skewed_three_lin()  # the same support, other masses
    assert blocks_of(TestInstance(three_lin.predicate, ((Fraction(1), skewed),))) == [[]]
    (_, even), = three_lin.constraints  # fixed by every swap, but not this predicate
    lopsided_pred = predicate_from_callable(B, 3, lambda x: "".join(x) in ("000", "001", "011"))
    assert blocks_of(TestInstance(lopsided_pred, ((Fraction(1), even),))) == [[]]
    anything = Predicate(B, 3, np.arange(8))
    lopsided = JointDistribution([B] * 3, {("0", "0", "1"): Fraction(1, 2),
                                           ("0", "1", "1"): Fraction(1, 2)})
    assert blocks_of(TestInstance(anything, ((Fraction(1), lopsided),))) == [[]]
    # mass 1 on 0000 and masses 1, 1, 2, 3 on the words with their one 1 at
    # rows i, j and the two others: only the swap of rows i and j fixes them
    # (for rows 1 and 3 the DP regroups the rows, so that they are adjacent)
    for i, j in ((0, 1), (1, 3)):
        rows = [i, j, *sorted({0, 1, 2, 3} - {i, j})]
        masses = {("0",) * 4: Fraction(1, 8)} | {
            tuple("1" if r == row else "0" for r in range(4)): Fraction(m, 8)
            for row, m in zip(rows, (1, 1, 2, 3))}
        inst = TestInstance(Predicate(B, 4, np.arange(16)),
                            ((Fraction(1), JointDistribution([B] * 4, masses)),))
        assert blocks_of(inst) == [[[i, j]]]


def test_two_blocks_are_sorted_apart():
    # masses 1 + (the 1s in block P) + 3 (the 1s in block Q), accepted when P
    # holds at least as many 1s as Q: fixed by the swaps inside P and inside
    # Q, not by one across them, so (u,v | u,v) and (u,u | v,v) stay apart
    for p, q in (([0, 1], [2, 3]), ([0, 2], [1, 3])):
        weights = {x: 1 + sum(x[i] for i in p) + 3 * sum(x[i] for i in q)
                   for x in iprod((0, 1), repeat=4)}
        mu = JointDistribution([B] * 4, {tuple(map(str, x)): Fraction(m, sum(weights.values()))
                                         for x, m in weights.items()})
        pred = predicate_from_callable(B, 4, lambda x: sum(int(x[i]) for i in p)
                                       >= sum(int(x[i]) for i in q))
        inst = TestInstance(pred, ((Fraction(1), mu),))
        assert blocks_of(inst) == [[p, q]]
        for symbols in ("0110", "0001"):  # the xor and the and of two coordinates
            spec = table_spec(2, symbols)
            assert run_test_exact(inst, symbol_function_from_json(spec), 2) == \
                enumerate_acceptance(inst, spec, 2)


# (|alphabet|, k, largest n): dense tables only up to n = 4, so that the unmerged
# DP stays at a few thousand transitions
DP_SHAPES = st.sampled_from([(2, 1, 10), (2, 2, 10), (2, 3, 10), (2, 4, 6), (3, 2, 5),
                             (3, 3, 4), (3, 4, 3)])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=DP_SHAPES)
def test_merged_dp_is_the_unmerged_dp(data, shape):
    """Predicates and constraints fixed by all, some or no permutations of
    rows, symmetric supports with asymmetric masses, and constraints whose
    blocks differ: the merged DP gives the unmerged one's Fraction, in no
    more transitions (the guard is set to the unmerged DP's count)."""
    a, k, most = shape
    alpha = alphabet([str(s) for s in range(a)])
    inst = data.draw(row_symmetric_instances(alpha, k))
    n = data.draw(st.integers(2, most))  # two layers at least, mostly
    specs = subset_sum_specs(n, alpha)
    spec = data.draw(specs if n > 4 else st.one_of(specs, symbol_specs(n, alpha)))
    f = symbol_function_from_json(spec)
    want, spent = unmerged_acceptance(inst, f)
    with mock.patch.object(dicttest, "TRANSITION_GUARD", spent):
        assert run_test_exact(inst, f, n) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data(), a=st.integers(2, 3), k=st.integers(1, 4))
def test_merged_dp_matches_enumeration_on_row_symmetric_instances(data, a, k):
    alpha = alphabet([str(s) for s in range(a)])
    inst = data.draw(row_symmetric_instances(alpha, k))
    n = data.draw(st.integers(0, 3 if k < 4 else 2))
    spec = data.draw(st.one_of(symbol_specs(n, alpha), subset_sum_specs(n, alpha)))
    assert run_test_exact(inst, symbol_function_from_json(spec), n) == \
        enumerate_acceptance(inst, spec, n)


def test_a5_instance_accepts_exactly_the_support():
    inst = fixtures.a5_instance()
    (_, mu), = inst.constraints
    support = set(mu.support)
    assert inst.predicate == predicate_from_callable(mu.alphabets[0], 3,
                                                     lambda x: tuple(x) in support)


def test_huge_table_sizes_fail_fast():
    with pytest.raises(ValidationError, match="wrong length"):
        table(10 ** 30, B, [])
    with pytest.raises(ValidationError, match="wrong length"):
        Predicate.from_truth(B, 10 ** 30, ())
