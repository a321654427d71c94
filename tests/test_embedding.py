import hashlib
import json
import os
import random
import time
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import embedlens.embedding
from embedlens import fixtures, intlattice
from embedlens.distributions import JointDistribution, alphabet, uniform_on
from embedlens.errors import SizeGuardError, ValidationError, read_json, render, write_json
from embedlens.embedding import (
    _column_order,
    _fraction_kernel,
    _rank_mod_p,
    _rational_kernel,
    brute_force_embedding,
    connected,
    constraint_matrix,
    EmbeddingWitness,
    detect_embedding,
    pairwise_connected,
    verify_witness,
    witness_holds,
)
from embedlens.intlattice import row_basis, span_hermite_form
from oracles import (
    all_rows_embedding,
    bucket_connected,
    densify,
    dfs_pairwise_connected,
    distributions,
    every_modulus_embedding,
    group_elements,
    hermite_normal_form,
    lattice_supports,
    min_scan_column_order,
    smith_supports,
    triple_product,
    tuple_constraint_matrix,
)

B = alphabet(["0", "1"])


def tuple_rows(cm):
    """Each row of the column-index array as the ascending tuple of its 1-columns."""
    return tuple(tuple(c for c in col if c != cm.s) for col in cm.columns.T.tolist())


def dense_rows(cm):
    return [[1 if j in cols else 0 for j in range(cm.s)] for cols in tuple_rows(cm)]


def test_constraint_matrix_disconnected_pair():
    cm = constraint_matrix(uniform_on([B, B], [("0", "0"), ("1", "1")]))
    assert cm.s == 2
    assert tuple_rows(cm) == ((), (0, 1))
    assert dense_rows(cm) == [[0, 0], [1, 1]]


def test_constraint_matrix_singleton_support():
    cm = constraint_matrix(uniform_on([B, B], [("0", "1")]))
    assert tuple_rows(cm) == ((),)
    assert dense_rows(cm) == [[0, 0]]


def test_constraint_matrix_three_lin():
    mu = fixtures.three_lin()
    cm = constraint_matrix(mu)
    assert cm.s == 3
    assert tuple_rows(cm) == ((), (1, 2), (0, 2), (0, 1))
    assert dense_rows(cm) == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_detect_three_lin_parity_witness():
    verdict = detect_embedding(fixtures.three_lin())
    assert verdict.admits
    assert verdict.witness.modulus == 2
    # the parity witness: identity map on bits in every coordinate
    for table in verdict.witness.sigma:
        assert table == {"0": 0, "1": 1}
    assert verify_witness(fixtures.three_lin().support, verdict.witness)


def test_detect_full_support_cube_has_no_embedding():
    verdict = detect_embedding(fixtures.full_support_cube())
    assert not verdict.admits
    assert verdict.rank == verdict.s == 3
    assert all(d == 1 for d in verdict.snf_divisors)


def test_detect_z3_sum():
    verdict = detect_embedding(fixtures.z3_sum())
    assert verdict.admits
    assert verdict.witness.modulus == 3


def test_detect_single_atom_embeds_into_z():
    verdict = detect_embedding(fixtures.single_atom())
    assert verdict.admits
    assert verdict.witness.modulus == 0


def test_detect_disconnected_pair_yields_indicator():
    verdict = detect_embedding(fixtures.disconnected_pair())
    assert verdict.admits
    assert verdict.witness.modulus == 0
    sig = verdict.witness.sigma
    assert sig[0]["1"] + sig[1]["1"] == 0 and sig[0]["1"] != 0


def test_verify_witness_cases():
    mu = fixtures.three_lin()
    good = detect_embedding(mu).witness
    assert verify_witness(mu.support, good)
    from embedlens.embedding import EmbeddingWitness

    constant = EmbeddingWitness(2, ({"0": 0, "1": 0},) * 3)
    assert not verify_witness(mu.support, constant)
    partial = EmbeddingWitness(2, ({"0": 0, "1": 1}, {"0": 0, "1": 0}, {"0": 0, "1": 0}))
    assert not verify_witness(mu.support, partial)  # fails on atom (1,1,0)


def test_brute_force_three_lin_finds_parity():
    mu = fixtures.three_lin()
    w = brute_force_embedding(mu.support, mu.alphabets, max_modulus=2)
    assert w is not None and w.modulus == 2
    assert verify_witness(mu.support, w)


def test_brute_force_full_support_none():
    sup = list(product("01", repeat=2))
    w = brute_force_embedding(sup, [B, B], max_modulus=6)
    assert w is None


@pytest.mark.parametrize("support, error, message", [
    ([("0", "1"), ("0", "2")], ValidationError, "atom ('0', '2'): symbol '2' not in alphabet 1"),
    ([("0",), ("1", "1")], ValidationError,
     "atom ('0',) has arity 1, expected 2; mass sum != 1 (got 1/2)"),
    ([["0", "1"]], TypeError, "unhashable type: 'list'"),
    ([("0", "1"), "01", ("1", "1")], ValidationError, "mass sum != 1 (got 2/3)"),
    ([], ValidationError, "support must be non-empty"),
])
def test_brute_force_names_bad_atoms_as_the_distribution_reader_does(support, error, message):
    """The oracle codes atoms straight through the alphabets' index maps, and
    a bad atom still gets the message a `uniform_on` distribution gives."""
    with pytest.raises(error) as exc:
        brute_force_embedding(support, [B, B], max_modulus=3)
    assert str(exc.value) == message


def test_brute_force_reads_repeated_and_string_atoms_once():
    sup = [("1", "1"), ("0", "0"), ("1", "1"), "01"]
    assert brute_force_embedding(sup, [B, B], max_modulus=3) == brute_force_embedding(
        [("0", "0"), ("0", "1"), ("1", "1")], [B, B], max_modulus=3)


def test_brute_force_antidiagonal_shifts():
    sup = [("0", "1"), ("1", "0")]
    w = brute_force_embedding(sup, [B, B], max_modulus=2)
    assert w is not None and w.modulus == 2
    assert w.sigma[0] == {"0": 0, "1": 1}
    assert w.sigma[1] == {"1": 0, "0": 1}
    assert verify_witness(sup, w)


# ---------------------------------------------------------------------------
# Pinned oracle answers: sha256 of the witness JSON (sort_keys, compact), of
# "null", or of "<exception type>: <message>", recorded before the search
# skipped composite moduli and forced the value at closing columns.

def oracle_answer(support, alphabets, max_modulus, space_guard) -> str:
    try:
        w = brute_force_embedding(support, alphabets, max_modulus=max_modulus,
                                  space_guard=space_guard)
    except (SizeGuardError, ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(w and w.to_json(), sort_keys=True, separators=(",", ":"))


def oracle_pin_inputs():
    """(support, alphabets, max_modulus, space_guard) by name: the named
    distribution fixtures under the default guard, the A4 and S4 triple
    products and the Z_m-sums (m = 2..6, k = 3, 4) unguarded."""
    cases = {}
    for name in ("3lin", "z3sum", "full-support", "single-atom", "disconnected-pair",
                 "punctured-cube", "a5"):
        mu = fixtures.NAMED[name]()
        cases[name] = (mu.support, mu.alphabets, 12, 10 ** 10)
    for name, alternating in (("a4-triple", True), ("s4-triple", False)):
        alphabets, support = triple_product(group_elements(4, alternating))
        cases[name] = (support, alphabets, 12, None)
    for m, k in product(range(2, 7), (3, 4)):
        support = [tuple(map(str, x)) for x in product(range(m), repeat=k) if sum(x) % m == 0]
        cases[f"z{m}-sum-k{k}"] = (support, [alphabet([str(v) for v in range(m)])] * k, 12, None)
    return cases


ORACLE_DIGESTS = {
    "3lin": "b3ecf647d48de18bb3e00194cb9f3e7d74bb80e3fdb8d2df978276a8ec9caae9",
    "a4-triple": "a87e92f568d4104ca6bd471d25eead3420f62f16d96ad6e8f31493bc396da239",
    "a5": "08e19a6b9db35198af9d737be827d8f39901d90c6c8a1fa1bd05eaf8cf3f2cc3",
    "disconnected-pair": "a5a0639346c5cce627d33ce793960e5e77323fbea8d4d2b192dee5537a1d76fa",
    "full-support": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
    "punctured-cube": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
    "s4-triple": "9ae6aaa4062863d44c3e22afc29c35d5e4e8c3ce0bbd59f906927802940b5f59",
    "single-atom": "9395057e6a63c75bf72b5711e30a833d099a5b3002f464b280fa0e21e7b4ae08",
    "z2-sum-k3": "b3ecf647d48de18bb3e00194cb9f3e7d74bb80e3fdb8d2df978276a8ec9caae9",
    "z2-sum-k4": "3135c40dd88646cb1a4ad5984119f96a83d3ce1832fc369aa1a0d92513720c16",
    "z3-sum-k3": "044ea82d6c81ef2ae6b678c75319cfee01d05c6c49b1e496e4db1fcb9da88cd6",
    "z3-sum-k4": "2188ef7042ae5e189eda23d8923c55983863eaa6fa40b7d922c1f9162f2298df",
    "z3sum": "044ea82d6c81ef2ae6b678c75319cfee01d05c6c49b1e496e4db1fcb9da88cd6",
    "z4-sum-k3": "590f2e4a7aa19d3aa7dd2f3c6809d2d49db549d5e0c6af360542e5df0f43f78c",
    "z4-sum-k4": "ccb615f4c16eb9c3be50bafa9f5d2dcf837bd7e17cf3ed1f97078250a7de0db6",
    "z5-sum-k3": "bbe4b0108814402e7d549174b4d4a42e9bcc4888ea2f6b8cb53af45557a96a28",
    "z5-sum-k4": "481d29217dad4d0a58f6eb873958d6f2d134c99c77f2ffb7749844e575670a7e",
    "z6-sum-k3": "46daeac2da18b69d523443af96d3bada86d8717c055b82bb2e7182a8bdbc1d8d",
    "z6-sum-k4": "be16b5f83433add6ec90b667636e5b61cca81b686393fd93a0bbe1a3bd840813",
}


@pytest.mark.parametrize("name", sorted(ORACLE_DIGESTS))
def test_oracle_answers_pinned(name):
    answer = oracle_answer(*oracle_pin_inputs()[name])
    assert hashlib.sha256(answer.encode()).hexdigest() == ORACLE_DIGESTS[name]


LATTICE_ORACLE_DIGEST = "7a310c10ef040539b1ee3b2c753a831bd4519c9c78c6e6974db50065794415cf"


def test_lattice_workload_random_oracle_answers_pinned(tmp_path, monkeypatch):
    """The 40 `oracle/rand*` requests of the `lattice` workload (seed 1), as
    the benchmark sends them: the sha256 over their answers, one a line, in
    request order."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    import workloads

    w = workloads.build("lattice", 1, str(tmp_path))
    reqs = [req for req in w.requests if req.rid.startswith("oracle/rand")]
    assert len(reqs) == 40
    h = hashlib.sha256()
    for req in reqs:
        path, max_modulus, space_guard = req.args
        mu = JointDistribution.load(path)
        h.update((oracle_answer(mu.support, mu.alphabets, max_modulus, space_guard) + "\n").encode())
    assert h.hexdigest() == LATTICE_ORACLE_DIGEST


# ---------------------------------------------------------------------------
# The prime-modulus, forced-value search against the every-modulus search

def same_answer(support, alphabets, max_modulus, space_guard):
    """The oracle's witness, or its exception's type and message, equal to
    those of `every_modulus_embedding`; its modulus, when positive, prime."""
    answers = []
    for search in (brute_force_embedding, every_modulus_embedding):
        try:
            answers.append(search(support, alphabets, max_modulus, space_guard))
        except (SizeGuardError, ValidationError) as exc:
            answers.append((type(exc), str(exc)))
    got, want = answers
    assert got == want
    if isinstance(got, EmbeddingWitness) and got.modulus:
        assert all(got.modulus % p for p in range(2, got.modulus))
    return got


@st.composite
def oracle_inputs(draw):
    """A random support (k 1..4, alphabets of 1..3 symbols, any density) or
    a Z_m-sum (k 2..3), each coordinate relabelled, with m composite or a
    prime past 2, where the first witness is past Z_2; max_modulus 2..12
    and the default guard, a small one or none."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        m, k = draw(st.sampled_from([4, 6, 8, 9, 12, 3, 5, 7, 11])), draw(st.integers(2, 3))
        names = [rng.sample(range(m), m) for _ in range(k)]
        support = [tuple(str(names[i][v]) for i, v in enumerate(x))
                   for x in product(range(m), repeat=k) if sum(x) % m == 0]
        alphabets = [alphabet([str(v) for v in range(m)])] * k
    else:
        sizes = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 4)))]
        alphabets = [alphabet([str(v) for v in range(a)]) for a in sizes]
        cells = list(product(*[a.symbols for a in alphabets]))
        density = draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
        support = [x for x in cells if rng.random() < density] or [rng.choice(cells)]
    return (support, alphabets, draw(st.integers(2, 12)),
            draw(st.sampled_from([10 ** 10, 10 ** 4, None])))


@settings(max_examples=300, deadline=None)
@given(oracle_inputs())
def test_prime_forced_search_matches_the_every_modulus_search(case):
    same_answer(*case)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), s=st.integers(0, 40))
def test_column_order_is_the_min_scan_order(data, s):
    """The lazy heap of scores picks the column a scan of every unplaced one
    picks: constraints of one to five columns, repeats included, so that
    scores tie and rise by more than one."""
    cons = st.lists(st.integers(0, s - 1), min_size=1, max_size=min(s, 5), unique=True)
    constraints = data.draw(st.lists(cons.map(tuple), max_size=3 * s)) if s else []
    assert _column_order(s, constraints) == min_scan_column_order(s, constraints)


def test_prime_forced_search_matches_on_the_lattice_shapes():
    for alphabets, support in smith_supports().values():
        same_answer(support, alphabets, 12, None)


def test_the_space_guard_still_reads_composite_moduli():
    # 3^2 <= 10 < 4^2: Z_2 and Z_3 are searched in vain, and m = 4, never
    # searched, still trips the guard
    sup = list(product("01", repeat=2))
    with pytest.raises(SizeGuardError, match=r"m\*\*S = 4\*\*2 exceeds guard"):
        brute_force_embedding(sup, [B, B], max_modulus=4, space_guard=10)
    assert brute_force_embedding(sup, [B, B], max_modulus=3, space_guard=10) is None


def test_the_node_budget_still_bounds_the_search(monkeypatch):
    monkeypatch.setattr(embedlens.embedding, "ORACLE_NODE_BUDGET", 5)
    alphabets, support = smith_supports()["a4-triple"]
    with pytest.raises(SizeGuardError, match="node budget exceeded"):
        brute_force_embedding(support, alphabets, max_modulus=12, space_guard=None)


def test_a_large_max_modulus_without_a_guard_stays_fast():
    sup = list(product("01", repeat=2))  # no embedding: every prime is searched
    start = time.perf_counter()
    assert brute_force_embedding(sup, [B, B], max_modulus=10 ** 4, space_guard=None) is None
    assert time.perf_counter() - start < 0.5


def test_an_invalid_rational_witness_raises(monkeypatch):
    # max_modulus 1 searches no modulus; the single atom leaves the rank at 0
    monkeypatch.setattr(embedlens.embedding, "_fraction_kernel", lambda rows, s: (0,) * s)
    with pytest.raises(AssertionError, match="rational kernel produced an invalid witness"):
        brute_force_embedding([("0", "0")], [B, B], max_modulus=1)


def random_support(rng: random.Random):
    sizes = [rng.randrange(1, 4) for _ in range(3)]
    alphabets = [alphabet([str(x) for x in range(sz)]) for sz in sizes]
    cells = list(product(*[a.symbols for a in alphabets]))
    support = [x for x in cells if rng.random() < 0.5]
    if not support:
        support = [rng.choice(cells)]
    return alphabets, support


def test_oracle_equivalence_random_sample():
    # Smaller twin of the acceptance run: detector vs exhaustive oracle.
    rng = random.Random(20240917)
    for _ in range(40):
        alphabets, support = random_support(rng)
        dist = uniform_on(alphabets, support)
        verdict = detect_embedding(dist)
        oracle = brute_force_embedding(support, alphabets, max_modulus=12)
        assert verdict.admits == (oracle is not None)
        if verdict.admits:
            assert verify_witness(support, verdict.witness)
            assert verify_witness(support, oracle)
        else:
            assert verdict.rank == verdict.s
            assert all(d == 1 for d in verdict.snf_divisors)


@st.composite
def zero_one_rows(draw):
    s = draw(st.integers(1, 7))
    cols = st.lists(st.integers(0, s - 1), max_size=s, unique=True).map(lambda c: tuple(sorted(c)))
    return draw(st.lists(cols, min_size=1, max_size=9)), s


@settings(max_examples=150, deadline=None)
@given(zero_one_rows())
def test_rank_mod_p_shortcut_agrees_with_fraction_elimination(case):
    rows, s = case
    exact = _fraction_kernel(rows, s)
    assert (_rational_kernel(rows, s) is None) == (exact is None)
    if _rank_mod_p(rows, s) == s:
        assert exact is None
    if exact is not None:
        assert any(exact)
        assert all(sum(exact[c] for c in cols) == 0 for cols in rows)


def test_detector_invariant_under_renaming_and_permutation():
    rng = random.Random(77)
    for _ in range(25):
        alphabets, support = random_support(rng)
        dist = uniform_on(alphabets, support)
        base = detect_embedding(dist).admits
        # permute coordinates
        perm = list(range(3))
        rng.shuffle(perm)
        p_alph = [alphabets[c] for c in perm]
        p_sup = [tuple(x[c] for c in perm) for x in support]
        assert detect_embedding(uniform_on(p_alph, p_sup)).admits == base
        # rename symbols (reverse each alphabet's order)
        renames = [{s: f"r{len(a.symbols) - 1 - a.index(s)}" for s in a.symbols} for a in alphabets]
        r_alph = [alphabet([renames[i][s] for s in a.symbols]) for i, a in enumerate(alphabets)]
        r_sup = [tuple(renames[i][s] for i, s in enumerate(x)) for x in support]
        assert detect_embedding(uniform_on(r_alph, r_sup)).admits == base


def test_marginal_embedding_lifts():
    # Restriction form of the sub-coordinate observation: if some (k-1)-marginal
    # admits an embedding then so does the full distribution.
    rng = random.Random(4242)
    for _ in range(40):
        alphabets, support = random_support(rng)
        dist = uniform_on(alphabets, support)
        full = detect_embedding(dist).admits
        for drop in range(3):
            coords = [c for c in range(3) if c != drop]
            sub = detect_embedding(dist.marginal(coords)).admits
            if sub:
                assert full


def test_pairwise_connected_three_lin():
    ok, split = pairwise_connected(fixtures.three_lin())
    assert ok and split is None


def test_pairwise_connected_failure_gives_split():
    ok, split = pairwise_connected(fixtures.disconnected_pair())
    assert not ok
    assert split.side_i == frozenset({"0"}) and split.side_j == frozenset({"0"})
    # the split's indicator maps embed the support into Z
    tables = [{sym: 0 for sym in a.symbols} for a in fixtures.disconnected_pair().alphabets]
    tables[split.i].update(dict.fromkeys(split.side_i, 1))
    tables[split.j].update(dict.fromkeys(split.side_j, -1))
    assert verify_witness(fixtures.disconnected_pair().support, EmbeddingWitness(0, tuple(tables)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(distributions(k=st.integers(1, 4)),
                 lattice_supports().map(lambda s: uniform_on(*s))))
def test_connectivity_matches_tuple_oracles(dist):
    # the split sides are compared too: DisconnectedPair equality reads them
    assert pairwise_connected(dist) == dfs_pairwise_connected(dist)
    assert connected(dist) == bucket_connected(dist)


@pytest.mark.parametrize("k", [3, 40, 64, 2000])  # at k = 64 the keys pass int64
def test_connected_keys_past_int64(k):
    # a path of atoms, each one coordinate away from the next: connected,
    # and split in two without its middle atom
    path = [tuple("1" if c < t else "0" for c in range(k)) for t in range(4)]
    dist = uniform_on([B] * k, path)
    assert connected(dist) and bucket_connected(dist)
    apart = uniform_on([B] * k, path[:1] + path[2:])
    assert not connected(apart) and not bucket_connected(apart)


def test_connected_examples():
    assert not connected(fixtures.three_lin())
    assert connected(fixtures.full_support_cube())
    assert connected(fixtures.punctured_cube())
    assert connected(fixtures.single_atom())


def admits_and_pc(dist) -> tuple[bool, bool]:
    return detect_embedding(dist).admits, pairwise_connected(dist)[0]


def test_pc_check_report():
    # no Abelian embedding forces pairwise connectivity
    assert admits_and_pc(fixtures.full_support_cube()) == (False, True)
    assert admits_and_pc(fixtures.three_lin())[0]
    assert admits_and_pc(fixtures.disconnected_pair()) == (True, False)


def test_obs_no_embedding_implies_pc_random():
    rng = random.Random(555)
    for _ in range(50):
        alphabets, support = random_support(rng)
        admits, pc = admits_and_pc(uniform_on(alphabets, support))
        assert admits or pc


def test_witness_json_roundtrip(tmp_path):
    w = detect_embedding(fixtures.three_lin()).witness
    path = tmp_path / "w.json"
    write_json(str(path), w.to_json())
    assert EmbeddingWitness.from_json(read_json(str(path))) == w


def test_a5_triple_product_admits_nothing():
    # perfect-group input: the detector reports a full unit lattice, and the
    # exhaustive oracle over the prime moduli up to 12 (a witness into any
    # Z_m would give one into Z_p for a prime p | m) plus the rational rank
    # test finds no witness either
    mu = fixtures.a5_triple_product()
    verdict = detect_embedding(mu)
    assert not verdict.admits
    assert verdict.rank == verdict.s == 177
    assert all(d == 1 for d in verdict.snf_divisors)
    assert not connected(mu)
    ok, _ = pairwise_connected(mu)
    assert ok
    oracle = brute_force_embedding(mu.support, mu.alphabets, max_modulus=12,
                                   space_guard=None)
    assert oracle is None


def test_unit_alphabet_coordinates_are_skipped():
    one = alphabet(["x"])
    dist = uniform_on([one, B], [("x", "0"), ("x", "1")])
    verdict = detect_embedding(dist)
    assert not verdict.admits
    assert verdict.s == 1
    all_units = uniform_on([one, one], [("x", "x")])
    v2 = detect_embedding(all_units)
    assert not v2.admits and v2.s == 0


# ---------------------------------------------------------------------------
# The selection route against the all-rows route (tests/oracles.py)

def verdict_bytes(v):
    return v.admits, v.rank, v.snf_divisors, v.witness and render(v.witness.to_json())[0]


def assert_same_as_all_rows(dist):
    got = detect_embedding(dist)
    assert verdict_bytes(got) == verdict_bytes(all_rows_embedding(dist))
    before = all_rows_embedding(dist, hermite=False)  # the lattice invariants
    assert (got.admits, got.rank, got.snf_divisors) == (
        before.admits, before.rank, before.snf_divisors)


@settings(max_examples=300, deadline=None)
@given(lattice_supports())
def test_detect_matches_the_all_rows_route(case):
    assert_same_as_all_rows(uniform_on(*case))


@settings(max_examples=16, deadline=None)
@given(st.sampled_from([(4, True), (4, False)]), st.data())
def test_detect_matches_the_all_rows_route_on_relabelled_groups(group, data):
    elems = group_elements(*group)
    orders = [data.draw(st.permutations(range(len(elems)))) for _ in range(3)]
    assert_same_as_all_rows(uniform_on(*triple_product(elems, orders)))


def test_detect_matches_the_all_rows_route_on_the_fixtures():
    for name, build in sorted(fixtures.NAMED.items()):
        if not name.endswith("instance"):
            dist = build()
            assert verdict_bytes(detect_embedding(dist)) == verdict_bytes(
                all_rows_embedding(dist, hermite=False)), name


def test_the_witness_depends_on_the_lattice_only():
    # A torsion-rich support with lattice quotient Z_6: the basis that every
    # row reduces to gives the witness 2, 1, ... (mod 6), its Hermite form
    # the negation. Both are embeddings; the selection route gives the one
    # its unique Hermite form gives, whatever rows it reduced.
    support = [("0", "0", "3", "2"), ("0", "1", "1", "4"), ("0", "1", "2", "3"),
               ("1", "0", "0", "4"), ("1", "0", "3", "3"), ("1", "0", "4", "0"),
               ("1", "1", "0", "0"), ("1", "1", "1", "2"), ("1", "1", "2", "4"),
               ("1", "1", "4", "1"), ("1", "1", "4", "2"), ("2", "0", "0", "3"),
               ("2", "0", "3", "1"), ("2", "1", "2", "3"), ("2", "1", "4", "4")]
    alphabets = [alphabet([str(v) for v in range(a)]) for a in (3, 2, 5, 5)]
    dist = uniform_on(alphabets, support)
    got, before = detect_embedding(dist), all_rows_embedding(dist, hermite=False)
    assert got.snf_divisors == before.snf_divisors == (1,) * 10 + (6,)
    assert got.witness.modulus == before.witness.modulus == 6
    for a, b in zip(got.witness.sigma, before.witness.sigma):
        assert {s: (-v) % 6 for s, v in a.items()} == b
    assert verify_witness(support, got.witness) and verify_witness(support, before.witness)
    assert verdict_bytes(got) == verdict_bytes(all_rows_embedding(dist))


@settings(max_examples=200, deadline=None)
@given(lattice_supports())
def test_the_loop_from_a_small_selection_reaches_the_span(case):
    cm = constraint_matrix(uniform_on(*case))
    if cm.s == 0:
        return
    want = hermite_normal_form(row_basis([dict.fromkeys(c, 1) for c in tuple_rows(cm)], cm.s))
    assert densify(span_hermite_form(cm.columns, cm.s), cm.s) == want


S4_SUPPORT = triple_product(group_elements(4, False))


def first_rows(idx, cols):
    """The first row that holds each column, ascending: the selection of
    `span_hermite_form` without its spread rows."""
    first = {}
    for i, row in enumerate(idx.T.tolist()):
        for j in row:
            if j != cols:
                first.setdefault(j, i)
    return sorted(set(first.values()))


def test_rank_raising_and_index_lowering_rounds(monkeypatch):
    # S4 from the first row of each column alone: these rows mostly pass
    # through the base point and span rank 46 of 69, so a round raises the
    # rank (46 -> 69), then one keeps it and lowers the index of the lattice
    # (4 -> 2). Each round's echelon basis is read where it is put in
    # Hermite form: its rank, and the product of its leads (the index).
    cm = constraint_matrix(uniform_on(*S4_SUPPORT))
    rounds = []
    hermite = intlattice._hermite

    def recording(basis):
        rounds.append((len(basis), prod(row[lead] for lead, row in basis.items())))
        return hermite(basis)

    monkeypatch.setattr(intlattice, "_selection", first_rows)
    monkeypatch.setattr(intlattice, "_hermite", recording)
    h = span_hermite_form(cm.columns, cm.s)
    assert rounds[0][0] == 46
    assert any(b[0] > a[0] for a, b in zip(rounds, rounds[1:]))
    assert any(b[0] == a[0] and b[1] < a[1] for a, b in zip(rounds, rounds[1:]))
    assert (69, 4) in rounds and rounds[-1] == (69, 2)
    monkeypatch.undo()
    want = hermite_normal_form(row_basis([dict.fromkeys(c, 1) for c in tuple_rows(cm)], cm.s))
    assert densify(h, cm.s) == want


def test_later_rounds_check_only_the_rows_that_failed(monkeypatch):
    # S4 from the first row of each column alone: the membership check sees
    # the 576 rows but the selected ones once, then in each round only the
    # rows that failed the round before, until none fails
    cm = constraint_matrix(uniform_on(*S4_SUPPORT))
    seen = []
    outside = intlattice._outside

    def recording(idx, h, cols):
        added, failed = outside(idx, h, cols)
        seen.append((idx.shape[1], len(failed)))
        return added, failed

    monkeypatch.setattr(intlattice, "_selection", first_rows)
    monkeypatch.setattr(intlattice, "_outside", recording)
    span_hermite_form(cm.columns, cm.s)
    assert seen[0][0] == 576 - len(first_rows(cm.columns, cm.s))
    assert seen[-1][1] == 0 and len(seen) >= 3
    assert all(b[0] == a[1] for a, b in zip(seen, seen[1:]))
    assert all(b[0] < a[0] for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("n, alternating, checks", [(4, True, 1), (4, False, 1), (5, True, 0)])
def test_triple_products_close_in_one_round(monkeypatch, n, alternating, checks):
    # A4, S4 and A5 from the first row of each column plus the rows spread
    # over the support: one round reaches the span. The membership check
    # sees exactly the rows outside the selection and none fails; A5 has no
    # Abelian embedding, so its selection already spans Z^s and no row is
    # checked at all.
    cm = constraint_matrix(uniform_on(*triple_product(group_elements(n, alternating))))
    selection = intlattice._selection(cm.columns, cm.s)
    assert set(first_rows(cm.columns, cm.s)) < set(selection)
    rest = sorted(set(range(cm.columns.shape[1])).difference(selection))
    seen = []
    outside = intlattice._outside

    def recording(idx, h, cols):
        added, failed = outside(idx, h, cols)
        seen.append((idx.copy(), failed))
        return added, failed

    monkeypatch.setattr(intlattice, "_outside", recording)
    h = span_hermite_form(cm.columns, cm.s)
    assert len(seen) == checks
    for idx, failed in seen:
        assert np.array_equal(idx, cm.columns[:, rest]) and failed == []
    monkeypatch.undo()
    want = hermite_normal_form(row_basis([dict.fromkeys(c, 1) for c in tuple_rows(cm)], cm.s))
    assert densify(h, cm.s) == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(lattice_supports().map(lambda s: uniform_on(*s)), distributions(k=st.integers(1, 4))))
def test_the_constraint_array_holds_the_tuple_rows(dist):
    cm, want = constraint_matrix(dist), tuple_constraint_matrix(dist)
    assert (cm.s, cm.index_map) == (want.s, want.index_map)
    if cm.s:
        assert cm.columns.shape == (dist.k, len(dist.codes))
        assert tuple_rows(cm) == want.rows
    else:
        assert cm.columns is None


def corrupted(witness, data):
    """The witness with one sigma entry moved by a nonzero amount."""
    sigma = [dict(t) for t in witness.sigma]
    i = data.draw(st.integers(0, len(sigma) - 1), label="coordinate")
    sym = data.draw(st.sampled_from(sorted(sigma[i])), label="symbol")
    sigma[i][sym] += data.draw(st.integers(1, 5) | st.integers(2 ** 63, 2 ** 70), label="shift")
    return EmbeddingWitness(witness.modulus, tuple(sigma))


@settings(max_examples=300, deadline=None)
@given(lattice_supports(), st.data())
def test_the_witness_check_on_codes_agrees_with_verify_witness(case, data):
    alphabets, support = case
    dist = uniform_on(alphabets, support)

    def agree(witness):
        assert witness_holds(dist, witness) == verify_witness(dist.support, witness)

    verdict = detect_embedding(dist)
    if verdict.admits:
        assert witness_holds(dist, verdict.witness)
        agree(verdict.witness)
        agree(corrupted(verdict.witness, data))
    modulus = data.draw(st.sampled_from([0, 1, 2, 3, 6, -2, 2 ** 64]), label="modulus")
    constant = data.draw(st.integers(-3, 3) | st.integers(2 ** 63, 2 ** 66), label="constant")
    agree(EmbeddingWitness(modulus, tuple({s: constant for s in a.symbols} for a in alphabets)))
    # modulus 0 with entries past 2^63: the sums take Python ints
    big = [{s: data.draw(st.integers(-2 ** 70, 2 ** 70), label="entry") for s in a.symbols}
           for a in alphabets]
    agree(EmbeddingWitness(0, tuple(big)))
    if verdict.admits and verdict.witness.modulus == 0:
        scaled = tuple({s: v * 2 ** 64 for s, v in t.items()} for t in verdict.witness.sigma)
        assert witness_holds(dist, EmbeddingWitness(0, scaled))
        agree(EmbeddingWitness(0, scaled))

