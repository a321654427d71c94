import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from embedlens import intlattice
from embedlens.errors import ValidationError
from embedlens.intlattice import (
    IntMatrix,
    _ext_gcd,
    _hermite,
    _outside,
    row_basis,
    smith_normal_form,
    span_hermite_form,
)
from embedlens.distributions import uniform_on
from embedlens.embedding import constraint_matrix
from oracles import (
    column,
    column_index,
    dense_smith_normal_form,
    densify,
    entry,
    hermite_normal_form,
    lattice_supports,
    smith_supports,
)


def sparse(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def snf_of(a: IntMatrix):
    """`smith_normal_form` of an IntMatrix."""
    return smith_normal_form(sparse(a.row(i) for i in range(a.rows)), a.cols)


def check_certificates(a: IntMatrix):
    snf = snf_of(a)
    assert (snf.U @ a @ snf.V).entries == snf.D.entries
    assert abs(snf.U.det()) == 1
    assert abs(snf.V.det()) == 1
    divs = snf.divisors
    assert all(d >= 0 for d in divs)
    nz = [d for d in divs if d != 0]
    assert len(nz) == snf.rank
    assert divs[:snf.rank] == tuple(nz)  # trailing zeros only
    for d1, d2 in zip(nz, nz[1:]):
        assert d2 % d1 == 0
    # D is diagonal
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert entry(snf.D, i, j) == 0
    return snf


def test_identity_already_snf():
    snf = check_certificates(IntMatrix.from_rows([[1, 0], [0, 1]]))
    assert snf.divisors == (1, 1)


def test_diagonal_already_snf():
    snf = check_certificates(IntMatrix.from_rows([[2, 0], [0, 4]]))
    assert snf.divisors == (2, 4)


def test_2x2_divisors_from_det_and_gcd():
    # gcd of entries 1, determinant 3, so the chain is (1, 3)
    snf = check_certificates(IntMatrix.from_rows([[2, 1], [1, 2]]))
    assert snf.divisors == (1, 3)


def test_snf_deterministic():
    a = IntMatrix.from_rows([[6, 4, 2], [2, 8, 4], [0, 2, 6]])
    s1 = snf_of(a)
    s2 = snf_of(a)
    assert s1.U.entries == s2.U.entries
    assert s1.V.entries == s2.V.entries
    assert s1.divisors == s2.divisors


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_certificates_hold_for_any_matrix(r, c, data):
    entries = data.draw(st.lists(st.integers(-9, 9), min_size=r * c, max_size=r * c))
    check_certificates(IntMatrix(r, c, tuple(entries)))


def test_random_certificates_small():
    rng = random.Random(2024)
    for _ in range(120):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        a = IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)])
        check_certificates(a)


def assert_same_as_dense(rows, cols):
    got = smith_normal_form(sparse(rows), cols)
    want = dense_smith_normal_form(IntMatrix.from_rows(rows))
    assert got.divisors == want.divisors and got.rank == want.rank
    assert (got.U, got.V, got.D) == (want.U, want.V, want.D)
    assert [got.v_column(j) for j in range(cols)] == [column(want.V, j) for j in range(cols)]


@st.composite
def snf_matrices(draw):
    """Integer matrices up to 7 x 7 of four kinds: small entries; entries
    without units (non-unit pivots, which may need the divisibility fix);
    entries past 2^63; and products of an r x k and a k x c matrix with
    k < min(r, c) (rank deficient, the zero matrix at k = 0). Any rows and
    columns may then be zeroed."""
    r, c = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["small", "no-units", "wide", "low-rank"]))
    entries = {"small": st.integers(-9, 9),
               "no-units": st.sampled_from([0, 2, -2, 3, -3, 4, 6, -9, 10]),
               "wide": st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 3)}.get(kind, st.integers(-4, 4))
    if kind == "low-rank":
        k = draw(st.integers(0, min(r, c) - 1))
        a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=r, max_size=r))
        b = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
        rows = [[sum(x * b[t][j] for t, x in enumerate(ai)) for j in range(c)] for ai in a]
    else:
        rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, r - 1)))
    zero_cols = draw(st.sets(st.integers(0, c - 1)))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)], c


@settings(max_examples=400, deadline=None)
@given(snf_matrices())
@example(([[2, 0], [0, 3]], 2))  # the divisibility fix
@example(([[0, 0, 0], [0, 4, 6], [0, 6, 4]], 3))
@example(([[2 ** 64, 3], [5, 2 ** 65 + 1]], 2))
def test_sparse_smith_form_is_the_dense_one(case):
    assert_same_as_dense(*case)


@settings(max_examples=150, deadline=None)
@given(lattice_supports())
def test_sparse_smith_form_is_the_dense_one_on_hermite_forms(case):
    cm = constraint_matrix(uniform_on(*case))
    if cm.s and (h := span_hermite_form(cm.columns, cm.s)):
        assert_same_as_dense(densify(h, cm.s), cm.s)


@pytest.mark.parametrize("name", sorted(smith_supports()))
def test_sparse_smith_form_is_the_dense_one_on_group_supports(name):
    cm = constraint_matrix(uniform_on(*smith_supports()[name]))
    assert_same_as_dense(densify(span_hermite_form(cm.columns, cm.s), cm.s), cm.s)


def test_smith_normal_form_rejects_bad_shapes():
    for rows, cols in (([], 2), ([{0: 1}], 0), ([{2: 1}], 2), ([{-1: 1}], 2)):
        with pytest.raises(ValidationError):
            smith_normal_form(rows, cols)


def test_from_rows_of_no_rows_is_a_validation_error():
    with pytest.raises(ValidationError, match="matrix dimensions must be positive"):
        IntMatrix.from_rows([])


def minor_gcd(a: IntMatrix, r: int) -> int:
    from math import gcd

    g = 0
    for rows in combinations(range(a.rows), r):
        for cols in combinations(range(a.cols), r):
            sub = IntMatrix.from_rows([[entry(a, i, j) for j in cols] for i in rows])
            g = gcd(g, sub.det())
    return g


def test_divisor_products_match_minor_gcds():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        a = IntMatrix.from_rows([[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)])
        snf = snf_of(a)
        prod = 1
        for r, d in enumerate(snf.divisors[:snf.rank], start=1):
            prod *= d
            assert prod == minor_gcd(a, r)


def lattice_is_full(a: IntMatrix) -> bool:
    """The detector's verdict: the row lattice is Z^cols iff the SNF has full
    column rank and unit divisors."""
    snf = snf_of(a)
    return snf.rank == a.cols and all(d == 1 for d in snf.divisors[:snf.rank])


def kernel_column(a: IntMatrix) -> tuple[int, ...] | None:
    """The column of V just past the rank, which the detector's Z-witness reads:
    A (V e_c) = U^-1 D e_c = 0 for c >= rank. None at full column rank."""
    snf = snf_of(a)
    if snf.rank == a.cols:
        return None
    return tuple(column(snf.V, snf.rank))


def test_lattice_is_full_basics():
    assert lattice_is_full(IntMatrix.from_rows([[1, 0], [0, 1]]))
    assert not lattice_is_full(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert not lattice_is_full(IntMatrix.from_rows([[1, 1]]))


def brute_force_full(gens: list[list[int]], cols: int, bound: int) -> bool:
    # Every standard basis vector must be an integer combination of the
    # generators with coefficients in [-bound, bound]. Sound in one direction
    # only; the seeded instances below keep entries small enough (Cramer-type
    # coefficient bounds) that the bound never truncates a true witness.
    targets = [tuple(1 if i == j else 0 for j in range(cols)) for i in range(cols)]
    found = set()
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        vec = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(cols))
        if vec in targets:
            found.add(vec)
            if len(found) == cols:
                return True
    return False


def test_lattice_is_full_agrees_with_bounded_oracle():
    rng = random.Random(31337)
    for _ in range(60):
        cols = rng.randrange(1, 4)
        nrows = rng.randrange(1, 4)
        gens = [[rng.randrange(-2, 3) for _ in range(cols)] for _ in range(nrows)]
        got = lattice_is_full(IntMatrix.from_rows(gens))
        assert got == brute_force_full(gens, cols, bound=10)


def test_rational_kernel_vector_simple():
    a = IntMatrix.from_rows([[1, 1]])
    v = kernel_column(a)
    assert v is not None and any(v)
    assert sum(x * y for x, y in zip(a.row(0), v)) == 0


def test_rational_kernel_vector_full_rank_none():
    assert kernel_column(IntMatrix.from_rows([[2, 1], [1, 1]])) is None


def test_rational_kernel_vector_zero_matrix():
    v = kernel_column(IntMatrix.from_rows([[0, 0]]))
    assert v is not None and any(v)


def test_rational_kernel_vector_random():
    rng = random.Random(4)
    for _ in range(50):
        cols = rng.randrange(2, 6)
        nrows = rng.randrange(1, cols)  # rank-deficient by construction
        a = IntMatrix.from_rows([[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(nrows)])
        v = kernel_column(a)
        assert v is not None and any(v)
        for i in range(nrows):
            assert sum(x * y for x, y in zip(a.row(i), v)) == 0


def dense_row_basis(rows, cols):
    """Reference: the same echelon reduction on dense Python-integer rows."""
    basis: dict[int, list[int]] = {}
    for src in rows:
        r = [int(x) for x in src]
        assert len(r) == cols
        while True:
            l = next((j for j, x in enumerate(r) if x), None)
            if l is None:
                break
            if l not in basis:
                if r[l] < 0:
                    r = [-x for x in r]
                basis[l] = r
                break
            b = basis[l]
            rl, bl = r[l], b[l]
            if rl % bl == 0:
                q = rl // bl
                r = [x - q * y for x, y in zip(r, b)]
            else:
                g, s, t = _ext_gcd(bl, rl)
                basis[l] = [s * x + t * y for x, y in zip(b, r)]
                qb, qr = rl // g, bl // g
                r = [qb * x - qr * y for x, y in zip(b, r)]
    return [basis[l] for l in sorted(basis)]


@st.composite
def integer_rows(draw, entries):
    cols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=1, max_size=10)), cols


@settings(max_examples=150, deadline=None)
@given(integer_rows(st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 3)))
def test_row_basis_identical_to_dense_reference_wide_entries(case):
    rows, cols = case
    assert row_basis(sparse(rows), cols) == dense_row_basis(rows, cols)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 3), st.data())
def test_row_basis_identical_to_dense_reference_constraint_rows(cols, k, data):
    # 0/1 rows with at most k ones, the shape the embedding detector feeds in
    support = st.lists(st.integers(0, cols - 1), max_size=k, unique=True)
    rows = [[1 if j in ones else 0 for j in range(cols)]
            for ones in data.draw(st.lists(support, min_size=1, max_size=30))]
    assert row_basis(sparse(rows), cols) == dense_row_basis(rows, cols)


def test_row_basis_rejects_out_of_range_columns():
    with pytest.raises(ValidationError):
        row_basis([{0: 1, 3: 2}], 3)


def test_row_basis_preserves_lattice():
    rng = random.Random(11)
    for _ in range(60):
        cols = rng.randrange(1, 6)
        nrows = rng.randrange(1, 9)
        rows = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(nrows)]
        basis = row_basis(sparse(rows), cols)
        a = snf_of(IntMatrix.from_rows(rows))
        if basis:
            b = snf_of(IntMatrix.from_rows(basis))
            assert a.divisors[:a.rank] == b.divisors[:b.rank]
            assert a.rank == b.rank
        else:
            assert a.rank == 0


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(606)
    for _ in range(60):
        r = rng.randrange(1, 7)
        c = rng.randrange(1, 7)
        rows = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        snf = snf_of(IntMatrix.from_rows(rows))
        reference = [int(f) for f in invariant_factors(sympy.Matrix(rows)) if int(f) != 0]
        assert list(snf.divisors[:snf.rank]) == reference


def test_bareiss_det_matches_numpy_sign_pattern():
    a = IntMatrix.from_rows([[3, 1], [4, 2]])
    assert a.det() == 2
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    with pytest.raises(ValidationError):
        IntMatrix.from_rows([[1, 2]]).det()


# ---------------------------------------------------------------------------
# Hermite normal form and the membership check of span_hermite_form

WIDE = st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 3)


def hermite(basis, cols):
    """`_hermite` of a dense echelon basis, back as dense rows."""
    h = _hermite({min(r): r for r in sparse(basis)})
    return [[r.get(j, 0) for j in range(cols)] for r in h.values()]


@settings(max_examples=150, deadline=None)
@given(integer_rows(WIDE), st.randoms(use_true_random=False))
# a subtraction that makes a lead column above a lead of 2 nonzero again
@example(([[0, 0, 0, 0, 0, 2], [0, 1, 0, 0, 0, 1], [1, 1, 0, 0, 0, 0]], 6), random.Random(0))
def test_hermite_normal_form_is_reduced_and_unique_for_the_lattice(case, rnd):
    # the sparse `_hermite` of the program, against the dense oracle
    rows, cols = case
    h = hermite(row_basis(sparse(rows), cols), cols)
    assert h == hermite_normal_form(row_basis(sparse(rows), cols))
    leads = [next(j for j, x in enumerate(r) if x) for r in h]
    assert leads == sorted(set(leads))
    for i, c in enumerate(leads):
        assert h[i][c] > 0 and all(0 <= h[r][c] < h[i][c] for r in range(i))
    # another generating set of the same lattice: the rows shuffled, plus
    # integer combinations of them
    more = rows[:]
    rnd.shuffle(more)
    more += [[x + 3 * y for x, y in zip(a, b)] for a, b in zip(rows, more)]
    assert hermite(row_basis(sparse(more), cols), cols) == h
    if h:
        a, b = snf_of(IntMatrix.from_rows(rows)), snf_of(IntMatrix.from_rows(h))
        assert (a.rank, a.divisors[:a.rank]) == (b.rank, b.divisors[:b.rank])


def member(h, row, cols):
    """Whether `row` lies in the lattice of the Hermite form h."""
    return hermite_normal_form(row_basis(sparse(h) + sparse([row]), cols)) == h


def sparse_hermite(h):
    """A dense Hermite form as `_outside` reads it: {lead column: {column: entry}}."""
    return {min(r): r for r in sparse(h)}


@settings(max_examples=200, deadline=None)
@given(integer_rows(WIDE), st.data())
def test_membership_check_agrees_with_exact_reduction(case, data):
    # entries past 2^63 take the Python-int arrays, small ones int64 or narrower
    gens, cols = case
    h = hermite_normal_form(row_basis(sparse(gens), cols))
    ones = st.lists(st.integers(0, cols - 1), max_size=cols, unique=True).map(sorted)
    rows = data.draw(st.lists(ones.map(tuple), min_size=1, max_size=12))
    dense = [[int(j in r) for j in range(cols)] for r in rows]
    idx = column_index(rows, cols)
    if not idx.size:
        return
    added, failed = _outside(idx, sparse_hermite(h), cols)
    assert added == sorted(set(added)) and set(added) <= set(failed)
    assert bool(added) == bool(failed)  # a row to add whenever some row is outside
    assert failed == [i for i, r in enumerate(dense) if not member(h, r, cols)]


@settings(max_examples=200, deadline=None)
@given(integer_rows(WIDE), st.data())
def test_membership_check_on_the_failing_rows_selects_the_same_rows(case, data):
    # a later round of span_hermite_form checks only the rows that failed
    # before: any subset holding every failing row selects the same rows
    gens, cols = case
    h = sparse_hermite(hermite_normal_form(row_basis(sparse(gens), cols)))
    ones = st.lists(st.integers(0, cols - 1), max_size=cols, unique=True).map(sorted)
    rows = data.draw(st.lists(ones.map(tuple), min_size=1, max_size=40))
    idx = column_index(rows, cols)
    if not idx.size:
        return
    added, failed = _outside(idx, h, cols)
    extra = data.draw(st.sets(st.integers(0, len(rows) - 1)))
    subset = np.array(sorted(set(failed) | extra), dtype=np.intp)
    sub_added, sub_failed = _outside(idx[:, subset], h, cols)
    assert subset[sub_added].tolist() == added
    assert subset[sub_failed].tolist() == failed


@st.composite
def zero_one_rows(draw):
    """(rows, cols): 1 to 80 rows over 1 to 9 columns, each row the tuple of
    the at most k <= 4 columns that hold its 1s."""
    cols, k = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    support = st.lists(st.integers(0, cols - 1), max_size=k, unique=True).map(tuple)
    return draw(st.lists(support, min_size=1, max_size=80)), cols


@settings(max_examples=150, deadline=None)
@given(zero_one_rows())
@example(([(), ()], 1))  # every row zero: nothing to select or check
@example(([(2, 5)], 9))  # a single row
@example(([(0,), (0,), (0, 1)], 2))  # only the spread rows make the selection hold every row
def test_span_hermite_form_matches_every_row_reduced(case):
    rows, cols = case
    want = hermite_normal_form(row_basis([dict.fromkeys(r, 1) for r in rows], cols))
    assert densify(span_hermite_form(column_index(rows, cols), cols), cols) == want


def test_membership_check_in_blocks_smaller_than_a_row(monkeypatch):
    # a block of one residue entry holds less than a row: the check still
    # takes one row at a time
    rnd = random.Random(1)
    rows = [tuple(sorted(rnd.sample(range(9), rnd.randint(0, 4)))) for _ in range(80)]
    want = hermite_normal_form(row_basis([dict.fromkeys(r, 1) for r in rows], 9))
    monkeypatch.setattr(intlattice, "CERTIFY_BLOCK", 1)
    assert densify(span_hermite_form(column_index(rows, 9), 9), 9) == want


@pytest.mark.parametrize("copies", [1, 40])  # the row selected, or most rows checked
def test_span_hermite_form_rejects_out_of_range_columns(copies):
    # `cols` itself is the padding of the column-index array, so 4 is the
    # first column past the end of 3
    for bad in ([(0, 4)], [(-1,)], [(4,)]):
        with pytest.raises(ValidationError):
            span_hermite_form(np.array(bad * copies).T, 3)
