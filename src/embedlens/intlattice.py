"""Exact integer matrix normal forms over arbitrary-precision integers.

The Smith normal form of the lattice's Hermite form decides the Abelian
embedding: the constraint lattice equals Z^S exactly when it has full rank
and all invariant factors equal 1. The pivot rule picks the minimal
nonzero |entry|, ties to the smallest (row, col), so decompositions are
deterministic. The elimination runs on sparse rows and columns and skips
only operations on zeros, so its pivots, U, V and D are those of the dense
elimination, which the tests keep as the oracle; U, V and D become dense
only when read. Entry growth is accepted (desk-scale matrices).

The lattice spanned by 0/1 rows is found by `span_hermite_form`, by one
route for any number of rows: a selection of rows is reduced exactly, one
vectorised check of the other rows picks the first row of each coset of
that lattice they meet outside it, and those rows join the selection for
one more reduction, which ends at the span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd
from operator import mul
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError

INT64_BOUND = 2 ** 63  # magnitudes below this fit np.int64
CERTIFY_BLOCK = 2 ** 16  # residue entries per block of the membership check (bounds its memory)
# `span_hermite_form` reduces first the first row of each column plus
# ceil(3 cols / 5) rows spaced evenly over the row order (`_selection`).
# Measured in-process on a 2-core host over the 237 perfbench lattice
# inputs at seeds 1-3 (sum of per-input medians of 7): 72 ms with 3/5, 92
# with 2/5, 82 with 4/5 and 697 with the first rows alone. With 3/5, 42
# inputs add rows in the one check (at most 5 each); with 2/5, 148.
SPREAD_PER_FIVE_COLUMNS = 3


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValidationError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValidationError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValidationError("ragged rows")
        return cls(len(rows), c, tuple(map(int, chain.from_iterable(rows))))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValidationError("dimension mismatch in matrix product")
        ocols = [other.entries[j::other.cols] for j in range(other.cols)]
        return IntMatrix.from_rows([[sum(map(mul, self.row(i), col)) for col in ocols]
                                    for i in range(self.rows)])

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValidationError("determinant of non-square matrix")
        n = self.rows
        m = [list(self.row(i)) for i in range(n)]
        sign = prev = 1
        for t in range(n - 1):
            if m[t][t] == 0:
                i = next((i for i in range(t + 1, n) if m[i][t]), None)
                if i is None:
                    return 0
                m[t], m[i], sign = m[i], m[t], -sign
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
                m[i][t] = 0
            prev = m[t][t]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SNFDecomposition:
    """U @ A @ V = D with unimodular U, V and divisor chain d1 | d2 | ...

    `divisors` lists the full diagonal of D (trailing zeros included, all
    nonnegative); `rank` counts the nonzero ones. U and D are held as
    sparse rows {column: entry} and V as sparse columns {row: entry}; each
    is built as an `IntMatrix` when first read, and `v_column` reads one
    column of V without building it.
    """

    divisors: tuple[int, ...]
    rank: int
    u_rows: list[dict[int, int]] = field(repr=False)
    v_columns: list[dict[int, int]] = field(repr=False)
    d_rows: list[dict[int, int]] = field(repr=False)

    @cached_property
    def U(self) -> IntMatrix:
        n = len(self.u_rows)
        return IntMatrix(n, n, tuple(r.get(j, 0) for r in self.u_rows for j in range(n)))

    @cached_property
    def V(self) -> IntMatrix:
        n = len(self.v_columns)
        return IntMatrix(n, n, tuple(c.get(i, 0) for i in range(n) for c in self.v_columns))

    @cached_property
    def D(self) -> IntMatrix:
        n, rows = len(self.v_columns), self.d_rows
        return IntMatrix(len(rows), n, tuple(r.get(j, 0) for r in rows for j in range(n)))

    def v_column(self, j: int) -> list[int]:
        """Column j of V as a dense list."""
        return [self.v_columns[j].get(i, 0) for i in range(len(self.v_columns))]


def _min_pivot(m: list[dict[int, int]], t: int) -> tuple[int, int] | None:
    # (row, col) of the minimal |value| among the nonzero entries of rows t..
    # (the trailing block: the columns before t are cleared), ties to the
    # smallest (row, col); None when the block is zero.
    best = min(((abs(x), i, j) for i in range(t, len(m)) for j, x in m[i].items()), default=None)
    return best and best[1:]


def smith_normal_form(rows: Sequence[Mapping[int, int]], cols: int) -> SNFDecomposition:
    """Deterministic Smith normal form with unimodular certificates of the
    matrix whose rows are the sparse rows {column: entry} over `cols` columns.

    The elimination of Kannan & Bachem with the pivot rule of the module
    docstring, on sparse rows of the matrix and of U, with the rows nonzero
    in each column indexed, and on sparse columns of V: an operation touches
    only the nonzeros it reads or changes. The pivots, the operations and so
    U, V and D are those of the dense elimination, kept as the tests' oracle.
    """
    nr, nc = len(rows), cols
    if nr <= 0 or nc <= 0:
        raise ValidationError("matrix dimensions must be positive")
    m = [{j: x for j, x in r.items() if x} for r in rows]
    if not all(0 <= j < nc for j in set().union(*m)):
        raise ValidationError(f"row column out of range for {nc} columns")
    at: list[set[int]] = [set() for _ in range(nc)]  # column -> rows nonzero there
    for i, r in enumerate(m):
        for j in r:
            at[j].add(i)
    u = [{i: 1} for i in range(nr)]  # rows of U
    v = [{j: 1} for j in range(nc)]  # columns of V

    def put(i, j, w):  # m[i][j] = w
        if w:
            m[i][j] = w
            at[j].add(i)
        else:
            del m[i][j]
            at[j].discard(i)

    def row_sub(i, t, q):
        if q:
            for j, y in m[t].items():
                put(i, j, m[i].get(j, 0) - q * y)
            _add_multiple(u[i], -q, u[t])

    def col_sub(j, t, q):
        if q:
            for i in at[t]:
                put(i, j, m[i].get(j, 0) - q * m[i][t])
            _add_multiple(v[j], -q, v[t])

    def swap_rows(i, t):
        if i != t:
            for j in m[i].keys() ^ m[t].keys():
                at[j] ^= {i, t}
            m[i], m[t] = m[t], m[i]
            u[i], u[t] = u[t], u[i]

    def swap_cols(j, t):
        if j != t:
            for i in at[j] | at[t]:
                x, y = m[i].pop(j, 0), m[i].pop(t, 0)
                if x:
                    m[i][t] = x
                if y:
                    m[i][j] = y
            at[j], at[t] = at[t], at[j]
            v[j], v[t] = v[t], v[j]

    def negate_row(t):
        m[t] = {j: -x for j, x in m[t].items()}
        u[t] = {j: -x for j, x in u[t].items()}

    # From step t on, the rows and columns before t are zero off the
    # diagonal, and the pivot m[t][t] stays nonzero within the step, so
    # at[t] holds t and the rows below t nonzero in column t.
    for t in range(min(nr, nc)):
        # a unit at (t, t) is the first unit of the trailing block
        pos = (t, t) if m[t].get(t) in (1, -1) else _min_pivot(m, t)
        if pos is None:
            break
        swap_rows(pos[0], t)
        swap_cols(pos[1], t)
        while True:
            # Clear column t, re-pivoting on the smallest remainder. An
            # operation for row i changes only rows i and t, so the rows
            # below t that are nonzero in column t can be listed first.
            while True:
                if m[t][t] < 0:
                    negate_row(t)
                dirty = False
                for i in sorted(at[t])[1:]:
                    row_sub(i, t, m[i][t] // m[t][t])
                    if t in m[i]:
                        swap_rows(i, t)
                        dirty = True
                if not dirty:
                    break
            # Clear row t; nonzero remainders become the new pivot.
            while True:
                if m[t][t] < 0:
                    negate_row(t)
                dirty = False
                for j in sorted(m[t])[1:]:
                    col_sub(j, t, m[t][j] // m[t][t])
                    if j in m[t]:
                        swap_cols(j, t)
                        dirty = True
                if not dirty:
                    break
            if len(at[t]) > 1:
                continue  # row clearing disturbed the column
            p = m[t][t]
            if p == 1:
                break  # a unit divides the whole trailing block
            # Enforce divisibility of the trailing block by the pivot: add the
            # first row with an entry that p does not divide to row t, re-clear.
            bad = next((i for i in range(t + 1, nr) if any(x % p for x in m[i].values())), None)
            if bad is None:
                break
            row_sub(t, bad, -1)
        if m[t][t] < 0:
            negate_row(t)
    divisors = tuple(m[t].get(t, 0) for t in range(min(nr, nc)))
    return SNFDecomposition(divisors, len(divisors) - divisors.count(0), u, v, m)


def normalize_vector(v: Sequence[int]) -> tuple[int, ...]:
    """v divided by the gcd of its entries, negated if its first nonzero is negative."""
    g = gcd(*v) or 1
    if next(filter(None, v), 0) < 0:
        g = -g
    return tuple(x // g for x in v)


def row_basis(rows: Iterable[Mapping[int, int]], cols: int) -> list[list[int]]:
    """Echelon basis of the integer span of sparse rows {column: entry}, as
    dense rows sorted by leading column. Only unimodular row operations are
    used (see `_insert`), so the lattice is unchanged."""
    basis: dict[int, dict[int, int]] = {}
    for src in rows:
        _insert(basis, {j: x for j, x in src.items() if x}, cols)
    return [[b.get(j, 0) for j in range(cols)] for _, b in sorted(basis.items())]


def _insert(basis: dict[int, dict[int, int]], r: dict[int, int], cols: int) -> None:
    """Reduce the sparse row r (no zero entries) into the echelon basis
    {lead column: row}, in place, by exact-quotient reduction or, when the
    leads do not divide, an extended-gcd merge; the lattice is kept."""
    if r and not (0 <= min(r) and max(r) < cols):
        raise ValidationError(f"row column out of range for {cols} columns")
    while r:
        l = min(r)
        b = basis.get(l)
        if b is None:
            if r[l] < 0:
                r = {j: -x for j, x in r.items()}
            basis[l] = r
            return
        rl, bl = r[l], b[l]
        if rl % bl == 0:
            _add_multiple(r, -(rl // bl), b)
        else:
            g, s, t = _ext_gcd(bl, rl)
            basis[l] = _add_multiple({j: s * x for j, x in b.items()} if s else {}, t, r)
            r = _add_multiple({j: (rl // g) * x for j, x in b.items()}, -(bl // g), r)


def _hermite(basis: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Row Hermite normal form of a sparse echelon basis {lead column: row}
    with positive leads: each entry above a lead is reduced into [0, lead)
    by the row with that lead, bottom row first, so the result is unique
    for the lattice. A row's lead columns are visited in ascending order;
    a subtraction changes only columns past the lead it clears.
    """
    h: dict[int, dict[int, int]] = {}
    for lead in sorted(basis, reverse=True):
        row = dict(basis[lead])
        todo = [c for c in row if c in h]
        heapify(todo)
        while todo:
            c = heappop(todo)
            q = row.get(c, 0) // h[c][c]
            if q:
                for j in h[c]:
                    if j not in row and j in h:
                        heappush(todo, j)
                _add_multiple(row, -q, h[c])
        h[lead] = row
    return dict(sorted(h.items()))


def span_hermite_form(idx: np.ndarray, cols: int) -> list[dict[int, int]]:
    """Row Hermite normal form H of the integer span of 0/1 rows, as sparse
    rows {column: entry} sorted by leading column.

    Row i holds a 1 in each of the distinct columns `idx[:, i]` below
    `cols` (the padding) and 0 elsewhere. A selection of rows (`_selection`)
    is reduced exactly into a sparse H (`_insert`, then `_hermite`). One
    check of the other rows (`_outside`) returns the first row of each
    nonzero residue modulo L(H); they join H, which is reduced once more and
    is then the span's: each row is its residue plus an element of L(H), so
    rows with equal residues differ by an element of L(H). No row is checked
    when the selection holds every row or L(H) is already Z^cols.

    The selection is the first row that holds each column plus rows spread
    evenly over the row order. The first rows alone span too little on
    structured supports: the rows are in lexicographic order and the first
    is the base point, so a column's first row is the least one that holds
    it, which keeps the base point's symbols on the coordinates before it
    wherever the support allows. On the S4 triple product those rows span
    rank 46 of 69 and leave 504 distinct residues among the other rows; with
    the spread rows, none. The selection sets only the rows checked and
    added, never H.
    """
    if idx.size and (idx.min() < 0 or idx.max() > cols):
        raise ValidationError(f"row column out of range for {cols} columns")

    def joined(h, rows):  # the Hermite form of L(h) and the rows
        for row in idx[:, rows].T.tolist():
            _insert(h, {j: 1 for j in row if j != cols}, cols)
        return _hermite(h)

    chosen = _selection(idx, cols)
    if not chosen:
        return []  # every row is zero
    h, rest = joined({}, chosen), np.delete(np.arange(idx.shape[1]), chosen)
    if len(rest) and not (len(h) == cols and all(r[c] == 1 for c, r in h.items())):
        added = _outside(idx[:, rest], h, cols)
        if added:
            h = joined(h, rest[added])
    return list(h.values())


def _selection(idx: np.ndarray, cols: int) -> list[int]:
    """The rows `span_hermite_form` reduces first, ascending: the first row
    that holds each column, and ceil(cols * SPREAD_PER_FIVE_COLUMNS / 5)
    rows spaced evenly over the row order; none when every row is zero."""
    seen, at = np.unique(idx.T, return_index=True)
    first = set((at[seen < cols] // len(idx)).tolist())  # np.unique would import numpy.ma
    if not first:
        return []
    n, spread = idx.shape[1], -(-cols * SPREAD_PER_FIVE_COLUMNS // 5)
    return sorted(first.union(i * n // spread for i in range(spread)))


def _outside(idx: np.ndarray, h: dict[int, dict[int, int]],
             cols: int) -> list[int]:
    """The first row of `idx` (as `span_hermite_form` reads it) with each
    distinct nonzero residue modulo L(h), h a sparse Hermite form {lead
    column: row}, ascending.

    In the Hermite form a column whose lead is 1 holds a single 1, so
    subtracting from a 0/1 row the rows of h that lead at its unit-lead
    columns leaves a residue only on the other columns. One gather-add per
    block of rows computes it. The rows of h with a lead above 1 then
    reduce it in lead order, each lead's column into [0, lead). The residue
    is then the same for every vector of a coset of L(h) (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4), and zero exactly on L(h).
    A residue is keyed by its values: past int64 the array holds Python
    ints, and its bytes are pointers to them. The arrays take the narrowest integer type that a
    bound on the residue allows, Python ints past int64.
    """
    units = [c for c, r in h.items() if r[c] == 1]
    others = [c for c, r in h.items() if r[c] != 1]
    keep = sorted(set(range(cols)).difference(units))  # residue columns
    pos = {j: p for p, j in enumerate(keep)}
    # An entry at a lead's column lies in [0, lead]; the other columns are free.
    big = max([1, *(r[c] for c, r in h.items()),
               *(abs(x) for r in h.values() for j, x in r.items() if j not in h)])
    # |residue| <= r0 after the gather-add. Reducing by row i subtracts q_i
    # times it, where |q_i| <= |entry at its lead| // lead + 1, and that
    # entry is at most r0 + (lead - 1) * sum_{j<i} |q_j|, because the rows
    # above row i hold entries in [0, lead) at its lead.
    r0 = len(idx) * big
    q = 0
    for c in others:
        lead = h[c][c]
        q += (r0 + (lead - 1) * q) // lead + 1
    dtype = np.min_scalar_type(-1 - r0 - q * big)  # the narrowest that holds the bound
    # e[c]: unit vector c, minus the row of h that leads at c if that lead is
    # 1, on the residue columns; row `cols` (the padding) is zero.
    e = np.zeros((cols + 1, len(keep)), dtype=dtype)
    e[keep, range(len(keep))] = 1
    cells = [(c, pos[j], -x) for c in units for j, x in h[c].items() if j != c]
    if cells:
        rows, places, values = zip(*cells)
        e[rows, places] = values
    reducers = [(pos[c], h[c][c], np.array([h[c].get(j, 0) for j in keep], dtype=dtype))
                for c in others]
    first: dict[tuple[int, ...], int] = {}  # nonzero residue -> its first row
    step = max(1, CERTIFY_BLOCK // max(len(keep), 1))  # rows per block
    for a in range(0, idx.shape[1], step):
        block = idx[:, a:a + step]
        res = e[block[0]]
        for t in range(1, len(block)):
            res += e[block[t]]
        fail = np.flatnonzero(res.any(axis=1))
        if not len(fail):
            continue
        res = res[fail]
        for p, lead, row in reducers:
            res -= (res[:, p] // lead)[:, None] * row
        bad = res.any(axis=1)
        for i, key in zip((fail[bad] + a).tolist(), map(tuple, res[bad].tolist())):
            first.setdefault(key, i)
    return list(first.values())  # met in row order, so ascending


def _add_multiple(x: dict[int, int], q: int, y: dict[int, int]) -> dict[int, int]:
    """x += q*y in place for q != 0, zero entries dropped; returns x."""
    for j, v in y.items():
        w = x.get(j, 0) + q * v
        if w:
            x[j] = w
        else:
            del x[j]
    return x


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
