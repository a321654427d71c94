"""Exact integer matrix normal forms over arbitrary-precision integers.

The Smith normal form here is the workhorse behind the Abelian-embedding
decision: the constraint lattice equals Z^S exactly when the decomposition
has full rank and all invariant factors equal 1. Entry growth during
elimination is accepted (desk-scale matrices); the pivot rule picks the
minimal-absolute-value nonzero entry, tie-broken by smallest (row, col)
lexicographically, so decompositions are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError


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
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValidationError("ragged rows")
        return cls(r, c, tuple(int(v) for row in rows for v in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValidationError("dimension mismatch in matrix product")
        out = []
        ocols = [[other.entry(i, j) for i in range(other.rows)] for j in range(other.cols)]
        for i in range(self.rows):
            r = self.row(i)
            out.append([sum(a * b for a, b in zip(r, col)) for col in ocols])
        return IntMatrix.from_rows(out)

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValidationError("determinant of non-square matrix")
        n = self.rows
        m = self.to_lists()
        sign = 1
        prev = 1
        for t in range(n - 1):
            if m[t][t] == 0:
                for i in range(t + 1, n):
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        sign = -sign
                        break
                else:
                    return 0
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
    nonnegative); `rank` counts the nonzero ones.
    """

    U: IntMatrix
    V: IntMatrix
    D: IntMatrix
    divisors: tuple[int, ...]
    rank: int


def _min_pivot(m, t, nrows, ncols):
    # Minimal |value| among nonzero entries of the trailing block; first hit
    # in (row, col) order wins ties, so the first unit ends the scan.
    best = None
    pos = None
    for i in range(t, nrows):
        mi = m[i]
        for j in range(t, ncols):
            v = mi[j]
            if v != 0:
                a = -v if v < 0 else v
                if a == 1:
                    return i, j
                if best is None or a < best:
                    best = a
                    pos = (i, j)
    return pos


def smith_normal_form(a: IntMatrix) -> SNFDecomposition:
    """Deterministic Smith normal form with unimodular certificates."""
    nr, nc = a.rows, a.cols
    m = a.to_lists()
    u = IntMatrix.identity(nr).to_lists()
    v = IntMatrix.identity(nc).to_lists()

    def row_sub(i, t, q):
        if q:
            mt, ut = m[t], u[t]
            m[i] = [x - q * y for x, y in zip(m[i], mt)]
            u[i] = [x - q * y for x, y in zip(u[i], ut)]

    def col_sub(j, t, q):
        if q:
            for r in m:
                r[j] -= q * r[t]
            for r in v:
                r[j] -= q * r[t]

    def swap_rows(i, t):
        if i != t:
            m[i], m[t] = m[t], m[i]
            u[i], u[t] = u[t], u[i]

    def swap_cols(j, t):
        if j != t:
            for r in m:
                r[j], r[t] = r[t], r[j]
            for r in v:
                r[j], r[t] = r[t], r[j]

    def negate_row(t):
        m[t] = [-x for x in m[t]]
        u[t] = [-x for x in u[t]]

    rank = 0
    for t in range(min(nr, nc)):
        pos = _min_pivot(m, t, nr, nc)
        if pos is None:
            break
        swap_rows(pos[0], t)
        swap_cols(pos[1], t)
        while True:
            # Clear column t, re-pivoting on the smallest remainder.
            while True:
                if m[t][t] < 0:
                    negate_row(t)
                dirty = False
                for i in range(t + 1, nr):
                    if m[i][t]:
                        row_sub(i, t, m[i][t] // m[t][t])
                        if m[i][t]:
                            swap_rows(i, t)
                            dirty = True
                if not dirty:
                    break
            # Clear row t; nonzero remainders become the new pivot.
            while True:
                if m[t][t] < 0:
                    negate_row(t)
                dirty = False
                for j in range(t + 1, nc):
                    if m[t][j]:
                        q = m[t][j] // m[t][t]
                        col_sub(j, t, q)
                        if m[t][j]:
                            swap_cols(j, t)
                            dirty = True
                if not dirty:
                    break
            if any(m[i][t] for i in range(t + 1, nr)):
                continue  # row clearing disturbed the column
            if m[t][t] == 1:
                break  # a unit divides the whole trailing block
            # Enforce divisibility of the trailing block by the pivot.
            fixed = True
            for i in range(t + 1, nr):
                bad = next((j for j in range(t + 1, nc) if m[i][j] % m[t][t]), None)
                if bad is not None:
                    row_sub(t, i, -1)  # add row i to row t, then re-clear
                    fixed = False
                    break
            if fixed:
                break
        if m[t][t] < 0:
            negate_row(t)
        rank = t + 1

    divisors = tuple(m[t][t] for t in range(min(nr, nc)))
    return SNFDecomposition(
        U=IntMatrix.from_rows(u),
        V=IntMatrix.from_rows(v),
        D=IntMatrix.from_rows(m),
        divisors=divisors,
        rank=rank,
    )


def normalize_vector(v: Sequence[int]) -> tuple[int, ...]:
    """v divided by the gcd of its entries, negated if its first nonzero is negative."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g > 1:
        v = [x // g for x in v]
    first = next((x for x in v if x != 0), 0)
    if first < 0:
        v = [-x for x in v]
    return tuple(v)


def row_basis(rows: Iterable[Mapping[int, int]], cols: int) -> list[list[int]]:
    """Echelon basis of the integer span of sparse rows {column: entry}.

    Large row sets are reduced before any SNF with certificates is run. Only
    unimodular row operations are used (exact-quotient reduction, or an
    extended-gcd merge when leading entries do not divide), so the lattice is
    unchanged. Returns dense exact-integer rows sorted by leading column.
    """
    basis: dict[int, dict[int, int]] = {}
    for src in rows:
        r = {j: x for j, x in src.items() if x}
        if r and not (0 <= min(r) and max(r) < cols):
            raise ValidationError(f"row column out of range for {cols} columns")
        while r:
            l = min(r)
            b = basis.get(l)
            if b is None:
                if r[l] < 0:
                    r = {j: -x for j, x in r.items()}
                basis[l] = r
                break
            rl, bl = r[l], b[l]
            if rl % bl == 0:
                _add_multiple(r, -(rl // bl), b)
            else:
                g, s, t = _ext_gcd(bl, rl)
                basis[l] = _add_multiple({j: s * x for j, x in b.items()} if s else {}, t, r)
                r = _add_multiple({j: (rl // g) * x for j, x in b.items()}, -(bl // g), r)
    return [[b.get(j, 0) for j in range(cols)] for _, b in sorted(basis.items())]


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
