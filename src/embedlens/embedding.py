"""Abelian-embedding detection and connectivity checks for supports.

A support admits an Abelian embedding exactly when its constraint lattice
is a proper sublattice of Z^S. The detector builds one 0/1 constraint row
per support atom (relative to a fixed base point), finds the Hermite normal
form H of the lattice the rows span (`span_hermite_form`, one route for
every support: a few rows reduced exactly, every row checked), and reads
the verdict off H: the identity means no embedding; otherwise the Smith
normal form of H decides, rank deficiency yielding a witness into Z and a
divisor d > 1 a witness into Z_d. H is unique for the lattice, so the
witness depends on the lattice only. Every positive verdict is re-verified
against the support before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .distributions import Alphabet, Atom, JointDistribution, uniform_on
from .errors import PAYLOAD_ERRORS, ParseError, SizeGuardError, ValidationError, json_int
from .intlattice import IntMatrix, normalize_vector, smith_normal_form, span_hermite_form

ORACLE_NODE_BUDGET = 20_000_000  # search nodes of one brute-force modulus


@dataclass(frozen=True)
class ConstraintMatrix:
    """0/1 rows a_x with <a_x, alpha> = sum_i alpha_i(x_i), alpha_i(base_i) = 0
    for the base point, the support's first atom.

    Columns are indexed by (coordinate, symbol != base symbol) pairs in
    `index_map`; coordinates with singleton alphabets contribute no columns.
    Row x is the ascending tuple of the columns where it holds a 1. `rows`
    is None only in the fully degenerate case s == 0.
    """

    s: int
    index_map: tuple[tuple[int, str], ...]
    rows: tuple[tuple[int, ...], ...] | None


@dataclass(frozen=True)
class EmbeddingWitness:
    """Target group (modulus 0 for Z, m >= 2 for Z_m) plus coordinate maps."""

    modulus: int
    sigma: tuple[dict[str, int], ...]

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "sigma": [dict(t) for t in self.sigma]}

    @classmethod
    def from_json(cls, data: dict) -> "EmbeddingWitness":
        try:
            return cls(json_int(data["modulus"], "modulus"),
                       tuple({str(s): json_int(v, "sigma value") for s, v in t.items()}
                             for t in data["sigma"]))
        except PAYLOAD_ERRORS as exc:
            raise ParseError(f"bad witness payload: {exc}") from exc


@dataclass(frozen=True)
class EmbeddingVerdict:
    admits: bool
    witness: EmbeddingWitness | None
    snf_divisors: tuple[int, ...]
    rank: int
    s: int


@dataclass(frozen=True)
class DisconnectedPair:
    """Coordinate pair whose bipartite support graph splits, with the split."""

    i: int
    j: int
    side_i: frozenset[str]
    side_j: frozenset[str]


def constraint_matrix(dist: JointDistribution) -> ConstraintMatrix:
    """The constraint rows of `dist`'s support, base point its first atom."""
    base = dist.codes[0]
    index_map: list[tuple[int, str]] = []
    col_of: dict[tuple[int, int], int] = {}  # (coordinate, symbol index) -> column
    for i, a in enumerate(dist.alphabets):
        for c, sym in enumerate(a.symbols):
            if c != base[i]:
                col_of[i, c] = len(index_map)
                index_map.append((i, sym))
    s = len(index_map)
    if s == 0:
        return ConstraintMatrix(0, (), None)
    rows = tuple(tuple([col_of[i, c] for i, c in enumerate(x) if c != base[i]])
                 for x in dist.codes)
    return ConstraintMatrix(s, tuple(index_map), rows)


def _witness_from_vector(cm: ConstraintMatrix, alphabets: Sequence[Alphabet],
                         vec: Sequence[int], modulus: int) -> EmbeddingWitness:
    tables: list[dict[str, int]] = [{sym: 0 for sym in a.symbols} for a in alphabets]
    for c, (i, sym) in enumerate(cm.index_map):
        v = int(vec[c])
        tables[i][sym] = v % modulus if modulus >= 2 else v
    return EmbeddingWitness(modulus, tuple(tables))


def verify_witness(support: Iterable[Atom], witness: EmbeddingWitness) -> bool:
    """Both embedding conditions: vanishing sums on the support, nonconstancy."""
    m = witness.modulus
    if m == 1 or m < 0:
        return False
    try:
        for x in support:
            total = sum(witness.sigma[i][sym] for i, sym in enumerate(x))
            if (total % m if m else total) != 0:
                return False
    except (KeyError, IndexError):
        return False  # not alphabet-consistent
    for table in witness.sigma:
        values = {v % m if m else v for v in table.values()}
        if len(values) > 1:
            return True
    return False


def detect_embedding(dist: JointDistribution) -> EmbeddingVerdict:
    """Exact embeddability verdict for the support of `dist`.

    The verdict is read off the Hermite normal form H of the constraint
    lattice; the identity needs no Smith normal form. Witness extraction:
    a kernel vector of H if the rank is deficient (target Z), else the
    V-column of the smallest divisor d > 1 reduced mod d (target Z_d).
    """
    cm = constraint_matrix(dist)
    if cm.s == 0:
        return EmbeddingVerdict(False, None, (), 0, 0)
    h = span_hermite_form(cm.rows, cm.s)
    if not h:
        # Lattice is {0}; any nonzero integer vector embeds into Z.
        vec = [1] + [0] * (cm.s - 1)
        witness = _witness_from_vector(cm, dist.alphabets, vec, 0)
        _require_verified(dist, witness)
        return EmbeddingVerdict(True, witness, (), 0, cm.s)
    if len(h) == cm.s and all(r[i] == 1 for i, r in enumerate(h)):
        return EmbeddingVerdict(False, None, (1,) * cm.s, cm.s, cm.s)  # L = Z^s
    snf = smith_normal_form(IntMatrix.from_rows(h))
    divisors = snf.divisors[:snf.rank]
    if snf.rank < cm.s:
        vec = [snf.V.entry(i, snf.rank) for i in range(cm.s)]
        vec = normalize_vector(vec)
        witness = _witness_from_vector(cm, dist.alphabets, vec, 0)
        _require_verified(dist, witness)
        return EmbeddingVerdict(True, witness, divisors, snf.rank, cm.s)
    j = next((idx for idx, d in enumerate(divisors) if d > 1), None)
    if j is not None:
        m = divisors[j]
        vec = [snf.V.entry(i, j) for i in range(cm.s)]
        witness = _witness_from_vector(cm, dist.alphabets, vec, m)
        _require_verified(dist, witness)
        return EmbeddingVerdict(True, witness, divisors, snf.rank, cm.s)
    return EmbeddingVerdict(False, None, divisors, snf.rank, cm.s)


def _require_verified(dist: JointDistribution, witness: EmbeddingWitness) -> None:
    if not verify_witness(dist.support, witness):
        raise AssertionError("extracted witness failed verification")


# ---------------------------------------------------------------------------
# Independent oracle: exhaustive search over small moduli plus a rational
# rank test (rank mod p, then Fraction elimination; no code shared with SNF).

def brute_force_embedding(support: Iterable[Atom], alphabets: Sequence[Alphabet],
                          max_modulus: int,
                          space_guard: int | None = 10 ** 10) -> EmbeddingWitness | None:
    """First verified witness under exhaustive enumeration, or None.

    Enumerates normalized maps (base point fixed to 0) into Z_m for
    m = 2..max_modulus via depth-first search with per-atom pruning, then
    falls back to the rational rank test for embeddings into Z. Columns are
    visited in a deterministic constraint-driven order (each step takes the
    column completing the most constraints) so that dense structured
    supports prune immediately; the witness returned is the first one in
    that enumeration order.
    """
    support = list(support)
    if not support:
        raise ValidationError("support must be non-empty")
    cm = constraint_matrix(uniform_on(alphabets, set(support)))
    if cm.s == 0:
        return None
    constraints = _dedupe_constraints(cm)
    order = _column_order(cm.s, constraints)
    position = {col: pos for pos, col in enumerate(order)}
    by_last: dict[int, list[tuple[int, ...]]] = {}
    for cons in constraints:
        by_last.setdefault(max(position[c] for c in cons), []).append(cons)
    for m in range(2, max_modulus + 1):
        if space_guard is not None and m ** cm.s > space_guard:
            raise SizeGuardError(f"brute force space m**S = {m}**{cm.s} exceeds guard")
        vec = _dfs_search(order, m, by_last)
        if vec is not None:
            witness = _witness_from_vector(cm, alphabets, vec, m)
            if verify_witness(support, witness):
                return witness
            raise AssertionError("DFS produced an invalid witness")
    vec = _rational_kernel(cm.rows, cm.s)
    if vec is not None:
        witness = _witness_from_vector(cm, alphabets, vec, 0)
        if verify_witness(support, witness):
            return witness
    return None


def _column_order(s: int, constraints: list[tuple[int, ...]]) -> list[int]:
    # Greedy: next column is the one closing the most currently-open
    # constraints, ties to the lowest index. Deterministic in the input.
    cols_in: dict[int, list[int]] = {c: [] for c in range(s)}
    unplaced = []
    score = [0] * s
    for ci, cons in enumerate(constraints):
        unplaced.append(set(cons))
        for c in cons:
            cols_in[c].append(ci)
        if len(cons) == 1:
            score[cons[0]] += 1
    order = []
    remaining = set(range(s))
    while remaining:
        best = min(remaining, key=lambda c: (-score[c], c))
        order.append(best)
        remaining.discard(best)
        for ci in cols_in[best]:
            up = unplaced[ci]
            up.discard(best)
            if len(up) == 1:
                score[next(iter(up))] += 1
    return order


def _dedupe_constraints(cm: ConstraintMatrix) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for cols in cm.rows:
        if cols and cols not in seen:
            seen.add(cols)
            out.append(cols)
    return out


def _dfs_search(order: list[int], m: int, by_last) -> tuple[int, ...] | None:
    s = len(order)
    vals = [0] * s  # indexed by column, assigned in `order`
    nodes = 0

    def rec(pos: int):
        nonlocal nodes
        if pos == s:
            return tuple(vals) if any(vals) else None
        col = order[pos]
        checks = by_last.get(pos, ())
        for v in range(m):
            nodes += 1
            if nodes > ORACLE_NODE_BUDGET:
                raise SizeGuardError("brute force node budget exceeded")
            vals[col] = v
            if all(sum(vals[j] for j in cons) % m == 0 for cons in checks):
                hit = rec(pos + 1)
                if hit is not None:
                    return hit
        vals[col] = 0
        return None

    return rec(0)


_PRIME = 2 ** 61 - 1


def _rational_kernel(rows: Sequence[tuple[int, ...]], s: int) -> tuple[int, ...] | None:
    """Kernel vector over Q of the 0/1 rows, or None at full column rank.

    Rank mod p never exceeds rank over Q, so full rank mod p proves None.
    """
    if _rank_mod_p(rows, s) == s:
        return None
    return _fraction_kernel(rows, s)


def _rank_mod_p(rows: Sequence[tuple[int, ...]], s: int) -> int:
    """Rank over GF(_PRIME) by sparse echelon insertion, stopping at s."""
    pivots: dict[int, dict[int, int]] = {}  # lead column -> sparse row with lead 1
    for cols in rows:
        row = dict.fromkeys(cols, 1)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, _PRIME)
                pivots[c] = {j: v * inv % _PRIME for j, v in row.items()}
                if len(pivots) == s:
                    return s
                break
            f = row[c]
            for j, v in piv.items():
                w = (row.get(j, 0) - f * v) % _PRIME
                if w:
                    row[j] = w
                else:
                    del row[j]
    return len(pivots)


def _fraction_kernel(rows: Sequence[tuple[int, ...]], s: int) -> tuple[int, ...] | None:
    """Kernel vector of the 0/1 rows over Q, denominators cleared.

    Incremental echelon insertion with an early exit at full column rank,
    so saturated systems never touch the remaining rows.
    """
    pivots: dict[int, list[Fraction]] = {}  # lead column -> row with lead 1
    for cols in rows:
        row = [Fraction(0)] * s
        for c in cols:
            row[c] = Fraction(1)
        c = 0
        while c < s:
            if row[c] == 0:
                c += 1
                continue
            if c in pivots:
                f = row[c]
                piv = pivots[c]
                for j in range(c, s):
                    row[j] -= f * piv[j]
                c += 1
                continue
            inv = row[c]
            pivots[c] = [x / inv for x in row]
            break
        if len(pivots) == s:
            return None
    free = next(c for c in range(s) if c not in pivots)
    sol = [Fraction(0)] * s
    sol[free] = Fraction(1)
    for c in sorted(pivots, reverse=True):
        piv = pivots[c]
        sol[c] = -sum((piv[j] * sol[j] for j in range(c + 1, s) if sol[j] != 0),
                      Fraction(0))
    den = 1
    for x in sol:
        den = den * x.denominator // gcd(den, x.denominator)
    return normalize_vector([int(x * den) for x in sol])


# ---------------------------------------------------------------------------
# Connectivity: one disjoint-set forest over the codes, unions made in place

def _find(parent: list[int], x: int) -> int:
    """The root of x's tree, halving the path on the way (Tarjan & van Leeuwen)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def pairwise_connected(dist: JointDistribution) -> tuple[bool, DisconnectedPair | None]:
    """Connectivity of every pairwise-marginal bipartite support graph.

    Vertices are the symbols carrying positive marginal mass, read off the
    support directly: symbol code c of coordinate i is vertex c, of
    coordinate j vertex |Sigma_i| + c. The split is the component of the
    lowest-index such symbol of coordinate i; its indicator maps embed the
    support into Z.
    """
    columns = list(zip(*dist.codes))
    present = [sorted(set(col)) for col in columns]
    for i in range(dist.k):
        a = len(dist.alphabets[i])
        for j in range(i + 1, dist.k):
            parent = list(range(a + len(dist.alphabets[j])))
            for u, v in set(zip(columns[i], columns[j])):
                parent[_find(parent, u)] = _find(parent, a + v)
            root = _find(parent, present[i][0])
            side_i = [c for c in present[i] if _find(parent, c) == root]
            side_j = [c for c in present[j] if _find(parent, a + c) == root]
            if len(side_i) + len(side_j) < len(present[i]) + len(present[j]):
                syms_i, syms_j = dist.alphabets[i].symbols, dist.alphabets[j].symbols
                return False, DisconnectedPair(i, j, frozenset(syms_i[c] for c in side_i),
                                               frozenset(syms_j[c] for c in side_j))
    return True, None


def connected(dist: JointDistribution) -> bool:
    """Connectivity of the graph on supp(mu) with one-coordinate-change edges.

    Atoms whose codes agree off coordinate c are adjacent; for each c, every
    atom joins the first atom with its code without c.
    """
    parent = list(range(len(dist.codes)))
    for c in range(dist.k):
        first: dict[tuple[int, ...], int] = {}  # code without c -> first atom with it
        for idx, x in enumerate(dist.codes):
            other = first.setdefault(x[:c] + x[c + 1:], idx)
            if other != idx:
                parent[_find(parent, idx)] = _find(parent, other)
    root = _find(parent, 0)
    return all(_find(parent, idx) == root for idx in range(len(parent)))
