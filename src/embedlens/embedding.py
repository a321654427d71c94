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
against the support's codes before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations, takewhile
from operator import add, mul
from typing import Iterable, Sequence

import numpy as np

from .distributions import Alphabet, Atom, JointDistribution, _code, uniform_on
from .errors import PAYLOAD_ERRORS, ParseError, SizeGuardError, ValidationError, json_int
from .intlattice import INT64_BOUND, normalize_vector, smith_normal_form, span_hermite_form

ORACLE_NODE_BUDGET = 20_000_000  # values the brute-force search tries at one prime modulus


@dataclass(frozen=True)
class ConstraintMatrix:
    """0/1 rows a_x with <a_x, alpha> = sum_i alpha_i(x_i), alpha_i(base_i) = 0
    for the base point, the support's first atom.

    Columns are indexed by (coordinate, symbol != base symbol) pairs in
    `index_map`; coordinates with singleton alphabets contribute no columns.
    `columns[i, x]`, a (k, atoms) int64 array, is the column where row x
    holds a 1 for coordinate i, or the padding s where x_i is the base
    symbol. `columns` is None only in the fully degenerate case s == 0.
    """

    s: int
    index_map: tuple[tuple[int, str], ...]
    columns: np.ndarray | None


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
                       tuple({s: json_int(v, "sigma value") for s, v in t.items()}
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
    s, index_map, table = _symbol_columns(dist.alphabets, dist.codes[0].tolist())
    return ConstraintMatrix(s, index_map, _gather(dist, table).T if s else None)


def _symbol_columns(alphabets: Sequence[Alphabet], base: Sequence[int]
                    ) -> tuple[int, tuple[tuple[int, str], ...], list[int]]:
    """s, the (coordinate, symbol) of each column, and the column of every
    symbol of the concatenated alphabets (s at the base point's symbols)."""
    s = sum(map(len, alphabets)) - len(alphabets)
    index_map: list[tuple[int, str]] = []
    table = []
    for i, a in enumerate(alphabets):
        for c, sym in enumerate(a.symbols):
            table.append(s if c == base[i] else len(index_map))
            if c != base[i]:
                index_map.append((i, sym))
    return s, tuple(index_map), table


def _gather(dist: JointDistribution, table, dtype=np.int64) -> np.ndarray:
    """table[symbol] at each atom's symbols, the tables of all coordinates
    concatenated: an (atoms, k) array."""
    first = [0, *accumulate(len(a) for a in dist.alphabets[:-1])]
    return np.array(table, dtype=dtype)[dist.codes + first]


def _witness_from_vector(index_map: Sequence[tuple[int, str]], alphabets: Sequence[Alphabet],
                         vec: Sequence[int], modulus: int) -> EmbeddingWitness:
    tables: list[dict[str, int]] = [{sym: 0 for sym in a.symbols} for a in alphabets]
    for c, (i, sym) in enumerate(index_map):
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
    return _nonconstant(witness)


def _nonconstant(witness: EmbeddingWitness) -> bool:
    m = witness.modulus
    return any(len({v % m if m else v for v in table.values()}) > 1 for table in witness.sigma)


def witness_holds(dist: JointDistribution, witness: EmbeddingWitness) -> bool:
    """`verify_witness` on the codes of `dist`, for a witness whose sigma_i
    maps all of alphabet i, as `detect_embedding` builds it: each atom's sum
    gathers its sigma values, in int64 when the entries rule out overflow,
    else in Python ints."""
    m = witness.modulus
    if m == 1 or m < 0:
        return False
    values = [t[sym] for t, a in zip(witness.sigma, dist.alphabets) for sym in a.symbols]
    small = dist.k * max(map(abs, values)) < INT64_BOUND and m < INT64_BOUND
    total = _gather(dist, values, np.int64 if small else object).sum(axis=1)
    return not (total % m if m else total).any() and _nonconstant(witness)


def detect_embedding(dist: JointDistribution) -> EmbeddingVerdict:
    """Exact embeddability verdict for the support of `dist`.

    The verdict is read off the Hermite normal form H of the constraint
    lattice; the identity needs no Smith normal form. Witness extraction:
    a kernel vector of H if the rank is deficient (target Z), else the
    V-column of the smallest divisor d > 1 reduced mod d (target Z_d).
    """
    cm = constraint_matrix(dist)
    s = cm.s
    if s == 0:
        return EmbeddingVerdict(False, None, (), 0, 0)
    h = span_hermite_form(cm.columns, s)
    if not h:  # the lattice is {0}: any nonzero integer vector embeds into Z
        vec, m, divisors, rank = [1] + [0] * (s - 1), 0, (), 0
    elif len(h) == s and all(r[i] == 1 for i, r in enumerate(h)):
        return EmbeddingVerdict(False, None, (1,) * s, s, s)  # L = Z^s
    else:
        snf = smith_normal_form(h, s)
        rank, divisors = snf.rank, snf.divisors[:snf.rank]
        if rank < s:
            vec, m = normalize_vector(snf.v_column(rank)), 0
        elif (j := next((j for j, d in enumerate(divisors) if d > 1), None)) is not None:
            vec, m = snf.v_column(j), divisors[j]
        else:
            return EmbeddingVerdict(False, None, divisors, rank, s)
    witness = _witness_from_vector(cm.index_map, dist.alphabets, vec, m)
    if not witness_holds(dist, witness):
        raise AssertionError("extracted witness failed verification")
    return EmbeddingVerdict(True, witness, divisors, rank, s)


# ---------------------------------------------------------------------------
# Independent oracle: exhaustive search over the prime moduli (no code
# shared with the Hermite and Smith forms); p = 2 also decides Z.

def brute_force_embedding(support: Iterable[Atom], alphabets: Sequence[Alphabet],
                          max_modulus: int,
                          space_guard: int | None = 10 ** 10) -> EmbeddingWitness | None:
    """First verified witness under exhaustive enumeration, or None.

    Enumerates normalized maps (base point fixed to 0) into Z_p for the
    primes p <= max_modulus via depth-first search with per-atom pruning.
    The first modulus with a witness is prime: one into Z_m reduces mod a
    prime p | m, or if that zeroes it is divided by p. Nor does Z need a
    search of its own: a witness into Z, divided by the gcd of its values,
    has an odd value beside its base symbol's 0, so mod 2 it is one into
    Z_2. A max_modulus below 2 searches nothing and is refused. The space
    guard still reads every m. Columns are visited in a deterministic
    constraint-driven order (each step takes the column completing the most
    constraints) so that dense structured supports prune immediately; the
    witness returned is the first one in that enumeration order.
    """
    if max_modulus < 2:
        raise ValidationError(f"max_modulus must be at least 2, got {max_modulus}")
    support = list(support)
    if not support:
        raise ValidationError("support must be non-empty")
    atoms, lookups = set(support), [a._index for a in alphabets]
    codes = {_code(lookups, x) for x in atoms}
    if len(codes) < len(atoms) or any(code[:1] == (None,) for code in codes):
        uniform_on(alphabets, atoms)  # raises, naming every bad atom
    codes = sorted(codes)
    s, index_map, table = _symbol_columns(alphabets, codes[0])
    if s == 0:
        return None
    # the tuples straight from the table: a first numpy call costs more than this on small supports
    first = [0, *accumulate(len(a) for a in alphabets[:-1])]
    rows = [tuple(filter(s.__ne__, map(table.__getitem__, map(add, first, x)))) for x in codes]
    constraints = list(dict.fromkeys(filter(None, rows)))  # distinct, nonempty, in order
    order = _column_order(s, constraints)
    position = {col: pos for pos, col in enumerate(order)}
    by_last: dict[int, list[tuple[int, ...]]] = {}
    for cons in constraints:
        by_last.setdefault(max(position[c] for c in cons), []).append(cons)
    closing = {pos: ([c for c in first if c != order[pos]], rest)
               for pos, (first, *rest) in by_last.items()}
    primes: list[int] = []
    for m in range(2, max_modulus + 1):
        if space_guard is not None and m ** s > space_guard:
            raise SizeGuardError(f"brute force space m**S = {m}**{s} exceeds guard")
        if any(m % p == 0 for p in takewhile(lambda p: p * p <= m, primes)):
            continue
        primes.append(m)
        if (vec := _dfs_search(order, m, closing)) is not None:
            break
    else:
        return None
    witness = _witness_from_vector(index_map, alphabets, vec, m)
    if not verify_witness(support, witness):
        raise AssertionError("DFS produced an invalid witness")
    return witness


def _column_order(s: int, constraints: list[tuple[int, ...]]) -> list[int]:
    # Greedy: next column is the one closing the most currently-open
    # constraints, ties to the lowest index. Deterministic in the input.
    # key[c] = c - s * (the open constraints c alone is left in) is least at
    # that column, and a lazy heap holds the keys: scores only rise.
    cols_in: list[list[int]] = [[] for _ in range(s)]
    left = [len(cons) for cons in constraints]  # unplaced columns; a row's are distinct
    rest = [sum(cons) for cons in constraints]  # their sum: the last one, once one is left
    key = list(range(s))
    for ci, cons in enumerate(constraints):
        for c in cons:
            cols_in[c].append(ci)
        if len(cons) == 1:
            key[cons[0]] -= s
    heap = key[:]
    heapify(heap)
    order = []
    while heap:
        k = heappop(heap)
        if key[best := k % s] == k:  # else stale; a placed column's key no longer falls
            order.append(best)
            for ci in cols_in[best]:
                left[ci] -= 1
                rest[ci] -= best
                if left[ci] == 1:
                    key[c := rest[ci]] -= s
                    heappush(heap, key[c])
    return order


def _dfs_search(order: list[int], m: int, closing) -> tuple[int, ...] | None:
    """The first nonzero solution over Z_m in enumeration order. closing[pos]: the
    other columns of the first constraint closing at pos (it fixes the value), the rest."""
    s = len(order)
    vals = [0] * s  # indexed by column, assigned in `order`
    nodes = 0

    def rec(pos: int):
        nonlocal nodes
        if pos == s:
            return tuple(vals) if any(vals) else None
        col = order[pos]
        others, checks = closing.get(pos, (None, ()))
        for v in range(m) if others is None else (-sum(map(vals.__getitem__, others)) % m,):
            nodes += 1
            if nodes > ORACLE_NODE_BUDGET:
                raise SizeGuardError("brute force node budget exceeded")
            vals[col] = v
            if all(sum(map(vals.__getitem__, cons)) % m == 0 for cons in checks):
                hit = rec(pos + 1)
                if hit is not None:
                    return hit
        vals[col] = 0
        return None

    return rec(0)


# ---------------------------------------------------------------------------
# Connectivity over the codes, by least labels

def _least_labels(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component in the graph on
    range(size) with edges (u[e], v[e]): min-label propagation in place,
    each round shortcut through the labels. Labels only fall, so a round
    that leaves their sum is the fixed point."""
    label, total = np.arange(size), None
    while True:
        np.minimum.at(label, u, label[v])
        np.minimum.at(label, v, label[u])
        label = label[label]
        if total == (total := int(label.sum())):
            return label


def pairwise_connected(dist: JointDistribution) -> tuple[bool, DisconnectedPair | None]:
    """Connectivity of every pairwise-marginal bipartite support graph.

    Vertices are the symbols carrying positive marginal mass, read off the
    support directly: the graphs of all coordinate pairs (i, j), i < j, in
    order, side by side, with symbol code c of coordinate i vertex c past
    its pair's first vertex and of coordinate j vertex |Sigma_i| + c,
    joined once per distinct code pair. Each vertex takes the least vertex
    of its component by min-label propagation, every graph at once. The
    split of the first pair that splits is the component of the
    lowest-index such symbol of coordinate i; its indicator maps embed the
    support into Z.
    """
    sizes = np.array([len(a) for a in dist.alphabets], dtype=np.int64)
    first, second = np.array(list(combinations(range(dist.k), 2)), dtype=np.intp).reshape(-1, 2).T
    width = sizes[first] + sizes[second]
    start = np.cumsum(width) - width  # each pair's first vertex
    total = int(width.sum())
    u = dist.codes[:, first] + start
    v = dist.codes[:, second] + (start + sizes[first])
    keys = np.sort((u * total + v).ravel())  # np.unique would import numpy.ma
    u, v = np.divmod(keys[np.diff(keys, prepend=-1) != 0], total)  # distinct, by pair
    label = _least_labels(total, u, v)
    pair = np.repeat(np.arange(len(width)), width)
    present = np.zeros(total, dtype=bool)
    present[u] = present[v] = True
    root = label[u[np.searchsorted(u, start)]]  # the label of each pair's lowest symbol of i
    split = np.flatnonzero(present & (label != root[pair]))
    if not split.size:
        return True, None
    p = pair[split[0]]
    i, j, a = int(first[p]), int(second[p]), int(sizes[first[p]])
    side = (np.flatnonzero(present & (label == root[p]) & (pair == p)) - start[p]).tolist()
    syms_i, syms_j = dist.alphabets[i].symbols, dist.alphabets[j].symbols
    return False, DisconnectedPair(i, j, frozenset(syms_i[c] for c in side if c < a),
                                   frozenset(syms_j[c - a] for c in side if c >= a))


def connected(dist: JointDistribution) -> bool:
    """Connectivity of the graph on supp(mu) with one-coordinate-change edges.

    Atoms whose codes agree off coordinate c are adjacent. The key of (c, x)
    is c times the size W of the product of the alphabets plus the
    mixed-radix index of x less its coordinate c part (Python ints when
    k * W passes int64). One sort of the keys for every c at once brings
    equal keys together, and each atom joins the next one with its key.
    """
    codes = dist.codes
    n, k = codes.shape
    *suffix, size = accumulate([1, *(len(a) for a in reversed(dist.alphabets))], mul)
    place = np.array(suffix[::-1], dtype=np.int64 if k * size < INT64_BOUND else object)
    keys = ((codes @ place)[:, None] - codes * place
            + [c * size for c in range(k)]).ravel()  # keys[k * x + c]: the key of (c, x)
    order = np.argsort(keys)
    join = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    atom = order // k
    return not _least_labels(n, atom[join], atom[join + 1]).any()
