"""The boxed dictatorship test: sample a weighted constraint, fill a k x n
matrix with i.i.d. columns from its local distribution, and evaluate the
predicate on the row images under the tested function.

A predicate is held in one form, the sorted int64 array of its accepted
cells (lexicographic word indices), looked up by binary search: no
|alphabet|^k table is built.

A tested function f: Sigma^n -> Sigma is held in one form, a reduced
ordered decision diagram (Bryant 1986) compiled when f is made, with one
layer per coordinate f reads. Exact acceptance is a column dynamic program
over it: a state is the k-tuple of the rows' nodes, sorted inside each
block of rows that swaps fixing mu and the predicate join, each layer one
vectorised step over all states and atoms, with integer weights over a
power of the local distribution's denominator and one Fraction at the end.
A dictator is one layer at any coordinate and a junta costs its support, so
exact completeness checks run even when a local distribution has thousands
of atoms. The DP stops when no state is left, and TRANSITION_GUARD bounds
its total transitions (merged states times atoms, summed over layers and
constraints). Monte Carlo acceptance draws samples x n columns, at most
`distributions.MC_DRAW_GUARD` (a sample of n = 0 counting as one), on the
stream of a sample-at-a-time loop replayed from the generator's 32-bit
words in bulk, and walks the same diagram over blocks of the columns f
reads. The test needs only
`instance_violations`; `validate_instance` adds the embedding analysis of
each local distribution."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Sequence

import numpy as np

from .correlation import hoeffding_half_width
from .distributions import (
    MC_BLOCK,
    Alphabet,
    ExactChooser,
    JointDistribution,
    _reduced,
    alphabet as make_alphabet,
    check_draws,
    integer_weights,
    random_words,
    randbelow,
    randbelow_calls,
    seeded_rng,
)
from .embedding import connected, detect_embedding, pairwise_connected
from .errors import (PAYLOAD_ERRORS, ParseError, SizeGuardError, ValidationError, json_int,
                     json_list, read_json, write_json)
from .functions import _places, is_table_length

TRANSITION_GUARD = 200_000  # DP transitions (states x atoms) of one exact acceptance run


# ---------------------------------------------------------------------------
# Symbol-valued functions f: Sigma^n -> Sigma

@dataclass(frozen=True, eq=False)
class SymbolFunction:
    """f: Sigma^n -> Sigma as a layered decision diagram.

    Node ids below |Sigma| are the constant restrictions (id = symbol
    index), and `root` is the id of f. `layers[j][v, s]` is the id of node
    v restricted by symbol s at coordinate `reads[j]`; a constant maps
    every symbol to itself. Every node after the last layer is constant."""

    n: int
    alphabet: Alphabet
    root: int
    layers: list[np.ndarray]
    reads: tuple[int, ...]

    @classmethod
    def dictator(cls, n: int, alpha: Alphabet, coordinate: int) -> "SymbolFunction":
        if not 0 <= coordinate < n:
            raise ValidationError("dictator coordinate out of range")
        ident = cls.table(1, alpha, alpha.symbols)  # one layer, or none if |alpha| = 1
        return cls(n, alpha, ident.root, ident.layers, (coordinate,) * len(ident.layers))

    @classmethod
    def constant(cls, n: int, alpha: Alphabet, value: str) -> "SymbolFunction":
        if n < 0:
            raise ValidationError("arity must be nonnegative")
        if value not in alpha:
            raise ValidationError(f"constant {value!r} not in alphabet")
        return cls(n, alpha, alpha.index(value), [], ())

    @classmethod
    def table(cls, n: int, alpha: Alphabet, symbols: Sequence[str]) -> "SymbolFunction":
        """The diagram of a table in lexicographic word order, compiled from
        the last coordinate up: the children of each node are one row of the
        ids below it. A coordinate at which every node has equal children is
        read by no node and gets no layer (the reduction rule), so a junta
        compiles to one layer per coordinate of its support."""
        if not is_table_length(len(symbols), len(alpha), n):
            raise ValidationError("dense symbol table has wrong length")
        ids = list(map(alpha._index.get, symbols))
        if None in ids:
            raise ValidationError(f"output symbol {symbols[ids.index(None)]!r} not in alphabet")
        a = len(alpha)
        ids = np.array(ids, dtype=np.int64)
        held = np.repeat(np.arange(a), a).reshape(a, a)  # a constant stays itself
        layers, reads = [], []
        for j in reversed(range(n)):
            rows = ids.reshape(-1, a)
            uniform = (rows == rows[:, :1]).all(axis=1)
            if uniform.all():  # no node reads coordinate j
                ids = rows[:, 0]
                continue
            const = (rows[:, 0] < a) & uniform
            live = rows[~const]  # nodes numbered in the lexicographic order of their rows
            _, first, inverse = np.unique(_row_keys(live), return_index=True, return_inverse=True)
            ids = rows[:, 0].copy()
            ids[~const] = a + inverse.reshape(-1)
            layers.append(np.vstack([held, live[first]]))
            reads.append(j)
        return cls(n, alpha, int(ids[0]), layers[::-1], tuple(reads[::-1]))

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        """The symbol index of f at each row of x, an (m, n) array of symbol
        indices: the diagram walked over the columns it reads."""
        node = np.full(len(x), self.root, dtype=np.int64)
        for layer, c in zip(self.layers, self.reads):
            node = layer[node, x[:, c]]
        return node


def symbol_function_from_json(data: dict) -> SymbolFunction:
    try:
        alpha = make_alphabet(json_list(data["alphabet"], "alphabet"))
        n = json_int(data["n"], "n")
        if "dictator" in data:
            return SymbolFunction.dictator(n, alpha, json_int(data["dictator"], "dictator"))
        if "constant" in data:
            return SymbolFunction.constant(n, alpha, str(data["constant"]))
        return SymbolFunction.table(n, alpha, [str(s) for s in data["symbols"]])
    except PAYLOAD_ERRORS as exc:
        raise ParseError(f"bad symbol function payload: {exc}") from exc


def load_symbol_function(path: str) -> SymbolFunction:
    return symbol_function_from_json(read_json(path))


# ---------------------------------------------------------------------------
# Predicates and instances

@dataclass(frozen=True, eq=False)
class Predicate:
    """A predicate on alphabet^k, held as the sorted, distinct, read-only int64
    array of its accepted cells, each a word's lexicographic index."""

    alphabet: Alphabet
    k: int
    accept: np.ndarray

    def __post_init__(self):
        a, k = len(self.alphabet), self.k
        if not 0 <= k <= 63 or a ** k >= 2 ** 63:  # k first, so a ** k is never huge
            raise ValidationError("a predicate needs 0 <= k <= 63 and |alphabet|^k < 2^63")
        try:
            cells = np.array(self.accept, dtype=np.int64)
        except OverflowError:
            raise ValidationError("accepted cell out of range") from None
        if (cells[1:] <= cells[:-1]).any():
            raise ValidationError("accepted cells must be strictly increasing")
        if cells.size and not (0 <= cells[0] and cells[-1] < a ** k):
            raise ValidationError("accepted cell out of range")
        cells.setflags(write=False)
        object.__setattr__(self, "accept", cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Predicate) and self.to_json() == other.to_json()

    @classmethod
    def from_truth(cls, alpha: Alphabet, k: int, truth: Sequence[int]) -> "Predicate":
        """The predicate of a 0/1 table in lexicographic order over alpha^k."""
        if not is_table_length(len(truth), len(alpha), k):
            raise ValidationError("truth table has wrong length")
        if not {0, 1}.issuperset(truth):
            raise ValidationError("truth table entries must be 0/1")
        return cls(alpha, k, np.flatnonzero(truth))

    def holds(self, cells: np.ndarray) -> np.ndarray:
        """Whether each of `cells`, int64 lexicographic indices, is accepted:
        its left and right insertion points in `accept` differ exactly when
        it is there."""
        return np.searchsorted(self.accept, cells, "right") > np.searchsorted(self.accept, cells)

    def to_json(self) -> dict:
        return {"alphabet": list(self.alphabet.symbols), "k": self.k,
                "accept": self.accept.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "Predicate":
        """Exactly one of "accept" (the accepted cells) and "truth" (the 0/1
        table) gives the cells."""
        try:
            alpha = make_alphabet(json_list(data["alphabet"], "alphabet"))
            k = json_int(data["k"], "k")
            if ("accept" in data) == ("truth" in data):
                raise ValueError("a predicate needs exactly one of 'accept' and 'truth'")
            cells = data.get("accept", data.get("truth"))
            if type(cells) is not list or not set(map(type, cells)) <= {int}:  # one C-level pass
                raise TypeError("predicate cells must be a list of integers")
            return cls(alpha, k, cells) if "accept" in data else cls.from_truth(alpha, k, cells)
        except PAYLOAD_ERRORS as exc:
            raise ParseError(f"bad predicate payload: {exc}") from exc


@dataclass
class TestInstance:
    """Weighted constraints, each with a local distribution over alphabet^k."""

    __test__ = False  # not a pytest class, despite the name

    predicate: Predicate
    constraints: tuple[tuple[Fraction, JointDistribution], ...]

    def __post_init__(self):
        if not self.constraints:
            raise ValidationError("instance needs at least one constraint")
        alpha = self.predicate.alphabet
        for w, mu in self.constraints:
            if w <= 0:
                raise ValidationError("constraint weights must be positive")
            if mu.k != self.predicate.k or any(a != alpha for a in mu.alphabets):
                raise ValidationError("local distribution shape mismatch")

    def to_json(self) -> dict:
        """The file payload, each "mu" in the columnar form without its alphabets."""
        return {
            "predicate": self.predicate.to_json(),
            "constraints": [{"w": [w.numerator, w.denominator],
                             "mu": mu.columnar_json()}
                            for w, mu in self.constraints],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TestInstance":
        """Each "mu" is a distribution payload on alphabet^k without its
        alphabets: the columnar object, or the row form's atom list."""
        try:
            pred = Predicate.from_json(data["predicate"])
            alphabets = [list(pred.alphabet.symbols)] * pred.k
            constraints = []
            for entry in json_list(data["constraints"], "constraints"):
                num, den = entry["w"]
                mu = entry["mu"]
                mu = {**mu, "alphabets": alphabets} if type(mu) is dict else {
                    "alphabets": alphabets, "atoms": mu}
                constraints.append((Fraction(*_reduced(num, den)), JointDistribution.from_json(mu)))
        except PAYLOAD_ERRORS as exc:
            raise ParseError(f"bad instance payload: {exc}") from exc
        return cls(pred, tuple(constraints))

    @classmethod
    def load(cls, path: str) -> "TestInstance":
        return cls.from_json(read_json(path))

    def save(self, path: str) -> None:
        write_json(path, self.to_json())


@dataclass
class ConstraintReport:
    support_ok: bool
    admits_embedding: bool
    witness_modulus: int | None
    connected: bool
    pairwise_connected: bool


@dataclass
class InstanceReport:
    weight_sum: Fraction
    weights_normalized: bool
    violations: list[str]
    constraints: list[ConstraintReport]


def instance_violations(inst: TestInstance) -> list[str]:
    """What makes an instance unfit for the test: weights that do not sum to
    one, and mass on an atom the predicate rejects."""
    total = sum((w for w, _ in inst.constraints), Fraction(0))
    violations = []
    if total != 1:
        violations.append(f"weights sum to {total}, expected 1")
    for idx, (_, mu) in enumerate(inst.constraints):
        holds = _holds(inst.predicate, mu)
        if not holds.all():
            violations.append(f"constraint {idx}: mass on falsifying atom "
                              f"{mu.support[holds.argmin()]}")
    return violations


def _holds(pred: Predicate, mu: JointDistribution) -> np.ndarray:
    """Whether the predicate accepts each support atom, in support order."""
    return pred.holds(mu.codes @ _places(len(pred.alphabet), pred.k))


def validate_instance(inst: TestInstance) -> InstanceReport:
    """`instance_violations` plus the embedding/connectivity analysis of
    every local distribution (hypothesis screening, reported not raised)."""
    total = sum((w for w, _ in inst.constraints), Fraction(0))
    reports = []
    for _, mu in inst.constraints:
        verdict = detect_embedding(mu)
        pc, _ = pairwise_connected(mu)
        reports.append(ConstraintReport(
            support_ok=bool(_holds(inst.predicate, mu).all()),
            admits_embedding=verdict.admits,
            witness_modulus=verdict.witness.modulus if verdict.witness else None,
            connected=connected(mu),
            pairwise_connected=pc,
        ))
    return InstanceReport(total, total == 1, instance_violations(inst), reports)


# ---------------------------------------------------------------------------
# Exact and Monte Carlo acceptance

def run_test_exact(inst: TestInstance, f: SymbolFunction, n: int) -> Fraction:
    """Exact rational acceptance probability of the boxed test.

    TRANSITION_GUARD bounds the DP's total transitions (merged states times
    atoms, summed over read layers and constraints)."""
    if f.n != n:
        raise ValidationError(f"function arity {f.n} != n = {n}")
    if f.alphabet != inst.predicate.alphabet:
        raise ValidationError("function alphabet mismatch")
    total = sum((w for w, _ in inst.constraints), Fraction(0))
    acc = Fraction(0)
    spent = 0
    for w, mu in inst.constraints:
        p, spent = _acceptance_one(mu, inst.predicate, f, spent)
        acc += (w / total) * p
    return acc


def _acceptance_one(mu: JointDistribution, pred: Predicate, f: SymbolFunction,
                    spent: int) -> tuple[Fraction, int]:
    """Acceptance under one local distribution, and the transition count so far.

    A state is a k-tuple of diagram node ids, one per row, sorted inside each
    block of `_row_blocks`. Masses are the distribution's integer weights
    over its denominator D, so after j layers every weight is an integer
    over D^j and `accept` is one over D^(j+1) after layer j; the only
    division is the final Fraction. A coordinate with no layer would
    multiply every weight by D / D, so it is skipped exactly."""
    a, k = len(pred.alphabet), pred.k
    place = _places(a, k)
    if f.root < a:
        return Fraction(int(pred.holds(f.root * place.sum()))), spent
    cols = mu.codes
    mass = np.array(mu.weights, dtype=object)
    states = np.full((1, k), f.root, dtype=np.int64)
    weights = np.array([1], dtype=object)
    accept = 0
    for depth, layer in enumerate(f.layers):
        spent += len(states) * len(cols)
        if spent > TRANSITION_GUARD:
            raise SizeGuardError(
                f"acceptance DP needs more than {TRANSITION_GUARD} transitions "
                f"(guard reached at read layer {depth + 1})")
        nxt = layer[states[:, None, :], cols[None, :, :]].reshape(-1, k)
        w = np.multiply.outer(weights, mass).reshape(-1)
        done = (nxt < a).all(axis=1)
        accept = accept * mu.denominator + sum(w[done][pred.holds(nxt[done] @ place)].tolist())
        if done.all():
            return Fraction(accept, mu.denominator ** (depth + 1)), spent
        live = nxt[~done]
        if depth == 0:  # the first layer to leave live states: rows regrouped by block
            order, blocks = _row_blocks(mu, pred)
            if order != sorted(order):
                cols, place, live = cols[:, order], place[order], live[:, order]
        for block in blocks:  # one state per orbit: sorted inside each block
            live[:, block].sort(axis=1)
        states, weights = _merge(live, w[~done])
    raise AssertionError("acceptance DP left unabsorbed states")


def _row_blocks(mu: JointDistribution, pred: Predicate) -> tuple[list[int], list[slice]]:
    """The rows ordered so that each block of rows joined by swaps (i j)
    fixing mu's masses and the predicate's cells is adjacent, and the slice
    of each block of two or more. A swap maps a DP state to one of equal
    acceptance, as one f reads every row. Only swaps are tried (k^2 checks):
    the A5 triple product's cyclic shift of rows is not found."""
    a, k = len(pred.alphabet), pred.k
    masses = dict(zip(map(tuple, mu.codes.tolist()), mu.weights))
    cells = set(pred.accept.tolist())
    label = list(range(k))  # rows with one label are in one block
    for i, j in combinations(range(k), 2):
        swap = itemgetter(*range(i), j, *range(i + 1, j), i, *range(j + 1, k))
        pi, pj = a ** (k - 1 - i), a ** (k - 1 - j)
        if label[i] != label[j] and all(masses.get(swap(x), 0) == m for x, m in masses.items()) \
                and all(c + (c // pj % a - c // pi % a) * (pi - pj) in cells for c in cells):
            label = [label[i] if b == label[j] else b for b in label]
    order = sorted(range(k), key=label.__getitem__)
    ends = [i for i in range(1, k + 1) if i == k or label[order[i - 1]] != label[order[i]]]
    return order, [slice(lo, hi) for lo, hi in zip([0] + ends, ends) if hi - lo > 1]


_KEY_LIMIT = 2 ** 62


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of nonnegative ints, in the lexicographic order of
    the rows: equal rows have equal keys."""
    width = int(rows.max()) + 1
    key = np.zeros(len(rows), dtype=np.int64)
    span = 1  # every key is below span
    for col in rows.T:  # mixed-radix key of the row, one column at a time
        if span * width > _KEY_LIMIT:  # re-rank before it overflows
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            span = len(rows)
        key = key * width + col
        span *= width
    return key


def _merge(states: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of `states` with the summed weights of their copies."""
    key = _row_keys(states)
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return states[order[starts]], np.add.reduceat(weights[order], starts)


@dataclass
class McAcceptance:
    acceptance: float
    samples: int
    half_width: float
    accepted: int

    def to_json(self) -> dict:
        return {"acceptance": self.acceptance, "samples": self.samples,
                "half_width": self.half_width, "accepted": self.accepted}


def run_test_mc(inst: TestInstance, f: SymbolFunction, samples: int,
                seed: int) -> McAcceptance:
    """Seeded empirical acceptance of the boxed test.

    Each sample draws a constraint, then n columns from its local
    distribution, all on one `random.Random(seed)` stream, so the count is
    the one a sample-at-a-time loop gives. Samples come in blocks of about
    MC_BLOCK column draws, mapped to atoms per constraint, and f and the
    predicate are evaluated on a block by numpy indexing. The blocks are
    replayed from the generator's words in bulk (`_replayed_blocks`), or,
    when n reaches MC_BLOCK, a weight total reaches 2^32 or the local
    distributions' totals differ, drawn one sample at a time
    (`_looped_blocks`). Every column is drawn, but only the columns f reads
    are mapped to atoms."""
    if samples <= 0:
        raise ValidationError("samples must be positive")
    if f.alphabet != inst.predicate.alphabet:
        raise ValidationError("function alphabet mismatch")
    check_draws(samples, f.n)
    rng = seeded_rng(seed)
    picker = ExactChooser(integer_weights([w for w, _ in inst.constraints])[0])
    choosers = [ExactChooser(mu.weights) for _, mu in inst.constraints]
    a, k = len(inst.predicate.alphabet), inst.predicate.k
    codes = [mu.codes.astype(np.min_scalar_type(a - 1)) for _, mu in inst.constraints]
    reads = np.array(sorted(set(f.reads)), dtype=np.int64)  # np.unique would import numpy.ma
    on_reads = replace(f, n=len(reads), reads=tuple(np.searchsorted(reads, f.reads).tolist()))
    totals = {c.total for c in choosers}
    bulk = f.n < MC_BLOCK and len(totals) == 1 and max(picker.total, *totals) < 2 ** 32
    accepted = 0
    for ci, atoms in (_replayed_blocks if bulk else _looped_blocks)(
            rng, picker, choosers, f.n, samples, reads):
        cell = np.zeros(len(atoms), dtype=np.int64)  # lexicographic index of the k images
        for i in range(k):
            cell = cell * a + on_reads.evaluate_many(codes[ci][atoms, i])
        accepted += int(np.count_nonzero(inst.predicate.holds(cell)))
    return McAcceptance(accepted / samples, samples, hoeffding_half_width(samples), accepted)


def _looped_blocks(rng: random.Random, picker: ExactChooser, choosers: list[ExactChooser],
                   n: int, samples: int, reads: np.ndarray):
    """Each block's constraint indices, each with the atom indices of its
    samples at the columns `reads`, a (count, len(reads)) array, drawn one
    sample at a time. A sample of MC_BLOCK columns or more is a block of its
    own, drawn and mapped to atoms in slices of MC_BLOCK columns, kept in
    the narrowest dtype that holds them, so a sample of 10^6 columns costs
    a few MB."""
    dtype = np.min_scalar_type(max(len(c.cumulative) for c in choosers) - 1)
    block = max(1, MC_BLOCK // max(n, 1))
    for start in range(0, samples, block):
        picks = [0] * len(choosers)
        pending = [[] for _ in choosers]  # draws not yet located
        located = [[] for _ in choosers]
        for _ in range(min(block, samples - start)):
            ci = picker.draw(rng)
            picks[ci] += 1
            chooser = choosers[ci]
            if n < MC_BLOCK:
                pending[ci].extend(randbelow_calls(rng, chooser.total, n))
            else:
                for lo in range(0, n, MC_BLOCK):
                    draws = randbelow(rng, chooser.total, min(MC_BLOCK, n - lo))
                    located[ci].append(chooser.locate(draws).astype(dtype))
        for ci, count in enumerate(picks):
            if count:
                located[ci].append(choosers[ci].locate(pending[ci]).astype(dtype))
                yield ci, np.concatenate(located[ci]).reshape(count, n)[:, reads]


def _word_budget(count: int, rate: float) -> int:
    """Words to hold before walking a block of `count` samples that take
    `rate` words each on average: a sixteenth more, and 64, so that a block
    seldom runs dry."""
    return int(count * rate * 17 / 16) + 64


def _replayed_blocks(rng: random.Random, picker: ExactChooser, choosers: list[ExactChooser],
                     n: int, samples: int, reads: np.ndarray):
    """The blocks of `_looped_blocks` when n < MC_BLOCK and every local
    distribution has one weight total T, which, like the pick's total, is
    below 2^32: replayed from the generator's 32-bit words in bulk.

    A draw below T keeps a word w when w < T << (32 - k), k = T.bit_length(),
    and its value is w >> (32 - k) (`randbelow`). A pick kept at word q
    takes its n columns from the next n words a column draw keeps, and the
    next sample's pick search starts after the last of them. So each kept
    pick has a successor, one walk from the buffer's first word visits the
    block's samples, and one gather gives their draws at the columns
    `reads`. Words past the block's last sample carry over to the next
    block; a block that runs past the buffer draws more words and is walked
    again. The generator is the run's own, so words drawn past the run's
    last sample are never read."""
    block = MC_BLOCK // max(n, 1)
    total = choosers[0].total
    # the mean words a sample takes: a draw below t takes 2^t.bit_length() / t
    rate = 2 ** picker.total.bit_length() / picker.total + n * 2 ** total.bit_length() / total
    pick_shift, shift = 32 - picker.total.bit_length(), 32 - total.bit_length()
    words = np.empty(0, dtype=np.uint32)
    for start in range(0, samples, block):
        count = min(block, samples - start)
        want = _word_budget(count, rate)
        while True:
            if len(words) < want:
                words = np.concatenate([words, random_words(rng, want - len(words))])
            picked = words < picker.total << pick_shift  # the words a pick keeps
            pick_at = np.flatnonzero(picked)
            keeps = words < total << shift
            at = np.flatnonzero(keeps)
            first = np.cumsum(keeps, dtype=np.int32)[pick_at]  # rank of each pick's first column
            # the word after each pick's sample, past the buffer if the sample is cut off
            end = np.append(at, len(words))[np.minimum(first + n - 1, len(at))] + 1 \
                if n else pick_at + 1
            # the pick after each pick's sample; len(pick_at) past the buffer, and it stays there
            picks_before = np.concatenate(([0], np.cumsum(picked, dtype=np.int32)))
            succ = memoryview(np.append(picks_before[np.minimum(end, len(words))], len(pick_at)))
            walk = [0] * count
            j = 0
            for s in range(count):
                walk[s] = j
                j = succ[j]
            j = walk[-1]
            if j < len(pick_at) and end[j] <= len(words):
                break
            want = 2 * len(words)
        walk = np.array(walk)
        cons = picker.locate(words[pick_at[walk]] >> pick_shift)
        columns = words[at[first[walk, None] + reads]] >> shift
        for ci, chooser in enumerate(choosers):
            mine = cons == ci
            if mine.any():
                yield ci, chooser.locate(columns[mine])
        words = words[end[j]:]
