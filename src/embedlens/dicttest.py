"""The boxed dictatorship test: sample a weighted constraint, fill a k x n
matrix with i.i.d. columns from its local distribution, and evaluate the
predicate on the row images under the tested function.

Exact acceptance is computed by a column dynamic program over a layered
decision diagram of f, compiled once: the nodes at depth j are the
distinct restrictions of f by a j-symbol prefix, and a restriction that is
constant is absorbed at once. A state is the k-tuple of the rows' nodes;
each column is one vectorised step over all states and atoms, with integer
weights over a power of the local distribution's denominator and one
Fraction at the end. Dictators and constants keep one state per column, so
exact completeness checks run even when a local distribution has thousands
of atoms. The DP stops when no state is left, and TRANSITION_GUARD bounds
its total transitions (states times atoms, summed over columns and
constraints). Monte Carlo acceptance draws samples x n columns, at most
`distributions.MC_DRAW_GUARD`. The test needs only `instance_violations`;
`validate_instance` adds the embedding analysis of each local distribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .correlation import hoeffding_half_width
from .distributions import (
    Alphabet,
    ExactChooser,
    JointDistribution,
    alphabet as make_alphabet,
    check_draws,
    integer_weights,
)
from .embedding import connected, detect_embedding, pairwise_connected
from .errors import PAYLOAD_ERRORS, ParseError, SizeGuardError, ValidationError, read_json, write_json
from .functions import is_table_length

TRANSITION_GUARD = 200_000  # DP transitions (states x atoms) of one exact acceptance run


# ---------------------------------------------------------------------------
# Symbol-valued functions f: Sigma^n -> Sigma

class SymbolFunction:
    """Interface: evaluate on a word."""

    n: int
    alphabet: Alphabet

    def evaluate(self, x: Sequence[str]) -> str:
        raise NotImplementedError


class DenseSymbolFunction(SymbolFunction):
    def __init__(self, n: int, alpha: Alphabet, symbols: Sequence[str]):
        if not is_table_length(len(symbols), len(alpha), n):
            raise ValidationError("dense symbol table has wrong length")
        for s in symbols:
            if s not in alpha:
                raise ValidationError(f"output symbol {s!r} not in alphabet")
        self.n = n
        self.alphabet = alpha
        self.symbols = tuple(symbols)

    def evaluate(self, x):
        return self.symbols[self.alphabet.word_index(x)]


class DictatorFunction(SymbolFunction):
    def __init__(self, n: int, alpha: Alphabet, coordinate: int):
        if not 0 <= coordinate < n:
            raise ValidationError("dictator coordinate out of range")
        self.n = n
        self.alphabet = alpha
        self.coordinate = coordinate

    def evaluate(self, x):
        return x[self.coordinate]


class ConstantSymbolFunction(SymbolFunction):
    def __init__(self, n: int, alpha: Alphabet, value: str):
        if n < 0:
            raise ValidationError("arity must be nonnegative")
        if value not in alpha:
            raise ValidationError(f"constant {value!r} not in alphabet")
        self.n = n
        self.alphabet = alpha
        self.value = value

    def evaluate(self, x):
        return self.value


def symbol_function_from_json(data: dict) -> SymbolFunction:
    try:
        alpha = make_alphabet(data["alphabet"])
        n = int(data["n"])
        if "dictator" in data:
            return DictatorFunction(n, alpha, int(data["dictator"]))
        if "constant" in data:
            return ConstantSymbolFunction(n, alpha, str(data["constant"]))
        return DenseSymbolFunction(n, alpha, [str(s) for s in data["symbols"]])
    except PAYLOAD_ERRORS as exc:
        raise ParseError(f"bad symbol function payload: {exc}") from exc


def load_symbol_function(path: str) -> SymbolFunction:
    return symbol_function_from_json(read_json(path))


# ---------------------------------------------------------------------------
# Predicates and instances

@dataclass(frozen=True)
class Predicate:
    alphabet: Alphabet
    k: int
    truth: tuple[int, ...]  # lexicographic over alphabet^k

    def __post_init__(self):
        if not is_table_length(len(self.truth), len(self.alphabet), self.k):
            raise ValidationError("truth table has wrong length")
        if any(v not in (0, 1) for v in self.truth):
            raise ValidationError("truth table entries must be 0/1")

    @classmethod
    def from_callable(cls, alpha: Alphabet, k: int, fn) -> "Predicate":
        cells = list(iter_product(alpha.symbols, repeat=k))
        return cls(alpha, k, tuple(1 if fn(c) else 0 for c in cells))

    def evaluate(self, symbols: Sequence[str]) -> bool:
        return bool(self.truth[self.alphabet.word_index(symbols)])

    def to_json(self) -> dict:
        return {"alphabet": list(self.alphabet.symbols), "k": self.k,
                "truth": list(self.truth)}

    @classmethod
    def from_json(cls, data: dict) -> "Predicate":
        try:
            return cls(make_alphabet(data["alphabet"]), int(data["k"]),
                       tuple(int(v) for v in data["truth"]))
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
        return {
            "predicate": self.predicate.to_json(),
            "constraints": [{"w": [w.numerator, w.denominator], "mu": mu.to_json()["atoms"]}
                            for w, mu in self.constraints],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TestInstance":
        """Each "mu" is the atom list of a distribution file on alphabet^k."""
        try:
            pred = Predicate.from_json(data["predicate"])
            alphabets = [list(pred.alphabet.symbols)] * pred.k
            constraints = []
            for entry in data["constraints"]:
                num, den = entry["w"]
                mu = JointDistribution.from_json({"alphabets": alphabets, "atoms": entry["mu"]})
                constraints.append((Fraction(num, den), mu))
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
        bad = next((x for x in mu.support if not inst.predicate.evaluate(x)), None)
        if bad is not None:
            violations.append(f"constraint {idx}: mass on falsifying atom {bad}")
    return violations


def validate_instance(inst: TestInstance) -> InstanceReport:
    """`instance_violations` plus the embedding/connectivity analysis of
    every local distribution (hypothesis screening, reported not raised)."""
    total = sum((w for w, _ in inst.constraints), Fraction(0))
    reports = []
    for _, mu in inst.constraints:
        verdict = detect_embedding(mu)
        pc, _ = pairwise_connected(mu)
        reports.append(ConstraintReport(
            support_ok=all(inst.predicate.evaluate(x) for x in mu.support),
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

    TRANSITION_GUARD bounds the DP's total transitions (states times atoms,
    summed over columns and constraints)."""
    if f.n != n:
        raise ValidationError(f"function arity {f.n} != n = {n}")
    if f.alphabet != inst.predicate.alphabet:
        raise ValidationError("function alphabet mismatch")
    if isinstance(f, DictatorFunction):
        # one state per column for c + 1 columns: refuse before building them
        needed = (f.coordinate + 1) * sum(len(mu.codes) for _, mu in inst.constraints)
        if needed > TRANSITION_GUARD:
            raise SizeGuardError(
                f"acceptance DP needs {needed} transitions; guard is {TRANSITION_GUARD}")
    root, layers = _diagram(f)
    total = sum((w for w, _ in inst.constraints), Fraction(0))
    acc = Fraction(0)
    spent = 0
    for w, mu in inst.constraints:
        p, spent = _acceptance_one(mu, inst.predicate, root, layers, spent)
        acc += (w / total) * p
    return acc


def _diagram(f: SymbolFunction) -> tuple[int, list[np.ndarray]]:
    """Compile f into a layered decision diagram (root id, layers).

    Nodes at depth j are the distinct restrictions of f by a j-symbol
    prefix. Ids below |Sigma| are the constant restrictions (id = symbol
    index, so their rows are absorbed); `layers[j][v, s]` is the id at
    depth j + 1 of node v restricted by symbol s. Every node at depth
    len(layers) is constant."""
    if isinstance(f, ConstantSymbolFunction):
        return f.alphabet.index(f.value), []
    a = len(f.alphabet)
    held = np.repeat(np.arange(a), a).reshape(a, a)  # a constant stays itself
    if isinstance(f, DictatorFunction):
        wait = np.vstack([held, np.full((1, a), a)])
        read = np.vstack([held, np.arange(a)[None, :]])
        return a, [wait] * f.coordinate + [read]
    ids = np.array([f.alphabet.index(s) for s in f.symbols], dtype=np.int64)
    layers = []
    for _ in range(f.n):  # bottom-up: the children of each node are one row
        rows = ids.reshape(-1, a)
        const = (rows[:, 0] < a) & (rows == rows[:, :1]).all(axis=1)
        nodes, inverse = np.unique(rows[~const], axis=0, return_inverse=True)
        ids = rows[:, 0].copy()
        ids[~const] = a + inverse.reshape(-1)
        layers.append(np.vstack([held, nodes]))
    layers.reverse()
    return int(ids[0]), layers


def _acceptance_one(mu: JointDistribution, pred: Predicate, root: int,
                    layers: list[np.ndarray], spent: int) -> tuple[Fraction, int]:
    """Acceptance under one local distribution, and the transition count so far.

    A state is a k-tuple of diagram node ids, one per row. Masses are the
    distribution's integer weights over its denominator D, so after j
    columns every weight is an integer over D^j and `accept` is one over
    D^(j+1) after column j; the only division is the final Fraction."""
    a, k = len(pred.alphabet), pred.k
    truth = np.array(pred.truth, dtype=bool)
    place = a ** np.arange(k - 1, -1, -1)
    if root < a:
        return Fraction(int(truth[root * place.sum()])), spent
    cols = np.array(mu.codes, dtype=np.int64)
    mass = np.array(mu.weights, dtype=object)
    states = np.full((1, k), root, dtype=np.int64)
    weights = np.array([1], dtype=object)
    accept = 0
    for depth, layer in enumerate(layers):
        spent += len(states) * len(cols)
        if spent > TRANSITION_GUARD:
            raise SizeGuardError(
                f"acceptance DP needs more than {TRANSITION_GUARD} transitions "
                f"(guard reached at column {depth + 1})")
        nxt = layer[states[:, None, :], cols[None, :, :]].reshape(-1, k)
        w = np.multiply.outer(weights, mass).reshape(-1)
        done = (nxt < a).all(axis=1)
        accept = accept * mu.denominator + sum(w[done][truth[nxt[done] @ place]].tolist())
        if done.all():
            return Fraction(accept, mu.denominator ** (depth + 1)), spent
        states, weights = _merge(nxt[~done], w[~done])
    raise AssertionError("acceptance DP left unabsorbed states")


_KEY_LIMIT = 2 ** 62


def _merge(states: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of `states` with the summed weights of their copies."""
    width = int(states.max()) + 1
    key = np.zeros(len(states), dtype=np.int64)
    span = 1  # every key is below span
    for col in states.T:  # mixed-radix key of the row, one column at a time
        if span * width > _KEY_LIMIT:  # re-rank before it overflows
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            span = len(states)
        key = key * width + col
        span *= width
    order = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
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
    """Seeded empirical acceptance of the boxed test."""
    if samples <= 0:
        raise ValidationError("samples must be positive")
    if f.alphabet != inst.predicate.alphabet:
        raise ValidationError("function alphabet mismatch")
    check_draws(samples, f.n)
    rng = random.Random(seed)
    picker = ExactChooser(range(len(inst.constraints)),
                          integer_weights([w for w, _ in inst.constraints])[0])
    column_choosers = [ExactChooser(mu.support, mu.weights) for _, mu in inst.constraints]
    k = inst.predicate.k
    accepted = 0
    for _ in range(samples):
        ci = picker.draw(rng)
        cols = [column_choosers[ci].draw(rng) for _ in range(f.n)]
        images = [f.evaluate([col[i] for col in cols]) for i in range(k)]
        if inst.predicate.evaluate(images):
            accepted += 1
    return McAcceptance(accepted / samples, samples, hoeffding_half_width(samples), accepted)
