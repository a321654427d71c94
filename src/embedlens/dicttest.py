"""The boxed dictatorship test: sample a weighted constraint, fill a k x n
matrix with i.i.d. columns from its local distribution, and evaluate the
predicate on the row images under the tested function.

Exact acceptance is computed by a column dynamic program over equivalence
classes of function restrictions: after j columns each row is tracked only
up to the restriction of f by its prefix, and fully-determined rows are
absorbed immediately. Dictators and constants stay in O(1) classes per
row, so exact completeness checks run even when a local distribution has
thousands of atoms; dense tables degrade gracefully under a state guard.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

from .correlation import hoeffding_half_width
from .distributions import (
    Alphabet,
    Atom,
    ExactChooser,
    JointDistribution,
    alphabet as make_alphabet,
)
from .embedding import connected, detect_embedding, pairwise_connected
from .errors import ParseError, SizeGuardError, ValidationError


# ---------------------------------------------------------------------------
# Symbol-valued functions f: Sigma^n -> Sigma

class SymbolFunction:
    """Interface: evaluate on a word, restrict by the first coordinate."""

    n: int
    alphabet: Alphabet

    def evaluate(self, x: Sequence[str]) -> str:
        raise NotImplementedError

    def child(self, sym: str) -> "SymbolFunction":
        raise NotImplementedError

    def key(self):
        raise NotImplementedError

    def as_constant(self) -> str | None:
        return None


class DenseSymbolFunction(SymbolFunction):
    def __init__(self, n: int, alpha: Alphabet, symbols: Sequence[str]):
        if len(symbols) != len(alpha) ** n:
            raise ValidationError("dense symbol table has wrong length")
        for s in symbols:
            if s not in alpha:
                raise ValidationError(f"output symbol {s!r} not in alphabet")
        self.n = n
        self.alphabet = alpha
        self.symbols = tuple(symbols)

    def evaluate(self, x):
        a = len(self.alphabet)
        idx = 0
        for sym in x:
            idx = idx * a + self.alphabet.index(sym)
        return self.symbols[idx]

    def child(self, sym):
        if self.n == 0:
            raise ValidationError("cannot restrict a 0-ary function")
        block = len(self.alphabet) ** (self.n - 1)
        start = self.alphabet.index(sym) * block
        return DenseSymbolFunction(self.n - 1, self.alphabet,
                                   self.symbols[start:start + block])

    def key(self):
        return ("t", self.symbols)

    def as_constant(self):
        return self.symbols[0] if self.n == 0 else None


class DictatorFunction(SymbolFunction):
    def __init__(self, n: int, alpha: Alphabet, coordinate: int):
        if not 0 <= coordinate < n:
            raise ValidationError("dictator coordinate out of range")
        self.n = n
        self.alphabet = alpha
        self.coordinate = coordinate

    def evaluate(self, x):
        return x[self.coordinate]

    def child(self, sym):
        if self.coordinate == 0:
            return ConstantSymbolFunction(self.n - 1, self.alphabet, sym)
        return DictatorFunction(self.n - 1, self.alphabet, self.coordinate - 1)

    def key(self):
        return ("d", self.n, self.coordinate)


class ConstantSymbolFunction(SymbolFunction):
    def __init__(self, n: int, alpha: Alphabet, value: str):
        if value not in alpha:
            raise ValidationError(f"constant {value!r} not in alphabet")
        self.n = n
        self.alphabet = alpha
        self.value = value

    def evaluate(self, x):
        return self.value

    def child(self, sym):
        return ConstantSymbolFunction(self.n - 1, self.alphabet, self.value)

    def key(self):
        return ("c", self.value)

    def as_constant(self):
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
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad symbol function payload: {exc}") from exc


def load_symbol_function(path: str) -> SymbolFunction:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return symbol_function_from_json(data)


# ---------------------------------------------------------------------------
# Predicates and instances

@dataclass(frozen=True)
class Predicate:
    alphabet: Alphabet
    k: int
    truth: tuple[int, ...]  # lexicographic over alphabet^k

    def __post_init__(self):
        if len(self.truth) != len(self.alphabet) ** self.k:
            raise ValidationError("truth table has wrong length")
        if any(v not in (0, 1) for v in self.truth):
            raise ValidationError("truth table entries must be 0/1")

    @classmethod
    def from_callable(cls, alpha: Alphabet, k: int, fn) -> "Predicate":
        cells = list(iter_product(alpha.symbols, repeat=k))
        return cls(alpha, k, tuple(1 if fn(c) else 0 for c in cells))

    def evaluate(self, symbols: Sequence[str]) -> bool:
        a = len(self.alphabet)
        idx = 0
        for sym in symbols:
            idx = idx * a + self.alphabet.index(sym)
        return bool(self.truth[idx])

    def to_json(self) -> dict:
        return {"alphabet": list(self.alphabet.symbols), "k": self.k,
                "truth": list(self.truth)}

    @classmethod
    def from_json(cls, data: dict) -> "Predicate":
        try:
            return cls(make_alphabet(data["alphabet"]), int(data["k"]),
                       tuple(int(v) for v in data["truth"]))
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
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
            "constraints": [
                {"w": [w.numerator, w.denominator],
                 "mu": [{"x": list(x), "p": [p.numerator, p.denominator]}
                        for x, p in mu.atoms.items()]}
                for w, mu in self.constraints
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TestInstance":
        try:
            pred = Predicate.from_json(data["predicate"])
            alphabets = [pred.alphabet] * pred.k
            constraints = []
            for entry in data["constraints"]:
                num, den = entry["w"]
                atoms: dict[Atom, Fraction] = {}
                for a in entry["mu"]:
                    x = tuple(str(s) for s in a["x"])
                    atoms[x] = atoms.get(x, Fraction(0)) + Fraction(*a["p"])
                constraints.append((Fraction(num, den), JointDistribution(alphabets, atoms)))
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ParseError(f"bad instance payload: {exc}") from exc
        return cls(pred, tuple(constraints))

    @classmethod
    def load(cls, path: str) -> "TestInstance":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: {exc}") from exc
        return cls.from_json(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_instance(inst: TestInstance) -> InstanceReport:
    """Support and weight checks plus the embedding/connectivity analysis
    of every local distribution (hypothesis screening, reported not raised)."""
    total = sum((w for w, _ in inst.constraints), Fraction(0))
    violations = []
    if total != 1:
        violations.append(f"weights sum to {total}, expected 1")
    reports = []
    for idx, (_, mu) in enumerate(inst.constraints):
        support_ok = all(inst.predicate.evaluate(x) for x in mu.support)
        if not support_ok:
            bad = next(x for x in mu.support if not inst.predicate.evaluate(x))
            violations.append(f"constraint {idx}: mass on falsifying atom {bad}")
        verdict = detect_embedding(mu)
        pc, _ = pairwise_connected(mu)
        reports.append(ConstraintReport(
            support_ok=support_ok,
            admits_embedding=verdict.admits,
            witness_modulus=verdict.witness.modulus if verdict.witness else None,
            connected=connected(mu),
            pairwise_connected=pc,
        ))
    return InstanceReport(total, total == 1, violations, reports)


# ---------------------------------------------------------------------------
# Exact and Monte Carlo acceptance

def run_test_exact(inst: TestInstance, f: SymbolFunction, n: int,
                   state_guard: int = 200_000) -> Fraction:
    """Exact rational acceptance probability of the boxed test."""
    if f.n != n:
        raise ValidationError(f"function arity {f.n} != n = {n}")
    if f.alphabet != inst.predicate.alphabet:
        raise ValidationError("function alphabet mismatch")
    total = sum((w for w, _ in inst.constraints), Fraction(0))
    acc = Fraction(0)
    for w, mu in inst.constraints:
        acc += (w / total) * _acceptance_one(mu, inst.predicate, f, n, state_guard)
    return acc


def _acceptance_one(mu: JointDistribution, pred: Predicate, f: SymbolFunction,
                    n: int, state_guard: int) -> Fraction:
    atoms = list(mu.atoms.items())
    interned: dict = {}

    def intern(fn: SymbolFunction):
        return interned.setdefault(fn.key(), fn)

    accept = Fraction(0)
    start = intern(f)
    const = start.as_constant()
    if const is not None:
        return Fraction(1) if pred.evaluate([const] * pred.k) else Fraction(0)
    states: dict[tuple, Fraction] = {(start.key(),) * pred.k: Fraction(1)}
    for _ in range(n):
        if len(states) * len(atoms) > state_guard:
            raise SizeGuardError(
                f"acceptance DP needs {len(states) * len(atoms)} transitions; "
                f"guard is {state_guard}")
        new_states: dict[tuple, Fraction] = {}
        for state, weight in states.items():
            fns = [interned[k] for k in state]
            for atom, mass in atoms:
                children = [intern(fn.child(sym)) for fn, sym in zip(fns, atom)]
                consts = [c.as_constant() for c in children]
                wm = weight * mass
                if all(v is not None for v in consts):
                    if pred.evaluate(consts):
                        accept += wm
                else:
                    key = tuple(c.key() for c in children)
                    new_states[key] = new_states.get(key, Fraction(0)) + wm
        states = new_states
    # every state is absorbed by arity 0
    if states:
        raise AssertionError("acceptance DP left unabsorbed states")
    return accept


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
    rng = random.Random(seed)
    picker = ExactChooser(range(len(inst.constraints)),
                          [w for w, _ in inst.constraints])
    column_choosers = [
        ExactChooser(mu.support, [mu.atoms[x] for x in mu.support])
        for _, mu in inst.constraints
    ]
    k = inst.predicate.k
    accepted = 0
    for _ in range(samples):
        ci = picker.draw(rng)
        cols = [column_choosers[ci].draw(rng) for _ in range(f.n)]
        images = [f.evaluate([col[i] for col in cols]) for i in range(k)]
        if inst.predicate.evaluate(images):
            accepted += 1
    return McAcceptance(accepted / samples, samples, hoeffding_half_width(samples), accepted)


def max_acceptance(inst: TestInstance, n: int,
                   table_guard: int = 10 ** 6) -> tuple[Fraction, DenseSymbolFunction]:
    """Soundness diagnostic: exhaustive maximum of the exact acceptance over
    all dense tables Sigma^n -> Sigma. Tiny n only (the table count is
    |Sigma| ** (|Sigma| ** n))."""
    alpha = inst.predicate.alphabet
    cells = len(alpha) ** n
    count = len(alpha) ** cells
    if count > table_guard:
        raise SizeGuardError(f"{count} tables exceed the diagnostic guard")
    best: tuple[Fraction, DenseSymbolFunction] | None = None
    for combo in iter_product(alpha.symbols, repeat=cells):
        f = DenseSymbolFunction(n, alpha, combo)
        acc = run_test_exact(inst, f, n)
        if best is None or acc > best[0]:
            best = (acc, f)
    return best
