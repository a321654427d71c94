"""Exact k-ary distributions over finite alphabets.

All probabilities are arbitrary-precision rationals (`fractions.Fraction`);
floating point enters only downstream, in function values and correlations.
Support means strictly positive mass: zero-mass atoms are dropped at
construction. Atom order is canonical (lexicographic by symbol indices) and
every enumeration order in the package derives from it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import PAYLOAD_ERRORS, ParseError, SizeGuardError, ValidationError, read_json, write_json

Atom = tuple[str, ...]

MC_DRAW_GUARD = 10 ** 6  # column draws (samples x n) of one Monte Carlo run


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct symbol names; order is the indexing order."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValidationError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet has duplicate symbols")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValidationError(f"symbol {symbol!r} not in alphabet") from None

    def word_index(self, word: Iterable[str]) -> int:
        """Position of `word` in the lexicographic order of alphabet^len(word)."""
        idx = 0
        for sym in word:
            idx = idx * len(self.symbols) + self.index(sym)
        return idx


def alphabet(symbols: Iterable[str]) -> Alphabet:
    return Alphabet(tuple(str(s) for s in symbols))


class JointDistribution:
    """A k-ary distribution with exact rational atom masses.

    Immutable after construction; all derived operations return fresh
    objects. `support` is sorted lexicographically by symbol indices.
    """

    def __init__(self, alphabets: Sequence[Alphabet], atoms: Mapping[Atom, Fraction]):
        self.alphabets: tuple[Alphabet, ...] = tuple(alphabets)
        violations = self._violations(atoms)
        if violations:
            raise ValidationError("; ".join(violations))
        kept = {tuple(x): Fraction(p) for x, p in atoms.items() if p > 0}
        order = sorted(kept, key=self._index_key)
        self.atoms: dict[Atom, Fraction] = {x: kept[x] for x in order}
        self.support: tuple[Atom, ...] = tuple(order)

    def _violations(self, atoms: Mapping[Atom, Fraction]) -> list[str]:
        """Sum-to-one, nonnegativity and alphabet consistency of raw atom data."""
        k = len(self.alphabets)
        violations = []
        total = Fraction(0)
        for x, p in atoms.items():
            if len(x) != k:
                violations.append(f"atom {x} has arity {len(x)}, expected {k}")
                continue
            for i, s in enumerate(x):
                if s not in self.alphabets[i]:
                    violations.append(f"atom {x}: symbol {s!r} not in alphabet {i}")
            if p < 0:
                violations.append(f"negative mass at atom {x}")
            total += p
        if total != 1:
            violations.append(f"mass sum != 1 (got {total})")
        return violations

    def _index_key(self, x: Atom) -> tuple[int, ...]:
        return tuple(a.index(s) for a, s in zip(self.alphabets, x))

    @property
    def k(self) -> int:
        return len(self.alphabets)

    def mass(self, x: Atom) -> Fraction:
        return self.atoms.get(tuple(x), Fraction(0))

    def min_atom_mass(self) -> Fraction:
        return min(self.atoms.values())

    def marginal(self, coords: Iterable[int]) -> "JointDistribution":
        """Exact marginal on the given coordinate subset (ascending order)."""
        coords = sorted(set(coords))
        if not coords:
            raise ValidationError("marginal requires a non-empty coordinate set")
        for c in coords:
            if not 0 <= c < self.k:
                raise ValidationError(f"coordinate {c} out of range for k={self.k}")
        out: dict[Atom, Fraction] = {}
        for x, p in self.atoms.items():
            y = tuple(x[c] for c in coords)
            out[y] = out.get(y, Fraction(0)) + p
        return JointDistribution([self.alphabets[c] for c in coords], out)

    def condition(self, coord: int, value: str) -> "JointDistribution":
        """Distribution of the remaining k-1 coordinates given coordinate `coord` = `value`."""
        if not 0 <= coord < self.k:
            raise ValidationError(f"coordinate {coord} out of range for k={self.k}")
        total = Fraction(0)
        out: dict[Atom, Fraction] = {}
        for x, p in self.atoms.items():
            if x[coord] == value:
                total += p
                y = x[:coord] + x[coord + 1:]
                out[y] = out.get(y, Fraction(0)) + p
        if total == 0:
            raise ValidationError(f"conditioning on zero-mass value {value!r} at coordinate {coord}")
        out = {y: p / total for y, p in out.items()}
        rest = self.alphabets[:coord] + self.alphabets[coord + 1:]
        return JointDistribution(rest, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return self.alphabets == other.alphabets and self.atoms == other.atoms

    def __repr__(self) -> str:
        return f"JointDistribution(k={self.k}, |supp|={len(self.support)})"

    def to_json(self) -> dict:
        return {
            "alphabets": [list(a.symbols) for a in self.alphabets],
            "atoms": [
                {"x": list(x), "p": [p.numerator, p.denominator]}
                for x, p in self.atoms.items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "JointDistribution":
        try:
            alphabets = [alphabet(a) for a in data["alphabets"]]
            atoms: dict[Atom, Fraction] = {}
            for entry in data["atoms"]:
                x = tuple(str(s) for s in entry["x"])
                num, den = entry["p"]
                atoms[x] = atoms.get(x, Fraction(0)) + Fraction(num, den)
        except PAYLOAD_ERRORS as exc:
            raise ParseError(f"bad distribution payload: {exc}") from exc
        return cls(alphabets, atoms)

    @classmethod
    def load(cls, path: str) -> "JointDistribution":
        return cls.from_json(read_json(path))

    def save(self, path: str) -> None:
        write_json(path, self.to_json())


def univariate(alpha: Alphabet | Iterable[str], masses: Mapping[str, Fraction]) -> JointDistribution:
    """One-coordinate distribution, used as a measure on a single alphabet."""
    if not isinstance(alpha, Alphabet):
        alpha = alphabet(alpha)
    return JointDistribution([alpha], {(s,): p for s, p in masses.items()})


def uniform_on(alphabets: Sequence[Alphabet], support: Iterable[Atom]) -> JointDistribution:
    support = list(support)
    p = Fraction(1, len(support))
    return JointDistribution(alphabets, {tuple(x): p for x in support})


def decompose_mixture(total: JointDistribution, base: JointDistribution,
                      c: Fraction) -> JointDistribution:
    """Solve total = c*base + (1-c)*nu for nu, exactly.

    Raises with the witnessing atom if total - c*base goes negative anywhere.
    """
    c = Fraction(c)
    if not 0 < c < 1:
        raise ValidationError(f"mixture weight must lie in (0,1), got {c}")
    if total.alphabets != base.alphabets:
        raise ValidationError("mixture components must share alphabets")
    out: dict[Atom, Fraction] = dict(total.atoms)
    for x, p in base.atoms.items():
        r = out.get(x, Fraction(0)) - c * p
        if r < 0:
            raise ValidationError(
                f"negative residual at atom {x}: total={total.mass(x)}, c*base={c * p}")
        out[x] = r
    nu = {x: p / (1 - c) for x, p in out.items() if p > 0}
    return JointDistribution(total.alphabets, nu)


def check_draws(samples: int, n: int) -> None:
    """Refuse a Monte Carlo run of more than MC_DRAW_GUARD column draws."""
    if samples * n > MC_DRAW_GUARD:
        raise SizeGuardError(
            f"Monte Carlo run needs {samples} x {n} column draws; guard is {MC_DRAW_GUARD}")


class ExactChooser:
    """Samples atoms with exact rational weights via integer arithmetic.

    Draws an integer uniform in [0, D) with D the common denominator, then
    a binary search over cumulative numerators: no float thresholds, so a
    fixed seed reproduces draws bit-exactly.
    """

    def __init__(self, items: Sequence, weights: Sequence[Fraction]):
        if len(items) != len(weights) or not items:
            raise ValidationError("chooser needs matching non-empty items/weights")
        self.items = list(items)
        d = lcm(*[w.denominator for w in weights]) if len(weights) > 1 else weights[0].denominator
        cum = []
        acc = 0
        for w in weights:
            acc += w.numerator * (d // w.denominator)
            cum.append(acc)
        self.total = acc
        self.cumulative = cum

    def draw(self, rng: random.Random):
        r = rng.randrange(self.total)
        return self.items[bisect_right(self.cumulative, r)]


class ProductPowerSampler:
    """Seeded sampler of i.i.d. columns from a base distribution.

    A single sample is a k x n matrix drawn column-by-column from the base,
    returned as k rows (the product-power semantics). Successive samples
    continue the same stream; rebuilding with the same seed replays it.
    """

    def __init__(self, base: JointDistribution, n: int, seed: int):
        if n <= 0:
            raise ValidationError("n must be positive")
        self.base = base
        self.n = n
        self.seed = seed
        self._rng = random.Random(seed)
        self._chooser = ExactChooser(base.support, [base.atoms[x] for x in base.support])

    def draw_column(self) -> Atom:
        return self._chooser.draw(self._rng)

    def sample(self) -> tuple[tuple[str, ...], ...]:
        cols = [self.draw_column() for _ in range(self.n)]
        return tuple(tuple(col[i] for col in cols) for i in range(self.base.k))
