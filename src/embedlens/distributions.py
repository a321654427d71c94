"""Exact k-ary distributions over finite alphabets.

Masses are held once, as integer weights over one denominator D (the lcm of
the reduced masses' denominators) on atoms coded as symbol-index tuples in
canonical, lexicographic order, from which every enumeration order derives.
A float mass is the correctly rounded w / D. Zero-mass atoms are dropped.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (PAYLOAD_ERRORS, Fragment, ParseError, SizeGuardError, ValidationError,
                     atom_list_text, read_json, write_json)

Atom = tuple[str, ...]

MC_DRAW_GUARD = 10 ** 6  # column draws (samples x n) of one Monte Carlo run
MC_BLOCK = 2 ** 16  # column draws a Monte Carlo run maps and evaluates at once


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


def alphabet(symbols: Iterable[str]) -> Alphabet:
    return Alphabet(tuple(str(s) for s in symbols))


class JointDistribution:
    """A k-ary distribution, immutable: atom `codes[i]` has mass weights[i] / denominator.

    `code_array` holds the codes as one array and `support` decodes them,
    each on first read; `atoms`, `mass` and `min_atom_mass` read masses as
    Fractions.
    """

    def __init__(self, alphabets: Sequence[Alphabet], atoms: Mapping[Atom, Fraction]):
        alphabets = tuple(alphabets)
        lookups = [a._index for a in alphabets]
        masses, invalid = {}, False
        for x, p in atoms.items():
            p = p if isinstance(p, (int, Fraction)) else Fraction(p)  # a float, exactly
            code = _code(lookups, x)
            invalid = invalid or code[:1] == (None,)
            masses[code] = p.numerator, p.denominator
        vars(self).update(vars(JointDistribution._from_masses(alphabets, masses, invalid)))

    @classmethod
    def _from_masses(cls, alphabets: tuple[Alphabet, ...], masses: dict[tuple, tuple[int, int]],
                     invalid: bool) -> "JointDistribution":
        """Validate code -> reduced (numerator, positive denominator) masses,
        where `invalid` says that some atom has no code and is keyed by
        (None, its symbol tuple); the weights are over the lcm of the
        denominators."""
        violations = []
        if invalid or min(masses.values(), default=(0,))[0] < 0:
            symbols = [a.symbols for a in alphabets]  # name each bad atom, in input order
            for code, (num, _) in list(masses.items()):
                x = code[1] if code[:1] == (None,) else tuple(map(tuple.__getitem__, symbols, code))
                if len(x) != len(alphabets):
                    violations.append(f"atom {x} has arity {len(x)}, expected {len(alphabets)}")
                    del masses[code]
                    continue
                violations.extend(f"atom {x}: symbol {s!r} not in alphabet {i}"
                                  for i, s in enumerate(x) if s not in alphabets[i])
                if num < 0:
                    violations.append(f"negative mass at atom {x}")
        denominator = lcm(*{den for _, den in masses.values()})
        weights = [num * (denominator // den) for num, den in masses.values()]
        if sum(weights) != denominator:
            violations.append(f"mass sum != 1 (got {Fraction(sum(weights), denominator)})")
        if violations:
            raise ValidationError("; ".join(violations))
        return cls._from_weights(alphabets, dict(zip(masses, weights)), denominator)

    @classmethod
    def _from_weights(cls, alphabets: Sequence[Alphabet], weights: Mapping[tuple[int, ...], int],
                      denominator: int) -> "JointDistribution":
        """Mass w / denominator at each code; weights are nonnegative and sum to it."""
        codes = sorted(c for c, w in weights.items() if w)
        kept = [weights[c] for c in codes]
        if sum(kept) != denominator:
            raise AssertionError(f"masses sum to {sum(kept)}/{denominator}, not one")
        g = gcd(denominator, *kept)  # reduce D to the lcm of the reduced denominators
        dist = cls.__new__(cls)
        dist.alphabets = tuple(alphabets)
        dist.codes: tuple[tuple[int, ...], ...] = tuple(codes)
        dist.weights: tuple[int, ...] = tuple(w // g for w in kept)
        dist.denominator: int = denominator // g
        return dist

    @property
    def k(self) -> int:
        return len(self.alphabets)

    @cached_property
    def code_array(self) -> np.ndarray:
        """The codes as one read-only int64 (atoms, k) array, rows in code order."""
        n, k = len(self.codes), self.k
        codes = np.fromiter(chain.from_iterable(self.codes), dtype=np.int64, count=n * k)
        codes.flags.writeable = False
        return codes.reshape(n, k)

    @cached_property
    def support(self) -> tuple[Atom, ...]:
        """The atoms' symbol tuples, in code order."""
        symbols = [a.symbols for a in self.alphabets]
        return tuple(tuple([syms[i] for syms, i in zip(symbols, c)]) for c in self.codes)

    @cached_property
    def atoms(self) -> dict[Atom, Fraction]:
        """Support atom -> mass, in support order."""
        return {x: Fraction(w, self.denominator) for x, w in zip(self.support, self.weights)}

    def mass(self, x: Atom) -> Fraction:
        return self.atoms.get(tuple(x), Fraction(0))

    def min_atom_mass(self) -> Fraction:
        return Fraction(min(self.weights), self.denominator)

    def marginal(self, coords: Iterable[int]) -> "JointDistribution":
        """Exact marginal on the given coordinate subset (ascending order)."""
        coords = sorted(set(coords))
        if not coords:
            raise ValidationError("marginal requires a non-empty coordinate set")
        for c in coords:
            if not 0 <= c < self.k:
                raise ValidationError(f"coordinate {c} out of range for k={self.k}")
        out: dict[tuple[int, ...], int] = {}
        for x, w in zip(self.codes, self.weights):
            y = tuple([x[c] for c in coords])
            out[y] = out.get(y, 0) + w
        return JointDistribution._from_weights([self.alphabets[c] for c in coords], out,
                                               self.denominator)

    def condition(self, coord: int, value: str) -> "JointDistribution":
        """Distribution of the remaining k-1 coordinates given coordinate `coord` = `value`."""
        if not 0 <= coord < self.k:
            raise ValidationError(f"coordinate {coord} out of range for k={self.k}")
        v = self.alphabets[coord]._index.get(value)
        out: dict[tuple[int, ...], int] = {}
        for x, w in zip(self.codes, self.weights):
            if x[coord] == v:  # distinct codes stay distinct without coordinate `coord`
                out[x[:coord] + x[coord + 1:]] = w
        total = sum(out.values())  # the conditional mass w / D over total / D is w / total
        if total == 0:
            raise ValidationError(f"conditioning on zero-mass value {value!r} at coordinate {coord}")
        rest = self.alphabets[:coord] + self.alphabets[coord + 1:]
        return JointDistribution._from_weights(rest, out, total)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return (self.alphabets, self.codes, self.weights, self.denominator) == (
            other.alphabets, other.codes, other.weights, other.denominator)

    def __repr__(self) -> str:
        return f"JointDistribution(k={self.k}, |supp|={len(self.codes)})"

    def to_json(self) -> dict:
        """The file payload; its atom list is a Fragment, rendered when first written."""
        return {"alphabets": [list(a.symbols) for a in self.alphabets],
                "atoms": Fragment(lambda depth: atom_list_text(
                    [a.symbols for a in self.alphabets], self.codes, self.weights,
                    self.denominator, depth))}

    @classmethod
    def from_json(cls, data: dict) -> "JointDistribution":
        """Read the atoms straight into codes, and each "p" pair as
        Fraction(num, den) would, in integers. A payload is read a coordinate
        at a time, or again an entry at a time, naming what is wrong in input
        order, if it has a bad entry or a repeated atom, whose masses add."""
        try:
            alphabets = tuple(alphabet(a) for a in data["alphabets"])
            lookups = [a._index for a in alphabets]
            masses, invalid = _read_columns(lookups, data["atoms"]), False
            if masses is None:
                masses = {}
                for entry in data["atoms"]:
                    code = _code(lookups, entry["x"], str)
                    invalid = invalid or code[:1] == (None,)
                    num, den = entry["p"]
                    pair = _reduced(num, den)
                    if code in masses:
                        (num0, den0), (num, den) = masses[code], pair
                        pair = _reduced(num0 * den + num * den0, den0 * den)
                    masses[code] = pair
        except PAYLOAD_ERRORS as exc:
            raise ParseError(f"bad distribution payload: {exc}") from exc
        return cls._from_masses(alphabets, masses, invalid)

    @classmethod
    def load(cls, path: str) -> "JointDistribution":
        return cls.from_json(read_json(path))

    def save(self, path: str) -> None:
        write_json(path, self.to_json())


def _code(lookups: list[dict[str, int]], x, read=None) -> tuple:
    """The symbol indices of atom x, one lookup per coordinate. When x has
    the wrong arity or a symbol outside its alphabet, also after each
    symbol is read by `read`, its key is (None, x) instead."""
    try:
        code = tuple(map(dict.get, lookups, x)) if len(x) == len(lookups) else (None,)
    except TypeError:  # x has no length, or an unhashable symbol
        code = (None,)
    if None not in code:
        return code
    return _code(lookups, tuple(map(read, x))) if read else (None, x)


def _read_columns(lookups: list[dict[str, int]], entries) -> dict | None:
    """code -> reduced mass pair of each atom entry, its symbols looked up a
    coordinate at a time and each distinct "p" pair reduced once; None when
    some entry has a fault, a "p" that is not a pair of ints, or the code of
    an earlier entry."""
    try:
        xs, ps = [entry["x"] for entry in entries], [tuple(entry["p"]) for entry in entries]
        if (set(map(len, xs)) - {len(lookups)} or set(map(len, ps)) - {2}
                or set(map(type, chain.from_iterable(ps))) - {int}):  # 1.0 or True never meets 1
            return None
        columns = [list(map(index.get, column)) for index, column in zip(lookups, zip(*xs))]
        if any(None in column for column in columns):
            return None
        reduced = {pair: _reduced(*pair) for pair in set(ps)}
        masses = dict(zip(zip(*columns), map(reduced.__getitem__, ps)))
    except PAYLOAD_ERRORS:
        return None
    return masses if len(masses) == len(xs) else None


def _reduced(num, den) -> tuple[int, int]:
    """Fraction(num, den) as (numerator, denominator), without building the
    Fraction when both are ints and den is not zero. A null denominator and
    a bool are refused: Fraction(num, None) would read num alone, and
    Fraction reads a bool as 0 or 1."""
    if type(num) is not int or type(den) is not int or not den:
        if den is None:
            raise TypeError("mass pair has a null denominator")
        if type(num) is bool or type(den) is bool:
            raise TypeError("mass pair entries must be integers, not bools")
        p = Fraction(num, den)  # Fraction's own rules and errors
        return p.numerator, p.denominator
    g = gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def integer_weights(masses: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of `masses` over D, the lcm of their denominators, and D."""
    d = lcm(*{p.denominator for p in masses})
    return [p.numerator * (d // p.denominator) for p in masses], d


def univariate(alpha: Alphabet | Iterable[str], masses: Mapping[str, Fraction]) -> JointDistribution:
    """One-coordinate distribution, used as a measure on a single alphabet."""
    if not isinstance(alpha, Alphabet):
        alpha = alphabet(alpha)
    return JointDistribution([alpha], {(s,): p for s, p in masses.items()})


def uniform_on(alphabets: Sequence[Alphabet], support: Iterable[Atom]) -> JointDistribution:
    support = list(support)
    if not support:
        raise ValidationError("uniform distribution needs a non-empty support")
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
    # (1 - c) nu = total - c base over dt * db * c_den; nu is over dt * db * (c_den - c_num)
    dt, db = total.denominator, base.denominator
    scale, cb = db * c.denominator, dt * c.numerator
    out = {x: w * scale for x, w in zip(total.codes, total.weights)}
    for i, (x, w) in enumerate(zip(base.codes, base.weights)):
        r = out.get(x, 0) - cb * w
        if r < 0:
            atom = base.support[i]
            raise ValidationError(f"negative residual at atom {atom}: "
                                  f"total={total.mass(atom)}, c*base={c * Fraction(w, db)}")
        out[x] = r
    return JointDistribution._from_weights(total.alphabets, out,
                                           dt * db * (c.denominator - c.numerator))


def check_draws(samples: int, n: int) -> None:
    """Refuse a Monte Carlo run of more than MC_DRAW_GUARD column draws."""
    if samples * n > MC_DRAW_GUARD:
        raise SizeGuardError(
            f"Monte Carlo run needs {samples} x {n} column draws; guard is {MC_DRAW_GUARD}")


def randbelow(rng: random.Random, total: int, count: int) -> list[int]:
    """`count` successive values of `rng.randrange(total)`, leaving `rng` where
    those calls would.

    CPython's randrange draws getrandbits(k), k the bit length of `total`,
    until the value is below `total`; this is the same loop, inline, so it
    replays the stream for a `total` of any size at a third of the cost.
    """
    getrandbits = rng.getrandbits
    k = total.bit_length()
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= total:
            r = getrandbits(k)
        append(r)
    return out


class ExactChooser:
    """Samples items with exact integer weights, such as a distribution's `weights`.

    Draws an integer uniform in [0, sum of weights), then a binary search over
    cumulative weights: no float thresholds, so a seed replays draws bit-exactly.
    """

    def __init__(self, items: Sequence, weights: Sequence[int]):
        if len(items) != len(weights) or not items:
            raise ValidationError("chooser needs matching non-empty items/weights")
        self.items = list(items)
        self.cumulative = list(accumulate(weights))
        self.total = self.cumulative[-1]
        # int64 bounds for a vectorised search, while the weights fit
        self._bounds = np.array(self.cumulative, dtype=np.int64) if self.total < 2 ** 63 else None

    def draw(self, rng: random.Random):
        r = rng.randrange(self.total)
        return self.items[bisect_right(self.cumulative, r)]

    def locate(self, draws: Sequence[int]) -> np.ndarray:
        """The index of the item `draw` picks for each integer below `total`."""
        if self._bounds is None:
            return np.array([bisect_right(self.cumulative, r) for r in draws], dtype=np.intp)
        return np.searchsorted(self._bounds, np.array(draws, dtype=np.int64), side="right")


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
        self._chooser = ExactChooser(base.support, base.weights)

    def sample(self) -> tuple[tuple[str, ...], ...]:
        cols = [self._chooser.draw(self._rng) for _ in range(self.n)]
        return tuple(tuple(col[i] for col in cols) for i in range(self.base.k))

    def sample_indices(self, count: int) -> np.ndarray:
        """The next `count` samples as a (count, n) array of support indices:
        the columns `count` calls of `sample` would return, from the same stream."""
        draws = randbelow(self._rng, self._chooser.total, count * self.n)
        return self._chooser.locate(draws).reshape(count, self.n)
