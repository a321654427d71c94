"""Exact k-ary distributions over finite alphabets.

Masses are held once, as integer weights over one denominator D (the lcm of
the reduced masses' denominators) on atoms coded as one read-only int64
(atoms, k) array of symbol indices, its rows distinct and in lexicographic
order, from which every enumeration order derives. Every distribution is
built by one lexsort of such an array, equal rows merged. A float mass is
the correctly rounded w / D. Zero-mass atoms are dropped.

A distribution file is read in two forms through one array validator: the
row form, one {"x": symbols, "p": [num, den]} entry per atom, which
`to_json` (and every `reduce` result) writes, and the columnar form
{"alphabets", "columns": codes per coordinate, "w": weights, "den": D},
which `save` writes.
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
                     atom_list_text, json_int, json_list, json_symbols, read_json,
                     write_json)

Atom = tuple[str, ...]

MC_DRAW_GUARD = 10 ** 6  # column draws (samples x n) of one Monte Carlo run
# column draws a Monte Carlo run maps and evaluates at once: a replayed block's
# word buffer and its masks then stay in a few hundred KB
MC_BLOCK = 2 ** 13


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

    `codes` is a read-only int64 (atoms, k) array and `weights` a tuple of
    Python ints; `support` decodes the codes on first read, and `atoms`,
    `mass` and `min_atom_mass` read masses as Fractions.
    """

    def __init__(self, alphabets: Sequence[Alphabet], atoms: Mapping[Atom, Fraction]):
        alphabets = tuple(alphabets)
        lookups = [a._index for a in alphabets]
        masses = {}
        for x, p in atoms.items():
            p = p if isinstance(p, (int, Fraction)) else Fraction(p)  # a float, exactly
            masses[_code(lookups, x)] = p.numerator, p.denominator
        vars(self).update(vars(JointDistribution._from_masses(alphabets, list(masses),
                                                              list(masses.values()))))

    @classmethod
    def _from_masses(cls, alphabets: tuple[Alphabet, ...], keys: list[tuple],
                     masses: list[tuple[int, int]]) -> "JointDistribution":
        """Validate reduced (numerator, positive denominator) masses at codes,
        over the lcm of the denominators; the masses of a repeated key add.
        The key of an atom with no code is (None, its symbol tuple), and bad
        atoms are named in input order."""
        denominator = lcm(*{den for _, den in masses})
        merged: dict[tuple, int] = {}
        for key, (num, den) in zip(keys, masses):
            merged[key] = merged.get(key, 0) + num * (denominator // den)
        violations, total = [], 0
        for key, w in merged.items():
            x = key[1] if key[:1] == (None,) else None
            if x is not None:
                if len(x) != len(alphabets):
                    violations.append(f"atom {x} has arity {len(x)}, expected {len(alphabets)}")
                    continue
                violations.extend(f"atom {x}: symbol {s!r} not in alphabet {i}"
                                  for i, s in enumerate(x) if s not in alphabets[i])
            if w < 0:
                violations.append(f"negative mass at atom {x or _decode(alphabets, key)}")
            total += w
        if total != denominator:
            violations.append(f"mass sum != 1 (got {Fraction(total, denominator)})")
        if violations:
            raise ValidationError("; ".join(violations))
        codes = np.array(list(merged), dtype=np.int64).reshape(len(merged), len(alphabets))
        return cls._from_weights(alphabets, codes, list(merged.values()), denominator)

    @classmethod
    def _validated(cls, alphabets: tuple[Alphabet, ...], codes: np.ndarray,
                   weights: Sequence[int], denominator: int) -> "JointDistribution":
        """The distribution of a payload's arrays, either form: every code in
        its alphabet, repeated atoms merged by the lexsort (their masses add),
        no negative mass and the weights summing to `denominator`. Bad atoms
        are named in the order of their first entry."""
        sizes = np.array([len(a) for a in alphabets], dtype=np.uint64)
        outside = codes.view(np.uint64) >= sizes  # a negative code views as 2^63 or more
        if outside.any():
            row, i = map(int, np.argwhere(outside)[0])
            raise ValidationError(f"atom {row}: code {int(codes[row, i])} not in alphabet {i}")
        codes, merged, first = _merged(codes, weights)
        violations = [f"negative mass at atom {_decode(alphabets, codes[r])}"
                      for r in sorted((r for r, w in enumerate(merged) if w < 0),
                                      key=first.__getitem__)]
        if sum(merged) != denominator:
            violations.append(f"mass sum != 1 (got {Fraction(sum(merged), denominator)})")
        if violations:
            raise ValidationError("; ".join(violations))
        return cls._from_distinct(alphabets, codes, merged, denominator)

    @classmethod
    def _from_weights(cls, alphabets: Sequence[Alphabet], codes: np.ndarray, weights,
                      denominator: int) -> "JointDistribution":
        """Mass w / denominator at each row of `codes`, an int64 (atoms, k)
        array; equal rows add, and the weights (int64 or Python ints) are
        nonnegative and sum to `denominator`."""
        return cls._from_distinct(alphabets, *_merged(codes, weights)[:2], denominator)

    @classmethod
    def _from_distinct(cls, alphabets: Sequence[Alphabet], codes: np.ndarray,
                       weights: list[int], denominator: int) -> "JointDistribution":
        """`_from_weights` of rows that are distinct and in lexicographic order."""
        if 0 in weights:
            keep = [w != 0 for w in weights]
            codes, weights = codes[keep], [w for w in weights if w]
        if sum(weights) != denominator:
            raise AssertionError(f"masses sum to {sum(weights)}/{denominator}, not one")
        g = gcd(denominator, *weights)  # reduce D to the lcm of the reduced denominators
        codes.flags.writeable = False
        dist = cls.__new__(cls)
        dist.alphabets = tuple(alphabets)
        dist.codes: np.ndarray = codes
        dist.weights: tuple[int, ...] = tuple([w // g for w in weights] if g > 1 else weights)
        dist.denominator: int = denominator // g
        return dist

    @property
    def k(self) -> int:
        return len(self.alphabets)

    @cached_property
    def support(self) -> tuple[Atom, ...]:
        """The atoms' symbol tuples, in code order."""
        return tuple(zip(*[list(map(a.symbols.__getitem__, column))
                           for a, column in zip(self.alphabets, self.codes.T.tolist())])
                     ) or ((),) * len(self.codes)  # k = 0

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
        return JointDistribution._from_weights([self.alphabets[c] for c in coords],
                                               self.codes[:, coords], self.weights,
                                               self.denominator)

    def condition(self, coord: int, value: str) -> "JointDistribution":
        """Distribution of the remaining k-1 coordinates given coordinate `coord` = `value`."""
        if not 0 <= coord < self.k:
            raise ValidationError(f"coordinate {coord} out of range for k={self.k}")
        rows = self.codes[:, coord] == self.alphabets[coord]._index.get(value, -1)
        weights = [w for w, r in zip(self.weights, rows.tolist()) if r]
        total = sum(weights)  # the conditional mass w / D over total / D is w / total
        if total == 0:
            raise ValidationError(f"conditioning on zero-mass value {value!r} at coordinate {coord}")
        rest = self.alphabets[:coord] + self.alphabets[coord + 1:]
        # the rows agree at `coord`, so without it they stay distinct and in order
        return JointDistribution._from_distinct(rest, np.delete(self.codes[rows], coord, axis=1),
                                                weights, total)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return ((self.alphabets, self.weights, self.denominator)
                == (other.alphabets, other.weights, other.denominator)
                and np.array_equal(self.codes, other.codes))

    def __repr__(self) -> str:
        return f"JointDistribution(k={self.k}, |supp|={len(self.codes)})"

    def to_json(self) -> dict:
        """The row-form payload; its atom list is a Fragment, rendered when first written."""
        return {"alphabets": [list(a.symbols) for a in self.alphabets],
                "atoms": Fragment(lambda depth: atom_list_text(
                    [a.symbols for a in self.alphabets], self.codes.T.tolist(), self.weights,
                    self.denominator, depth))}

    def columnar_json(self) -> dict:
        """The columnar form without its alphabets, an instance's "mu": the
        codes a coordinate at a time, the weights and their denominator."""
        return {"columns": self.codes.T.tolist(), "w": list(self.weights), "den": self.denominator}

    @classmethod
    def from_json(cls, data: dict) -> "JointDistribution":
        """Read a payload of either form, which has exactly one of "atoms" and
        "columns". A row-form payload is read a coordinate at a time, each
        "p" pair as Fraction(num, den) would, in integers; or again an entry
        at a time, naming what is wrong in input order, if it has a bad
        entry."""
        try:
            alphabets = tuple(alphabet(json_symbols(a, "alphabet"))
                              for a in json_list(data["alphabets"], "alphabets"))
            if ("atoms" in data) == ("columns" in data):
                raise ValueError("a distribution needs exactly one of 'atoms' and 'columns'")
            keys, masses = [], []
            if "columns" in data:
                arrays = _read_columnar(len(alphabets), data)
            else:
                lookups = [a._index for a in alphabets]
                entries = json_list(data["atoms"], "atoms")
                arrays = _read_rows(lookups, entries)
                for entry in entries if arrays is None else ():
                    keys.append(_code(lookups, tuple(json_symbols(entry["x"], "atom x"))))
                    num, den = entry["p"]
                    masses.append(_reduced(num, den))
        except PAYLOAD_ERRORS as exc:
            raise ParseError(f"bad distribution payload: {exc}") from exc
        if arrays is not None:
            return cls._validated(alphabets, *arrays)
        return cls._from_masses(alphabets, keys, masses)

    @classmethod
    def load(cls, path: str) -> "JointDistribution":
        return cls.from_json(read_json(path))

    def save(self, path: str) -> None:
        write_json(path, {"alphabets": [list(a.symbols) for a in self.alphabets],
                          **self.columnar_json()})


def _merged(codes: np.ndarray, weights) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The distinct rows of `codes` in lexicographic order, the summed weights
    of each one's copies as Python ints, and the index of its first copy: one
    stable lexsort."""
    order = np.lexsort(codes.T[::-1]) if codes.shape[1] else np.arange(len(codes))
    codes = codes[order]
    if isinstance(weights, np.ndarray):
        weights = weights[order]
    else:
        weights = list(map(weights.__getitem__, order.tolist()))
    repeat = np.logical_and.reduce(codes[1:] == codes[:-1], axis=1)  # k = 0: all repeat
    if not np.count_nonzero(repeat):
        return codes, weights if type(weights) is list else weights.tolist(), order
    new = np.ones(len(codes), dtype=bool)
    new[1:] = ~repeat
    starts = np.flatnonzero(new)
    weights = np.add.reduceat(np.asarray(weights, dtype=object), starts).tolist()
    return codes[starts], weights, order[starts]


def _decode(alphabets: Sequence[Alphabet], code: Sequence[int]) -> Atom:
    return tuple(a.symbols[c] for a, c in zip(alphabets, code))


def _code(lookups: list[dict[str, int]], x) -> tuple:
    """The symbol indices of atom x, one lookup per coordinate. When x has
    the wrong arity or a symbol outside its alphabet, its key is (None, x)
    instead."""
    try:
        code = tuple(map(dict.get, lookups, x)) if len(x) == len(lookups) else (None,)
    except TypeError:  # x has no length, or an unhashable symbol
        code = (None,)
    return (None, x) if None in code else code


def _read_rows(lookups: list[dict[str, int]], entries: list):
    """The codes, weights and denominator of row-form atom entries, their
    symbols looked up a coordinate at a time and each distinct "p" pair
    reduced once; None when some entry has a fault or a "p" that is not a
    pair of ints."""
    try:
        xs, ps = [entry["x"] for entry in entries], [tuple(entry["p"]) for entry in entries]
        if (set(map(type, xs)) - {list} or set(map(len, xs)) - {len(lookups)}
                or set(map(len, ps)) - {2}
                or set(map(type, chain.from_iterable(ps))) - {int}):  # 1.0 or True never meets 1
            return None
        columns = [list(map(index.get, column)) for index, column in zip(lookups, zip(*xs))]
        if any(None in column for column in columns):
            return None
        reduced = {pair: _reduced(*pair) for pair in set(ps)}
    except PAYLOAD_ERRORS:
        return None
    denominator = lcm(*{den for _, den in reduced.values()})
    scaled = {pair: num * (denominator // den) for pair, (num, den) in reduced.items()}
    codes = np.array(columns, dtype=np.int64).reshape(len(lookups), len(xs)).T
    return codes, list(map(scaled.__getitem__, ps)), denominator


def _read_columnar(k: int, data: dict) -> tuple[np.ndarray, list[int], int]:
    """The codes, weights and denominator of a columnar payload: k lists of
    integer codes, one code per weight, positive integer weights and a
    positive integer denominator."""
    columns, weights = json_list(data["columns"], "columns"), json_list(data["w"], "w")
    denominator = json_int(data["den"], "den")
    if len(columns) != k or any(type(c) is not list or len(c) != len(weights) for c in columns):
        raise ValueError(f"columns must be {k} lists of one code per weight")
    if set(map(type, chain(weights, *columns))) - {int}:
        raise TypeError("codes and weights must be integers")
    if min(weights, default=1) < 1 or denominator < 1:
        raise ValueError("weights and their denominator must be positive")
    return np.array(columns, dtype=np.int64).reshape(k, len(weights)).T, weights, denominator


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
    codes, residual, _ = _merged(np.concatenate([total.codes, base.codes]),
                                 [w * scale for w in total.weights]
                                 + [-cb * w for w in base.weights])
    negative = [r for r, w in enumerate(residual) if w < 0]  # only at atoms of base
    if negative:
        atom = _decode(total.alphabets, codes[negative[0]])
        raise ValidationError(f"negative residual at atom {atom}: "
                              f"total={total.mass(atom)}, c*base={c * base.mass(atom)}")
    return JointDistribution._from_distinct(total.alphabets, codes, residual,
                                            dt * db * (c.denominator - c.numerator))


def check_draws(samples: int, n: int) -> None:
    """Refuse a Monte Carlo run of more than MC_DRAW_GUARD column draws,
    counting at least one draw per sample: a sample of n = 0 columns still
    costs its constraint pick and its evaluation."""
    if samples * max(n, 1) > MC_DRAW_GUARD:
        raise SizeGuardError(
            f"Monte Carlo run needs {samples} x {n} column draws; guard is {MC_DRAW_GUARD}")


def seeded_rng(seed: int) -> random.Random:
    """random.Random(seed) for a seed >= 0: Random seeds from |seed|, so a
    negative seed would replay the stream of its absolute value."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return random.Random(seed)


def random_words(rng: random.Random, count: int) -> np.ndarray:
    """The next `count` 32-bit outputs of `rng`'s Mersenne Twister, in the
    order it makes them: getrandbits(32 * count) packs them least
    significant word first."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")


def randbelow(rng: random.Random, total: int, count: int) -> np.ndarray:
    """`count` successive values of `rng.randrange(total)`, leaving `rng` where
    those calls would: uint32 below 2^32, Python ints past it.

    CPython's randrange draws getrandbits(k), k the bit length of `total`,
    until the value is below `total`. Below 2^32 each getrandbits(k) is the
    top k bits of one output word, so each round draws one word per value
    still missing and keeps, in order, those below `total`: the generator
    stops where the calls would. A value past 2^32 takes several words, and
    `randbelow_calls` draws those.
    """
    k = total.bit_length()
    if k > 32:
        return np.array(randbelow_calls(rng, total, count), dtype=object)
    kept = [np.empty(0, dtype=np.uint32)]
    while count:
        r = random_words(rng, count) >> (32 - k)
        kept.append(r[r < total])
        count -= len(kept[-1])
    return np.concatenate(kept)


def randbelow_calls(rng: random.Random, total: int, count: int) -> list[int]:
    """`count` successive values of `rng.randrange(total)` as a list, from
    randrange's own loop run inline, one getrandbits call per try."""
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
    """Samples indices with exact integer weights, such as a distribution's `weights`.

    Draws an integer uniform in [0, sum of weights), then a binary search over
    cumulative weights: no float thresholds, so a seed replays draws bit-exactly.
    """

    def __init__(self, weights: Sequence[int]):
        if not weights:
            raise ValidationError("chooser needs non-empty weights")
        self.cumulative = list(accumulate(weights))
        self.total = self.cumulative[-1]
        # the bounds of a vectorised search: int64 while the weights fit, Python ints past it
        self._bounds = np.array(self.cumulative, dtype=np.int64 if self.total < 2 ** 63 else object)
        # up to a total of 2^12, the index of every integer (at most 32 KB): one gather a draw
        self._table = np.repeat(np.arange(len(weights)), weights) if self.total <= 2 ** 12 else None

    def draw(self, rng: random.Random) -> int:
        return bisect_right(self.cumulative, rng.randrange(self.total))

    def locate(self, draws: Sequence[int]) -> np.ndarray:
        """The index `draw` picks for each integer below `total`, in the shape of `draws`."""
        if self._table is not None:
            return self._table[np.asarray(draws, dtype=np.intp)]
        return np.searchsorted(self._bounds, np.asarray(draws, dtype=self._bounds.dtype),
                               side="right")


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
        self._rng = seeded_rng(seed)
        self._chooser = ExactChooser(base.weights)

    def sample(self) -> tuple[tuple[str, ...], ...]:
        cols = [self.base.support[self._chooser.draw(self._rng)] for _ in range(self.n)]
        return tuple(tuple(col[i] for col in cols) for i in range(self.base.k))

    def sample_indices(self, count: int) -> np.ndarray:
        """The next `count` samples as a (count, n) array of support indices:
        the columns `count` calls of `sample` would return, from the same stream."""
        draws = randbelow(self._rng, self._chooser.total, count * self.n)
        return self._chooser.locate(draws).reshape(count, self.n)
