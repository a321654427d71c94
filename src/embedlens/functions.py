"""Complex-valued functions on powers of a finite alphabet.

Dense tables, coordinate-factored products, and exact-phase characters,
together with the inner product, the per-coordinate noise operator, noise
stability, the graded degree decomposition and restrictions. Function
values are complex doubles, and their sums are correctly rounded,
bit-identical to math.fsum, via `fsums`; identities are expected to hold
to 1e-10. A character's phases are integers over one
denominator D. The classes evaluate arrays of words; the evaluators of one
word by definition live in the test oracles (`tests/oracles.py`).

Dense work on powers goes through one per-coordinate tensor path:
`column_product` reads tables through per-column symbol indices and
`column_map` maps every axis by `axis_map`, the one contraction kernel, whose
sums run in index order so that no bit follows the CPU's BLAS kernel. Routes
check `TENSOR_GUARD` on their largest tensor first.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import fsum, gcd, isfinite, lcm, prod
from operator import attrgetter, mul
from typing import Mapping, Sequence

import numpy as np

from .distributions import Alphabet, JointDistribution, alphabet as make_alphabet, uniform_on
from .embedding import EmbeddingWitness
from .errors import (PAYLOAD_ERRORS, ParseError, SizeGuardError, ValidationError, json_int,
                     json_list, json_pairs, read_json)

IDENTITY_TOL = 1e-10
TENSOR_GUARD = 10 ** 7  # entries of the largest dense tensor any route may build
MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # numpy's ndarray limit


def is_table_length(length: int, a: int, n: int) -> bool:
    """n >= 0 and length == a ** n, decided without building a ** n for a huge n."""
    return n >= 0 and (a == 1 or n <= length.bit_length()) and length == a ** n


class TableFunction:
    """Dense function on alphabet^n, values indexed lexicographically."""

    def __init__(self, n: int, alpha: Alphabet, values):
        if n < 0:
            raise ValidationError("arity must be nonnegative")
        vals = np.array(values, dtype=np.complex128).ravel()  # owning copy
        if not is_table_length(len(vals), len(alpha), n):
            raise ValidationError(
                f"table has wrong length: expected {len(alpha)}**{n} values, got {len(vals)}")
        _require_finite(vals)
        self.n = n
        self.alphabet = alpha
        self.values = vals
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, n: int, alpha: Alphabet, c: complex) -> "TableFunction":
        return cls(n, alpha, np.full(len(alpha) ** n, c, dtype=np.complex128))

    def evaluate_many(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of the value at each row of x, an (m, n)
        array of symbol indices."""
        vals = self.values[x @ _places(len(self.alphabet), self.n)]
        return vals.real, vals.imag

    def conj(self) -> "TableFunction":
        return TableFunction(self.n, self.alphabet, np.conj(self.values))

    def __mul__(self, other: "TableFunction") -> "TableFunction":
        self._check_same_shape(other)
        return TableFunction(self.n, self.alphabet, self.values * other.values)

    def _check_same_shape(self, other):
        if self.n != other.n or self.alphabet != other.alphabet:
            raise ValidationError("function shape mismatch")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "alphabet": list(self.alphabet.symbols),
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TableFunction":
        try:
            alpha = make_alphabet(json_list(data["alphabet"], "alphabet"))
            vals = json_pairs(data["values"], "values")
            return cls(json_int(data["n"], "n"), alpha, vals)
        except PAYLOAD_ERRORS as exc:
            raise ParseError(f"bad table function payload: {exc}") from exc


class ProductFunction:
    """P(x) = prod_j factor_j(x_j); factors are rows of an (n x |alphabet|) array."""

    def __init__(self, alpha: Alphabet, factors):
        arr = np.array(factors, dtype=np.complex128)  # owning copy
        if arr.ndim != 2 or arr.shape[1] != len(alpha):
            raise ValidationError("factors must be an (n, |alphabet|) array")
        _require_finite(arr)
        self.alphabet = alpha
        self.factors = arr
        self.factors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.factors.shape[0]

    def evaluate_many(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of the value at each row of x, an (m, n)
        array of symbol indices: the factors multiplied in column order from
        1, as Python multiplies complex numbers."""
        re, im = np.ones(len(x)), np.zeros(len(x))
        for j in range(self.n):
            factor = self.factors[j, x[:, j]]
            re, im = complex_times(re, im, factor.real, factor.imag)
        return re, im

    def to_table(self) -> TableFunction:
        _check_tensor_size(len(self.alphabet) ** self.n, "product table")
        vals = np.ones(1, dtype=np.complex128)
        for j in range(self.n):
            vals = np.multiply.outer(vals, self.factors[j]).ravel()
        return TableFunction(self.n, self.alphabet, vals)

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet.symbols),
            "factors": [
                {sym: [float(self.factors[j, s].real), float(self.factors[j, s].imag)]
                 for s, sym in enumerate(self.alphabet.symbols)}
                for j in range(self.n)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProductFunction":
        try:
            alpha = make_alphabet(json_list(data["alphabet"], "alphabet"))
            rows = []
            for table in json_list(data["factors"], "factors"):
                if set(table) != set(alpha.symbols):
                    raise ValueError(f"factor keys {sorted(table)} are not the alphabet")
                rows.append(json_pairs([table[sym] for sym in alpha.symbols], "factors"))
            return cls(alpha, np.array(rows, dtype=np.complex128).reshape(len(rows), len(alpha)))
        except PAYLOAD_ERRORS as exc:
            raise ParseError(f"bad product function payload: {exc}") from exc


class CharacterProduct:
    """Unimodular product function with exact rational phases.

    Factor j at symbol s is exp(2*pi*i*numerators[j, s] / denominator): the
    numerators are one read-only (n, |alphabet|) array in [0, D), D the lcm of
    the reduced phase denominators, int64 while D < 2^62 (so that a sum of two
    residues fits) and Python ints past it. Correlations of character tuples
    are exact rationals whenever the phase sums stay on the quarter circle.
    Both constructors flatten the rows once and build the array in one pass
    of C-level maps (`_from_numerators`).
    """

    def __init__(self, alpha: Alphabet, phases: Sequence[Sequence]):
        """Rows of phases, each anything `Fraction` reads, taken mod 1."""
        rows = list(phases)
        flat = list(chain.from_iterable(rows))
        if not set(map(type, flat)) <= {Fraction}:
            flat = list(map(Fraction, flat))
        dens = list(map(attrgetter("denominator"), flat))
        den = lcm(*set(dens))
        scaled = map(mul, map(attrgetter("numerator"), flat), map(den.__floordiv__, dens))
        vars(self).update(vars(CharacterProduct._from_numerators(
            alpha, list(map(den.__rmod__, scaled)), list(map(len, rows)), den)))

    @classmethod
    def _from_numerators(cls, alpha: Alphabet, flat: list[int], lengths: Sequence[int],
                         den: int) -> "CharacterProduct":
        """Phase numerators / den, each in [0, den), rows of the given lengths
        laid end to end in `flat`."""
        if not set(lengths) <= {len(alpha)}:
            raise ValidationError("phase row length must match alphabet size")
        g = gcd(den, *set(flat))  # D: the lcm of the reduced denominators
        f = cls.__new__(cls)
        f.alphabet = alpha
        f.denominator = den // g
        f.numerators = np.array(flat if g == 1 else [v // g for v in flat],
                                dtype=np.int64 if f.denominator < 2 ** 62 else object
                                ).reshape(len(lengths), len(alpha))
        f.numerators.setflags(write=False)
        return f

    @property
    def n(self) -> int:
        return len(self.numerators)

    def evaluate_many(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of the value at each row of x, an (m, n)
        array of symbol indices. `_unit` gives the same value for a phase sum
        as for its residue mod D, and is called once per distinct residue."""
        den = self.denominator
        total = np.zeros(len(x), dtype=self.numerators.dtype)
        for j, steps in enumerate(self.numerators):
            total = (total + steps[x[:, j]]) % den
        residues, inverse = np.unique(total, return_inverse=True)
        units = np.array([_unit(int(r), den) for r in residues], dtype=np.complex128)
        vals = units[inverse.reshape(-1)]
        return vals.real, vals.imag

    def to_product(self) -> ProductFunction:
        """The factors, with `_unit` called once per distinct numerator."""
        nums, inverse = np.unique(self.numerators, return_inverse=True)
        units = np.array([_unit(int(v), self.denominator) for v in nums], dtype=np.complex128)
        return ProductFunction(self.alphabet, units[inverse].reshape(self.numerators.shape))

    def to_table(self) -> TableFunction:
        return self.to_product().to_table()


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValidationError("function values must be finite (no NaN or infinity)")


def _places(a: int, n: int) -> np.ndarray:
    """Place values of the n symbols of a word in its lexicographic index."""
    return a ** np.arange(n - 1, -1, -1, dtype=np.int64)


def complex_times(re: np.ndarray, im: np.ndarray, c: np.ndarray, d: np.ndarray):
    """(re + i im)(c + i d) as Python multiplies two complex numbers, elementwise
    in float64: numpy's complex128 product may round differently."""
    return re * c - im * d, re * d + im * c


def _unit(num: int, den: int) -> complex:
    """exp(2 pi i num / den), exact on the quarter circle."""
    quarter, rest = divmod(4 * num % (4 * den), den)
    if rest == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[quarter]
    return cmath.exp(2j * cmath.pi * (num % den / den))


# ---------------------------------------------------------------------------
# Measures

def _measure_weights(nu: JointDistribution, alpha: Alphabet) -> np.ndarray:
    if nu.k != 1:
        raise ValidationError("measure must be univariate")
    if nu.alphabets[0] != alpha:
        raise ValidationError("measure alphabet does not match function alphabet")
    out = np.zeros(len(alpha))
    out[nu.codes[:, 0]] = [w / nu.denominator for w in nu.weights]
    return out


def uniform_measure(alpha: Alphabet) -> JointDistribution:
    return uniform_on([alpha], [(s,) for s in alpha.symbols])


def _weight_tensor(w: np.ndarray, n: int) -> np.ndarray:
    """The product measure's weights w(x_1) ... w(x_n), multiplied in coordinate order."""
    return column_map(np.ones(1), w[:, None], n).ravel()


# ---------------------------------------------------------------------------
# The per-coordinate tensor path

def _check_tensor_size(entries: int, what: str) -> None:
    """Raise SizeGuardError before a dense tensor of more than TENSOR_GUARD entries is built."""
    if entries > TENSOR_GUARD:
        raise SizeGuardError(
            f"{what} needs a dense tensor of {entries} entries; guard is {TENSOR_GUARD}")


def column_product(tables: Sequence[TableFunction], index_lists: Sequence[Sequence[int]],
                   n: int) -> np.ndarray:
    """The tensor over (S')^n of prod_i f_i, f_i read through per-column symbol indices.

    Entry (c_1, ..., c_n) is prod_i f_i(x_i) with x_i[j] symbol index_lists[i][c_j]
    of f_i's alphabet. With no tables the result is the scalar 1.
    """
    out = np.ones(())
    for f, idx in zip(tables, index_lists):
        _check_tensor_size(len(idx) ** n, "column product")
        flat = np.zeros(1, dtype=np.int64)  # the index of each word in f's table
        for _ in range(n):
            flat = np.add.outer(flat * len(f.alphabet), idx).ravel()
        out = out * f.values[table_axes(flat, len(idx), n)]
    return out


def column_map(values, matrix: np.ndarray, n: int) -> np.ndarray:
    """Apply one (out x in) matrix along each of the n axes of an in^n tensor."""
    out_size, in_size = matrix.shape
    arr = table_axes(values, in_size, n)
    for axis in range(n):
        _check_tensor_size(arr.size // in_size * out_size, "column map")
        arr = axis_map(arr, matrix, axis)
    return arr


def axis_map(arr: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """`axis` of a C-contiguous arr through an (out x in) matrix: entry i adds matrix[i, j] *
    arr[..., j, ...] over j = 0, 1, ... in order by elementwise operations, alike on any CPU."""
    split = np.iscomplexobj(arr) and not np.iscomplexobj(matrix)  # parts apart, as floats
    x = (arr.view(np.float64) if split else arr).reshape(prod(arr.shape[:axis]), arr.shape[axis], -1)
    out = matrix[:, :1] * x[:, :1]  # on a (before, in, after) view: no axis is added
    for j in range(1, matrix.shape[1]):
        out += matrix[:, j:j + 1] * x[:, j:j + 1]
    return out.view(np.result_type(arr, matrix)).reshape(arr.shape[:axis] + (-1,) + arr.shape[axis + 1:])


def table_axes(values, a: int, n: int, lead: tuple[int, ...] = ()) -> np.ndarray:
    """values shaped lead + (a,) * n; SizeGuardError past numpy's MAX_AXES axes."""
    if len(lead) + n > MAX_AXES:
        raise SizeGuardError(f"{n} coordinates need {len(lead) + n} axes; numpy allows {MAX_AXES}")
    return np.reshape(values, lead + (a,) * n)


# ---------------------------------------------------------------------------
# Correctly rounded sums

FSUM_CROSSOVER = 256  # rows up to this length go to math.fsum on a list (measured)
FSUM_BLOCK = 2 ** 13  # entries bucketed at once (the temporaries count in peak RSS)


def fsums(rows) -> list[float]:
    """math.fsum of each row of a 2-D float array, bit for bit, in numpy passes.

    Each entry x of a longer row splits into h, x with its 26 low mantissa
    bits cleared, and x - h. Within one exponent bucket each half has at most
    27 significant bits on a common grid, so their float sums per (row,
    bucket) over FSUM_BLOCK entries are exact, and `fsum` of those few sums is
    the correctly rounded row sum. Short rows, and rows with an inf or a NaN
    or a bucket sum past the largest double, go to `fsum` on a list and keep
    its rules; a row whose partial sums overflow only inside `fsum` may get
    its in-range sum where `fsum` raises OverflowError.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1] <= FSUM_CROSSOVER:
        return [fsum(row) for row in rows.tolist()]
    per = max(1, FSUM_BLOCK // rows.shape[1])
    return [_settle(part, row) for r in range(0, len(rows), per)
            for part, row in zip(_bucket_sums(rows[r:r + per]), rows[r:r + per])]


def _bucket_sums(rows: np.ndarray) -> list[list[float]]:
    parts = [[] for _ in rows]
    step = max(1, FSUM_BLOCK // len(rows))
    for c in range(0, rows.shape[1], step):
        x = np.ascontiguousarray(rows[:, c:c + step])
        bits = x.view(np.int64)
        high = (bits & ~(2 ** 26 - 1)).view(np.float64)
        keys = bits >> 52
        keys &= 0x7FF  # the biased exponent
        low, width = int(keys.min()), int(keys.max() - keys.min()) + 1
        keys += np.arange(-low, len(x) * width - low, width)[:, None]
        keys = keys.ravel()
        with np.errstate(invalid="ignore"):  # inf - inf: the row goes to fsum
            rest = x - high
        for part, h, r in zip(parts, *(np.bincount(keys, v.ravel(), len(x) * width).reshape(
                -1, width).tolist() for v in (high, rest))):
            part += h + r
    return parts


def _settle(part: list[float], row: np.ndarray) -> float:
    try:
        total = fsum(part)
        if isfinite(total) and (total or not np.signbit(row).all()):
            return total
    except (OverflowError, ValueError):
        pass
    return fsum(row.tolist())  # an inf, a NaN, an overflow or only negative zeros


def _complex_sum(terms: np.ndarray) -> complex:
    """fsums of the real and imaginary parts of a contiguous complex vector, read in place."""
    re, im = fsums(terms.view(np.float64).reshape(-1, 2).T)
    return complex(re, im)


# ---------------------------------------------------------------------------
# Inner products and the noise operator

def inner_product(f: TableFunction, g: TableFunction, nu: JointDistribution) -> complex:
    """<f, g> = E_{x ~ nu^n}[f(x) * conj(g(x))], correctly rounded (`fsums`)."""
    f._check_same_shape(g)
    w = _weight_tensor(_measure_weights(nu, f.alphabet), f.n)
    return _complex_sum(f.values * np.conj(g.values) * w)


def expectation(f: TableFunction, nu: JointDistribution) -> complex:
    w = _weight_tensor(_measure_weights(nu, f.alphabet), f.n)
    return _complex_sum(f.values * w)


def noise_apply(f: TableFunction, rho: float, nu: JointDistribution) -> TableFunction:
    """Per-coordinate noise: keep the coordinate w.p. rho, else resample from nu."""
    w = _measure_weights(nu, f.alphabet)
    return TableFunction(f.n, f.alphabet, _noise(f.values[None], w, rho, f.n)[0])


def _noise(rows: np.ndarray, w: np.ndarray, rho: float, n: int) -> np.ndarray:
    """T_rho of each row of a (batch, a^n) array, coordinate i on a (batch a^i, a, rest) view."""
    if not 0 <= rho <= 1:
        raise ValidationError("rho must lie in [0, 1]")
    a, out = len(w), np.array(rows, dtype=np.complex128)
    for i in range(n):
        view = out.reshape(len(rows) * a ** i, a, a ** (n - 1 - i))
        mean = axis_map(view, w[None], 1)
        view *= rho
        view += (1 - rho) * mean
    return out


def stability(f: TableFunction, rho: float, nu: JointDistribution) -> float:
    """Stab_rho(f) = <f, T_rho f>; real and nonnegative for any complex f.

    The realness check is relative: rounding in the imaginary part scales
    with ||f||^2, so the tolerance is IDENTITY_TOL * max(1, ||f||^2).
    """
    return stabilities(f.values[None], f.n, f.alphabet, rho, nu)[0]


def stabilities(rows: np.ndarray, n: int, alpha: Alphabet, rho: float,
                nu: JointDistribution) -> list[float]:
    """`stability` of each row of a (batch, |alpha|^n) array of tables: the
    terms of every row, and of its norm for the realness check, are the
    products `inner_product` forms, summed by one `fsums` call."""
    w = _measure_weights(nu, alpha)
    weight = _weight_tensor(w, n)
    terms = rows * np.conj(_noise(rows, w, rho, n)) * weight
    sums = fsums(np.concatenate((terms.real, terms.imag)))
    for r, (re, im) in enumerate(zip(sums, sums[len(rows):])):
        if abs(im) > IDENTITY_TOL and abs(im) > IDENTITY_TOL * fsums(
                (rows[r:r + 1] * np.conj(rows[r:r + 1]) * weight).real)[0]:
            raise AssertionError(f"stability came out non-real: {complex(re, im)}")
    return sums[:len(rows)]


# ---------------------------------------------------------------------------
# Orthogonal degree decomposition

@dataclass
class EfronSteinDecomposition:
    """f = sum_d f^{=d}; W_d = ||f^{=d}||^2 is the squared mass at degree d."""

    n: int
    alphabet: Alphabet
    parts: tuple[TableFunction, ...]
    degree_weights: tuple[float, ...]
    norm_sq: float


def efron_stein(f: TableFunction, nu: JointDistribution) -> EfronSteinDecomposition:
    """Graded Efron-Stein transform, one coordinate at a time.

    At each coordinate every degree part splits into its nu-average along
    that coordinate (same degree) and the remainder (degree + 1), so after
    the last coordinate part d is f^{=d} = sum_{|S|=d} f^{=S}. The squared
    norms of the n+1 parts and of f are one `fsums` call over their terms;
    the guard is on those n+2 rows.
    """
    a = len(f.alphabet)
    _check_tensor_size((f.n + 2) * a ** f.n, "degree decomposition")
    w = _measure_weights(nu, f.alphabet)
    parts = table_axes(f.values, a, f.n, (1,))
    for axis in range(1, f.n + 1):
        avg = axis_map(parts, w[None], axis)
        graded = np.zeros((len(parts) + 1,) + parts.shape[1:], dtype=np.complex128)
        graded[:-1] += avg
        graded[1:] += parts - avg
        parts = graded
    tables = tuple(TableFunction(f.n, f.alphabet, part) for part in parts)
    weight, squares = _weight_tensor(w, f.n), np.empty((len(tables) + 1, len(f.values)))
    for row, values in zip(squares, [t.values for t in tables] + [f.values]):
        row[:] = (values * np.conj(values) * weight).real  # the terms of inner_product
    *weights, norm_sq = fsums(squares)
    return EfronSteinDecomposition(n=f.n, alphabet=f.alphabet, parts=tables,
                                   degree_weights=tuple(weights), norm_sq=norm_sq)


def restrict(f: TableFunction, assignment: Mapping[int, str]) -> TableFunction:
    """Fix the given coordinates; the result lives on the remaining ones in order."""
    a = len(f.alphabet)
    for i, sym in assignment.items():
        if not 0 <= i < f.n:
            raise ValidationError(f"restricted coordinate {i} out of range")
        if sym not in f.alphabet:
            raise ValidationError(f"symbol {sym!r} not in alphabet")
    idx = tuple(f.alphabet.index(assignment[i]) if i in assignment else slice(None)
                for i in range(f.n))
    return TableFunction(f.n - len(assignment), f.alphabet, table_axes(f.values, a, f.n)[idx])


# ---------------------------------------------------------------------------
# Character witness functions

def character_function(witness: EmbeddingWitness, coordinate: int, n: int,
                       alpha: Alphabet) -> CharacterProduct:
    """The unimodular product certifying non-decaying correlation.

    Every coordinate carries the same factor exp(2*pi*i*sigma(s)/m). For a
    Z-valued witness (modulus 0) the character is exp(2*pi*i*theta*sigma(s))
    with theta = 1/(1 + global sigma span), which keeps the phase arithmetic
    exact and the factor nonconstant wherever sigma is.
    """
    m = witness.modulus
    if m == 1 or m < 0:
        raise ValidationError("witness modulus must be 0 or >= 2")
    table = witness.sigma[coordinate]
    if set(alpha.symbols) != set(table):
        raise ValidationError("alphabet does not match the witness table")
    den = m or 1 + max(max(t.values()) for t in witness.sigma) - min(
        min(t.values()) for t in witness.sigma)  # theta = 1 / den for a Z-valued witness
    return CharacterProduct._from_numerators(alpha, [table[s] % den for s in alpha.symbols] * n,
                                             [len(alpha)] * n, den)


def load_function(data) -> TableFunction | ProductFunction:
    if not isinstance(data, dict):
        raise ParseError("function payload must be a JSON object")
    if ("values" in data) == ("factors" in data):
        raise ParseError("function payload needs exactly one of 'values' and 'factors'")
    return TableFunction.from_json(data) if "values" in data else ProductFunction.from_json(data)


def load_function_file(path: str) -> TableFunction | ProductFunction:
    return load_function(read_json(path))
