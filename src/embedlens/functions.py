"""Complex-valued functions on powers of a finite alphabet.

Dense tables, coordinate-factored products, and exact-phase characters,
together with the inner product, the per-coordinate noise operator, noise
stability, the orthogonal degree decomposition, restrictions and low-degree
projections. Function values are complex doubles with compensated
summation; identities are expected to hold to 1e-10 and boundedness slack
is 1e-12.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import fsum
from typing import Callable, Mapping, Sequence

import numpy as np

from .distributions import Alphabet, JointDistribution, alphabet as make_alphabet
from .embedding import EmbeddingWitness
from .errors import ParseError, SizeGuardError, ValidationError

ONE_BOUND_SLACK = 1e-12
IDENTITY_TOL = 1e-10


class TableFunction:
    """Dense function on alphabet^n, values indexed lexicographically."""

    def __init__(self, n: int, alpha: Alphabet, values):
        if n < 0:
            raise ValidationError("arity must be nonnegative")
        vals = np.array(values, dtype=np.complex128).ravel()  # owning copy
        if len(vals) != len(alpha) ** n:
            raise ValidationError(
                f"expected {len(alpha) ** n} values for n={n}, |alphabet|={len(alpha)}; got {len(vals)}")
        _require_finite(vals)
        self.n = n
        self.alphabet = alpha
        self.values = vals
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, n: int, alpha: Alphabet, c: complex) -> "TableFunction":
        return cls(n, alpha, np.full(len(alpha) ** n, c, dtype=np.complex128))

    @classmethod
    def from_callable(cls, n: int, alpha: Alphabet, fn: Callable[[tuple[str, ...]], complex]) -> "TableFunction":
        vals = [fn(x) for x in _lex_tuples(alpha, n)]
        return cls(n, alpha, vals)

    def index(self, x: Sequence[str]) -> int:
        a = len(self.alphabet)
        idx = 0
        for sym in x:
            idx = idx * a + self.alphabet.index(sym)
        return idx

    def evaluate(self, x: Sequence[str]) -> complex:
        return complex(self.values[self.index(x)])

    def conj(self) -> "TableFunction":
        return TableFunction(self.n, self.alphabet, np.conj(self.values))

    def __mul__(self, other: "TableFunction") -> "TableFunction":
        self._check_same_shape(other)
        return TableFunction(self.n, self.alphabet, self.values * other.values)

    def __sub__(self, other: "TableFunction") -> "TableFunction":
        self._check_same_shape(other)
        return TableFunction(self.n, self.alphabet, self.values - other.values)

    def _check_same_shape(self, other):
        if self.n != other.n or self.alphabet != other.alphabet:
            raise ValidationError("function shape mismatch")

    def is_one_bounded(self, slack: float = ONE_BOUND_SLACK) -> bool:
        return bool(np.max(np.abs(self.values), initial=0.0) <= 1 + slack)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "alphabet": list(self.alphabet.symbols),
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TableFunction":
        try:
            alpha = make_alphabet(data["alphabet"])
            vals = [complex(re, im) for re, im in data["values"]]
            return cls(int(data["n"]), alpha, vals)
        except (KeyError, TypeError, ValueError) as exc:
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

    def evaluate(self, x: Sequence[str]) -> complex:
        out = 1 + 0j
        for j, sym in enumerate(x):
            out *= self.factors[j, self.alphabet.index(sym)]
        return out

    def conj(self) -> "ProductFunction":
        return ProductFunction(self.alphabet, np.conj(self.factors))

    def to_table(self) -> TableFunction:
        vals = np.ones(1, dtype=np.complex128)
        for j in range(self.n):
            vals = np.multiply.outer(vals, self.factors[j]).ravel()
        return TableFunction(self.n, self.alphabet, vals)

    def is_one_bounded(self, slack: float = ONE_BOUND_SLACK) -> bool:
        return bool(np.max(np.abs(self.factors), initial=0.0) <= 1 + slack)

    def is_unimodular(self, slack: float = ONE_BOUND_SLACK) -> bool:
        return bool(np.max(np.abs(np.abs(self.factors) - 1.0), initial=0.0) <= slack)

    def restrict(self, assignment: Mapping[int, str]) -> tuple[complex, "ProductFunction"]:
        """Scalar of the fixed factors and the product over the free coordinates."""
        scalar = 1 + 0j
        keep = []
        for j in range(self.n):
            if j in assignment:
                scalar *= self.factors[j, self.alphabet.index(assignment[j])]
            else:
                keep.append(self.factors[j])
        arr = np.array(keep, dtype=np.complex128).reshape(len(keep), len(self.alphabet))
        return scalar, ProductFunction(self.alphabet, arr)

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
            alpha = make_alphabet(data["alphabet"])
            rows = []
            for table in data["factors"]:
                rows.append([complex(*table[sym]) for sym in alpha.symbols])
            return cls(alpha, np.array(rows, dtype=np.complex128))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad product function payload: {exc}") from exc


class CharacterProduct:
    """Unimodular product function with exact rational phases.

    Factor j at symbol s is exp(2*pi*i*phase[j][s]) with phase a Fraction
    mod 1, so phase sums can be bucketed exactly and correlations of
    character tuples evaluate to exact rationals whenever the phases stay
    on the quarter-circle lattice.
    """

    def __init__(self, alpha: Alphabet, phases: Sequence[Sequence[Fraction]]):
        self.alphabet = alpha
        self.phases: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(p) % 1 for p in row) for row in phases)
        for row in self.phases:
            if len(row) != len(alpha):
                raise ValidationError("phase row length must match alphabet size")

    @property
    def n(self) -> int:
        return len(self.phases)

    def phase_at(self, j: int, sym: str) -> Fraction:
        return self.phases[j][self.alphabet.index(sym)]

    def evaluate(self, x: Sequence[str]) -> complex:
        total = sum((self.phase_at(j, sym) for j, sym in enumerate(x)), Fraction(0)) % 1
        return _unit(total)

    def conj(self) -> "CharacterProduct":
        return CharacterProduct(self.alphabet, [[-p for p in row] for row in self.phases])

    def to_product(self) -> ProductFunction:
        rows = [[_unit(p) for p in row] for row in self.phases]
        return ProductFunction(self.alphabet, np.array(rows, dtype=np.complex128))

    def to_table(self) -> TableFunction:
        return self.to_product().to_table()

    def is_one_bounded(self, slack: float = ONE_BOUND_SLACK) -> bool:
        return True


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValidationError("function values must be finite (no NaN or infinity)")


def _unit(phase: Fraction) -> complex:
    phase %= 1
    if phase == 0:
        return 1 + 0j
    if phase == Fraction(1, 2):
        return -1 + 0j
    if phase == Fraction(1, 4):
        return 1j
    if phase == Fraction(3, 4):
        return -1j
    return cmath.exp(2j * cmath.pi * float(phase))


def _lex_tuples(alpha: Alphabet, n: int):
    if n == 0:
        yield ()
        return
    for head in alpha.symbols:
        for tail in _lex_tuples(alpha, n - 1):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# Measures

def _measure_weights(nu: JointDistribution, alpha: Alphabet) -> np.ndarray:
    if nu.k != 1:
        raise ValidationError("measure must be univariate")
    if nu.alphabets[0] != alpha:
        raise ValidationError("measure alphabet does not match function alphabet")
    return np.array([float(nu.mass((s,))) for s in alpha.symbols])


def uniform_measure(alpha: Alphabet) -> JointDistribution:
    p = Fraction(1, len(alpha))
    return JointDistribution([alpha], {(s,): p for s in alpha.symbols})


def _weight_tensor(w: np.ndarray, n: int) -> np.ndarray:
    out = np.ones(1)
    for _ in range(n):
        out = np.multiply.outer(out, w).ravel()
    return out


# ---------------------------------------------------------------------------
# Inner products and the noise operator

def inner_product(f: TableFunction, g: TableFunction, nu: JointDistribution) -> complex:
    """<f, g> = E_{x ~ nu^n}[f(x) * conj(g(x))], compensated summation."""
    f._check_same_shape(g)
    w = _weight_tensor(_measure_weights(nu, f.alphabet), f.n)
    terms = f.values * np.conj(g.values) * w
    return complex(fsum(terms.real), fsum(terms.imag))


def expectation(f: TableFunction, nu: JointDistribution) -> complex:
    w = _weight_tensor(_measure_weights(nu, f.alphabet), f.n)
    terms = f.values * w
    return complex(fsum(terms.real), fsum(terms.imag))


def l2_norm(f: TableFunction, nu: JointDistribution) -> float:
    return abs(inner_product(f, f, nu)) ** 0.5


def noise_apply(f: TableFunction, rho: float, nu: JointDistribution,
                coords: Sequence[int] | None = None) -> TableFunction:
    """Per-coordinate noise: keep the coordinate w.p. rho, else resample from nu."""
    if not 0 <= rho <= 1:
        raise ValidationError("rho must lie in [0, 1]")
    w = _measure_weights(nu, f.alphabet)
    a = len(f.alphabet)
    arr = f.values.reshape((a,) * f.n) if f.n else f.values.copy()
    if f.n == 0:
        return TableFunction(0, f.alphabet, arr)
    for i in range(f.n) if coords is None else coords:
        mean = np.tensordot(arr, w, axes=([i], [0]))
        arr = rho * arr + (1 - rho) * np.expand_dims(mean, axis=i)
    return TableFunction(f.n, f.alphabet, arr.ravel())


def stability(f: TableFunction, rho: float, nu: JointDistribution) -> float:
    """Stab_rho(f) = <f, T_rho f>; real and nonnegative for any complex f."""
    val = inner_product(f, noise_apply(f, rho, nu), nu)
    if abs(val.imag) > IDENTITY_TOL:
        raise AssertionError(f"stability came out non-real: {val}")
    return val.real


# ---------------------------------------------------------------------------
# Orthogonal degree decomposition

@dataclass
class EfronSteinDecomposition:
    """f = sum_S f^{=S}; W_d collects the squared mass at degree d."""

    n: int
    alphabet: Alphabet
    components: dict[tuple[int, ...], TableFunction] | None
    component_norms: dict[tuple[int, ...], float]
    degree_weights: tuple[float, ...]
    norm_sq: float


def efron_stein(f: TableFunction, nu: JointDistribution, n_max: int = 10,
                materialize: bool = True,
                work_guard: int = 10 ** 8) -> EfronSteinDecomposition:
    """Inclusion-exclusion of conditional expectations, one subset at a time.

    Components are materialized only up to n_max coordinates; past that the
    decomposition silently degrades to degree weights alone. The guard is
    on total work (2^n subsets, each over alphabet^n points).
    """
    if (2 ** f.n) * (len(f.alphabet) ** f.n) > work_guard:
        raise SizeGuardError(
            f"degree decomposition needs {2 ** f.n} x {len(f.alphabet) ** f.n} work; "
            f"guard is {work_guard}")
    materialize = materialize and f.n <= n_max
    w = _measure_weights(nu, f.alphabet)
    a = len(f.alphabet)
    base = f.values.reshape((a,) * f.n) if f.n else f.values

    def avg(arr, i):
        return np.expand_dims(np.tensordot(arr, w, axes=([i], [0])), axis=i)

    comps: dict[tuple[int, ...], TableFunction] | None = {} if materialize else None
    norms: dict[tuple[int, ...], float] = {}
    weights = [0.0] * (f.n + 1)
    for d in range(f.n + 1):
        for subset in combinations(range(f.n), d):
            inside = set(subset)
            arr = base
            for i in range(f.n):
                if i in inside:
                    arr = arr - avg(arr, i)
                else:
                    arr = avg(arr, i)
            comp = TableFunction(f.n, f.alphabet, np.broadcast_to(arr, base.shape).ravel())
            nsq = inner_product(comp, comp, nu).real
            norms[subset] = nsq
            weights[d] += nsq
            if comps is not None:
                comps[subset] = comp
    return EfronSteinDecomposition(
        n=f.n,
        alphabet=f.alphabet,
        components=comps,
        component_norms=norms,
        degree_weights=tuple(weights),
        norm_sq=inner_product(f, f, nu).real,
    )


def low_degree_project(f: TableFunction, d: int, nu: JointDistribution,
                       n_max: int = 10) -> tuple[TableFunction, float]:
    """Projection onto degrees <= d and its L2 norm under nu^n."""
    if f.n > n_max:
        raise SizeGuardError(
            f"projection needs materialized components; n <= {n_max}")
    dec = efron_stein(f, nu, n_max=n_max, materialize=True)
    total = np.zeros(len(f.values), dtype=np.complex128)
    for subset, comp in dec.components.items():
        if len(subset) <= d:
            total = total + comp.values
    proj = TableFunction(f.n, f.alphabet, total)
    return proj, l2_norm(proj, nu)


def restrict(f: TableFunction, assignment: Mapping[int, str]) -> TableFunction:
    """Fix the given coordinates; the result lives on the remaining ones in order."""
    a = len(f.alphabet)
    for i, sym in assignment.items():
        if not 0 <= i < f.n:
            raise ValidationError(f"restricted coordinate {i} out of range")
        if sym not in f.alphabet:
            raise ValidationError(f"symbol {sym!r} not in alphabet")
    arr = f.values.reshape((a,) * f.n) if f.n else f.values
    idx = tuple(
        f.alphabet.index(assignment[i]) if i in assignment else slice(None)
        for i in range(f.n)
    )
    out = arr[idx] if f.n else arr
    return TableFunction(f.n - len(assignment), f.alphabet, np.asarray(out).ravel())


# ---------------------------------------------------------------------------
# Character witness functions

def character_function(witness: EmbeddingWitness, coordinate: int, n: int,
                       alpha: Alphabet | None = None,
                       theta: Fraction | None = None) -> CharacterProduct:
    """The unimodular product certifying non-decaying correlation.

    Every coordinate carries the same factor exp(2*pi*i*sigma(s)/m). For a
    Z-valued witness (modulus 0) the character is exp(2*pi*i*theta*sigma(s))
    with rational theta, default 1/(1 + global sigma span), which keeps the
    phase arithmetic exact and the factor nonconstant wherever sigma is.
    """
    m = witness.modulus
    if m == 1 or m < 0:
        raise ValidationError("witness modulus must be 0 or >= 2")
    table = witness.sigma[coordinate]
    if alpha is None:
        alpha = make_alphabet(sorted(table))
    if set(alpha.symbols) != set(table):
        raise ValidationError("alphabet does not match the witness table")
    if m == 0 and theta is None:
        lo = min(min(t.values()) for t in witness.sigma)
        hi = max(max(t.values()) for t in witness.sigma)
        theta = Fraction(1, 1 + (hi - lo))
    if m >= 2:
        row = [Fraction(table[s] % m, m) for s in alpha.symbols]
    else:
        row = [(Fraction(table[s]) * theta) % 1 for s in alpha.symbols]
    return CharacterProduct(alpha, [row] * n)


# ---------------------------------------------------------------------------
# Global inverse verification

@dataclass
class GlobalInverseReport:
    value: float
    correlation: complex
    degree: int
    degree_ok: bool
    l2_norm: float
    norm_ok: bool
    unimodular_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.degree_ok and self.norm_ok and self.unimodular_ok


def global_inverse_check(f: TableFunction, low: TableFunction, prod: ProductFunction,
                         nu: JointDistribution, degree_bound: int,
                         tol: float = IDENTITY_TOL) -> GlobalInverseReport:
    """|<f, L*P>| together with validity flags for the supplied witnesses."""
    if low.n != f.n or prod.n != f.n:
        raise ValidationError("witness arity mismatch")
    lp = low * prod.to_table()
    corr = inner_product(f, lp, nu)
    dec = efron_stein(low, nu)
    degree = max((d for d, wt in enumerate(dec.degree_weights) if wt > tol), default=0)
    norm = l2_norm(low, nu)
    return GlobalInverseReport(
        value=abs(corr),
        correlation=corr,
        degree=degree,
        degree_ok=degree <= degree_bound,
        l2_norm=norm,
        norm_ok=norm <= 1 + ONE_BOUND_SLACK,
        unimodular_ok=prod.is_unimodular(),
    )


def load_function(data: dict) -> TableFunction | ProductFunction:
    if "values" in data:
        return TableFunction.from_json(data)
    if "factors" in data:
        return ProductFunction.from_json(data)
    raise ParseError("function payload needs either 'values' or 'factors'")


def load_function_file(path: str) -> TableFunction | ProductFunction:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return load_function(data)
