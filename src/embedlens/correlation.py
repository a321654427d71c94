"""k-wise correlations over product powers, exact and Monte Carlo.

Three evaluation routes, chosen by input type: tuples of exact-phase
characters are folded column-by-column in integers, their integer phases
scaled once to one common denominator (the result is an exact complex
rational over D^n, D the distribution's denominator, whenever all phase
sums stay on the quarter circle); tuples of product functions use the
per-coordinate factorization; anything else goes through dense tables on
the per-coordinate tensor path of `functions`: the product of
f_1..f_{k-1} over the distinct support projections S' meets f_k mapped
through the S' x a_k joint mass matrix. Its guard is the one dense-tensor
guard of `functions`. The Monte Carlo estimate draws its columns in blocks
on the stream of `distributions.ProductPowerSampler` and evaluates them by
numpy indexing, with the same products as one sample at a time.

Also hosts the alternating-ascent search for the best-correlating
1-bounded product function and the random-restriction correlation
experiment built on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum, lcm, log, prod, sqrt
from typing import Sequence

import numpy as np

from .distributions import (MC_BLOCK, ExactChooser, JointDistribution, ProductPowerSampler,
                            check_draws, seeded_rng)
from .errors import ValidationError
from .functions import (
    CharacterProduct,
    ProductFunction,
    TableFunction,
    _complex_sum,
    _measure_weights,
    _unit,
    _weight_tensor,
    axis_map,
    column_map,
    column_product,
    complex_times,
    fsums,
    restrict,
    table_axes,
)

CONFIDENCE = 0.01  # fixed 99% confidence for every Monte Carlo half-width

AnyFunction = TableFunction | ProductFunction | CharacterProduct


def hoeffding_half_width(samples: int) -> float:
    return sqrt(log(2 / CONFIDENCE) / (2 * samples))


@dataclass
class CorrelationResult:
    value: complex
    mode: str  # "exact" | "monte-carlo"
    samples: int = 0
    half_width: float = 0.0
    # (re, im) as exact rationals; populated only on the character path when
    # every column's phase mass stays on multiples of 1/4.
    exact: tuple[Fraction, Fraction] | None = None

    def to_json(self) -> dict:
        out = {
            "value": [self.value.real, self.value.imag],
            "mode": self.mode,
            "samples": self.samples,
            "half_width": self.half_width,
        }
        if self.exact is not None:
            re, im = self.exact
            out["exact"] = [[re.numerator, re.denominator], [im.numerator, im.denominator]]
        return out


def _check_shapes(dist: JointDistribution, functions: Sequence[AnyFunction], n: int) -> None:
    if len(functions) != dist.k:
        raise ValidationError(f"expected {dist.k} functions, got {len(functions)}")
    for i, f in enumerate(functions):
        if f.n != n:
            raise ValidationError(f"function {i} has arity {f.n}, expected {n}")
        if f.alphabet != dist.alphabets[i]:
            raise ValidationError(f"function {i} alphabet mismatch")


def exact_correlation(dist: JointDistribution, functions: Sequence[AnyFunction],
                      n: int) -> CorrelationResult:
    """E over the n-fold product power of the product of the k functions."""
    _check_shapes(dist, functions, n)
    if all(isinstance(f, CharacterProduct) for f in functions):
        return _exact_characters(dist, functions, n)
    if all(isinstance(f, (ProductFunction, CharacterProduct)) for f in functions):
        prods = [f.to_product() if isinstance(f, CharacterProduct) else f for f in functions]
        return CorrelationResult(prod(_product_columns(dist, prods, n), start=1 + 0j), "exact")
    return _exact_tables(dist, functions, n)


def _exact_characters(dist, functions, n) -> CorrelationResult:
    """Fold in integers: phases over the lcm of the k functions' denominators,
    masses over the distribution's D, and the exact value (re + i im) / D^n.
    Each distinct column (its k phase rows) is bucketed once. While every
    column's phase sums sit on the quarters, the exact value is the product
    of the columns' Gaussian-integer steps raised to their counts, by
    squarings shared across the columns; otherwise the float value
    multiplies the columns in column order."""
    phase_den = lcm(*(f.denominator for f in functions))
    wide = phase_den >= 2 ** 62  # past it a scaled residue may not fit in int64
    keys = list(zip(*[map(tuple, ((f.numerators.astype(object) if wide else f.numerators)
                                  * (phase_den // f.denominator)).tolist()) for f in functions]))
    d = dist.denominator
    codes = dist.codes.T.tolist()
    columns = {}
    for rows, count in Counter(keys).items():
        buckets: dict[int, int] = {}
        for w, *phs in zip(dist.weights, *[map(row.__getitem__, col)
                                           for row, col in zip(rows, codes)]):
            ph = sum(phs) % phase_den
            buckets[ph] = buckets.get(ph, 0) + w
        units = [(w, _unit(ph, phase_den)) for ph, w in buckets.items()]
        on_quarters = all(4 * ph % phase_den == 0 for ph in buckets)  # units 1, i, -1, -i
        columns[rows] = (
            complex(fsum(w / d * u.real for w, u in units),
                    fsum(w / d * u.imag for w, u in units)),
            (sum(w * int(u.real) for w, u in units),
             sum(w * int(u.imag) for w, u in units)) if on_quarters else None, count)
    if not all(step for _, step, _ in columns.values()):
        return CorrelationResult(prod((columns[rows][0] for rows in keys), start=1 + 0j), "exact")
    re, im = 1, 0
    for bit in reversed(range(n.bit_length())):  # square, then multiply in the counts' bits
        re, im = re * re - im * im, 2 * re * im
        for _, (cre, cim), count in columns.values():
            if count >> bit & 1:
                re, im = re * cre - im * cim, re * cim + im * cre
    exact = (Fraction(re, d ** n), Fraction(im, d ** n))
    return CorrelationResult(complex(float(exact[0]), float(exact[1])), "exact", exact=exact)


def _product_columns(dist: JointDistribution, prods: Sequence[ProductFunction],
                    n: int) -> list[complex]:
    """For each column j < n, the sum over atoms x of mass(x) times
    prod_i prods[i].factors[j, x_i], real and imaginary parts by fsum."""
    masses = [w / dist.denominator for w in dist.weights]
    codes = dist.codes.T.tolist()
    columns = []
    for j in range(n):
        terms = []
        for m, *factors in zip(masses, *[list(f.factors[j][col]) for f, col in zip(prods, codes)]):
            t = m + 0j
            for factor in factors:  # numpy scalars, multiplied in coordinate order
                t *= factor
            terms.append(t)
        columns.append(complex(fsum(t.real for t in terms), fsum(t.imag for t in terms)))
    return columns


def _head_columns(dist: JointDistribution) -> tuple[list[list[int]], list[list[int]]]:
    """The distinct projections S' of the support onto the first k-1 coordinates.

    Returns, for each of those coordinates, the symbol index of every column
    in S' (in support order), and the S' x a_k matrix of joint mass weights.
    """
    heads, joint = [], []
    for row, w in zip(dist.codes.tolist(), dist.weights):  # in code order: equal heads adjoin
        if not heads or row[:-1] != heads[-1]:
            heads.append(row[:-1])
            joint.append([0] * len(dist.alphabets[-1]))
        joint[-1][row[-1]] = w
    return [list(col) for col in zip(*heads)], joint


def _exact_tables(dist, functions, n) -> CorrelationResult:
    tables = [f if isinstance(f, TableFunction) else f.to_table() for f in functions]
    index_lists, joint = _head_columns(dist)
    masses = np.array([[w / dist.denominator for w in row] for row in joint])
    heads = column_product(tables[:-1], index_lists, n)
    terms = np.ravel(heads * column_map(tables[-1].values, masses, n))
    return CorrelationResult(_complex_sum(terms), "exact")


def mc_correlation(dist: JointDistribution, functions: Sequence[AnyFunction],
                   n: int, samples: int, seed: int) -> CorrelationResult:
    """Empirical mean of the k-wise product over seeded i.i.d. column draws.

    Samples are drawn and evaluated in blocks of about MC_BLOCK columns, on
    the stream and with the products of one sample at a time, so the mean is
    the same to the bit.
    """
    _check_shapes(dist, functions, n)
    if samples <= 0:
        raise ValidationError("samples must be positive")
    check_draws(samples, n)
    sampler = ProductPowerSampler(dist, n, seed)
    codes = dist.codes
    values = np.empty((2, samples))  # real and imaginary parts, one row each
    block = max(1, MC_BLOCK // n)
    for start in range(0, samples, block):
        atoms = sampler.sample_indices(min(block, samples - start))
        re, im = np.ones(len(atoms)), np.zeros(len(atoms))
        for i, f in enumerate(functions):
            re, im = complex_times(re, im, *f.evaluate_many(codes[atoms, i]))
        values[:, start:start + len(atoms)] = re, im
    re, im = fsums(values)
    return CorrelationResult(complex(re / samples, im / samples), "monte-carlo", samples,
                             hoeffding_half_width(samples))


# ---------------------------------------------------------------------------
# Best-correlating product search (alternating coordinate ascent)

@dataclass
class AscentResult:
    value: float
    product: ProductFunction
    trace: list[float] = field(default_factory=list)  # objective after each sweep


ASCENT_MAX_SWEEPS = 200
ASCENT_TOL = 1e-9  # a sweep gaining less than this ends the ascent


def best_product_correlation(nu: JointDistribution, f: TableFunction,
                             restarts: int = 8, seed: int = 0) -> AscentResult:
    """Maximize |E_{nu^n}[f * prod_i P_i]| over 1-bounded product functions.

    With all factors but one fixed the objective is linear in the remaining
    factor, so the optimal update is the unit-modulus conjugate phase of the
    coefficient vector (coefficient 0 maps to 1). The objective never
    decreases; local optima are possible and accepted, so the best of
    `restarts` seeded unimodular initializations is returned (the first
    start is all-ones). Each start stops after ASCENT_MAX_SWEEPS sweeps or
    once a sweep gains less than ASCENT_TOL. The seed must be nonnegative.
    """
    rng = seeded_rng(seed)
    a = len(f.alphabet)
    n = f.n
    if n == 0:
        empty = ProductFunction(f.alphabet, np.zeros((0, a), dtype=np.complex128))
        v = abs(complex(f.values[0]))
        return AscentResult(v, empty, [v])
    weight = _weight_tensor(_measure_weights(nu, f.alphabet), n)
    g = table_axes(f.values * weight, a, n)
    best: AscentResult | None = None
    for r in range(max(1, restarts)):
        if r == 0:
            factors = np.ones((n, a), dtype=np.complex128)
        else:
            factors = np.exp(2j * np.pi * np.array(
                [[rng.random() for _ in range(a)] for _ in range(n)]))
        trace: list[float] = []
        prev = -1.0
        for _ in range(ASCENT_MAX_SWEEPS):
            for t in range(n):  # n >= 1, so obj is set
                c = _coefficient(g, factors, t)
                mags = np.abs(c)
                factors[t] = np.divide(np.conj(c), mags, out=np.ones(a, complex), where=mags > 0)
                obj = float(np.sum(mags))
            if obj < prev - 1e-12:
                raise AssertionError("ascent objective decreased")
            trace.append(obj)
            if obj - prev < ASCENT_TOL:
                break
            prev = obj
        cand = AscentResult(trace[-1], ProductFunction(f.alphabet, factors.copy()), trace)
        if best is None or cand.value > best.value:
            best = cand
    return best


def _coefficient(g: np.ndarray, factors: np.ndarray, t: int) -> np.ndarray:
    for i in [*range(t), *range(t + 1, g.ndim)]:
        g = axis_map(g, factors[i][None], i)
    return g.ravel()


def restricted_product_correlation(f: TableFunction, nu: JointDistribution,
                                   delta: float | Fraction, trials: int, seed: int,
                                   threshold: float) -> float:
    """Fraction of random restrictions whose best product correlation clears the threshold.

    Each coordinate enters the restricted set I independently with
    probability 1 - delta; the fixed values z are drawn from `nu`, which is
    also the measure of the remaining free coordinates.
    """
    if trials <= 0:
        raise ValidationError("trials must be positive")
    keep_prob = 1 - float(delta)
    rng = seeded_rng(seed)
    chooser = ExactChooser(nu.weights)
    hits = 0
    for _ in range(trials):
        assignment = {
            i: nu.support[chooser.draw(rng)][0]
            for i in range(f.n)
            if rng.random() < keep_prob
        }
        g = restrict(f, assignment)
        res = best_product_correlation(nu, g, seed=rng.getrandbits(32))
        if res.value >= threshold:
            hits += 1
    return hits / trials
