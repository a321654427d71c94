"""Reduction constructions on k-ary distributions, verified at small n.

The pipeline: pair the first k-1 coordinates through the last one
(build_paired_copies), split off the alpha^2 diagonal as an exact mixture,
and assemble the three-branch star coupling over (sigma, sigma, pairs +
star) whose three-wise correlation identity ties a product of restrictions
of f1 to a noise-stability average; check_coupling_identity verifies that
identity by exhaustive enumeration. The coupling reads only the (first,
first') marginal nu1 of the off-diagonal component, and taking a marginal
commutes with pairing and with the linear split, so nu1 is built from the
paired copies of the (first, last) marginal and the diagonal of mu1: two
coordinates, never the whole paired space. The conditional-expectation
companions (given the last row, given the first row) implement the
Cauchy-Schwarz and correlation-transfer steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import fsum, lcm, prod
from typing import Sequence

import numpy as np

from .correlation import _head_columns, _product_columns, exact_correlation
from .distributions import (
    Alphabet,
    JointDistribution,
    alphabet as make_alphabet,
    decompose_mixture,
)
from .errors import SizeGuardError, ValidationError
from .functions import (
    ProductFunction,
    TENSOR_GUARD,
    TableFunction,
    _measure_weights,
    column_map,
    column_product,
    stabilities,
)
from .intlattice import INT64_BOUND

STAR = "*"
PAIR_SEP = "|"
IDENTITY_N_GUARD = 3  # largest n the coupling identity check enumerates (2^n subsets)


def star_alphabet(base: Alphabet) -> Alphabet:
    """(Sigma x Sigma) extended by the distinguished resampling symbol."""
    if any(PAIR_SEP in s or s == STAR for s in base.symbols):
        raise ValidationError(f"base symbols may not contain {PAIR_SEP!r} or equal {STAR!r}")
    return make_alphabet([pair_symbol(a, b) for a in base.symbols for b in base.symbols] + [STAR])


def pair_symbol(a: str, b: str) -> str:
    return f"{a}{PAIR_SEP}{b}"


@dataclass
class StarCouplingParams:
    """Branch weights and constituents of the three-branch construction."""

    p_nu: Fraction     # probability of the correlated-pair branch
    p_star: Fraction   # within the diagonal branch, probability of the star leg
    nu1: JointDistribution  # pair distribution over Sigma x Sigma
    mu1: JointDistribution  # first-coordinate marginal over Sigma

    def __post_init__(self):
        self.p_nu = Fraction(self.p_nu)
        self.p_star = Fraction(self.p_star)
        if not (0 <= self.p_nu <= 1 and 0 <= self.p_star <= 1):
            raise ValidationError("branch probabilities must lie in [0, 1]")
        if self.nu1.k != 2 or self.mu1.k != 1:
            raise ValidationError("nu1 must be binary, mu1 univariate")
        sigma = self.mu1.alphabets[0]
        if self.nu1.alphabets != (sigma, sigma):
            raise ValidationError("nu1 must live on Sigma x Sigma for mu1's Sigma")


def diagonal_pairing(dist: JointDistribution) -> JointDistribution:
    """The measure on doubled coordinates carried by atoms (y, y)."""
    return JointDistribution._from_distinct(dist.alphabets * 2, np.hstack([dist.codes, dist.codes]),
                                            list(dist.weights), dist.denominator)


def build_paired_copies(dist: JointDistribution) -> JointDistribution:
    """Two conditionally independent copies of the first k-1 coordinates.

    Sample the last coordinate, then two independent draws of the rest
    conditioned on it. The diagonal carries at least the squared marginal
    mass, which is what makes the alpha^2 mixture split below possible. In
    weights, (y, y') given a last symbol of weight W has mass w_y w_y' / (D W).
    The pairs of every cell are built at once, in int64 while the output
    denominator fits, so every partial sum does.
    """
    if dist.k < 2:
        raise ValidationError("need at least two coordinates")
    last = dist.k - 1
    order = np.argsort(dist.codes[:, last], kind="stable")
    heads, cell = dist.codes[order, :last], dist.codes[order, last]
    starts = np.flatnonzero(np.concatenate([[True], cell[1:] != cell[:-1]]))
    sizes = np.diff(starts, append=len(cell))
    weights = np.array(dist.weights, dtype=object)[order]
    totals = np.add.reduceat(weights, starts).tolist()
    common = lcm(*totals)
    scales = np.array([common // t for t in totals], dtype=object)
    if dist.denominator * common < INT64_BOUND:
        weights, scales = weights.astype(np.int64), scales.astype(np.int64)
    # pair t of cell c is (y, y') = (starts[c] + t // sizes[c], starts[c] + t % sizes[c])
    c = np.repeat(np.arange(len(sizes)), sizes * sizes)
    t = np.arange(len(c)) - np.repeat(np.cumsum(sizes * sizes) - sizes * sizes, sizes * sizes)
    left, right = starts[c] + t // sizes[c], starts[c] + t % sizes[c]
    return JointDistribution._from_weights(dist.alphabets[:last] * 2,
                                           np.hstack([heads[left], heads[right]]),
                                           weights[left] * weights[right] * scales[c],
                                           dist.denominator * common)


def star_coupling_params(dist: JointDistribution, p_star: Fraction) -> StarCouplingParams:
    """Derive the branch weights and constituents from a k-ary distribution.

    p_nu is 1 - alpha^2 for alpha the minimum atom mass; nu1 is the
    (first, first') marginal of the off-diagonal mixture component, split
    from the paired copies of the (first, last) marginal: the marginal of
    a nonnegative residual, so the split never fails. The degenerate
    alpha = 1 case (single atom) has an empty pair branch.
    """
    alpha = dist.min_atom_mass()
    a2 = alpha * alpha
    # k = 0 has no first coordinate: build_paired_copies refuses it as it does k = 1
    paired = build_paired_copies(dist.marginal([0, dist.k - 1]) if dist.k else dist)
    mu1 = dist.marginal([0])
    if a2 == 1:
        return StarCouplingParams(Fraction(0), Fraction(p_star), paired, mu1)
    nu1 = decompose_mixture(paired, diagonal_pairing(mu1), a2)
    return StarCouplingParams(1 - a2, Fraction(p_star), nu1, mu1)


def build_star_coupling(params: StarCouplingParams) -> JointDistribution:
    """Exact three-branch mixture over Sigma x Sigma x Sigma^+.

    Pair symbol (a, b) is symbol a |Sigma| + b of Sigma^+ and the star is the
    last; weights are over both branch denominators, D(nu1) and D(mu1).
    """
    sigma = params.mu1.alphabets[0]
    star = star_alphabet(sigma)
    a = len(sigma)
    pn, pd = params.p_nu.numerator, params.p_nu.denominator
    sn, sd = params.p_star.numerator, params.p_star.denominator
    dn, dm = params.nu1.denominator, params.mu1.denominator
    x, y = params.nu1.codes.T
    z = params.mu1.codes[:, 0]
    codes = np.stack([np.concatenate([x, z, z]), np.concatenate([y, z, z]),
                      np.concatenate([x * a + y, z * (a + 1), np.full_like(z, a * a)])], axis=1)
    weights = ([pn * sd * dm * w for w in params.nu1.weights]
               + [(pd - pn) * (sd - sn) * dn * w for w in params.mu1.weights]
               + [(pd - pn) * sn * dn * w for w in params.mu1.weights])
    return JointDistribution._from_weights([sigma, sigma, star], codes, weights,
                                           pd * sd * dn * dm)


def build_g(f1: TableFunction, mu1: JointDistribution) -> TableFunction:
    """g(x+) = E over star fills of f1(x) * conj(f1(x')), exactly.

    The fill is shared between the two copies, so star positions contribute
    diagonal second moments rather than squared means: per coordinate, g is
    f1 (x) conj(f1) mapped through the identity on pair symbols plus a star
    row carrying mu1 on the diagonal pairs.
    """
    sigma = f1.alphabet
    star = star_alphabet(sigma)
    a = len(sigma)
    firsts, seconds = divmod(np.arange(a * a), a)  # pair symbol p is (p // a, p % a)
    h = column_product([f1, f1.conj()], [firsts, seconds], f1.n)
    fill = np.vstack([np.eye(a * a), np.diag(_measure_weights(mu1, sigma)).ravel()])
    return TableFunction(f1.n, star, np.ravel(column_map(h, fill, f1.n)))


@dataclass
class CouplingIdentityReport:
    lhs: complex
    rhs: float
    gap: float
    restriction_rate: Fraction
    p_star: Fraction


def check_coupling_identity(dist: JointDistribution, f1: TableFunction, n: int,
                            restriction_rate: Fraction, p_star: Fraction) -> CouplingIdentityReport:
    """Exhaustively compare the coupling's three-wise correlation with its stability form.

    lhs: E over the coupling's n-fold power of f1(x) conj(f1(x')) conj(g(x+)).
    rhs: E over restricted sets I (each coordinate kept with probability
    `restriction_rate`) and pairs (z, z') from nu1^I of the stability at
    1 - p_star of restrict(f1, z) * conj(restrict(f1, z')) under mu1.
    No sampling: subsets and assignments are enumerated exactly.
    """
    if n > IDENTITY_N_GUARD:
        raise SizeGuardError(f"identity check enumerates 2^n subsets; n <= {IDENTITY_N_GUARD}")
    if f1.n != n:
        raise ValidationError("f1 arity must equal n")
    rate = Fraction(restriction_rate)
    if not 0 <= rate <= 1:
        raise ValidationError(f"restriction rate must lie in [0, 1], got {rate}")
    params = star_coupling_params(dist, p_star)
    coupling = build_star_coupling(params)
    g = build_g(f1, params.mu1)
    lhs = exact_correlation(coupling, [f1, f1.conj(), g.conj()], n).value

    rho = float(1 - params.p_star)
    a, pairs = len(f1.alphabet), params.nu1.codes
    terms = []
    for mask in range(2 ** n):
        inside = [j for j in range(n) if mask >> j & 1]
        t, free = len(inside), n - len(inside)
        w_i = rate ** t * (1 - rate) ** free
        if w_i == 0:
            continue
        rows = np.moveaxis(f1.values.reshape((a,) * n), inside, range(t)).reshape(a ** t, -1)
        z = zp = np.zeros(1, dtype=np.int64)  # rows of z and z', assignments in product order
        for _ in inside:
            z, zp = np.add.outer(z * a, pairs[:, 0]).ravel(), np.add.outer(zp * a, pairs[:, 1]).ravel()
        block, stabs = max(1, TENSOR_GUARD // a ** free), []
        for s in range(0, len(z), block):
            h = rows[z[s:s + block]] * np.conj(rows[zp[s:s + block]])
            stabs += stabilities(h, free, f1.alphabet, rho, params.mu1)
        scale = w_i.denominator * params.nu1.denominator ** t
        terms += [w_i.numerator * prod(ws) / scale * stab for ws, stab in zip(
            iter_product(params.nu1.weights, repeat=t), stabs)]
    rhs = fsum(terms)
    return CouplingIdentityReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs),
                                  restriction_rate=rate, p_star=Fraction(p_star))


def conditional_product_given_last(dist: JointDistribution,
                                   functions: Sequence[TableFunction]) -> TableFunction:
    """Conditional expectation of the (k-1)-wise product given the last row.

    The product over the support's distinct first-(k-1) columns, mapped
    coordinate by coordinate through the conditional mass matrix; requires
    every last-coordinate symbol to carry positive marginal mass.
    """
    k = dist.k
    if len(functions) != k - 1:
        raise ValidationError(f"expected {k - 1} functions, got {len(functions)}")
    n = functions[0].n
    for i, f in enumerate(functions):
        if f.n != n or f.alphabet != dist.alphabets[i]:
            raise ValidationError(f"function {i} shape mismatch")
    sigma_k = dist.alphabets[k - 1]
    index_lists, joint = _head_columns(dist)
    cells = [sum(col) for col in zip(*joint)]  # last-symbol marginal weights
    for v, total in zip(sigma_k.symbols, cells):
        if total == 0:
            raise ValidationError(f"zero-probability conditioning cell: symbol {v!r}")
    cond = np.array([[w / total for w, total in zip(row, cells)] for row in joint])
    return TableFunction(n, sigma_k, column_map(column_product(functions, index_lists, n), cond.T, n))


def conditional_product_given_first(dist: JointDistribution,
                                    products: Sequence[ProductFunction]) -> ProductFunction:
    """Conditional expectation of a product of products given the first row.

    Factorizes coordinate by coordinate, so the result is again a product
    function; symbols with zero first-coordinate mass get factor 0.
    """
    k = dist.k
    if len(products) != k - 1:
        raise ValidationError(f"expected {k - 1} product functions, got {len(products)}")
    n = products[0].n
    for i, p in enumerate(products):
        if p.n != n or p.alphabet != dist.alphabets[i + 1]:
            raise ValidationError(f"product {i} shape mismatch")
    sigma1 = dist.alphabets[0]
    rows = np.zeros((n, len(sigma1)), dtype=np.complex128)
    for s in set(dist.codes[:, 0].tolist()):  # the symbols with positive mass
        rows[:, s] = _product_columns(dist.condition(0, sigma1.symbols[s]), products, n)
    return ProductFunction(sigma1, rows)
