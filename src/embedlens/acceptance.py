"""The acceptance suites: one callable per criterion, shared by pytest and
the CLI `verify` subcommand. Every check pins its tolerance here; failures
are collected into the result rather than raised."""

from __future__ import annotations

import cmath
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

import numpy as np

from . import fixtures
from .correlation import (
    best_product_correlation,
    exact_correlation,
    restricted_product_correlation,
)
from .dicttest import SymbolFunction, run_test_exact, run_test_mc
from .distributions import (
    JointDistribution,
    alphabet as make_alphabet,
    decompose_mixture,
    uniform_on,
)
from .embedding import brute_force_embedding, detect_embedding, pairwise_connected, verify_witness
from .functions import (
    CharacterProduct,
    ProductFunction,
    TableFunction,
    character_function,
    efron_stein,
    expectation,
    inner_product,
    stability,
    uniform_measure,
)
from .errors import ValidationError
from .intlattice import IntMatrix, smith_normal_form
from .reduction import (
    build_paired_copies,
    build_star_coupling,
    check_coupling_identity,
    conditional_product_given_first,
    conditional_product_given_last,
    diagonal_pairing,
    star_coupling_params,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number} ({self.name}): {self.details}"


def _result(number: int, name: str, failures: list[str], details: str) -> CriterionResult:
    """Passed with `details` when nothing failed, else failed with the first five failures."""
    return CriterionResult(number, name, not failures,
                           "; ".join(failures[:5]) if failures else details)


def _random_support(rng: random.Random):
    sizes = [rng.randrange(1, 4) for _ in range(3)]
    alphabets = [make_alphabet([str(x) for x in range(sz)]) for sz in sizes]
    cells = list(iter_product(*[a.symbols for a in alphabets]))
    support = [x for x in cells if rng.random() < 0.5] or [rng.choice(cells)]
    return alphabets, support


def _random_unit_disc(rng: random.Random) -> complex:
    return rng.random() ** 0.5 * cmath.exp(2j * cmath.pi * rng.random())


def _random_table(rng: random.Random, n: int, alpha) -> TableFunction:
    return TableFunction(n, alpha, [_random_unit_disc(rng) for _ in range(len(alpha) ** n)])


def _random_full_support_dist(rng: random.Random, alphabets) -> JointDistribution:
    cells = list(iter_product(*[a.symbols for a in alphabets]))
    masses = [Fraction(rng.randrange(1, 9)) for _ in cells]
    total = sum(masses)
    return JointDistribution(alphabets, {x: m / total for x, m in zip(cells, masses)})


# ---------------------------------------------------------------------------

def criterion_1_embedding_oracle() -> CriterionResult:
    """Detector verdicts match the exhaustive oracle on random and named supports."""
    trials, budget_s = 200, 120.0
    start = time.time()
    failures = []
    rng = random.Random(20250810)
    cases = []
    for _ in range(trials):
        alphabets, support = _random_support(rng)
        cases.append(("random", uniform_on(alphabets, support)))
    for name in ("3lin", "z3sum", "full-support", "single-atom", "disconnected-pair"):
        cases.append((name, fixtures.NAMED[name]()))
    for name, dist in cases:
        verdict = detect_embedding(dist)
        oracle = brute_force_embedding(dist.support, dist.alphabets, max_modulus=12)
        if verdict.admits != (oracle is not None):
            failures.append(f"{name}: detector={verdict.admits} oracle={oracle is not None}")
            continue
        if verdict.admits and not verify_witness(dist.support, verdict.witness):
            failures.append(f"{name}: detector witness failed verification")
        if oracle is not None and not verify_witness(dist.support, oracle):
            failures.append(f"{name}: oracle witness failed verification")
        if not verdict.admits and (verdict.rank != verdict.s
                                   or any(d != 1 for d in verdict.snf_divisors)):
            failures.append(f"{name}: negative verdict without full unit lattice")
    elapsed = time.time() - start
    if elapsed > budget_s:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget_s}s")
    return _result(1, "embedding-oracle", failures,
                   f"{len(cases)} supports, 100% agreement")


def criterion_2_snf_certificates() -> CriterionResult:
    count, budget_s = 500, 60.0
    start = time.time()
    rng = random.Random(987)
    failures = 0
    for _ in range(count):
        r = rng.randrange(1, 9)
        c = rng.randrange(1, 9)
        rows = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        a = IntMatrix.from_rows(rows)
        snf = smith_normal_form([{j: x for j, x in enumerate(row) if x} for row in rows], c)
        ok = (snf.U @ a @ snf.V).entries == snf.D.entries
        ok = ok and abs(snf.U.det()) == 1 and abs(snf.V.det()) == 1
        nz = [d for d in snf.divisors if d]
        ok = ok and len(nz) == snf.rank and list(snf.divisors[:snf.rank]) == nz
        ok = ok and all(b % a2 == 0 for a2, b in zip(nz, nz[1:]))
        ok = ok and all(d >= 0 for d in snf.divisors)
        if not ok:
            failures += 1
    elapsed = time.time() - start
    details = f"{count} matrices, {failures} failures"
    if elapsed > budget_s:
        details += f", runtime {elapsed:.1f}s exceeds {budget_s}s"
    return CriterionResult(2, "snf-certificates", failures == 0 and elapsed <= budget_s, details)


def criterion_3_necessity() -> CriterionResult:
    failures = []
    for name in ("3lin", "z3sum"):
        mu = fixtures.NAMED[name]()
        witness = detect_embedding(mu).witness
        for n in range(1, 11):
            chars = [character_function(witness, i, n, alpha=mu.alphabets[i])
                     for i in range(mu.k)]
            res = exact_correlation(mu, chars, n)
            if res.exact != (Fraction(1), Fraction(0)):
                failures.append(f"{name} n={n}: correlation {res.exact} != 1")
        for n in range(1, 5):
            for delta in (0.1, 0.5):
                for i in range(mu.k):
                    table = character_function(witness, i, n, alpha=mu.alphabets[i]).to_table()
                    nu = mu.marginal([i])
                    got = stability(table, 1 - delta, nu)
                    want = (1 - delta) ** n
                    if abs(got - want) > 1e-10:
                        failures.append(f"{name} stab n={n} d={delta} i={i}: {got} vs {want}")
    return _result(3, "necessity-construction", failures,
                   "correlation exactly 1 for n<=10; Stab_(1-d) = (1-d)^n to 1e-10")


def criterion_4_stability_diagonalization() -> CriterionResult:
    count = 100
    rng = random.Random(433)
    failures = []
    for t in range(count):
        size = rng.randrange(2, 4)
        alpha = make_alphabet([str(i) for i in range(size)])
        nu = _random_full_support_dist(rng, [alpha])
        n = rng.randrange(1, 5)
        f = _random_table(rng, n, alpha)
        dec = efron_stein(f, nu)
        for rho in (0.0, 0.3, 1.0):
            predicted = sum(rho ** d * w for d, w in enumerate(dec.degree_weights))
            got = stability(f, rho, nu)
            if abs(got - predicted) > 1e-10:
                failures.append(f"case {t} rho={rho}: |{got} - {predicted}|")
    return _result(4, "stability-diagonalization", failures,
                   f"{count} random functions, rho in {{0, 0.3, 1}}, tolerance 1e-10")


def criterion_5_coupling_identity() -> CriterionResult:
    count = 50
    mu = fixtures.three_lin()
    alpha = mu.min_atom_mass()
    p_star = Fraction(1, 3)
    rng = random.Random(555)
    failures = []
    # resolution run at n = 1: exactly one of the two candidate rates closes
    # the identity (each coordinate enters I with that probability)
    candidates = {"1-alpha": 1 - alpha, "1-alpha^2": 1 - alpha * alpha}
    max_gap = {k: 0.0 for k in candidates}
    for _ in range(5):
        f1 = _random_table(rng, 1, mu.alphabets[0])
        for key, rate in candidates.items():
            max_gap[key] = max(max_gap[key], check_coupling_identity(mu, f1, 1, rate, p_star).gap)
    exact_rates = [k for k, g in max_gap.items() if g <= 1e-10]
    if exact_rates != ["1-alpha^2"]:
        failures.append(f"rate resolution picked {exact_rates}, gaps {max_gap}")
    resolved = 1 - alpha * alpha
    for t in range(count):
        n = 1 if t % 2 == 0 else 2
        f1 = _random_table(rng, n, mu.alphabets[0])
        rep = check_coupling_identity(mu, f1, n, resolved, p_star)
        if rep.gap > 1e-10:
            failures.append(f"case {t} n={n}: gap {rep.gap:.2e}")
    return _result(5, "coupling-identity", failures,
                   f"rate resolved to 1-alpha^2 (gaps: {max_gap['1-alpha^2']:.1e} vs "
                   f"{max_gap['1-alpha']:.1e}); {count} random f1 with gap <= 1e-10")


def criterion_6_decay() -> CriterionResult:
    mu = fixtures.punctured_cube()
    half = Fraction(1, 2)
    failures = []
    values = []
    for n in range(1, 11):
        parities = [CharacterProduct(mu.alphabets[i], [[Fraction(0), half]] * n)
                    for i in range(3)]
        res = exact_correlation(mu, parities, n)
        want = (Fraction(1, 7) ** n, Fraction(0))
        if res.exact != want:
            failures.append(f"n={n}: {res.exact} != (1/7)^n")
        values.append(abs(res.value))
    if not all(b < a for a, b in zip(values, values[1:])):
        failures.append("correlation not strictly decaying")
    if values[-1] >= 1e-8:
        failures.append(f"n=10 value {values[-1]:.2e} not below 1e-8")
    return _result(6, "correlation-decay", failures,
                   f"(1/7)^n exactly for n<=10; final value {values[-1]:.2e} < 1e-8")


def criterion_7_dicttest_completeness() -> CriterionResult:
    mc_samples = 10_000
    failures = []
    for name, build in (("3lin", fixtures.three_lin_instance), ("a5", fixtures.a5_instance)):
        inst = build()
        alpha = inst.predicate.alphabet
        for n in range(1, 5):
            for j in range(n):
                acc = run_test_exact(inst, SymbolFunction.dictator(n, alpha, j), n)
                if acc != 1:
                    failures.append(f"{name} n={n} dictator {j}: exact {acc}")
        mc = run_test_mc(inst, SymbolFunction.dictator(4, alpha, 2), samples=mc_samples, seed=271828)
        if mc.accepted != mc_samples:
            failures.append(f"{name}: MC accepted {mc.accepted}/{mc_samples}")
    return _result(7, "dictatorship-completeness", failures,
                   f"all dictators exact 1 on both fixtures (n<=4); MC {mc_samples}/{mc_samples}")


def criterion_8_reduction_constructions() -> CriterionResult:
    failures = []
    mixture_fixtures = ("3lin", "z3sum", "full-support", "punctured-cube", "disconnected-pair")
    for name in mixture_fixtures:
        mu = fixtures.NAMED[name]()
        alpha = mu.min_atom_mass()
        mm = build_paired_copies(mu)
        rest = mu.marginal(list(range(mu.k - 1)))
        for y, p in rest.atoms.items():
            if mm.mass(y + y) < p * p:
                failures.append(f"{name}: diagonal dominance fails at {y}")
        diag = diagonal_pairing(rest)
        try:
            nu = decompose_mixture(mm, diag, alpha * alpha)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            failures.append(f"{name}: mixture split failed: {exc}")
            continue
        for x in mm.support:
            if alpha * alpha * diag.mass(x) + (1 - alpha * alpha) * nu.mass(x) != mm.mass(x):
                failures.append(f"{name}: mixture does not reassemble at {x}")
                break
    # alpha = 1 degenerate case: the pairing is exactly the diagonal
    single = fixtures.single_atom()
    if build_paired_copies(single) != diagonal_pairing(single.marginal([0, 1])):
        failures.append("single-atom: pairing is not the exact diagonal")
    p_star = Fraction(1, 3)
    for name in ("3lin", "z3sum", "full-support", "punctured-cube"):
        mu = fixtures.NAMED[name]()
        alpha = mu.min_atom_mass()
        params = star_coupling_params(mu, p_star)
        coupling = build_star_coupling(params)
        ok, split = pairwise_connected(coupling)
        if not ok:
            failures.append(f"{name}: coupling not pairwise-connected ({split})")
        floor = alpha * alpha * p_star * params.mu1.min_atom_mass()
        if coupling.min_atom_mass() < floor:
            failures.append(f"{name}: coupling min mass {coupling.min_atom_mass()} < {floor}")
    return _result(8, "reduction-constructions", failures,
                   "diagonal dominance, exact mixture split, "
                   "coupling pairwise-connected with mass floor")


def criterion_9_product_ascent() -> CriterionResult:
    count = 100
    rng = random.Random(9119)
    failures = []
    for t in range(count):
        size = rng.randrange(2, 4)
        alpha = make_alphabet([str(i) for i in range(size)])
        nu = _random_full_support_dist(rng, [alpha])
        n = rng.randrange(1, 4)
        f = _random_table(rng, n, alpha)
        res = best_product_correlation(nu, f, restarts=4, seed=rng.randrange(10 ** 9))
        if any(b < a - 1e-12 for a, b in zip(res.trace, res.trace[1:])):
            failures.append(f"case {t}: non-monotone sweep trace")
    for t in range(20):
        alpha = make_alphabet(["0", "1"])
        nu = uniform_measure(alpha)
        n = rng.randrange(1, 4)
        rows = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)] for _ in range(n)]
        p = ProductFunction(alpha, np.array(rows))
        res = best_product_correlation(nu, p.to_table(), seed=rng.randrange(10 ** 9))
        if res.value < 1 - 1e-6:
            failures.append(f"unimodular case {t}: recovered {res.value}")
    mu = fixtures.three_lin()
    witness = detect_embedding(mu).witness
    f = character_function(witness, 0, 4, alpha=mu.alphabets[0]).to_table()
    frac = restricted_product_correlation(f, mu.marginal([0]), delta=0.3, trials=20,
                                          seed=777, threshold=1 - 1e-9)
    if frac != 1.0:
        failures.append(f"character restrictions: probability {frac} != 1.0")
    return _result(9, "product-ascent", failures,
                   f"{count} monotone traces; unimodular products recovered to 1-1e-6; "
                   "character restrictions all above 1-1e-9")


def criterion_10_cauchy_schwarz() -> CriterionResult:
    count = 100
    rng = random.Random(1010)
    failures = []
    for t in range(count):
        sizes = [rng.randrange(2, 4) for _ in range(3)]
        alphabets = [make_alphabet([str(x) for x in range(sz)]) for sz in sizes]
        dist = _random_full_support_dist(rng, alphabets)
        n = rng.randrange(1, 4)
        fs = [_random_table(rng, n, alphabets[i]) for i in range(2)]
        fk = _random_table(rng, n, alphabets[2])
        eps = abs(exact_correlation(dist, fs + [fk], n).value)
        tf = conditional_product_given_last(dist, fs)
        norm_sq = inner_product(tf, tf, dist.marginal([2])).real
        if eps * eps > norm_sq + 1e-10:
            failures.append(f"case {t}: eps^2 {eps * eps:.3e} > norm^2 {norm_sq:.3e}")
        products = []
        for i in (1, 2):
            rows = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in alphabets[i].symbols]
                    for _ in range(n)]
            products.append(ProductFunction(alphabets[i], np.array(rows)))
        f1 = _random_table(rng, n, alphabets[0])
        lhs = abs(exact_correlation(dist, [f1, *products], n).value)
        tp = conditional_product_given_first(dist, products)
        rhs = abs(expectation(f1 * tp.to_table(), dist.marginal([0])))
        if abs(lhs - rhs) > 1e-10:
            failures.append(f"case {t}: transfer |{lhs} - {rhs}|")
    return _result(10, "cauchy-schwarz-chains", failures,
                   f"{count} random inputs, n <= 3: "
                   "eps^2 <= conditional-product norm^2 and exact transfer")


SUITES = {
    "embedding-oracle": (criterion_1_embedding_oracle,),
    "snf": (criterion_2_snf_certificates,),
    "necessity": (criterion_3_necessity,),
    "stability-diag": (criterion_4_stability_diagonalization,),
    "coupling-identity": (criterion_5_coupling_identity,),
    "decay": (criterion_6_decay,),
    "dicttest-completeness": (criterion_7_dicttest_completeness,),
    "reduction": (criterion_8_reduction_constructions,),
    "ascent": (criterion_9_product_ascent,),
    "cauchy-schwarz": (criterion_10_cauchy_schwarz,),
}
SUITES["all"] = tuple(fn for suite in SUITES.values() for fn in suite)


def run_suite(name: str) -> list[CriterionResult]:
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [fn() for fn in SUITES[name]]
