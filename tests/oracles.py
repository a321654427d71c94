"""Term-by-term enumeration oracles for the dense routes and the dictatorship
test, `Fraction` oracles for the integer mass arithmetic of distributions,
reductions, the character fold and the reading of distribution payloads,
sample-at-a-time loops for the batched Monte Carlo estimates, the dense
Smith normal form, a Python-float loop for the fixed-order axis kernel,
the all-rows lattice route for the embedding verdict, the every-modulus,
every-value search for the brute-force embedding oracle, the exact
dictatorship-test DP without merged states, the exhaustive
soundness diagnostic `max_acceptance`, and small inputs to compare them on.

Each oracle walks every term of its sum in Python and shares no code with
the per-coordinate tensor path or decision-diagram DP it checks: functions
are read only through `evaluate`, the value of one word by definition (a
character's from its phase sum in Fractions mod 1, not through the
package's `_unit`), a symbol function only from its JSON
payload by `symbol_at`, a predicate only by `predicate_holds`, and the
degree oracle builds all 2^n subset components. The Monte Carlo loops draw
every column with `Random.randrange` through `ExactChooser.draw`, not with
the inline rejection loop they check, and `WordStream` is a generator
whose 32-bit outputs a test chooses, so that the words a draw keeps or
rejects can sit on the rejection boundary. The `Fraction` oracles take the raw
atom -> mass dict a distribution was built from, never its integer
weights, and the character fold oracle reads each integer phase as a
Fraction, as the payload oracle `distribution_json` reads masses. The
lattice oracle reduces every constraint row, built as tuples from the
codes by `tuple_constraint_matrix`, to the dense Hermite form
`hermite_normal_form`, certifies none and checks its witness on the
decoded support. The every-modulus search `every_modulus_embedding` walks
all m = 2..max_modulus and every value at every column by an explicit
stack, where the program searches prime moduli only and forces the value
at a column where a constraint closes, in the column order of
`min_scan_column_order`. The unmerged DP `unmerged_acceptance` is the
column DP as it ran before its states were merged over row swaps: it walks
the program's diagram, so it checks the merging only, where
`enumerate_acceptance` checks both. The connectivity oracles search decoded symbol
tuples, not the integer codes. The tuple-of-codes oracles are the integer
constructions as they ran on sorted code tuples and dicts, before a
distribution's codes were one array.
Keep them slow and obvious.
`max_acceptance` is no oracle: it maximizes the DP's exact acceptance over
every dense table.
"""

import cmath
import random
from fractions import Fraction
from itertools import combinations, permutations, product as iter_product, zip_longest
from math import fsum, gcd, lcm, prod
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from embedlens.dicttest import Predicate, SymbolFunction, TestInstance, _row_keys, run_test_exact
from embedlens.distributions import (
    ExactChooser,
    JointDistribution,
    ProductPowerSampler,
    _code,
    alphabet,
    integer_weights,
    uniform_on,
    univariate,
)
import embedlens.embedding
from embedlens.embedding import (
    DisconnectedPair,
    EmbeddingVerdict,
    EmbeddingWitness,
    _rational_kernel,
    _symbol_columns,
    _witness_from_vector,
    verify_witness,
)
from embedlens.errors import PAYLOAD_ERRORS, ParseError, SizeGuardError, ValidationError
from embedlens.functions import (
    CharacterProduct,
    ProductFunction,
    TableFunction,
    _measure_weights,
    _places,
    _weight_tensor,
    noise_apply,
    restrict,
)
from embedlens.intlattice import IntMatrix, normalize_vector, row_basis
from embedlens.reduction import PAIR_SEP, STAR, pair_symbol, star_alphabet, star_coupling_params


# exp(2 pi i q) at the quarters q of the circle, exactly
QUARTERS = {Fraction(0): 1 + 0j, Fraction(1, 4): 1j, Fraction(1, 2): -1 + 0j, Fraction(3, 4): -1j}


def phase(f: CharacterProduct, j: int, s: int) -> Fraction:
    """The phase of character f at column j and symbol index s."""
    return Fraction(int(f.numerators[j, s]), f.denominator)


def character_numerators(rows) -> tuple[list[list[int]], int]:
    """CharacterProduct's numerators and denominator by definition, one phase
    at a time: each phase is Fraction(p) % 1, D the lcm of their
    denominators, and the numerators over D divided by their gcd with D."""
    phases = [[Fraction(p) % 1 for p in row] for row in rows]
    den = lcm(*(p.denominator for row in phases for p in row))
    nums = [[p.numerator * (den // p.denominator) for p in row] for row in phases]
    g = gcd(den, *(v for row in nums for v in row))
    return [[v // g for v in row] for row in nums], den // g


def evaluate(f, word) -> complex:
    """f(word) by definition: a table's entry at the lexicographic index of
    the word, the product of a product function's factors in column order
    from 1, and exp(2 pi i q) for a character, q its phase sum mod 1."""
    symbols = f.alphabet.symbols
    if isinstance(f, TableFunction):
        return complex(f.values[lex_index(symbols, word)])
    if isinstance(f, ProductFunction):
        out = 1 + 0j
        for j, sym in enumerate(word):
            out *= complex(f.factors[j, symbols.index(sym)])
        return out
    q = sum((phase(f, j, symbols.index(sym)) for j, sym in enumerate(word)), Fraction(0)) % 1
    return QUARTERS[q] if q in QUARTERS else cmath.exp(2j * cmath.pi * float(q))


def enumerate_correlation(dist, functions, n) -> complex:
    """E over the n-fold product power of prod_i f_i, one support column tuple at a time."""
    massf = {x: float(m) for x, m in dist.atoms.items()}
    res, ims = [], []
    for cols in iter_product(dist.support, repeat=n):
        w = 1.0
        for c in cols:
            w *= massf[c]
        val = complex(w)
        for i, f in enumerate(functions):
            val *= evaluate(f, tuple(c[i] for c in cols))
        res.append(val.real)
        ims.append(val.imag)
    return complex(fsum(res), fsum(ims))


def enumerate_conditional_product_given_last(dist, functions) -> TableFunction:
    """E[prod_{i<k} f_i | last row], enumerating each conditional support."""
    last = dist.k - 1
    sigma_k = dist.alphabets[last]
    n = functions[0].n
    conds = {v: [(y, float(m)) for y, m in dist.condition(last, v).atoms.items()]
             for v in sigma_k.symbols}
    values = []
    for x in iter_product(sigma_k.symbols, repeat=n):
        res, ims = [], []
        for combo in iter_product(*[conds[v] for v in x]):
            w = 1.0
            for _, m in combo:
                w *= m
            val = complex(w)
            for i, f in enumerate(functions):
                val *= evaluate(f, tuple(col[0][i] for col in combo))
            res.append(val.real)
            ims.append(val.imag)
        values.append(complex(fsum(res), fsum(ims)))
    return TableFunction(n, sigma_k, values)


def enumerate_g(f1, mu1) -> TableFunction:
    """g(x+) = E over shared star fills of f1(x) conj(f1(x')), one word at a time."""
    star = star_alphabet(f1.alphabet)
    n = f1.n
    fills = [(x, float(m)) for (x,), m in mu1.atoms.items()]
    values = []
    for xplus in iter_product(star.symbols, repeat=n):
        stars = [j for j, sym in enumerate(xplus) if sym == STAR]
        base_x = [None] * n
        base_xp = [None] * n
        for j, sym in enumerate(xplus):
            if sym != STAR:
                base_x[j], base_xp[j] = sym.split(PAIR_SEP)
        res, ims = [], []
        for fill in iter_product(fills, repeat=len(stars)):
            w = 1.0
            for _, m in fill:
                w *= m
            for j, (v, _) in zip(stars, fill):
                base_x[j] = v
                base_xp[j] = v
            t = w * evaluate(f1, base_x) * evaluate(f1, base_xp).conjugate()
            res.append(t.real)
            ims.append(t.imag)
        values.append(complex(fsum(res), fsum(ims)))
    return TableFunction(n, star, values)


def per_term_coupling_rhs(dist, f1, n, rate, p_star) -> float:
    """The coupling identity's rhs, one `stability` call per inside set I and
    assignment (z, z') from nu1^I, each on restrict(f1, z) * conj(restrict(f1, z'))."""
    params = star_coupling_params(dist, p_star)
    rho = float(1 - params.p_star)
    pairs = list(zip(params.nu1.support, params.nu1.weights))
    terms = []
    for mask in range(2 ** n):
        inside = [j for j in range(n) if mask >> j & 1]
        w_i = rate ** len(inside) * (1 - rate) ** (n - len(inside))
        if w_i == 0:
            continue
        for assign in iter_product(pairs, repeat=len(inside)):
            w_z = Fraction(prod(w for _, w in assign), params.nu1.denominator ** len(inside))
            z = {j: a for j, ((a, _), _) in zip(inside, assign)}
            zp = {j: b for j, ((_, b), _) in zip(inside, assign)}
            h = restrict(f1, z) * restrict(f1, zp).conj()
            terms.append(float(w_i * w_z) * fsum_stability(h, rho, params.mu1))
    return fsum(terms)


def fsum_inner_product(f, g, nu) -> complex:
    """<f, g> with the terms `inner_product` forms, summed by math.fsum."""
    w = _weight_tensor(_measure_weights(nu, f.alphabet), f.n)
    terms = f.values * np.conj(g.values) * w
    return complex(fsum(terms.real.tolist()), fsum(terms.imag.tolist()))


def fsum_stability(f, rho, nu) -> float:
    """<f, T_rho f> with the realness check of `stability`, by `fsum_inner_product`."""
    val = fsum_inner_product(f, noise_apply(f, rho, nu), nu)
    if abs(val.imag) > 1e-10 and abs(val.imag) > 1e-10 * fsum_inner_product(f, f, nu).real:
        raise AssertionError(f"stability came out non-real: {val}")
    return val.real


def ordered_axis_map(arr, matrix, axis) -> np.ndarray:
    """`axis_map` one output entry at a time in Python floats: the terms
    m[i][j] * x[j] added over j in order from the first, real and imaginary
    parts apart."""
    x = np.moveaxis(np.asarray(arr, dtype=np.complex128), axis, -1)
    out = np.empty(x.shape[:-1] + (len(matrix),), dtype=np.complex128)
    for pos in np.ndindex(x.shape[:-1]):
        vec = x[pos].tolist()
        for i, row in enumerate(matrix.tolist()):
            re = [m * v.real for m, v in zip(row, vec)]
            im = [m * v.imag for m, v in zip(row, vec)]
            out[pos + (i,)] = complex(sum(re[1:], re[0]), sum(im[1:], im[0]))
    return np.moveaxis(out, -1, axis)


def subset_efron_stein(f, nu) -> dict[tuple[int, ...], TableFunction]:
    """Every component f^{=S}, by inclusion-exclusion of conditional expectations."""
    w = _measure_weights(nu, f.alphabet)
    a = len(f.alphabet)
    base = f.values.reshape((a,) * f.n)
    comps = {}
    for d in range(f.n + 1):
        for subset in combinations(range(f.n), d):
            arr = base
            for i in range(f.n):
                avg = np.expand_dims(np.tensordot(arr, w, axes=([i], [0])), axis=i)
                arr = arr - avg if i in subset else avg
            comps[subset] = TableFunction(f.n, f.alphabet,
                                          np.broadcast_to(arr, base.shape).ravel())
    return comps


def lex_index(symbols, word) -> int:
    """Position of `word` in the lexicographic order of symbols^len(word)."""
    idx = 0
    for s in word:
        idx = idx * len(symbols) + symbols.index(s)
    return idx


def symbol_at(spec: dict, word) -> str:
    """f(word) by definition, from the JSON payload of a symbol function: a
    dictator at c returns word[c], a constant its value, and a table the
    entry at the lexicographic index of the word."""
    if "dictator" in spec:
        return word[spec["dictator"]]
    if "constant" in spec:
        return spec["constant"]
    return spec["symbols"][lex_index(spec["alphabet"], word)]


def predicate_holds(pred, word) -> bool:
    """Whether `pred` accepts `word`: its lexicographic index is one of the
    accepted cells."""
    return lex_index(pred.alphabet.symbols, word) in set(pred.accept.tolist())


def predicate_from_callable(alpha, k, fn) -> Predicate:
    """The predicate that accepts the words w of alpha^k with fn(w) true."""
    return Predicate.from_truth(alpha, k, [int(bool(fn(w)))
                                           for w in iter_product(alpha.symbols, repeat=k)])


def truth_json(pred) -> dict:
    """The predicate payload in its table form: a 0/1 cell for every
    lexicographic index of alphabet^k, 1 when the index is accepted."""
    accepted = set(pred.accept.tolist())
    return {"alphabet": list(pred.alphabet.symbols), "k": pred.k,
            "truth": [int(i in accepted) for i in range(len(pred.alphabet) ** pred.k)]}


def enumerate_acceptance(inst, f, n) -> Fraction:
    """Exact acceptance of the boxed test: every n-tuple of support columns of
    every constraint, the symbol function with payload f at each of the k rows."""
    total = sum((w for w, _ in inst.constraints), Fraction(0))
    acc = Fraction(0)
    for w, mu in inst.constraints:
        for cols in iter_product(mu.support, repeat=n):
            mass = w / total
            for c in cols:
                mass *= mu.atoms[c]
            rows = [tuple(c[i] for c in cols) for i in range(inst.predicate.k)]
            if predicate_holds(inst.predicate, [symbol_at(f, r) for r in rows]):
                acc += mass
    return acc


def unmerged_acceptance(inst, f: SymbolFunction) -> tuple[Fraction, int]:
    """The exact acceptance by the column DP as it ran before states were
    merged under row swaps, and the transitions it spent: a state is the
    k-tuple of the rows' nodes, whatever the symmetries of mu and the
    predicate. It walks the program's diagram and keys states by its
    `_row_keys`, so it checks the merging, not the diagram; it has no guard."""
    total = sum((w for w, _ in inst.constraints), Fraction(0))
    acc = Fraction(0)
    spent = 0
    for w, mu in inst.constraints:
        p, spent = _unmerged_acceptance_one(mu, inst.predicate, f, spent)
        acc += (w / total) * p
    return acc, spent


def _unmerged_acceptance_one(mu, pred, f, spent):
    a, k = len(pred.alphabet), pred.k
    place = _places(a, k)
    if f.root < a:
        return Fraction(int(pred.holds(f.root * place.sum()))), spent
    cols = mu.codes
    mass = np.array(mu.weights, dtype=object)
    states = np.full((1, k), f.root, dtype=np.int64)
    weights = np.array([1], dtype=object)
    accept = 0
    for depth, layer in enumerate(f.layers):
        spent += len(states) * len(cols)
        nxt = layer[states[:, None, :], cols[None, :, :]].reshape(-1, k)
        w = np.multiply.outer(weights, mass).reshape(-1)
        done = (nxt < a).all(axis=1)
        accept = accept * mu.denominator + sum(w[done][pred.holds(nxt[done] @ place)].tolist())
        if done.all():
            return Fraction(accept, mu.denominator ** (depth + 1)), spent
        states, weights = _unmerged_merge(nxt[~done], w[~done])
    raise AssertionError("acceptance DP left unabsorbed states")


def _unmerged_merge(states, weights):
    key = _row_keys(states)
    order = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    return states[order[starts]], np.add.reduceat(weights[order], starts)


def sample_loop_correlation(dist, functions, n, samples, seed) -> complex:
    """The Monte Carlo mean one sample at a time: the rows of
    `ProductPowerSampler.sample`, each function's `evaluate`, Python products."""
    sampler = ProductPowerSampler(dist, n, seed)
    res, ims = [], []
    for _ in range(samples):
        val = 1 + 0j
        for f, row in zip(functions, sampler.sample()):
            val *= evaluate(f, row)
        res.append(val.real)
        ims.append(val.imag)
    return complex(fsum(res) / samples, fsum(ims) / samples)


def sample_loop_acceptance(inst, f, samples, seed) -> int:
    """Accepted samples of the boxed test one sample at a time: a constraint,
    then its n columns, each drawn by `ExactChooser.draw`, read by
    `symbol_at` on the payload f."""
    rng = random.Random(seed)
    picker = ExactChooser(integer_weights([w for w, _ in inst.constraints])[0])
    choosers = [ExactChooser(mu.weights) for _, mu in inst.constraints]
    accepted = 0
    for _ in range(samples):
        ci = picker.draw(rng)
        support = inst.constraints[ci][1].support
        cols = [support[choosers[ci].draw(rng)] for _ in range(f["n"])]
        images = [symbol_at(f, [col[i] for col in cols]) for i in range(inst.predicate.k)]
        accepted += predicate_holds(inst.predicate, images)
    return accepted


class WordStream(random.Random):
    """A generator whose outputs are `words` (32-bit), cycled, served by
    `getrandbits` as CPython serves its Mersenne Twister's: getrandbits(k)
    takes one output per 32 bits, least significant first, and keeps the
    top k mod 32 bits of the last one. `randrange` runs its own rejection
    loop on it. `served` counts the outputs taken."""

    def __init__(self, words):
        self.words, self.served = list(words), 0
        super().__init__(0)

    def getrandbits(self, k: int) -> int:
        value = 0
        for i in range(0, k, 32):
            word = self.words[self.served % len(self.words)]
            self.served += 1
            value |= (word >> max(0, i + 32 - k)) << i
        return value


def max_acceptance(inst: TestInstance, n: int,
                   table_guard: int = 10 ** 6) -> tuple[Fraction, SymbolFunction]:
    """Soundness diagnostic: exhaustive maximum of the exact acceptance over
    all dense tables Sigma^n -> Sigma. Tiny n only (the table count is
    |Sigma| ** (|Sigma| ** n))."""
    alpha = inst.predicate.alphabet
    cells = len(alpha) ** n
    count = len(alpha) ** cells
    if count > table_guard:
        raise SizeGuardError(f"{count} tables exceed the diagnostic guard")
    best: tuple[Fraction, SymbolFunction] | None = None
    for combo in iter_product(alpha.symbols, repeat=cells):
        f = SymbolFunction.table(n, alpha, combo)
        acc = run_test_exact(inst, f, n)
        if best is None or acc > best[0]:
            best = (acc, f)
    return best


# ---------------------------------------------------------------------------
# Fraction oracles for integer mass arithmetic

def assert_exact(dist, want: dict) -> None:
    """`dist` holds exactly the masses `want` (zero masses dropped) in the one
    representation: sorted codes decoding to the support, weights over the lcm
    of the reduced denominators."""
    want = {x: p for x, p in want.items() if p}
    assert dist.atoms == want
    assert dist.denominator == lcm(*(p.denominator for p in want.values()))
    assert sum(dist.weights) == dist.denominator
    codes = tuple_form_of(dist)[1]
    assert list(codes) == sorted(set(codes))
    assert dist.support == tuple(tuple(a.symbols[i] for a, i in zip(dist.alphabets, c))
                                 for c in codes)


def distribution_json(dist: JointDistribution) -> dict:
    """The file payload of `dist` as a dict, its "p" pairs read from the
    Fraction masses of `atoms`: the reference for the text that
    `JointDistribution.to_json` renders from the integer weights."""
    return {"alphabets": [list(a.symbols) for a in dist.alphabets],
            "atoms": [{"x": list(x), "p": [p.numerator, p.denominator]}
                      for x, p in dist.atoms.items()]}


def distribution_columns(dist: JointDistribution) -> dict:
    """The columnar form of `dist` without its alphabets, its weights read
    from the Fraction masses of `atoms` over the lcm of their denominators:
    the reference for `JointDistribution.columnar_json`."""
    den = lcm(*(p.denominator for p in dist.atoms.values()))
    symbols = [a.symbols for a in dist.alphabets]
    return {"columns": [[symbols[i].index(x[i]) for x in dist.atoms] for i in range(dist.k)],
            "w": [p.numerator * (den // p.denominator) for p in dist.atoms.values()], "den": den}


def instance_json(inst: TestInstance) -> dict:
    """The file payload of `inst` as a dict, the predicate in its table form
    by `truth_json`, each "mu" by `distribution_json`."""
    return {"predicate": truth_json(inst.predicate),
            "constraints": [{"w": [w.numerator, w.denominator],
                             "mu": distribution_json(mu)["atoms"]} for w, mu in inst.constraints]}


def fraction_from_json(data: dict) -> JointDistribution:
    """A distribution payload read with one Fraction per "p" pair, repeated
    atoms summed as Fractions."""
    def listed(value, name):
        if not isinstance(value, list):
            raise TypeError(f"{name} must be a list, not {type(value).__name__}")
        return value

    try:
        alphabets = [alphabet(listed(a, "alphabet"))
                     for a in listed(data["alphabets"], "alphabets")]
        atoms: dict = {}
        for entry in listed(data["atoms"], "atoms"):
            x = tuple(str(s) for s in listed(entry["x"], "atom x"))
            num, den = entry["p"]
            if den is None:
                raise TypeError("mass pair has a null denominator")
            if isinstance(num, bool) or isinstance(den, bool):
                raise TypeError("mass pair entries must be integers, not bools")
            p = Fraction(num, den)
            atoms[x] = atoms[x] + p if x in atoms else p
    except PAYLOAD_ERRORS as exc:
        raise ParseError(f"bad distribution payload: {exc}") from exc
    return JointDistribution(alphabets, atoms)


def fraction_marginal(atoms: dict, coords) -> dict:
    out = {}
    for x, p in atoms.items():
        y = tuple(x[c] for c in sorted(set(coords)))
        out[y] = out.get(y, Fraction(0)) + p
    return {y: p for y, p in out.items() if p}


def fraction_condition(atoms: dict, coord: int, value: str) -> dict | None:
    """The conditional masses, or None when `value` carries no mass."""
    out = {}
    for x, p in atoms.items():
        if x[coord] == value:
            y = x[:coord] + x[coord + 1:]
            out[y] = out.get(y, Fraction(0)) + p
    total = sum(out.values(), Fraction(0))
    return {y: p / total for y, p in out.items()} if total else None


def fraction_mixture(total: dict, base: dict, c: Fraction) -> dict | None:
    """nu with total = c base + (1 - c) nu, or None when total - c base < 0 somewhere."""
    out = dict(total)
    for x, p in base.items():
        out[x] = out.get(x, Fraction(0)) - c * p
        if out[x] < 0:
            return None
    return {x: p / (1 - c) for x, p in out.items()}


def fraction_paired_copies(atoms: dict, k: int) -> dict:
    """Draw the last coordinate, then two conditionally independent copies of the rest."""
    out = {}
    for v, w in fraction_marginal(atoms, [k - 1]).items():
        cond = fraction_condition(atoms, k - 1, v[0])
        for y, p in cond.items():
            for y2, p2 in cond.items():
                out[y + y2] = out.get(y + y2, Fraction(0)) + w * p * p2
    return out


def fraction_star_params(atoms: dict, k: int) -> tuple[Fraction, dict, dict]:
    """(p_nu, nu1, mu1) of the star coupling, in Fractions."""
    alpha = min(p for p in atoms.values() if p)
    a2 = alpha * alpha
    paired = fraction_paired_copies(atoms, k)
    mu1 = fraction_marginal(atoms, [0])
    if a2 == 1:
        return Fraction(0), fraction_marginal(paired, [0, k - 1]), mu1
    diag = {y + y: p for y, p in fraction_marginal(atoms, range(k - 1)).items()}
    nu = fraction_mixture(paired, diag, a2)
    return 1 - a2, fraction_marginal(nu, [0, k - 1]), mu1


def fraction_star_coupling(p_nu: Fraction, p_star: Fraction, nu1: dict, mu1: dict) -> dict:
    out = {}
    for (a, b), m in nu1.items():
        key = (a, b, pair_symbol(a, b))
        out[key] = out.get(key, Fraction(0)) + p_nu * m
    for (x,), m in mu1.items():
        key = (x, x, pair_symbol(x, x))
        out[key] = out.get(key, Fraction(0)) + (1 - p_nu) * (1 - p_star) * m
        out[(x, x, STAR)] = (1 - p_nu) * p_star * m
    return out


def fraction_characters(atoms: dict, functions, n) -> tuple[complex, tuple | None]:
    """The character fold in Fractions: each column buckets the atoms by their
    phase sum mod 1; the exact (re, im) exists while every bucket sits on a
    quarter of the circle, and then the value is its float."""
    quarters = {q: (int(u.real), int(u.imag)) for q, u in QUARTERS.items()}
    support = {x: m for x, m in atoms.items() if m}
    re, im, value, exact = Fraction(1), Fraction(0), 1 + 0j, True
    for j in range(n):
        buckets = {}
        for x, m in support.items():
            ph = sum((phase(f, j, f.alphabet.index(x[i])) for i, f in enumerate(functions)),
                     Fraction(0)) % 1
            buckets[ph] = buckets.get(ph, Fraction(0)) + m
        units = {ph: complex(*quarters[ph]) if ph in quarters
                 else cmath.exp(2j * cmath.pi * float(ph)) for ph in buckets}
        value *= complex(fsum(float(m) * units[ph].real for ph, m in buckets.items()),
                         fsum(float(m) * units[ph].imag for ph, m in buckets.items()))
        if exact and all(ph in quarters for ph in buckets):
            cre = sum((m * quarters[ph][0] for ph, m in buckets.items()), Fraction(0))
            cim = sum((m * quarters[ph][1] for ph, m in buckets.items()), Fraction(0))
            re, im = re * cre - im * cim, re * cim + im * cre
        else:
            exact = False
    return (complex(float(re), float(im)), (re, im)) if exact else (value, None)


# ---------------------------------------------------------------------------
# Tuple-of-codes oracles: the integer constructions as they ran when a
# distribution's codes were a sorted tuple of k-tuples, for comparison with
# the array ones. Each returns `tuple_form`, or None where the array
# version raises.

def tuple_form(alphabets, weights: dict, denominator: int) -> tuple:
    """(alphabets, codes, weights, D): the codes with positive weight as
    sorted tuples, and the weights and D divided by their gcd."""
    codes = sorted(c for c, w in weights.items() if w)
    kept = [weights[c] for c in codes]
    assert sum(kept) == denominator
    g = gcd(denominator, *kept)
    return tuple(alphabets), tuple(codes), tuple(w // g for w in kept), denominator // g


def tuple_form_of(dist: JointDistribution) -> tuple:
    return dist.alphabets, tuple(map(tuple, dist.codes.tolist())), dist.weights, dist.denominator


def tuple_from_json(data: dict) -> tuple:
    """A valid row-form payload read an entry at a time into code tuples,
    symbols read by str, and the "p" pairs of a repeated atom added as
    Fractions over the lcm of all the pairs' denominators."""
    alphabets = [alphabet(a) for a in data["alphabets"]]
    masses: dict = {}
    for entry in data["atoms"]:
        code = tuple(a.symbols.index(str(s)) for a, s in zip(alphabets, entry["x"]))
        masses[code] = masses.get(code, Fraction(0)) + Fraction(*entry["p"])
    den = lcm(*(p.denominator for p in masses.values()))
    return tuple_form(alphabets, {c: p.numerator * (den // p.denominator)
                                  for c, p in masses.items()}, den)


def tuple_marginal(dist, coords) -> tuple:
    coords = sorted(set(coords))
    out: dict = {}
    for x, w in zip(tuple_form_of(dist)[1], dist.weights):
        y = tuple([x[c] for c in coords])
        out[y] = out.get(y, 0) + w
    return tuple_form([dist.alphabets[c] for c in coords], out, dist.denominator)


def tuple_condition(dist, coord: int, value: str) -> tuple | None:
    v = dist.alphabets[coord].symbols.index(value)
    out = {x[:coord] + x[coord + 1:]: w for x, w in zip(tuple_form_of(dist)[1], dist.weights)
           if x[coord] == v}
    total = sum(out.values())
    rest = dist.alphabets[:coord] + dist.alphabets[coord + 1:]
    return tuple_form(rest, out, total) if total else None


def tuple_mixture(total, base, c: Fraction) -> tuple | None:
    dt, db = total.denominator, base.denominator
    scale, cb = db * c.denominator, dt * c.numerator
    out = {x: w * scale for x, w in zip(tuple_form_of(total)[1], total.weights)}
    for x, w in zip(tuple_form_of(base)[1], base.weights):
        out[x] = out.get(x, 0) - cb * w
        if out[x] < 0:
            return None
    return tuple_form(total.alphabets, out, dt * db * (c.denominator - c.numerator))


def tuple_paired_copies(dist) -> tuple:
    last = dist.k - 1
    cells: dict = {}
    for x, w in zip(tuple_form_of(dist)[1], dist.weights):
        cells.setdefault(x[last], []).append((x[:last], w))
    common = lcm(*(sum(w for _, w in cell) for cell in cells.values()))
    out: dict = {}
    for cell in cells.values():
        scale = common // sum(w for _, w in cell)
        for y, w in cell:
            for y2, w2 in cell:
                out[y + y2] = out.get(y + y2, 0) + w * w2 * scale
    return tuple_form(dist.alphabets[:last] * 2, out, dist.denominator * common)


def union_find_pairwise_connected(dist) -> tuple[bool, DisconnectedPair | None]:
    """`pairwise_connected` by unions one atom's code pair at a time."""
    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    columns = list(zip(*tuple_form_of(dist)[1]))
    present = [sorted(set(col)) for col in columns]
    for i in range(dist.k):
        a = len(dist.alphabets[i])
        for j in range(i + 1, dist.k):
            parent = list(range(a + len(dist.alphabets[j])))
            for u, v in zip(columns[i], columns[j]):
                parent[find(parent, u)] = find(parent, a + v)
            root = find(parent, present[i][0])
            side_i = [c for c in present[i] if find(parent, c) == root]
            side_j = [c for c in present[j] if find(parent, a + c) == root]
            if len(side_i) + len(side_j) < len(present[i]) + len(present[j]):
                syms_i, syms_j = dist.alphabets[i].symbols, dist.alphabets[j].symbols
                return False, DisconnectedPair(i, j, frozenset(syms_i[c] for c in side_i),
                                               frozenset(syms_j[c] for c in side_j))
    return True, None


# ---------------------------------------------------------------------------
# The dense Smith normal form

def entry(a: IntMatrix, i: int, j: int) -> int:
    return a.entries[i * a.cols + j]


def column(a: IntMatrix, j: int) -> list[int]:
    return list(a.entries[j::a.cols])


def densify(rows, cols: int) -> list[list[int]]:
    """Sparse rows {column: entry} as dense lists."""
    return [[r.get(j, 0) for j in range(cols)] for r in rows]


def dense_smith_normal_form(a: IntMatrix) -> SimpleNamespace:
    """`smith_normal_form` on dense lists: the same pivots and operations,
    each row operation walking every entry of its rows of the matrix and U,
    each column operation every row of the matrix and V, and the pivot
    search every entry of the trailing block. Returns U, V, D as IntMatrix
    values, the divisors and the rank."""
    nr, nc = a.rows, a.cols
    m = [list(a.row(i)) for i in range(nr)]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_sub(i, t, q):
        if q:
            mt, ut = m[t], u[t]
            m[i] = [x - q * y for x, y in zip(m[i], mt)]
            u[i] = [x - q * y for x, y in zip(u[i], ut)]

    def col_sub(j, t, q):
        if q:
            for r in m:
                r[j] -= q * r[t]
            for r in v:
                r[j] -= q * r[t]

    def swap_rows(i, t):
        if i != t:
            m[i], m[t] = m[t], m[i]
            u[i], u[t] = u[t], u[i]

    def swap_cols(j, t):
        if j != t:
            for r in m:
                r[j], r[t] = r[t], r[j]
            for r in v:
                r[j], r[t] = r[t], r[j]

    def negate_row(t):
        m[t] = [-x for x in m[t]]
        u[t] = [-x for x in u[t]]

    def min_pivot(t):
        # minimal |value| in the trailing block, first in (row, col) order
        best = pos = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(m[i][j])
                if x and (best is None or x < best):
                    best, pos = x, (i, j)
                    if x == 1:
                        return pos
        return pos

    rank = 0
    for t in range(min(nr, nc)):
        pos = min_pivot(t)
        if pos is None:
            break
        swap_rows(pos[0], t)
        swap_cols(pos[1], t)
        while True:
            while True:
                if m[t][t] < 0:
                    negate_row(t)
                dirty = False
                for i in range(t + 1, nr):
                    if m[i][t]:
                        row_sub(i, t, m[i][t] // m[t][t])
                        if m[i][t]:
                            swap_rows(i, t)
                            dirty = True
                if not dirty:
                    break
            while True:
                if m[t][t] < 0:
                    negate_row(t)
                dirty = False
                for j in range(t + 1, nc):
                    if m[t][j]:
                        col_sub(j, t, m[t][j] // m[t][t])
                        if m[t][j]:
                            swap_cols(j, t)
                            dirty = True
                if not dirty:
                    break
            if any(m[i][t] for i in range(t + 1, nr)):
                continue
            if m[t][t] == 1:
                break
            bad = next((i for i in range(t + 1, nr)
                        if any(m[i][j] % m[t][t] for j in range(t + 1, nc))), None)
            if bad is None:
                break
            row_sub(t, bad, -1)
        if m[t][t] < 0:
            negate_row(t)
        rank = t + 1

    return SimpleNamespace(U=IntMatrix.from_rows(u), V=IntMatrix.from_rows(v),
                           D=IntMatrix.from_rows(m),
                           divisors=tuple(m[t][t] for t in range(min(nr, nc))), rank=rank)


# ---------------------------------------------------------------------------
# The all-rows lattice route for the embedding verdict

def tuple_constraint_matrix(dist) -> SimpleNamespace:
    """The constraint matrix as `s`, `index_map` and `rows`, each row the
    ascending tuple of its 1-columns, built atom by atom from the code
    tuples; `rows` is None when s == 0."""
    base = dist.codes[0]
    index_map: list[tuple[int, str]] = []
    col_of: dict[tuple[int, int], int] = {}  # (coordinate, symbol index) -> column
    for i, a in enumerate(dist.alphabets):
        for c, sym in enumerate(a.symbols):
            if c != base[i]:
                col_of[i, c] = len(index_map)
                index_map.append((i, sym))
    rows = tuple(tuple([col_of[i, c] for i, c in enumerate(x) if c != base[i]])
                 for x in dist.codes) if index_map else None
    return SimpleNamespace(s=len(index_map), index_map=tuple(index_map), rows=rows)


def column_index(rows, cols: int) -> np.ndarray:
    """The (t, rows) array `span_hermite_form` reads for tuple rows:
    idx[t, i] is the t-th column of row i, or `cols` past its end."""
    idx = np.array(list(zip_longest(*rows, fillvalue=cols)), dtype=np.intp).reshape(-1, len(rows))
    if idx.size and (idx.min() < 0 or idx.max() > cols
                     or np.count_nonzero(idx == cols) != idx.size - sum(map(len, rows))):
        raise ValidationError(f"row column out of range for {cols} columns")
    return idx


def hermite_normal_form(basis) -> list[list[int]]:
    """Row Hermite normal form of a dense echelon basis, rows sorted by lead,
    leads positive: each entry above a lead reduced into [0, lead) by
    subtracting multiples of the rows below it, bottom row first, scanning
    every lead column of every row."""
    h = [list(r) for r in basis]
    leads = [r.index(next(filter(None, r))) for r in h]
    for r in range(len(h) - 2, -1, -1):
        row = h[r]
        for i, c in enumerate(leads[r + 1:], r + 1):
            if row[c]:
                q = row[c] // h[i][c]
                if q:
                    row[c:] = [x - q * y for x, y in zip(row[c:], h[i][c:])]
    return h


def all_rows_embedding(dist, hermite: bool = True) -> EmbeddingVerdict:
    """The verdict from `row_basis` over every constraint row, then the dense
    Smith normal form, read as `detect_embedding` reads it.

    With hermite=False this is the route `detect_embedding` took before it
    reduced only a selection of rows. Its witness depends on the echelon
    basis the rows reduce to, not only on their lattice. With hermite=True
    the basis is first put in Hermite normal form, which is unique for the
    lattice, so the witness is the one the selection route must give.
    """
    cm = tuple_constraint_matrix(dist)
    if cm.s == 0:
        return EmbeddingVerdict(False, None, (), 0, 0)

    def verified(vec, modulus):
        witness = _witness_from_vector(cm.index_map, dist.alphabets, vec, modulus)
        assert verify_witness(dist.support, witness), "extracted witness failed verification"
        return witness

    basis = row_basis([dict.fromkeys(cols, 1) for cols in cm.rows], cm.s)
    if not basis:
        return EmbeddingVerdict(True, verified([1] + [0] * (cm.s - 1), 0), (), 0, cm.s)
    if hermite:
        basis = hermite_normal_form(basis)
    snf = dense_smith_normal_form(IntMatrix.from_rows(basis))
    divisors = snf.divisors[:snf.rank]
    if snf.rank < cm.s:
        vec = normalize_vector(column(snf.V, snf.rank))
        return EmbeddingVerdict(True, verified(vec, 0), divisors, snf.rank, cm.s)
    j = next((idx for idx, d in enumerate(divisors) if d > 1), None)
    if j is not None:
        vec = column(snf.V, j)
        return EmbeddingVerdict(True, verified(vec, divisors[j]), divisors, snf.rank, cm.s)
    return EmbeddingVerdict(False, None, divisors, snf.rank, cm.s)


def min_scan_column_order(s: int, constraints: list[tuple[int, ...]]) -> list[int]:
    """The brute-force search's column order by a scan of every unplaced
    column at each step: the one closing the most open constraints, ties to
    the lowest index, where the program keeps the scores in a lazy heap."""
    open_cols = [set(cons) for cons in constraints]
    order: list[int] = []
    while len(order) < s:
        unplaced = [c for c in range(s) if c not in order]
        closing = [sum(1 for cons in open_cols if cons == {c}) for c in unplaced]
        best = unplaced[closing.index(max(closing))]
        order.append(best)
        for cons in open_cols:
            cons.discard(best)
    return order


def every_modulus_embedding(support, alphabets, max_modulus: int,
                            space_guard: int | None = 10 ** 10) -> EmbeddingWitness | None:
    """`brute_force_embedding` as it searched before it skipped composite
    moduli and forced values: every m = 2..max_modulus, every value at every
    column, each closing constraint checked, in the same column order (by
    `min_scan_column_order`) and with the same input checks, guards and
    rational fallback."""
    support = list(support)
    if not support:
        raise ValidationError("support must be non-empty")
    atoms, lookups = set(support), [a._index for a in alphabets]
    codes = {_code(lookups, x) for x in atoms}
    if len(codes) < len(atoms) or any(code[:1] == (None,) for code in codes):
        uniform_on(alphabets, atoms)  # raises, naming every bad atom
    codes = sorted(codes)
    s, index_map, table = _symbol_columns(alphabets, codes[0])
    if s == 0:
        return None
    first = [0]
    for a in alphabets[:-1]:
        first.append(first[-1] + len(a))
    rows = [tuple(table[first[i] + c] for i, c in enumerate(x) if table[first[i] + c] != s)
            for x in codes]
    constraints = list(dict.fromkeys(r for r in rows if r))
    order = min_scan_column_order(s, constraints)
    position = {col: pos for pos, col in enumerate(order)}
    checks = [[] for _ in range(s)]
    for cons in constraints:
        checks[max(position[c] for c in cons)].append(cons)
    for m in range(2, max_modulus + 1):
        if space_guard is not None and m ** s > space_guard:
            raise SizeGuardError(f"brute force space m**S = {m}**{s} exceeds guard")
        vals, nodes, stack = [0] * s, 0, [0]  # stack[pos]: the next value to try at pos
        while stack:
            pos = len(stack) - 1
            if pos == s:
                if any(vals):
                    witness = _witness_from_vector(index_map, alphabets, vals, m)
                    assert verify_witness(support, witness)
                    return witness
                stack.pop()
                continue
            v = stack[pos]
            if v == m:
                vals[order[pos]] = 0
                stack.pop()
                continue
            stack[pos] += 1
            nodes += 1
            if nodes > embedlens.embedding.ORACLE_NODE_BUDGET:
                raise SizeGuardError("brute force node budget exceeded")
            vals[order[pos]] = v
            if all(sum(vals[j] for j in cons) % m == 0 for cons in checks[pos]):
                stack.append(0)
    vec = _rational_kernel(rows, s)
    if vec is None:
        return None
    witness = _witness_from_vector(index_map, alphabets, vec, 0)
    assert verify_witness(support, witness)
    return witness


# ---------------------------------------------------------------------------
# Connectivity over decoded symbol tuples

def dfs_pairwise_connected(dist) -> tuple[bool, DisconnectedPair | None]:
    """`pairwise_connected` by a depth-first search over symbol pairs, from
    the lowest-index symbol of coordinate i that carries mass."""
    k = dist.k
    for i in range(k):
        for j in range(i + 1, k):
            adj_i: dict[str, set[str]] = {}
            adj_j: dict[str, set[str]] = {}
            for (a, b) in {(x[i], x[j]) for x in dist.support}:
                adj_i.setdefault(a, set()).add(b)
                adj_j.setdefault(b, set()).add(a)
            start = next(s for s in dist.alphabets[i].symbols if s in adj_i)
            seen_i, seen_j = {start}, set()
            stack = [("i", start)]
            while stack:
                side, sym = stack.pop()
                if side == "i":
                    for b in adj_i[sym]:
                        if b not in seen_j:
                            seen_j.add(b)
                            stack.append(("j", b))
                else:
                    for a in adj_j[sym]:
                        if a not in seen_i:
                            seen_i.add(a)
                            stack.append(("i", a))
            if len(seen_i) < len(adj_i) or len(seen_j) < len(adj_j):
                return False, DisconnectedPair(i, j, frozenset(seen_i), frozenset(seen_j))
    return True, None


def bucket_connected(dist) -> bool:
    """`connected` by a union-find keyed on slices of the symbol tuples."""
    support = dist.support
    parent = list(range(len(support)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    buckets: dict[tuple, int] = {}
    for idx, atom in enumerate(support):
        for c in range(dist.k):
            key = (c, atom[:c], atom[c + 1:])
            if key in buckets:
                parent[find(idx)] = find(buckets[key])
            else:
                buckets[key] = idx
    return len({find(i) for i in range(len(support))}) == 1


# ---------------------------------------------------------------------------
# Strategies

def _alphabet(size: int):
    return alphabet([str(s) for s in range(size)])


@st.composite
def distributions(draw, k=st.integers(1, 3), full_last=False):
    """A k-ary distribution on alphabets of size 1..3 with at most 8 atoms (plus
    one per last symbol with full_last, which gives every last symbol mass)."""
    k = draw(k)
    alphabets = [_alphabet(draw(st.integers(1, 3))) for _ in range(k)]
    cells = list(iter_product(*[a.symbols for a in alphabets]))
    support = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=8, unique=True))
    if full_last:
        for v in alphabets[-1].symbols:
            if all(x[-1] != v for x in support):
                support.append(draw(st.sampled_from([x for x in cells if x[-1] == v])))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    total = sum(weights)
    return JointDistribution(alphabets, {x: Fraction(w, total) for x, w in zip(support, weights)})


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)


@st.composite
def prime_masses(draw, k=st.integers(1, 3), alphabets=None):
    """(alphabets, atom -> mass) on at most 12 atoms: every mass but the last
    has its own prime in the denominator, some atoms carry an explicit zero,
    and some alphabet symbols carry no mass."""
    if alphabets is None:
        alphabets = [_alphabet(draw(st.integers(1, 3))) for _ in range(draw(k))]
    cells = list(iter_product(*[a.symbols for a in alphabets]))
    support = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=12, unique=True))
    primes = draw(st.permutations(PRIMES))[:len(support) - 1]
    # each mass is below 1 / |support|, so the last one is positive
    masses = [Fraction(draw(st.integers(1, p - 1)), p * len(support)) for p in primes]
    atoms = {x: Fraction(0) for x in draw(st.lists(st.sampled_from(cells), max_size=2))}
    atoms.update(zip(support, masses + [1 - sum(masses)]))
    return alphabets, atoms


# 1, 2^j, 2^j + 1, above 2^32 and above 2^63 (int64 no longer holds the weights)
DENOMINATORS = st.one_of(
    st.just(1),
    st.integers(1, 40).map(lambda j: 2 ** j),
    st.integers(1, 40).map(lambda j: 2 ** j + 1),
    st.integers(2 ** 32 + 1, 2 ** 40),
    st.integers(2 ** 63 + 1, 2 ** 100),
)


@st.composite
def masses_over(draw, alphabets, den, min_atoms=1):
    """atom -> mass on at most 8 atoms and at least `min_atoms` (or `den`),
    every mass over `den`; with two atoms or more one weight is 1, so `den`
    is the lcm of the reduced denominators."""
    cells = list(iter_product(*[a.symbols for a in alphabets]))
    size = draw(st.integers(min(min_atoms, den), min(8, len(cells), den)))
    support = draw(st.lists(st.sampled_from(cells), min_size=size, max_size=size, unique=True))
    cuts = draw(st.sets(st.integers(2, den - 1), min_size=size - 2, max_size=size - 2)) \
        if size > 2 else set()
    bounds = [0, den] if size == 1 else [0, 1, *sorted(cuts), den]
    return {x: Fraction(hi - lo, den) for x, lo, hi in zip(support, bounds, bounds[1:])}


@st.composite
def wide_instances(draw, alpha, k, weights=st.integers(1, 2 ** 70), dens=DENOMINATORS,
                   weight_dens=DENOMINATORS, min_atoms=1):
    """A random predicate with one to three constraints whose weights (a
    numerator from `weights` over a denominator from `weight_dens`) and local
    masses (over a denominator from `dens`, on at least `min_atoms` atoms
    where it allows) range over DENOMINATORS by default (a local mass may be
    rejected by the predicate: Monte Carlo counts acceptance regardless)."""
    cells = list(iter_product(alpha.symbols, repeat=k))
    truth = draw(st.lists(st.integers(0, 1), min_size=len(cells), max_size=len(cells)))
    local = []
    for _ in range(draw(st.integers(1, 3))):
        mu = JointDistribution([alpha] * k, draw(masses_over([alpha] * k, draw(dens), min_atoms)))
        local.append((Fraction(draw(weights), draw(weight_dens)), mu))
    return TestInstance(Predicate.from_truth(alpha, k, truth), tuple(local))


@st.composite
def measures(draw, alpha):
    """A univariate measure on alpha, non-uniform and possibly with zero-mass symbols."""
    weights = draw(st.lists(st.integers(0, 5), min_size=len(alpha), max_size=len(alpha))
                   .filter(any))
    total = sum(weights)
    return univariate(alpha, {s: Fraction(w, total) for s, w in zip(alpha.symbols, weights)})


# Phase denominators of characters: the quarter lattice and its neighbours,
# one below 2^62 whose lcm with 12 is past it, and two past 2^62 (Python-int
# phases; 2^62 also reduces onto quarters).
PHASE_DENOMINATORS = st.sampled_from([1, 2, 4, 8, 12, 2 ** 61 - 1, 2 ** 62, 3 ** 40])


@st.composite
def functions(draw, n, alpha, kinds=("table",)):
    """A function in the unit disk on alpha^n: a dense table, a product or a
    character. A character's denominator is drawn for each function, and its
    columns from a pool of at most three rows, so that columns repeat."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = len(alpha)

    def disk(*shape):
        return np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape))

    if kind == "table":
        return TableFunction(n, alpha, disk(a ** n))
    if kind == "product":
        return ProductFunction(alpha, disk(n, a))
    den = draw(PHASE_DENOMINATORS)
    row = st.lists(st.integers(0, den - 1).map(lambda v: Fraction(v, den)), min_size=a, max_size=a)
    pool = st.sampled_from(draw(st.lists(row, min_size=1, max_size=3)))
    return CharacterProduct(alpha, [draw(pool) for _ in range(n)])


@st.composite
def dicttest_instances(draw, alpha, k, constraints=st.integers(1, 2)):
    """A random predicate on alpha^k with one or two weighted constraints, each
    on at most 4 atoms with masses w_i / sum(w) (so denominators differ)."""
    cells = list(iter_product(alpha.symbols, repeat=k))
    truth = draw(st.lists(st.integers(0, 1), min_size=len(cells), max_size=len(cells)))
    local = []
    for _ in range(draw(constraints)):
        support = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4, unique=True))
        masses = draw(st.lists(st.integers(1, 7), min_size=len(support), max_size=len(support)))
        mu = JointDistribution([alpha] * k, {x: Fraction(m, sum(masses))
                                             for x, m in zip(support, masses)})
        local.append((Fraction(draw(st.integers(1, 5))), mu))
    return TestInstance(Predicate.from_truth(alpha, k, truth), tuple(local))


def set_partitions(items: list) -> list[list[list]]:
    """Every partition of `items` into blocks, each block in input order."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    return [[[first, *block], *(p[:i] + p[i + 1:])]
            for p in set_partitions(rest) for i, block in enumerate(p)] + \
        [[[first], *p] for p in set_partitions(rest)]


def block_orbit(word, blocks) -> set[tuple]:
    """Every word that permuting the positions inside each block makes of `word`."""
    orbit = {tuple(word)}
    for block in blocks:
        orbit = {tuple(p[block.index(i)] if i in block else x[i] for i in range(len(x)))
                 for x in orbit for p in permutations([x[i] for i in block])}
    return orbit


@st.composite
def row_symmetric_instances(draw, alpha, k, constraints=st.integers(1, 3)):
    """A predicate on alpha^k that accepts or rejects whole orbits of the
    permutations inside a random partition of its rows (all singletons leave
    it arbitrary), and one to three constraints, each with the predicate's
    partition or its own, at random met with the predicate's: a union of
    one to three of its orbits, each orbit's atoms of one mass, and at
    random one atom's mass raised, so that the support stays symmetric and
    the masses do not."""
    cells = list(iter_product(alpha.symbols, repeat=k))
    partitions = st.sampled_from(set_partitions(list(range(k))))
    pred_blocks = draw(partitions)
    orbits = list({min(block_orbit(x, pred_blocks)): block_orbit(x, pred_blocks)
                   for x in cells}.values())
    bits = draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
    accepted = set().union(*(orbit for orbit, bit in zip(orbits, bits) if bit))
    local = []
    for _ in range(draw(constraints)):
        blocks = draw(st.one_of(st.just(pred_blocks), partitions))
        if draw(st.booleans()):  # the meet with the predicate's partition
            blocks = [m for b in blocks for p in pred_blocks if (m := sorted(set(b) & set(p)))]
        masses = {}
        for word in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3)):
            m = draw(st.integers(1, 5))
            masses.update({x: m for x in block_orbit(word, blocks) if x not in masses})
        if draw(st.booleans()):
            masses[draw(st.sampled_from(sorted(masses)))] += 1
        total = sum(masses.values())
        mu = JointDistribution([alpha] * k, {x: Fraction(m, total) for x, m in masses.items()})
        local.append((Fraction(draw(st.integers(1, 5))), mu))
    return TestInstance(predicate_from_callable(alpha, k, accepted.__contains__), tuple(local))


@st.composite
def subset_sum_specs(draw, n, alpha):
    """The JSON payload of f(x) = h(the sum of x's symbol indices over a
    random subset of at least two coordinates, when n > 1), h random: xors,
    counts and thresholds, with at most n (|alpha| - 1) + 1 diagram nodes a
    layer however large n."""
    a = len(alpha)
    subset = draw(st.sets(st.integers(0, n - 1), min_size=min(n, 2))) if n else set()
    h = draw(st.lists(st.sampled_from(alpha.symbols), min_size=n * (a - 1) + 1,
                      max_size=n * (a - 1) + 1))
    return {"n": n, "alphabet": list(alpha.symbols),
            "symbols": [h[sum(x[j] for j in subset)] for x in iter_product(range(a), repeat=n)]}


@st.composite
def symbol_specs(draw, n, alpha):
    """The JSON payload of a symbol function on alpha^n: a dictator, a
    constant, or a dense table over a random subset of alpha (so symbols go
    unused, and a one-symbol subset makes a constant table) that is a junta
    or has constant sub-tables by some prefixes."""
    spec = {"n": n, "alphabet": list(alpha.symbols)}
    kind = draw(st.sampled_from(["table", "blocks", "junta", "dictator", "constant"]))
    if kind == "dictator" and n > 0:
        return {**spec, "dictator": draw(st.integers(0, n - 1))}
    if kind == "constant":
        return {**spec, "constant": draw(st.sampled_from(alpha.symbols))}
    a = len(alpha)
    palette = st.sampled_from(draw(st.lists(st.sampled_from(alpha.symbols), min_size=1,
                                            unique=True)))
    if kind == "junta":
        support = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else ())
        g = draw(st.lists(palette, min_size=a ** len(support), max_size=a ** len(support)))
        return {**spec, "symbols": [g[sum(x[j] * a ** i for i, j in enumerate(support))]
                                    for x in iter_product(range(a), repeat=n)]}
    symbols = draw(st.lists(palette, min_size=a ** n, max_size=a ** n))
    if kind == "blocks":
        for _ in range(draw(st.integers(1, 3))):
            size = a ** draw(st.integers(0, n))
            start = size * draw(st.integers(0, a ** n // size - 1))
            symbols[start:start + size] = [draw(palette)] * size
    return {**spec, "symbols": symbols}


def group_elements(n: int, alternating: bool) -> list[tuple[int, ...]]:
    """S_n, or A_n, as permutation tuples."""
    def parity(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2
    return [p for p in permutations(range(n)) if not alternating or parity(p) == 0]


def triple_product(elems, orders=None):
    """The support {(x, y, z) : xyz = e} of a permutation group; coordinate i
    names element g by its position in `orders[i]` (default: list order)."""
    orders = orders or [range(len(elems))] * 3
    names = [{elems[j]: f"g{i:03d}" for i, j in enumerate(o)} for o in orders]
    support = []
    for x in elems:
        for y in elems:
            xy = tuple(x[y[i]] for i in range(len(y)))
            z = tuple(sorted(range(len(xy)), key=xy.__getitem__))  # inverse of xy
            support.append((names[0][x], names[1][y], names[2][z]))
    return [alphabet(sorted(nm.values())) for nm in names], support


def smith_supports() -> dict[str, tuple[list, list]]:
    """(alphabets, support) of supports whose verdict the Smith normal form of
    H decides: the A4 and S4 triple products (a Z_3 and a Z_2 witness), one
    S4 triple product with each coordinate relabelled, the Z_4-sum with
    k = 4, and a rank-deficient support on three ternary coordinates whose
    witness is a kernel column of V (into Z)."""
    a4, s4 = group_elements(4, True), group_elements(4, False)
    rng = random.Random(1)
    orders = [rng.sample(range(len(s4)), len(s4)) for _ in range(3)]
    zsum = [tuple(map(str, x)) for x in iter_product(range(4), repeat=4) if sum(x) % 4 == 0]
    deficient = [tuple(x) for x in ("222", "112", "220", "021", "202", "001", "012", "010")]
    return {
        "a4-triple": triple_product(a4),
        "s4-triple": triple_product(s4),
        "s4-relabelled": triple_product(s4, orders),
        "z4-sum-k4": ([_alphabet(4)] * 4, zsum),
        "rank-deficient": ([_alphabet(3)] * 3, deficient),
    }


@st.composite
def lattice_supports(draw):
    """(alphabets, support) of three kinds: a random support (k 2..5,
    alphabets 1..4, any density); a random subset of {x : sum_i sigma_i(x_i)
    = 0 mod m} for random maps sigma_i into Z_m, m 2..7, which often has
    torsion (several divisors above 1 included); and a Z_m-sum (m 2..6)
    with every coordinate relabelled."""
    kind = draw(st.sampled_from(["random", "torsion", "zsum"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "zsum":
        m, k = draw(st.sampled_from([(2, 2), (2, 5), (3, 3), (4, 4), (5, 3), (6, 3), (6, 4)]))
        names = [rng.sample(range(m), m) for _ in range(k)]
        support = [tuple(str(names[i][v]) for i, v in enumerate(x))
                   for x in iter_product(range(m), repeat=k) if sum(x) % m == 0]
        return [_alphabet(m)] * k, support
    k = draw(st.integers(2, 5))
    sizes = [draw(st.integers(1, 4)) for _ in range(k)]
    cells = list(iter_product(*[range(a) for a in sizes]))
    if kind == "torsion":
        m = draw(st.integers(2, 7))
        sigma = [[0] + [rng.randrange(m) for _ in range(a - 1)] for a in sizes]
        cells = [x for x in cells if sum(sigma[i][c] for i, c in enumerate(x)) % m == 0]
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]))
    support = [x for x in cells if rng.random() < density] or [rng.choice(cells)]
    return ([_alphabet(a) for a in sizes],
            [tuple(str(c) for c in x) for x in support])
