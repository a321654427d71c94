"""Seeded inputs and request lists for the three benchmark workloads.

This module never imports embedlens. It writes the input files the program
reads, lists the requests, and attaches to each request what a correct
answer must satisfy: a verdict known from group theory, a closed form, a
plain-numpy reference value, or a pinned result digest. The only inputs
built by embedlens itself are its named fixtures (see `Workload.fixtures`),
which are written during the timed set-up.

    python3 perfbench/workloads.py <workload> <seed> <workdir>

writes the inputs into <workdir> and pickles the Workload, references
included, to <workdir>/workload.pickle; run.py builds in such a child
process, so the references add nothing to the measured process's memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

import numpy as np

NAMES = ("lattice", "dense", "exact")
PICKLE = "workload.pickle"


@dataclass
class Request:
    """One call into the program.

    kind "cli": `args` is the argv of `embedlens.cli.main`.
    kind "oracle": `args` is (distribution file, max_modulus, space_guard).
    kind "characters": `args` is (distribution file, witness file or None,
    phase rows per coordinate or None, n); see run.py for the call.
    """

    rid: str
    kind: str
    args: tuple
    expect: dict


@dataclass
class Workload:
    name: str
    seed: int
    workdir: str
    fixtures: list[str] = field(default_factory=list)  # embedlens named fixtures
    requests: list[Request] = field(default_factory=list)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def request_list_hash(self) -> str:
        """sha256 over every request and the bytes of every input file.

        Call it after set-up: the named fixtures embedlens writes then are
        inputs too, so a change in what a fixture holds changes the hash.
        """
        h = hashlib.sha256()
        for r in self.requests:
            h.update(json.dumps([r.rid, r.kind, list(r.args)], default=str).encode())
        for name in sorted(os.listdir(self.workdir)):
            if name.endswith(".json"):
                h.update(name.encode())
                with open(self.path(name), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# File formats (the program's JSON schemas)

def _write(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)


def _dist_json(alphabets, atoms: dict) -> dict:
    return {"alphabets": [list(a) for a in alphabets],
            "atoms": [{"x": list(x), "p": [p.numerator, p.denominator]}
                      for x, p in atoms.items()]}


def _uniform(support) -> dict:
    p = Fraction(1, len(support))
    return {tuple(x): p for x in support}


def _table_json(n: int, alpha, values: np.ndarray) -> dict:
    return {"n": n, "alphabet": list(alpha),
            "values": [[float(v.real), float(v.imag)] for v in values]}


def _disk(rng: np.random.Generator, size: int) -> np.ndarray:
    """Complex values of modulus at most 1."""
    r = np.sqrt(rng.random(size))
    return r * np.exp(2j * np.pi * rng.random(size))


# ---------------------------------------------------------------------------
# Supports whose embeddability is known from group theory

def _parity(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]) % 2


def _group(n: int, alternating: bool) -> list[tuple[int, ...]]:
    return [p for p in permutations(range(n)) if not alternating or _parity(p) == 0]


def triple_product(elems, names=None):
    """Support {(x, y, z) : xyz = e}, one naming of the group per coordinate."""
    if names is None:
        names = [{g: f"g{i:03d}" for i, g in enumerate(elems)}] * 3
    support = []
    for x in elems:
        for y in elems:
            xy = tuple(x[y[i]] for i in range(len(y)))
            z = tuple(sorted(range(len(xy)), key=xy.__getitem__))  # inverse of xy
            support.append((names[0][x], names[1][y], names[2][z]))
    alphabets = [sorted(nm.values()) for nm in names]
    return alphabets, support


def _relabelled(elems, rng: random.Random):
    out = []
    for _ in range(3):
        order = list(range(len(elems)))
        rng.shuffle(order)
        out.append({g: f"g{order[i]:03d}" for i, g in enumerate(elems)})
    return out


# The detector reports the smallest SNF divisor above 1. For these groups the
# abelianization is cyclic, so that divisor is its order; A5 is perfect.
GROUP_MODULUS = {"A4": 3, "S4": 2, "A5": None}


def _zm_sum(m: int, k: int):
    alpha = [str(v) for v in range(m)]
    support = [tuple(str(v) for v in x) for x in product(range(m), repeat=k)
               if sum(x) % m == 0]
    return [alpha] * k, support


# Alphabet sizes of the random supports, k = 3..6, each with
# s = sum(|alphabet| - 1) <= 9 (the oracle's guarded domain). The sizes are
# fixed and only the support is drawn, because the sizes set a request's cost
# and a seed must not move the latency median.
RANDOM_SIZES = ((2, 3, 3), (2, 2, 3, 3), (1, 2, 2, 3, 3), (2, 2, 2, 2, 3, 2),
                (3, 3, 3), (3, 2, 3, 2), (2, 2, 2, 3, 3), (1, 2, 2, 2, 3, 3))


def _random_support(rng: random.Random, sizes):
    """Each cell of the product of the alphabets is in the support with probability 1/2."""
    alphabets = [[str(v) for v in range(a)] for a in sizes]
    cells = list(product(*alphabets))
    support = [x for x in cells if rng.random() < 0.5] or [rng.choice(cells)]
    return alphabets, support


# ---------------------------------------------------------------------------
# lattice: analyze and the exhaustive oracle on structured supports

def _lattice(w: Workload, rng: random.Random) -> None:
    def add_support(tag, alphabets, support, verdict=None, oracle_guard=False):
        """An analyze request, plus an oracle cross-check unless `oracle_guard`
        is False (else it is the oracle's space guard, None for unguarded)."""
        path = w.path(f"{tag}.json")
        _write(path, _dist_json(alphabets, _uniform(support)))
        expect = {"support": support} if verdict is None else {"support": support, "verdict": verdict}
        w.requests.append(Request(f"analyze/{tag}", "cli", ("analyze", path), expect))
        if oracle_guard is not False:
            w.requests.append(Request(f"oracle/{tag}", "oracle", (path, 12, oracle_guard),
                                      {"support": support, "agree_with": f"analyze/{tag}"}))

    groups = {"A4": _group(4, True), "S4": _group(4, False)}
    for g, elems in groups.items():
        alphabets, support = triple_product(elems)
        add_support(g, alphabets, support, {"modulus": GROUP_MODULUS[g]}, oracle_guard=None)
    # The A5 oracle (~8 s of Fraction elimination) and S5 (~10 s) are left
    # out: a run must repeat the list several times to filter the shared
    # machine's drift.
    alphabets, support = triple_product(_group(5, True))
    add_support("A5", alphabets, support, {"modulus": GROUP_MODULUS["A5"]})
    # Relabelled copies: the verdict is invariant, the cost is that of s=69 / s=33.
    # The S4 copies set latency_tail_ms; their cost depends on the labelling,
    # so there are enough of them that the tail falls inside the group.
    for g, copies in (("S4", 24), ("A4", 4)):
        for c in range(copies):
            names = _relabelled(groups[g], rng)
            alphabets, support = triple_product(groups[g], names)
            add_support(f"{g}-r{c}", alphabets, support, {"modulus": GROUP_MODULUS[g]})
    for c, k in enumerate((3, 3, 4, 4, 5, 3, 4, 5)):
        m = rng.randrange(2, 7 if k < 5 else 5)
        alphabets, support = _zm_sum(m, k)
        add_support(f"zsum{c}-m{m}-k{k}", alphabets, support, {"modulus": m})
    for c in range(40):
        alphabets, support = _random_support(rng, RANDOM_SIZES[c % len(RANDOM_SIZES)])
        add_support(f"rand{c}", alphabets, support, oracle_guard=10 ** 10)


# ---------------------------------------------------------------------------
# dense: float enumeration through the CLI, checked against plain numpy

BITS = ["0", "1"]
TRITS = ["0", "1", "2"]


def _named_models():
    """The program's named fixtures, as this benchmark understands them."""
    cube = list(product(BITS, repeat=3))
    return {
        "full-support": ([BITS] * 3, _uniform(cube)),
        "z3sum": ([TRITS] * 3, _uniform([x for x in product(TRITS, repeat=3)
                                         if sum(map(int, x)) % 3 == 0])),
        "punctured-cube": ([BITS] * 3, _uniform([x for x in cube if x != ("1", "1", "1")])),
    }


def _columns(alphabets, atoms):
    """Support as an (S, k) index array plus float masses."""
    idx = np.array([[alphabets[i].index(s) for i, s in enumerate(x)] for x in atoms])
    return idx, np.array([float(p) for p in atoms.values()])


def _flat_index(sym: np.ndarray, a: int) -> np.ndarray:
    """Lexicographic index of rows of symbol indices (last axis = position)."""
    out = np.zeros(sym.shape[:-1], dtype=np.int64)
    for j in range(sym.shape[-1]):
        out = out * a + sym[..., j]
    return out


def ref_correlation(alphabets, atoms, tables, n) -> complex:
    """E over the n-fold power of prod_i f_i, by vectorized enumeration."""
    idx, mass = _columns(alphabets, atoms)
    cols = np.indices((len(mass),) * n).reshape(n, -1).T  # every column tuple
    terms = np.prod(mass[cols], axis=1).astype(complex)
    for i, f in enumerate(tables):
        terms *= f[_flat_index(idx[cols, i], len(alphabets[i]))]
    return complex(terms.sum())


def ref_conditional_product(alphabets, atoms, f1, f2, n) -> np.ndarray:
    """E[f1(x1) f2(x2) | x3] on a 3-ary power, as a Kronecker power of the
    per-column conditional matrix (rows (y1, y2), columns y3)."""
    a1, a2, a3 = map(len, alphabets)
    m = np.zeros((a1, a2, a3))
    for x, p in atoms.items():
        m[tuple(alphabets[i].index(s) for i, s in enumerate(x))] += float(p)
    col = (m / m.sum(axis=(0, 1))).reshape(a1 * a2, a3)
    kron = np.ones((1, 1))
    for _ in range(n):
        kron = np.kron(kron, col)
    pairs = np.indices((a1 * a2,) * n).reshape(n, -1).T
    rows = f1[_flat_index(pairs // a2, a1)] * f2[_flat_index(pairs % a2, a2)]
    return rows @ kron


def ref_degree_weights(values: np.ndarray, q: int, n: int) -> np.ndarray:
    """W_d under the uniform measure, from the Fourier transform over Z_q^n."""
    coef = np.fft.fftn(values.reshape((q,) * n)).ravel() / q ** n
    degree = (np.indices((q,) * n).reshape(n, -1) != 0).sum(axis=0)
    return np.bincount(degree, weights=np.abs(coef) ** 2, minlength=n + 1)


def _dense(w: Workload, rng: random.Random) -> None:
    w.fixtures = ["full-support", "z3sum", "3lin"]
    models = _named_models()
    nprng = np.random.default_rng(rng.randrange(2 ** 32))

    def table(tag, n, alpha):
        vals = _disk(nprng, len(alpha) ** n)
        path = w.path(f"{tag}.json")
        _write(path, _table_json(n, alpha, vals))
        return path, vals

    def correlate(tag, dist_path, alphabets, atoms, n):
        fs = [table(f"{tag}-f{i}", n, alphabets[i]) for i in range(3)]
        ref = ref_correlation(alphabets, atoms, [f for _, f in fs], n)
        w.requests.append(Request(
            f"correlate/{tag}", "cli",
            ("correlate", dist_path, *[p for p, _ in fs], "--n", str(n)),
            {"value": ref}))
        return fs

    cube_alph, cube = models["full-support"]
    for n in range(1, 7):
        fs = correlate(f"cube-n{n}", w.path("full-support.json"), cube_alph, cube, n)
        ref = ref_conditional_product(cube_alph, cube, fs[0][1], fs[1][1], n)
        w.requests.append(Request(
            f"cond/cube-n{n}", "cli",
            ("reduce", w.path("full-support.json"), "--op", "conditional-product",
             "--functions", fs[0][0], fs[1][0]),
            {"table": ref}))
    z3_alph, z3 = models["z3sum"]
    for n in range(1, 6):
        correlate(f"z3sum-n{n}", w.path("z3sum.json"), z3_alph, z3, n)
    # Full-support distributions with random masses (the shape of criterion 10).
    for c, sizes in enumerate(((2, 3, 3), (3, 2, 3), (3, 3, 2), (3, 3, 2))):
        alphabets = [[str(v) for v in range(a)] for a in sizes]
        cells = list(product(*alphabets))
        raw = [rng.randrange(1, 10) for _ in cells]
        atoms = {x: Fraction(r, sum(raw)) for x, r in zip(cells, raw)}
        path = w.path(f"rfull{c}.json")
        _write(path, _dist_json(alphabets, atoms))
        for n in range(1, 4):
            correlate(f"rfull{c}-n{n}", path, alphabets, atoms, n)
    for n in range(1, 4):
        path, _ = table(f"ci-n{n}", n, BITS)
        w.requests.append(Request(
            f"identity/3lin-n{n}", "cli",
            ("reduce", w.path("3lin.json"), "--op", "coupling-identity",
             "--functions", path, "--n", str(n), "--p-star", "1/3"),
            {"gap_max": 1e-10}))
    for alpha, n_max, decompose in ((BITS, 12, (2, 4, 6, 10, 11)), (TRITS, 8, (3, 5, 7, 8))):
        q = len(alpha)
        for n in range(1, n_max + 1):
            path, vals = table(f"stab-q{q}-n{n}", n, alpha)
            rho = round(rng.uniform(0.2, 0.9), 3)
            weights = ref_degree_weights(vals, q, n)
            expect = {"stability": float(np.sum(weights * rho ** np.arange(n + 1))),
                      "rho": rho}
            argv = ("stability", path, "--rho", repr(rho))
            w.requests.append(Request(f"stability/q{q}-n{n}", "cli", argv, dict(expect)))
            if n in decompose:
                w.requests.append(Request(f"decompose/q{q}-n{n}", "cli",
                                          argv + ("--decompose",),
                                          dict(expect, weights=weights)))


# ---------------------------------------------------------------------------
# exact: characters, products, the dictatorship DP and the write path

def _parity_value(subsets, atoms) -> Fraction:
    """Closed form of a parity-character correlation: the product over columns
    of E[(-1)^(sum of the selected coordinates)]."""
    total = Fraction(1)
    for subset in subsets:
        total *= sum((p * (-1) ** sum(int(s) * b for s, b in zip(x, subset))
                      for x, p in atoms.items()), Fraction(0))
    return total


def _exact(w: Workload, rng: random.Random) -> None:
    w.fixtures = ["3lin", "z3sum", "punctured-cube", "3lin-instance", "a5-instance"]
    models = _named_models()
    fixed = random.Random(20250101)  # inputs whose answers are pinned by digest

    # Character folds: parities on the punctured cube, (1/7)^n for the full parity.
    _, punctured = models["punctured-cube"]
    pc = w.path("punctured-cube.json")
    for n in (1, 10, 100, 1000):
        value = _parity_value([(1, 1, 1)] * n, punctured)
        w.requests.append(Request(f"chars/parity-n{n}", "characters",
                                  (pc, None, ((1, 1, 1),) * n, n),
                                  {"exact": (value, Fraction(0))}))
    for n in (5, 10, 15, 20, 50, 200):  # a parity subset per column, drawn from the seed
        cols = tuple(tuple(rng.randrange(2) for _ in range(3)) for _ in range(n))
        w.requests.append(Request(f"chars/mixed-parity-n{n}", "characters", (pc, None, cols, n),
                                  {"exact": (_parity_value(cols, punctured), Fraction(0))}))
    # Witness characters: every coordinate carries exp(2 pi i sigma / m); value 1.
    s4 = _group(4, False)
    alphabets, support = triple_product(s4)
    _write(w.path("S4.json"), _dist_json(alphabets, _uniform(support)))
    sign = {f"g{i:03d}": _parity(g) for i, g in enumerate(s4)}
    witnesses = {
        "3lin": (2, [{b: int(b) for b in BITS}] * 3),
        "z3sum": (3, [{t: int(t) for t in TRITS}] * 3),
        "S4": (2, [sign] * 3),
    }
    for name, (m, sigma) in witnesses.items():
        wpath = w.path(f"{name}-witness.json")
        _write(wpath, {"modulus": m, "sigma": sigma})
        for n in (40,) if name == "S4" else (10, 20, 40):
            w.requests.append(Request(f"chars/witness-{name}-n{n}", "characters",
                                      (w.path(f"{name}.json"), wpath, None, n),
                                      {"exact": (Fraction(1), Fraction(0))}))
    # Product functions with --sweep-n (digest-pinned).
    for name, alpha in (("3lin", BITS), ("z3sum", TRITS)):
        paths = []
        for i in range(3):
            row = {s: [fixed.uniform(-1, 1), fixed.uniform(-1, 1)] for s in alpha}
            paths.append(w.path(f"prod-{name}-{i}.json"))
            _write(paths[-1], {"alphabet": alpha, "factors": [row]})
        w.requests.append(Request(f"sweep/{name}", "cli",
                                  ("correlate", w.path(f"{name}.json"), *paths, "--sweep-n", "60"),
                                  {"digest": True}))
    # Dictatorship test on the 3-LIN instance. Dictators and parities
    # (XOR of any coordinate set) always pass; their complements never do.
    inst = w.path("3lin-instance.json")

    def dicttest(tag, payload, expect, *extra):
        path = w.path(f"sym-{tag}.json")
        _write(path, payload)
        w.requests.append(Request(f"dicttest/{tag}", "cli", ("dicttest", inst, path, *extra),
                                  expect))

    for c, n in enumerate((3, 4, 5, 6, 7, 8, 9, 10)):
        dicttest(f"dictator{c}", {"n": n, "alphabet": BITS, "dictator": rng.randrange(n)},
                 {"acceptance": Fraction(1)})
    for const, acc in (("0", 1), ("1", 0)):
        dicttest(f"const{const}", {"n": 6, "alphabet": BITS, "constant": const},
                 {"acceptance": Fraction(acc)})
    for n in (6, 8, 10):
        # The seed picks the coordinates; their number is fixed, because the
        # DP's cost depends on it and a seed must not move the latency median.
        subset = rng.sample(range(n), n // 2)
        for flip in (0, 1):
            symbols = [str((sum(x[j] for j in subset) + flip) % 2)
                       for x in product(range(2), repeat=n)]
            dicttest(f"xor{flip}-n{n}", {"n": n, "alphabet": BITS, "symbols": symbols},
                     {"acceptance": Fraction(1 - flip)})
    for n in (8, 10):
        symbols = [fixed.choice(BITS) for _ in range(2 ** n)]
        dicttest(f"table-n{n}", {"n": n, "alphabet": BITS, "symbols": symbols},
                 {"digest": True})
    dicttest("mc-table-n8", {"n": 8, "alphabet": BITS,
                             "symbols": [fixed.choice(BITS) for _ in range(256)]},
             {"digest": True}, "--mode", "mc", "--samples", "4000", "--seed", "11")
    dicttest("mc-dictator", {"n": 12, "alphabet": BITS, "dictator": 5},
             {"digest": True}, "--mode", "mc", "--samples", "4000", "--seed", "12")
    # One A5 request per pass: validate_instance pays a full A5 verdict.
    a5_alpha = [f"g{i:02d}" for i in range(60)]
    path = w.path("sym-a5-dictator.json")
    _write(path, {"n": 1, "alphabet": a5_alpha, "dictator": 0})
    w.requests.append(Request("dicttest/a5-dictator", "cli",
                              ("dicttest", w.path("a5-instance.json"), path),
                              {"acceptance": Fraction(1)}))
    # Seeded Monte Carlo correlation (digest-pinned).
    for name, alpha in (("3lin", BITS), ("z3sum", TRITS)):
        paths = []
        for i in range(3):
            vals = np.array([complex(fixed.uniform(-1, 1), fixed.uniform(-1, 1)) / 2
                             for _ in range(len(alpha) ** 4)])
            paths.append(w.path(f"mc-{name}-{i}.json"))
            _write(paths[-1], _table_json(4, alpha, vals))
        w.requests.append(Request(f"mc/{name}", "cli",
                                  ("correlate", w.path(f"{name}.json"), *paths, "--n", "4",
                                   "--mode", "mc", "--samples", "4000", "--seed", "7"),
                                  {"digest": True}))
    # The write path: new distributions built from old ones (digest-pinned).
    a4 = _group(4, True)
    alphabets, support = triple_product(a4)
    _write(w.path("A4.json"), _dist_json(alphabets, _uniform(support)))
    for name in ("3lin", "z3sum", "A4", "S4"):
        w.requests.append(Request(f"paired/{name}", "cli",
                                  ("reduce", w.path(f"{name}.json"), "--op", "paired-copies"),
                                  {"digest": True}))
    for name, p_star in (("3lin", "1/3"), ("z3sum", "1/4"), ("A4", "1/5")):
        w.requests.append(Request(f"star/{name}", "cli",
                                  ("reduce", w.path(f"{name}.json"), "--op", "star-coupling",
                                   "--p-star", p_star),
                                  {"digest": True}))


BUILDERS = {"lattice": _lattice, "dense": _dense, "exact": _exact}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the seeded inputs of one workload into `workdir` and list its requests."""
    os.makedirs(workdir, exist_ok=True)
    w = Workload(name, seed, workdir)
    BUILDERS[name](w, random.Random(f"{name}:{seed}"))
    return w


def save(name: str, seed: int, workdir: str) -> None:
    """`build`, then pickle the Workload to `workdir`/PICKLE."""
    w = build(name, seed, workdir)
    with open(os.path.join(workdir, PICKLE), "wb") as fh:
        pickle.dump(w, fh)


if __name__ == "__main__":
    import workloads  # pickle the classes under the module's name, not __main__
    workloads.save(sys.argv[1], int(sys.argv[2]), sys.argv[3])
