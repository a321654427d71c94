"""Named desk-scale fixtures (distributions and dictatorship-test instances) used
by the test suites, the CLI verify command and `embedlens fixture`."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from .distributions import Alphabet, JointDistribution, alphabet, uniform_on

BITS = alphabet(["0", "1"])
TRITS = alphabet(["0", "1", "2"])


def three_lin() -> JointDistribution:
    """Uniform distribution on even-parity triples of bits."""
    support = [(a, b, c) for a, b, c in product("01", repeat=3)
               if (int(a) + int(b) + int(c)) % 2 == 0]
    return uniform_on([BITS, BITS, BITS], support)


def z3_sum() -> JointDistribution:
    """Uniform on triples over {0,1,2} summing to 0 mod 3."""
    support = [(a, b, c) for a, b, c in product("012", repeat=3)
               if (int(a) + int(b) + int(c)) % 3 == 0]
    return uniform_on([TRITS, TRITS, TRITS], support)


def full_support_cube() -> JointDistribution:
    return uniform_on([BITS, BITS, BITS], list(product("01", repeat=3)))


def single_atom() -> JointDistribution:
    return JointDistribution([BITS, BITS, BITS], {("0", "0", "0"): Fraction(1)})


def disconnected_pair() -> JointDistribution:
    return uniform_on([BITS, BITS], [("0", "0"), ("1", "1")])


def punctured_cube() -> JointDistribution:
    """Uniform on the cube minus (1,1,1): connected, no embedding, alpha = 1/7."""
    support = [x for x in product("01", repeat=3) if x != ("1", "1", "1")]
    return uniform_on([BITS, BITS, BITS], support)


# ---------------------------------------------------------------------------
# A5: the smallest group with no nontrivial one-dimensional representation.

def _permutation_parity(p: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


def a5_elements() -> list[tuple[int, ...]]:
    return [p for p in permutations(range(5)) if _permutation_parity(p) == 0]


def a5_alphabet() -> tuple[Alphabet, dict[tuple[int, ...], str]]:
    elems = a5_elements()
    names = {p: f"g{idx:02d}" for idx, p in enumerate(elems)}
    return alphabet([names[p] for p in elems]), names


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(q)))


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def a5_triple_product() -> JointDistribution:
    """Uniform on {(x, y, z) : x * y * z = identity} over A5^3 (3600 atoms)."""
    alpha, names = a5_alphabet()
    elems = a5_elements()
    return uniform_on([alpha, alpha, alpha], [(names[x], names[y], names[_invert(_compose(x, y))])
                                              for x in elems for y in elems])


def three_lin_instance():
    """Single even-parity constraint; the local distribution is the 3-LIN one."""
    from .dicttest import Predicate, TestInstance

    pred = Predicate(BITS, 3, [0b000, 0b011, 0b101, 0b110])  # the even-parity words
    return TestInstance(pred, ((Fraction(1), three_lin()),))


def a5_instance():
    """Single triple-product constraint over A5, uniform local distribution."""
    from .dicttest import Predicate, TestInstance

    mu = a5_triple_product()
    a = len(mu.alphabets[0])
    accept = mu.codes @ [a * a, a, 1]  # exactly the support, in code order
    return TestInstance(Predicate(mu.alphabets[0], 3, accept), ((Fraction(1), mu),))


NAMED = {
    "3lin": three_lin,
    "z3sum": z3_sum,
    "full-support": full_support_cube,
    "single-atom": single_atom,
    "disconnected-pair": disconnected_pair,
    "punctured-cube": punctured_cube,
    "a5": a5_triple_product,
    "3lin-instance": three_lin_instance,
    "a5-instance": a5_instance,
}
