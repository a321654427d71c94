"""Answer checks for benchmark requests.

Nothing here imports embedlens or reuses its code: witnesses are re-checked
by a few-line sum check, closed forms are compared exactly, dense floats
against the plain-numpy references built in workloads.py, and exact-rational
or seeded Monte Carlo answers against result digests recorded at the commit
that introduced the benchmark (golden.json).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

# Float answers must agree with the references to 1e-9 relative. The absolute
# floor sits far above rounding: every reference sums terms whose absolute
# values add up to at most 1.
RTOL, ATOL = 1e-9, 1e-12


def canonical_digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def sum_check(support, witness: dict) -> bool:
    """The witness maps every support atom to 0 and is nonconstant somewhere."""
    m, sigma = witness["modulus"], witness["sigma"]
    if m == 1 or m < 0:
        return False
    for x in support:
        total = sum(sigma[i][s] for i, s in enumerate(x))
        if (total % m if m else total) != 0:
            return False
    return any(len({v % m if m else v for v in t.values()}) > 1 for t in sigma)


def _pair(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _close(got, want) -> bool:
    want = np.asarray(want)
    return bool(np.all(np.abs(np.asarray(got) - want) <= ATOL + RTOL * np.abs(want)))  # NaN fails


def library_result(kind: str, value) -> dict:
    """JSON form of a direct library call's return value."""
    if kind == "oracle":
        return {"witness": None if value is None else
                {"modulus": value.modulus, "sigma": [dict(t) for t in value.sigma]}}
    out = {"value": [value.value.real, value.value.imag]}
    if value.exact is not None:
        out["exact"] = [_pair(value.exact[0]), _pair(value.exact[1])]
    return out


class Checker:
    """Judges one answer at a time; remembers analyze verdicts for oracle cross-checks.

    `golden` maps request ids to pinned result digests.
    """

    def __init__(self, golden: dict):
        self.golden = golden
        self.verdicts: dict[str, bool] = {}

    def check(self, req, result: dict) -> str | None:
        """None if `result` is right for `req`, else the reason it is wrong."""
        if "admits_embedding" in result:
            self.verdicts[req.rid] = result["admits_embedding"]
        for key, want in req.expect.items():
            reason = getattr(self, "_" + key)(req, result, want)
            if reason:
                return f"{key}: {reason}"
        return None

    # -- lattice
    def _verdict(self, req, result, want):
        got = (result["admits_embedding"], result["modulus"])
        if got != (want["modulus"] is not None, want["modulus"]):
            return f"got admits/modulus {got}, group theory says {want['modulus']}"

    def _support(self, req, result, support):
        witness = result["witness"]
        if witness is not None and not sum_check(support, witness):
            return "witness fails the sum check"
        if req.kind == "cli" and result["admits_embedding"] != (witness is not None):
            return "verdict and witness disagree"

    def _agree_with(self, req, result, rid):
        if rid not in self.verdicts:
            return f"no verdict from {rid}"
        if self.verdicts[rid] != (result["witness"] is not None):
            return f"oracle found {result['witness'] is not None}, detector said {self.verdicts[rid]}"

    # -- closed forms
    def _exact(self, req, result, want):
        if result.get("exact") != [_pair(want[0]), _pair(want[1])]:
            return "exact value differs from the closed form"

    def _acceptance(self, req, result, want):
        if result["acceptance"] != _pair(want):
            return f"acceptance {result['acceptance']} != {want}"

    def _gap_max(self, req, result, want):
        if not result["gap"] <= want:
            return f"gap {result['gap']} > {want}"

    # -- plain-numpy references
    def _value(self, req, result, want):
        if not _close(complex(*result["value"]), want):
            return f"value {result['value']} != reference {want}"

    def _table(self, req, result, want):
        got = np.array([complex(re, im) for re, im in result["function"]["values"]])
        if got.shape != want.shape or not _close(got, want):
            return "conditional product differs from the reference"

    def _stability(self, req, result, want):
        if not _close(result["stability"], want):
            return f"stability {result['stability']} != reference {want}"

    def _rho(self, req, result, want):
        if result["rho"] != want:
            return "rho echoed wrongly"

    def _weights(self, req, result, want):
        w = np.array(result["degree_weights"])
        rho = req.expect["rho"]
        if w.shape != want.shape or not _close(w, want):
            return "degree weights differ from the reference"
        if not _close(w.sum(), result["norm_sq"]):
            return "degree weights do not sum to norm_sq"
        if not _close(np.sum(w * rho ** np.arange(len(w))), result["stability"]):
            return "sum of rho^d W_d differs from the stability"

    # -- pinned answers
    def _digest(self, req, result, want):
        if self.golden.get(req.rid) != canonical_digest(result):
            return "result digest differs from the pinned answer"
