"""Self-test of the benchmark's answer checking.

Run with `python3 perfbench/test_checker.py` or `python3 -m pytest perfbench`.
It needs neither embedlens nor a generated workload: answers are fed in by hand.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import loop  # noqa: E402
from checker import Checker, canonical_digest  # noqa: E402
from workloads import Request  # noqa: E402

ACCEPT_ONE = Request("dicttest/const0", "cli", ("dicttest",), {"acceptance": Fraction(1)})


def _answer(result, rc=0):
    return lambda req: (rc, json.dumps({"manifest": {}, "result": result}))


def _raise(req):
    raise RuntimeError("injected failure")


def _tally(*cases):
    checker, tally, latencies = Checker(golden={}), loop.Tally(), []
    for req, send in cases:
        loop.run_request(req, send, checker, tally, latencies)
    assert tally.attempted == len(latencies) == len(cases)
    return tally


def test_corrupted_answer_and_raised_error_are_failures():
    tally = _tally((ACCEPT_ONE, _answer({"acceptance": [1, 1]})),
                   (ACCEPT_ONE, _answer({"acceptance": [1, 2]})),  # corrupted
                   (ACCEPT_ONE, _raise))
    assert tally.failed == 2
    assert [rid for rid, _ in tally.failures] == ["dicttest/const0"] * 2
    assert "acceptance" in tally.failures[0][1]
    assert "raised RuntimeError" in tally.failures[1][1]


def test_nonzero_exit_and_malformed_output_are_failures():
    tally = _tally((ACCEPT_ONE, _answer({"acceptance": [1, 1]}, rc=2)),
                   (ACCEPT_ONE, lambda req: (0, "not json")),
                   (ACCEPT_ONE, _answer({"other": 1})))
    assert tally.failed == 3


def test_float_references_reject_nan_and_drift():
    req = Request("correlate/x", "cli", (), {"value": 0.25 + 0.5j})
    tally = _tally((req, _answer({"value": [0.25, 0.5]})),
                   (req, _answer({"value": [0.25 + 1e-6, 0.5]})),
                   (req, lambda r: (0, '{"result": {"value": [NaN, 0.5]}}')))
    assert tally.failed == 2


def test_degree_weights_must_match_stability_and_norm():
    weights = np.array([0.5, 0.25, 0.25])
    req = Request("decompose/x", "cli", (),
                  {"stability": 0.5 + 0.25 * 0.5 + 0.25 * 0.25, "rho": 0.5, "weights": weights})
    good = {"stability": 0.6875, "rho": 0.5, "degree_weights": [0.5, 0.25, 0.25], "norm_sq": 1.0}
    tally = _tally((req, _answer(good)), (req, _answer(dict(good, norm_sq=0.9))))
    assert tally.failed == 1


def test_witness_sum_check_and_oracle_agreement():
    support = [("0", "0"), ("1", "1")]
    good = {"modulus": 2, "sigma": [{"0": 0, "1": 1}, {"0": 0, "1": 1}]}
    bad = {"modulus": 2, "sigma": [{"0": 0, "1": 1}, {"0": 0, "1": 0}]}
    analyze = Request("analyze/t", "cli", (), {"support": support, "verdict": {"modulus": 2}})
    oracle = Request("oracle/t", "oracle", (), {"support": support, "agree_with": "analyze/t"})
    checker, tally, lat = Checker(golden={}), loop.Tally(), []
    result = {"admits_embedding": True, "modulus": 2, "witness": good}
    loop.run_request(analyze, _answer(result), checker, tally, lat)
    loop.run_request(analyze, _answer(dict(result, witness=bad)), checker, tally, lat)
    assert tally.failed == 1
    assert checker.check(oracle, {"witness": good}) is None
    assert checker.check(oracle, {"witness": None}) is not None


def test_digest_must_match_the_pinned_answer():
    result = {"acceptance": [3, 8]}
    req = Request("dicttest/table", "cli", (), {"digest": True})
    checker = Checker(golden={"dicttest/table": canonical_digest(result)})
    assert checker.check(req, result) is None
    assert checker.check(req, {"acceptance": [3, 7]}) is not None
    assert Checker(golden={}).check(req, result) is not None  # nothing pinned


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checker self-tests passed")
