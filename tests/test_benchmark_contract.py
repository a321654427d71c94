"""The benchmark in perfbench/ wraps embedlens names from outside the program
and calls the library directly for its oracle and character requests. A
deleted name or a changed signature breaks its traced run, which the
end-to-end run never exercises, so the first test runs the library
requests and CLI requests through `cli.main` under the tracer, in a child
process, so the wrappers the tracer installs do not leak into other tests,
and checks that their spans and counters are recorded. The second replays
the requests whose answers the benchmark pins by digest, and the third pins
the digests of the `lattice` workload's `analyze` requests. The fourth pins
every float and exact pair of the `exact` workload's character requests,
which its checker compares only through the exact pair, and the last the
digests of every `dense` request, which its checker compares to a tolerance,
under the host's BLAS kernel and under the oldest one.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import embedlens
import embedlens.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import json
import os
import sys
from fractions import Fraction

import embedlens
import embedlens.cli
from embedlens import fixtures
from embedlens.embedding import detect_embedding
from embedlens.errors import write_json

import checker
import loop
import spans
from workloads import Request

tracer = spans.Tracer()
tracer.install()  # raises if a target no longer resolves
for _, module, attr, _ in spans.TARGETS:
    owner = getattr(embedlens, module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert hasattr(owner, "__wrapped__"), f"{module}.{attr} is not wrapped"


def path(name, data=None):
    out = os.path.join(sys.argv[1], name)
    if data is not None:
        write_json(out, data)
    return out


mu = fixtures.three_lin()
dist, inst = path("mu.json"), path("inst.json")
mu.save(dist)
fixtures.three_lin_instance().save(inst)
witness = path("w.json", detect_embedding(mu).witness.to_json())
table = path("table.json", {"n": 3, "alphabet": ["0", "1"], "symbols": list("00110011")})
dictator = path("dictator.json", {"n": 4, "alphabet": ["0", "1"], "dictator": 2})
requests = [
    Request("oracle", "oracle", (dist, 4, 10 ** 10), {}),
    Request("witness", "characters", (dist, witness, None, 3), {}),
    Request("parity", "characters", (dist, None, [(1, 1, 1), (0, 0, 0)], 2), {}),
    Request("analyze", "cli", ("analyze", dist), {"verdict": {"modulus": 2}}),
    Request("exact", "cli", ("dicttest", inst, table), {"acceptance": Fraction(1)}),
    Request("mc", "cli", ("dicttest", inst, dictator, "--mode", "mc", "--samples", "50",
                          "--seed", "1"), {}),
]
for req in requests:
    rc, value = loop.call_embedlens(embedlens, req)
    assert rc == 0, (req.rid, value)
    if req.kind == "cli":
        result = json.loads(value)["result"]
        assert checker.Checker({}).check(req, result) is None, (req.rid, result)
        if req.rid == "mc":  # a dictator passes every sample
            assert result["accepted"] == 50, result
        continue
    result = checker.library_result(req.kind, value)
    if req.kind == "oracle":
        assert result["witness"]["modulus"] == 2, result
    else:
        assert result["exact"] == [[1, 1], [0, 1]], (req.rid, result)
seen = {span[0] for span in tracer.spans}
assert {"embedding.brute_force_embedding", "correlation.characters", "cli.main",
        "dicttest.load", "dicttest.run_test_exact", "dicttest.run_test_mc",
        "intlattice.smith_normal_form"} <= seen, seen
for counter in ("dicttest.run_test_mc.samples", "intlattice.smith_normal_form.max_entry_bits"):
    assert tracer.counters[counter] > 0, counter
print("ok")
"""


def test_benchmark_traced_library_calls_still_resolve(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_exact_workload_answers_match_the_pinned_digests(tmp_path, monkeypatch):
    """Every digest-pinned request of the `exact` workload (seed 1) replayed
    through the benchmark's own call path and judged by its checker, so a
    byte drift in those answers fails here and not only in a benchmark run."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import checker
    import loop
    import workloads

    w = workloads.build("exact", 1, str(tmp_path))
    pinned = [req for req in w.requests if "digest" in req.expect]
    with contextlib.redirect_stdout(io.StringIO()):
        for name in w.fixtures:  # the named fixtures those requests read
            if any(w.path(name + ".json") in req.args for req in pinned):
                assert embedlens.cli.main(["fixture", name, w.path(name + ".json")]) == 0
    with open(os.path.join(ROOT, "perfbench", "golden.json"), encoding="utf-8") as fh:
        judge = checker.Checker(json.load(fh)["exact"])
    assert sorted(req.rid for req in pinned) == sorted(judge.golden)
    for req in pinned:
        rc, out = loop.call_embedlens(embedlens, req)
        assert rc == 0, (req.rid, out)
        assert judge.check(req, json.loads(out)["result"]) is None, req.rid


LATTICE_ANALYZE_DIGESTS = "a98804aa2f3532bc5df2e231cb1013f42747e2b86dce516cd8d3f1836cd226b9"


def test_lattice_workload_analyze_digests_are_pinned(tmp_path, monkeypatch):
    """The 79 `analyze` requests of the `lattice` workload (seed 1) run
    through `cli.main`; the sha256 over their manifest digests, in request
    order, pins every verdict, divisor chain and witness the lattice route
    gives on them."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    w = workloads.build("lattice", 1, str(tmp_path))
    analyze = [req for req in w.requests if req.kind == "cli" and req.args[0] == "analyze"]
    assert len(analyze) == 79
    h = hashlib.sha256()
    for req in analyze:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert embedlens.cli.main(list(req.args)) == 0, req.rid
        h.update(json.loads(out.getvalue())["manifest"]["digest"].encode())
    assert h.hexdigest() == LATTICE_ANALYZE_DIGESTS


CHARS_DIGEST = "efcda5491073efe33537af1a2cc30fc45d078e8ab3d670464054caa2eb5c6d45"


def test_exact_workload_character_results_are_pinned(tmp_path, monkeypatch):
    """The `characters` requests of the `exact` workload (seed 1) through the
    benchmark's own call path; the sha256 over the `float.hex` of each value
    and its exact pair, in request order, pins the float fold bit for bit."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import loop
    import workloads

    w = workloads.build("exact", 1, str(tmp_path))
    chars = [req for req in w.requests if req.kind == "characters"]
    with contextlib.redirect_stdout(io.StringIO()):
        for name in w.fixtures:
            if any(w.path(name + ".json") in req.args for req in chars):
                assert embedlens.cli.main(["fixture", name, w.path(name + ".json")]) == 0
    h = hashlib.sha256()
    for req in chars:
        rc, res = loop.call_embedlens(embedlens, req)
        assert rc == 0, req.rid
        exact = "none" if res.exact is None else " ".join(
            f"{q.numerator}/{q.denominator}" for q in res.exact)
        h.update(f"{res.value.real.hex()} {res.value.imag.hex()} {exact}\n".encode())
    assert h.hexdigest() == CHARS_DIGEST


DENSE_DIGESTS = "93ce404410f3e3065038e45c094338b72b74cd513320e28903e22845b4f13ec6"

DENSE_CHILD = r"""
import contextlib
import hashlib
import io
import json
import sys

import run  # sets the benchmark's one-thread BLAS pools before numpy loads
import embedlens.cli
import workloads

w = workloads.build("dense", 1, sys.argv[1])
h = hashlib.sha256()
with contextlib.redirect_stdout(io.StringIO()):
    for name in w.fixtures:
        assert embedlens.cli.main(["fixture", name, w.path(name + ".json")]) == 0
for req in w.requests:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert embedlens.cli.main(list(req.args)) == 0, req.rid
    h.update(json.loads(out.getvalue())["manifest"]["digest"].encode())
print(len(w.requests), h.hexdigest())
"""


def test_dense_workload_digests_are_pinned(tmp_path):
    """The 61 requests of the `dense` workload (seed 1) through `cli.main`,
    in a child process with the benchmark's BLAS settings; the sha256 over
    their manifest digests, in request order, pins every float the dense
    routes print, to the bit. The dense contractions sum in index order by
    elementwise operations, so the digest is the same under the BLAS kernel
    the host picks and under the oldest one, chosen in the child only."""
    for blas in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]), **blas)
        proc = subprocess.run([sys.executable, "-c", DENSE_CHILD, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["61", DENSE_DIGESTS], blas
