"""The benchmark in perfbench/ wraps embedlens names from outside the program
and calls the library directly for its oracle and character requests. A
deleted name or a changed signature breaks its traced run, which the
end-to-end run never exercises, so the first test runs both paths once, in
a child process, so the wrappers the tracer installs do not leak into other
tests. The second replays the requests whose answers the benchmark pins by
digest.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import embedlens
import embedlens.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import os
import sys

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

mu = fixtures.three_lin()
dist, witness = os.path.join(sys.argv[1], "mu.json"), os.path.join(sys.argv[1], "w.json")
mu.save(dist)
write_json(witness, detect_embedding(mu).witness.to_json())
requests = [
    Request("oracle", "oracle", (dist, 4, 10 ** 10), {}),
    Request("witness", "characters", (dist, witness, None, 3), {}),
    Request("parity", "characters", (dist, None, [(1, 1, 1), (0, 0, 0)], 2), {}),
]
for req in requests:
    rc, value = loop.call_embedlens(embedlens, req)
    result = checker.library_result(req.kind, value)
    assert rc == 0, req.rid
    if req.kind == "oracle":
        assert result["witness"]["modulus"] == 2, result
    else:
        assert result["exact"] == [[1, 1], [0, 1]], (req.rid, result)
seen = {span[0] for span in tracer.spans}
assert {"embedding.brute_force_embedding", "correlation.characters"} <= seen, seen
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
