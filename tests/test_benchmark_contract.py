"""The benchmark in perfbench/ wraps embedlens names from outside the program
and calls the library directly for its oracle and character requests. A
deleted name or a changed signature breaks its traced run, which the
end-to-end run never exercises, so this test runs both paths once.

It runs in a child process, so the wrappers the tracer installs do not leak
into other tests.
"""

import os
import subprocess
import sys

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
