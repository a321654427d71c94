"""embedlens benchmark: seeded request workloads, checked answers, per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 24 --trace 0

The program is imported from the checkout's `src/`. Inputs and their
references are generated from the seed, in a child process, into
`.perfbench_work/<workload>/`; requests go through `embedlens.cli.main` in
this process (stdout captured), except the exhaustive oracle and character
folds, which have no CLI path and call the library.

The request list is replayed in passes, one request at a time, until another
pass would end after --seconds. Each request is timed alone and its answer
checked. Every time reported (latencies, throughput, setup_s) is scaled to a
reference host speed by a calibration loop timed next to it (calibration.py),
because the shared host's own speed moves by more than the bounds; the
wall-clock figures are printed alongside. Throughput is the median of the
passes' throughputs; the latency median and tail are taken over every timed
request of every pass. --trace 0 prints the end-to-end metrics; --trace 1
replays the list untraced for half the time, then traced, and prints
per-layer spans and counters (per pass of the request list, self times in
wall-clock seconds) with the tracing overhead. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools pinned to one thread, before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import loop  # noqa: E402
import workloads  # noqa: E402
from checker import Checker  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 7

# One set-up, in a fresh interpreter: import embedlens, then build the
# workload's named fixtures through its CLI. Prints the seconds it took, at
# the reference host speed.
SETUP_CODE = """
import contextlib, io, os, sys, time
import calibration
before = calibration.loop_seconds()
start = time.perf_counter()
import embedlens.cli
with contextlib.redirect_stdout(io.StringIO()):
    for name in sys.argv[2:]:
        if embedlens.cli.main(["fixture", name, os.path.join(sys.argv[1], name + ".json")]):
            sys.exit(1)
seconds = time.perf_counter() - start
print(calibration.scaled(seconds, before, calibration.loop_seconds()), embedlens.__file__)
"""


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_workload(name: str, seed: int, workdir: str) -> workloads.Workload:
    """Generate inputs and references in a child process and load the result,
    so the references' intermediates never count in this process's peak RSS."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                           name, str(seed), workdir],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"building the workload failed: {proc.stderr.strip()[-500:]}")
    with open(os.path.join(workdir, workloads.PICKLE), "rb") as fh:
        return pickle.load(fh)


def set_up(w: workloads.Workload) -> float:
    """Median time of SETUP_REPEATS set-ups, each in its own interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, w.workdir, *w.fixtures],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()[-500:]}")
        seconds, origin = proc.stdout.split()
        if not origin.startswith(SRC + os.sep):
            fail(f"embedlens was imported from {origin}, not from {SRC}")
        times.append(float(seconds))
    return statistics.median(times)


def import_program():
    sys.path.insert(0, SRC)
    import embedlens
    import embedlens.cli
    if not os.path.abspath(embedlens.__file__).startswith(SRC + os.sep):
        fail(f"embedlens was imported from {embedlens.__file__}, not from {SRC}")
    return sys.modules["embedlens"]


def environment() -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {"nproc": affinity, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "embedlens", "__init__.py")):
        fail(f"no embedlens sources under {SRC}")
    os.chdir(ROOT)  # input paths are relative, so the request-list hash is location-free
    workdir = os.path.join(".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    w = build_workload(args.workload, args.seed, workdir)
    setup_s = set_up(w)
    el = import_program()

    with open(GOLDEN, encoding="utf-8") as fh:
        checker = Checker(json.load(fh).get(args.workload, {}))
    tally = loop.Tally()
    env = environment()
    print(f"workload={w.name} seed={w.seed} requests={len(w.requests)} "
          f"request_list_sha256={w.request_list_hash()}")
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        loop.run_passes(w.requests, lambda r: loop.call_embedlens(el, r), checker, tally,
                        args.seconds / 2)
        untraced = loop.throughput(tally.passes)
        first_traced = len(tally.passes)
        tracer = Tracer()
        tracer.install()

        def count_output(nbytes):
            tracer.counters["cli.output_bytes"] += nbytes

        def on_request(req):
            tracer.request = req.rid

        loop.run_passes(w.requests, lambda r: loop.call_embedlens(el, r, count_output),
                        checker, tally, args.seconds / 2, on_request)
        traced_passes = tally.passes[first_traced:]
        traced = loop.throughput(traced_passes)
        metrics = tracer.metrics(len(traced_passes))
        metrics["trace.untraced_throughput_rps"] = (untraced, "1/s")
        metrics["trace.throughput_rps"] = (traced, "1/s")
        metrics["trace.overhead_pct"] = (100 * (untraced - traced) / untraced, "%")
        tracer.dump(os.path.join(workdir, "spans.jsonl"))
        print(f"tracing overhead: {untraced:.3f} rps untraced, {traced:.3f} rps traced "
              f"({len(tally.passes) - first_traced} traced passes); spans in {workdir}/spans.jsonl")
    else:
        loop.run_passes(w.requests, lambda r: loop.call_embedlens(el, r), checker, tally,
                        args.seconds)
        lat = loop.latency_summary(tally.passes)
        metrics = {
            "throughput_rps": (loop.throughput(tally.passes), "1/s"),
            "latency_p50_ms": (lat["p50_ms"], "ms"),
            "latency_tail_ms": (lat["tail_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"latency_tail_ms is p{lat['tail_percentile']:.1f} of {lat['samples']} samples "
              f"({len(tally.passes)} passes of {len(w.requests)} requests), "
              f"{lat['beyond']} samples beyond it")
        wall = loop.latency_summary(tally.wall_passes)
        print(f"wall clock: throughput {loop.throughput(tally.wall_passes):.4g} 1/s, "
              f"p50 {wall['p50_ms']:.4g} ms, tail {wall['tail_ms']:.4g} ms")

    print("pass throughputs at reference speed: " + " ".join(f"{len(p) / sum(p):.3f}" for p in tally.passes))
    for rid, reason in tally.failures:
        print(f"FAILED {rid}: {reason}")
    print(f"fail_ratio={tally.failed}/{tally.attempted}={tally.failed / tally.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
