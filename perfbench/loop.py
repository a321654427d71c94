"""Closed-loop replay of a workload's request list, with per-request accounting.

One client, one process, one thread: each request is sent only after the
previous one has returned and been checked. Only the call itself is timed;
the calibration loop runs between requests, and each request's time is
scaled to the reference host speed (see calibration.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import calibration
from checker import library_result

TAIL_BEYOND = 10  # requests of one pass above the tail percentile


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # (request id, reason)
    passes: list = field(default_factory=list)  # per pass: latencies in s at reference speed
    wall_passes: list = field(default_factory=list)  # per pass: wall-clock latencies in s


def call_embedlens(el, req, on_output=None):
    """Send one request; returns (exit code, stdout text or library result)."""
    if req.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = el.cli.main(list(req.args))
            except SystemExit as exc:  # argparse rejects argv by exiting
                rc = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue()
        if on_output:
            on_output(len(text.encode()))
        return rc, text if rc == 0 else err.getvalue()
    dist = el.distributions.JointDistribution.load(req.args[0])
    if req.kind == "oracle":
        _, max_modulus, space_guard = req.args
        return 0, el.embedding.brute_force_embedding(
            dist.support, dist.alphabets, max_modulus=max_modulus, space_guard=space_guard)
    _, witness_path, columns, n = req.args  # kind "characters"
    if witness_path is not None:
        with open(witness_path, encoding="utf-8") as fh:
            witness = el.embedding.EmbeddingWitness.from_json(json.load(fh))
        fs = [el.functions.character_function(witness, i, n, dist.alphabets[i])
              for i in range(dist.k)]
    else:  # per-column parity subsets: phase 1/2 on symbol "1" where selected
        fs = [el.functions.CharacterProduct(
            dist.alphabets[i], [[Fraction(0), Fraction(col[i], 2)] for col in columns])
            for i in range(dist.k)]
    return 0, el.correlation.exact_correlation(dist, fs, n)


def run_request(req, send, checker, tally: Tally, latencies: list) -> None:
    """Time one request, then judge it: an exception, a nonzero exit or a
    wrong answer each count as one failure."""
    start = time.perf_counter()
    try:
        rc, out = send(req)
        reason = None
    except Exception as exc:  # the loop must go on; the failure is counted
        reason = f"raised {type(exc).__name__}: {exc}"
    latencies.append(time.perf_counter() - start)
    tally.attempted += 1
    if reason is None and rc != 0:
        reason = f"exit code {rc}: {out.strip()[:200]}"
    if reason is None:
        try:
            result = (json.loads(out)["result"] if req.kind == "cli"
                      else library_result(req.kind, out))
            reason = checker.check(req, result)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            reason = f"malformed answer: {type(exc).__name__}: {exc}"
    if reason is not None:
        tally.failed += 1
        tally.failures.append((req.rid, reason))


def run_passes(requests, send, checker, tally: Tally, seconds: float, on_request=None) -> None:
    """Replay the whole list until another pass would end past `seconds`; at least one pass."""
    start = time.perf_counter()
    before = calibration.loop_seconds()
    while True:
        began = time.perf_counter()
        wall: list[float] = []
        scaled: list[float] = []
        for req in requests:
            if on_request:
                on_request(req)
            run_request(req, send, checker, tally, wall)
            after = calibration.loop_seconds()
            scaled.append(calibration.scaled(wall[-1], before, after))
            before = after
        tally.passes.append(scaled)
        tally.wall_passes.append(wall)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def throughput(passes) -> float:
    """Median over the passes of each pass's requests per second of request time."""
    return statistics.median(len(p) / sum(p) for p in passes)


def latency_summary(passes) -> dict:
    """Median and tail over every timed sample (passes x requests).

    The tail is the highest percentile of one pass of the list that keeps
    TAIL_BEYOND of its requests beyond it, taken over all samples, so
    TAIL_BEYOND samples per pass lie beyond it. The percentile depends on the
    list alone, not on how many passes a run completes.
    """
    samples = sorted(lat for p in passes for lat in p)
    beyond = TAIL_BEYOND * len(passes)
    return {
        "p50_ms": 1000 * statistics.median(samples),
        "tail_ms": 1000 * samples[-beyond - 1],
        "tail_percentile": 100 * (1 - TAIL_BEYOND / len(passes[0])),
        "samples": len(samples),
        "beyond": beyond,
    }
