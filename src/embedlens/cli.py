"""Command-line front end: JSON reports, stable output, reproducible runs.

Every command emits {"manifest": ..., "result": ...} with a sha256 digest
of the result's compact text, so identical manifests produce identical
bytes; one `errors.render` walk writes the result's compact and indented
texts. Only `verify` loads the acceptance suites. Exit codes: 0 success,
1 failed verify suite, 2 validation failure, 3 size guard, 4 parse error
(usage errors included) or a file that cannot be read or written,
5 internal error (a failed self-check).
Randomized modes require an explicit --seed; there are no wall-clock
defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, fixtures
from .correlation import exact_correlation, mc_correlation
from .dicttest import TestInstance, instance_violations, load_symbol_function, run_test_exact, run_test_mc
from .distributions import JointDistribution
from .embedding import connected, detect_embedding, pairwise_connected
from .errors import ParseError, SizeGuardError, ValidationError, WriteError, render, unwritable, write_json
from .functions import (
    ProductFunction,
    TableFunction,
    efron_stein,
    load_function_file,
    stability,
    uniform_measure,
)
from .reduction import (
    CouplingIdentityReport,
    build_paired_copies,
    build_star_coupling,
    check_coupling_identity,
    conditional_product_given_last,
    star_coupling_params,
)

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_VALIDATION = 2
EXIT_SIZE_GUARD = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5

SWEEP_GUARD = 10 ** 4  # rows of one --sweep-n run


def _print(text: str) -> None:
    """Write `text` and a newline to stdout; a failed write is a WriteError."""
    try:
        print(text, flush=True)
    except OSError as exc:
        if sys.stdout is sys.__stdout__:  # so the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise WriteError(f"stdout: {exc}") from exc


def _emit(command: str, inputs: list[str], params: dict, result: dict,
          seed: int | None = None) -> None:
    try:
        indented, compact = render(result, 1)
        digest = hashlib.sha256(compact.encode()).hexdigest()
        del compact  # freed before the payload text is built
        manifest = render({"tool": "embedlens", "version": __version__, "subcommand": command,
                           "inputs": inputs, "params": params, "seed": seed,
                           "digest": digest}, 1)[0]
    except ValueError as exc:
        raise unwritable(exc) from exc
    _print(f'{{\n  "manifest": {manifest},\n  "result": {indented}\n}}')


def _fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from exc


def _frac_pair(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _refuse_sampling_flags(args) -> None:
    """--samples and --seed steer Monte Carlo only; exact mode reads neither."""
    if args.mode == "exact" and (args.samples is not None or args.seed is not None):
        raise ValidationError("--mode exact reads neither --samples nor --seed; "
                              "they are for --mode mc")


def _load_table(path: str) -> TableFunction:
    f = load_function_file(path)
    return f.to_table() if isinstance(f, ProductFunction) else f


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_analyze(args) -> int:
    dist = JointDistribution.load(args.dist)
    verdict = detect_embedding(dist)
    pc, split = pairwise_connected(dist)
    result = {
        "admits_embedding": verdict.admits,
        "modulus": verdict.witness.modulus if verdict.witness else None,
        "witness": verdict.witness.to_json() if verdict.witness else None,
        "snf_divisors": list(verdict.snf_divisors),
        "rank": verdict.rank,
        "columns": verdict.s,
        "connected": connected(dist),
        "pairwise_connected": pc,
        "disconnected_pair": None if split is None else {
            "i": split.i, "j": split.j,
            "side_i": sorted(split.side_i), "side_j": sorted(split.side_j),
        },
        "alpha": _frac_pair(dist.min_atom_mass()),
        "support_size": len(dist.codes),
    }
    _emit("analyze", [args.dist], {}, result)
    return EXIT_OK


def _cmd_correlate(args) -> int:
    if args.sweep_n is not None and args.mode == "mc":
        raise ValidationError("--sweep-n evaluates exactly; it cannot run --mode mc")
    if args.csv and args.sweep_n is None:
        raise ValidationError("--csv writes sweep rows; it needs --sweep-n")
    if args.sweep_n is not None and args.n is not None:
        raise ValidationError("--sweep-n evaluates n = 1..N; it cannot take --n")
    _refuse_sampling_flags(args)
    dist = JointDistribution.load(args.dist)
    functions = [load_function_file(p) for p in args.functions]
    params = {"n": args.n, "mode": args.mode, "samples": args.samples,
              "sweep_n": args.sweep_n}
    if args.sweep_n is not None:
        if args.sweep_n <= 0:
            raise ValidationError("--sweep-n must be positive")
        for f in functions:
            if not isinstance(f, ProductFunction) or f.n != 1:
                raise ValidationError(
                    "--sweep-n needs single-row product functions (the row is repeated)")
        if args.sweep_n > SWEEP_GUARD:
            raise SizeGuardError(f"--sweep-n {args.sweep_n} exceeds the guard {SWEEP_GUARD}")
        rows = []
        # n equal columns: multiply in the order the product route would
        column = exact_correlation(dist, functions, 1).value
        value = 1 + 0j
        for n in range(1, args.sweep_n + 1):
            value *= column
            rows.append((n, value.real, value.imag, abs(value)))
        if args.csv:
            _print("\n".join(["n,re,im,abs",
                               *(f"{r[0]},{r[1]!r},{r[2]!r},{r[3]!r}" for r in rows)]))
            return EXIT_OK
        result = {"sweep": [{"n": r[0], "value": [r[1], r[2]], "abs": r[3]} for r in rows]}
        _emit("correlate", [args.dist, *args.functions], params, result, args.seed)
        return EXIT_OK
    if args.n is None:
        raise ValidationError("--n is required unless --sweep-n is given")
    if args.mode == "exact":
        res = exact_correlation(dist, functions, args.n)
    else:
        if args.seed is None or args.samples is None:
            raise ValidationError("--mode mc requires --samples and --seed")
        res = mc_correlation(dist, functions, args.n, args.samples, args.seed)
    _emit("correlate", [args.dist, *args.functions], params, res.to_json(), args.seed)
    return EXIT_OK


def _cmd_stability(args) -> int:
    f = _load_table(args.function)
    nu = JointDistribution.load(args.nu) if args.nu else uniform_measure(f.alphabet)
    value = stability(f, args.rho, nu)
    result: dict = {"stability": value, "rho": args.rho}
    if args.decompose:
        dec = efron_stein(f, nu)
        result["degree_weights"] = list(dec.degree_weights)
        result["norm_sq"] = dec.norm_sq
    _emit("stability", [args.function] + ([args.nu] if args.nu else []),
          {"rho": args.rho, "decompose": args.decompose}, result)
    return EXIT_OK


def _identity_json(rep: CouplingIdentityReport) -> dict:
    return {
        "lhs": [rep.lhs.real, rep.lhs.imag],
        "rhs": rep.rhs,
        "gap": rep.gap,
        "restriction_rate": _frac_pair(rep.restriction_rate),
        "p_star": _frac_pair(rep.p_star),
    }


def _refuse_unread_reduce_flags(args) -> None:
    """Each op reads only its own flags; --out is valid for every op."""
    reads = {"paired-copies": (), "star-coupling": ("p_star", "p_nu"),
             "conditional-product": ("functions",),
             "coupling-identity": ("functions", "p_star", "rate", "n")}[args.op]
    unread = [f"--{name.replace('_', '-')}" for name in ("functions", "p_star", "p_nu", "rate", "n")
              if name not in reads and getattr(args, name) is not None]
    if unread:
        raise ValidationError(f"--op {args.op} does not read {', '.join(unread)}")


def _cmd_reduce(args) -> int:
    _refuse_unread_reduce_flags(args)
    dist = JointDistribution.load(args.dist)
    params = {"op": args.op, "p_star": str(args.p_star) if args.p_star is not None else None,
              "p_nu": str(args.p_nu) if args.p_nu is not None else None,
              "rate": str(args.rate) if args.rate is not None else None, "n": args.n}
    inputs = [args.dist, *(args.functions or [])]
    if args.op == "paired-copies":
        out = build_paired_copies(dist)
        result = {"distribution": out.to_json(), "support_size": len(out.codes)}
    elif args.op == "star-coupling":
        if args.p_star is None:
            raise ValidationError("--p-star is required for --op star-coupling")
        coupling_params = star_coupling_params(dist, args.p_star)
        if args.p_nu is not None:
            coupling_params = dataclasses.replace(coupling_params, p_nu=args.p_nu)
        coupling = build_star_coupling(coupling_params)
        pc, _ = pairwise_connected(coupling)
        result = {
            "distribution": coupling.to_json(),
            "pairwise_connected": pc,
            "p_nu": _frac_pair(coupling_params.p_nu),
            "p_star": _frac_pair(coupling_params.p_star),
            "min_atom_mass": _frac_pair(coupling.min_atom_mass()),
        }
    elif args.op == "conditional-product":
        if not args.functions:
            raise ValidationError("--op conditional-product needs --functions f1.json ... f_{k-1}.json")
        out = conditional_product_given_last(dist, [_load_table(p) for p in args.functions])
        result = {"function": out.to_json()}
    elif args.op == "coupling-identity":
        if len(args.functions or ()) != 1 or args.n is None or args.p_star is None:
            raise ValidationError(
                "--op coupling-identity needs one --functions file f1.json, --n and --p-star")
        f1 = _load_table(args.functions[0])
        alpha = dist.min_atom_mass()
        rate = args.rate if args.rate is not None else 1 - alpha * alpha
        rep = check_coupling_identity(dist, f1, args.n, rate, args.p_star)
        result = _identity_json(rep)
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown reduce op {args.op}")
    if args.out:
        write_json(args.out, result)
    _emit("reduce", inputs, params, result)
    return EXIT_OK


def _cmd_dicttest(args) -> int:
    _refuse_sampling_flags(args)
    inst = TestInstance.load(args.instance)
    f = load_symbol_function(args.function)
    violations = instance_violations(inst)
    if violations:
        raise ValidationError("; ".join(violations))
    params = {"mode": args.mode, "samples": args.samples, "n": f.n}
    if args.mode == "exact":
        acc = run_test_exact(inst, f, f.n)
        result = {"acceptance": _frac_pair(acc), "acceptance_float": float(acc)}
    else:
        if args.seed is None or args.samples is None:
            raise ValidationError("--mode mc requires --samples and --seed")
        mc = run_test_mc(inst, f, args.samples, args.seed)
        result = mc.to_json()
    _emit("dicttest", [args.instance, args.function], params, result, args.seed)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import acceptance  # only this command runs the suites

    results = acceptance.run_suite(args.suite)
    _print("\n".join(r.line() for r in results))
    summary = {
        "suite": args.suite,
        "criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                      "details": r.details} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit("verify", [], {"suite": args.suite}, summary)
    return EXIT_OK if summary["all_passed"] else EXIT_SUITE_FAILED


def _cmd_fixture(args) -> int:
    if args.name not in fixtures.NAMED:
        raise ValidationError(
            f"unknown fixture {args.name!r}; choose from {sorted(fixtures.NAMED)}")
    fixtures.NAMED[args.name]().save(args.out)
    _emit("fixture", [], {"name": args.name, "out": args.out}, {"written": args.out})
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError (one line, exit 4) instead of exiting."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="embedlens",
        description="Exact embeddability, correlation and stability analysis "
                    "of k-ary distributions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="embeddability and connectivity report")
    p.add_argument("dist", help="distribution file (JSON)")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("correlate", help="k-wise correlation, exact or Monte Carlo")
    p.add_argument("dist")
    p.add_argument("functions", nargs="+", help="one function file per coordinate")
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sweep-n", type=int, help="evaluate n = 1..N (single-row products)")
    p.add_argument("--csv", action="store_true", help="CSV rows for sweeps")
    p.set_defaults(fn=_cmd_correlate)

    p = sub.add_parser("stability", help="noise stability of a function")
    p.add_argument("function")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--nu", help="univariate measure file (default: uniform)")
    p.add_argument("--decompose", action="store_true", help="include degree weights")
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("reduce", help="reduction constructions and identity checks")
    p.add_argument("dist")
    p.add_argument("--op", required=True,
                   choices=["paired-copies", "star-coupling",
                            "conditional-product", "coupling-identity"])
    p.add_argument("--functions", nargs="*", help="function files where the op needs them")
    p.add_argument("--p-star", type=_fraction)
    p.add_argument("--p-nu", type=_fraction, help="override the derived pair-branch weight")
    p.add_argument("--rate", type=_fraction, help="restriction rate for coupling-identity")
    p.add_argument("--n", type=int)
    p.add_argument("--out", help="also write the result payload to this file")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("dicttest", help="dictatorship test acceptance")
    p.add_argument("instance")
    p.add_argument("function")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_dicttest)

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fixture", help="write a named fixture to a file")
    p.add_argument("name")
    p.add_argument("out")
    p.set_defaults(fn=_cmd_fixture)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing builds a fresh namespace on
    every call and leaves the parser unchanged, so calls share nothing."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # a float overflow is refused by the finiteness checks, on one line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except WriteError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
