import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import embedlens
from embedlens import dicttest, embedding, fixtures
from embedlens.cli import SWEEP_GUARD, _emit, _parser, build_parser, main
from embedlens.correlation import exact_correlation
from embedlens.distributions import MC_DRAW_GUARD, JointDistribution, uniform_on
from embedlens.dicttest import TestInstance
from embedlens.errors import ValidationError, render, write_json
from embedlens.functions import MAX_AXES, ProductFunction
from oracles import group_elements, instance_json, smith_supports, triple_product, truth_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_parity_product(path, n):
    p = ProductFunction(fixtures.BITS, np.tile(np.array([[1.0, -1.0]]), (n, 1)))
    with open(path, "w") as fh:
        json.dump(p.to_json(), fh)


def test_analyze_three_lin(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    code, out = run_cli(capsys, "analyze", str(dist))
    assert code == 0
    payload = json.loads(out)
    result = payload["result"]
    assert result["admits_embedding"] is True
    assert result["modulus"] == 2
    assert result["connected"] is False
    assert result["pairwise_connected"] is True
    assert result["alpha"] == [1, 4]
    assert payload["manifest"]["subcommand"] == "analyze"
    assert payload["manifest"]["digest"]


def test_analyze_full_support(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.full_support_cube().save(str(dist))
    code, out = run_cli(capsys, "analyze", str(dist))
    result = json.loads(out)["result"]
    assert result["admits_embedding"] is False
    assert result["connected"] is True


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "analyze", str(bad))
    assert code == 4


def test_analyze_missing_file(capsys):
    code, _ = run_cli(capsys, "analyze", "/no/such/file.json")
    assert code == 4


def test_analyze_invalid_masses(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "alphabets": [["0", "1"]],
        "atoms": [{"x": ["0"], "p": [7, 8]}],
    }))
    code, _ = run_cli(capsys, "analyze", str(bad))
    assert code == 2


def test_correlate_parity_characters_exact(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    fns = []
    for i in range(3):
        path = tmp_path / f"f{i}.json"
        write_parity_product(str(path), 6)
        fns.append(str(path))
    code, out = run_cli(capsys, "correlate", str(dist), *fns, "--n", "6")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == [1.0, 0.0]
    assert result["mode"] == "exact"


def test_correlate_reads_arity_zero_files(tmp_path, capsys):
    """An arity-0 product file holds an empty factor list and reads back, as
    an arity-0 table file does; the correlation over the empty word is 1."""
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    product, table = tmp_path / "p0.json", tmp_path / "t0.json"
    write_parity_product(str(product), 0)
    assert json.loads(product.read_text())["factors"] == []
    table.write_text(json.dumps({"n": 0, "alphabet": ["0", "1"], "values": [[1.0, 0.0]]}))
    for f in (product, table):
        code, out = run_cli(capsys, "correlate", str(dist), str(f), str(f), str(f), "--n", "0")
        assert code == 0, f
        assert json.loads(out)["result"]["value"] == [1.0, 0.0]


def test_correlate_arity_mismatch(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    fns = []
    for i in range(3):
        path = tmp_path / f"f{i}.json"
        write_parity_product(str(path), 2)
        fns.append(str(path))
    code, _ = run_cli(capsys, "correlate", str(dist), *fns, "--n", "3")
    assert code == 2


def test_correlate_mc_requires_seed(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    fns = []
    for i in range(3):
        path = tmp_path / f"f{i}.json"
        write_parity_product(str(path), 2)
        fns.append(str(path))
    code, _ = run_cli(capsys, "correlate", str(dist), *fns, "--n", "2", "--mode", "mc",
                      "--samples", "100")
    assert code == 2
    code, out = run_cli(capsys, "correlate", str(dist), *fns, "--n", "2", "--mode", "mc",
                        "--samples", "100", "--seed", "7")
    assert code == 0
    assert json.loads(out)["result"]["mode"] == "monte-carlo"


@pytest.mark.parametrize("subcommand", ["correlate", "dicttest"])
def test_negative_seed_is_refused(tmp_path, capsys, subcommand):
    """random.Random seeds from |seed|, so --seed -3 would replay seed 3's
    stream under another name in the manifest: it exits 2. Seed 0 runs."""
    mu, inst, p, sym = (str(tmp_path / name) for name in ("mu.json", "inst.json", "p.json",
                                                          "sym.json"))
    fixtures.three_lin().save(mu)
    fixtures.three_lin_instance().save(inst)
    write_parity_product(p, 1)
    with open(sym, "w") as fh:
        json.dump({"n": 2, "alphabet": ["0", "1"], "dictator": 1}, fh)
    argv = {"correlate": ["correlate", mu, p, p, p, "--n", "1", "--mode", "mc", "--samples", "50"],
            "dicttest": ["dicttest", inst, sym, "--mode", "mc", "--samples", "50"]}[subcommand]
    code, out, err = run_cli_err(capsys, *argv, "--seed", "-3")
    assert (code, out) == (2, "")
    assert "seed must be nonnegative" in err and err.count("\n") == 1
    for seed in ("0", "3"):
        code, out = run_cli(capsys, *argv, "--seed", seed)
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == int(seed)


def test_consecutive_calls_share_the_parser_and_nothing_else(tmp_path, capsys):
    """main reuses one parser; no option or default of one call reaches the
    next: each output equals that of the same argv on a fresh parser."""
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    fns = []
    for i in range(3):
        path = tmp_path / f"f{i}.json"
        write_parity_product(str(path), 2)
        fns.append(str(path))
    mc = ["correlate", str(dist), *fns, "--n", "2", "--mode", "mc", "--samples", "50",
          "--seed", "7"]
    default = ["correlate", str(dist), *fns, "--n", "2"]
    analyze = ["analyze", str(dist)]

    def fresh(argv):
        args = build_parser().parse_args(argv)
        assert args.fn(args) == 0
        return capsys.readouterr().out

    want = {tuple(argv): fresh(argv) for argv in (mc, default, analyze)}
    for argv in (mc, default):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out == want[tuple(argv)]
    manifest = json.loads(out)["manifest"]
    assert manifest["params"] == {"n": 2, "mode": "exact", "samples": None, "sweep_n": None}
    assert manifest["seed"] is None
    code, out, err = run_cli_err(capsys, "correlate", str(dist), fns[0], "--n", "abc")
    assert (code, out) == (4, "") and err.startswith("parse error: ")
    for argv in (analyze, default):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out == want[tuple(argv)]
    assert _parser() is _parser() and build_parser() is not build_parser()


def test_correlate_sweep_csv(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.punctured_cube().save(str(dist))
    fns = []
    for i in range(3):
        path = tmp_path / f"f{i}.json"
        write_parity_product(str(path), 1)
        fns.append(str(path))
    code, out = run_cli(capsys, "correlate", str(dist), *fns, "--sweep-n", "4", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im,abs"
    assert len(lines) == 5
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(1 / 7)


def test_stability_parity(tmp_path, capsys):
    f = tmp_path / "f.json"
    write_parity_product(str(f), 3)
    code, out = run_cli(capsys, "stability", str(f), "--rho", "0.5", "--decompose")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["stability"] == pytest.approx(0.125)
    assert result["degree_weights"][3] == pytest.approx(1)


@pytest.mark.parametrize("n", [MAX_AXES - 1, MAX_AXES, MAX_AXES + 1])
@pytest.mark.parametrize("command", ["stability", "decompose", "correlate", "conditional-product"])
def test_one_symbol_tables_past_numpy_axes(tmp_path, capsys, command, n):
    """A one-symbol table holds one value at any n, but the dense routes give
    it one array axis per coordinate (the degree parts one more): past numpy's
    MAX_AXES axes they exit 3 and name the limit, and up to it they answer,
    the batched noise included."""
    dist, f = tmp_path / "mu.json", tmp_path / "f.json"
    dist.write_text(json.dumps({"alphabets": [["0"]] * 3, "atoms": [{"x": ["0"] * 3, "p": [1, 1]}]}))
    f.write_text(json.dumps({"n": n, "alphabet": ["0"], "values": [[1.0, 0.0]]}))
    argv, key, want = {
        "stability": (["stability", f, "--rho", "0.5"], "stability", 1.0),
        "decompose": (["stability", f, "--rho", "0.5", "--decompose"], "degree_weights",
                      [1.0] + [0.0] * n),
        "correlate": (["correlate", dist, f, f, f, "--n", n], "value", [1.0, 0.0]),
        "conditional-product": (["reduce", dist, "--op", "conditional-product", "--functions", f, f],
                                "function", {"alphabet": ["0"], "n": n, "values": [[1.0, 0.0]]}),
    }[command]
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    if n + (command == "decompose") > MAX_AXES:
        assert code == 3
        assert captured.err.startswith(f"size guard: {n} coordinates need ")
        assert captured.err.endswith(f" axes; numpy allows {MAX_AXES}\n")
    else:
        assert code == 0, captured.err
        assert json.loads(captured.out)["result"][key] == want


def test_reduce_paired_copies(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    code, out = run_cli(capsys, "reduce", str(dist), "--op", "paired-copies")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["support_size"] == 8


def test_reduce_star_coupling_and_out_file(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    out_path = tmp_path / "coupling.json"
    code, out = run_cli(capsys, "reduce", str(dist), "--op", "star-coupling",
                        "--p-star", "1/3", "--out", str(out_path))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pairwise_connected"] is True
    assert result["p_nu"] == [15, 16]
    saved = json.loads(out_path.read_text())
    assert saved["pairwise_connected"] is True


def test_reduce_identity_default_rate(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    f1 = tmp_path / "f1.json"
    write_parity_product(str(f1), 1)
    code, out = run_cli(capsys, "reduce", str(dist), "--op", "coupling-identity",
                        "--functions", str(f1), "--n", "1", "--p-star", "1/3")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["gap"] < 1e-10
    assert result["restriction_rate"] == [15, 16]


def test_dicttest_exact_dictator(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    fixtures.three_lin_instance().save(str(inst))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": 3, "alphabet": ["0", "1"], "dictator": 1}))
    code, out = run_cli(capsys, "dicttest", str(inst), str(fn))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["acceptance"] == [1, 1]


def test_dicttest_falsifying_constant(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    fixtures.three_lin_instance().save(str(inst))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": 2, "alphabet": ["0", "1"], "constant": "1"}))
    code, out = run_cli(capsys, "dicttest", str(inst), str(fn))
    assert code == 0
    assert json.loads(out)["result"]["acceptance"] == [0, 1]


@pytest.mark.parametrize("payload, message", [
    ({"n": -3, "alphabet": ["0", "1"], "constant": "0"}, "arity must be nonnegative"),
    ({"n": -2, "alphabet": ["0"], "symbols": ["0"]}, "dense symbol table has wrong length"),
    ({"n": 3, "alphabet": ["0", "1"], "dictator": 3}, "dictator coordinate out of range"),
    ({"n": 1, "alphabet": ["0", "1"], "symbols": ["0", "2"]}, "output symbol '2' not in alphabet"),
    ({"n": 2, "alphabet": ["0", "1"], "constant": "2"}, "constant '2' not in alphabet"),
])
@pytest.mark.parametrize("mode", [[], ["--mode", "mc", "--samples", "10", "--seed", "1"]])
def test_dicttest_rejects_negative_arity(payload, message, mode, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    fixtures.three_lin_instance().save(str(inst))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps(payload))
    assert main(["dicttest", str(inst), str(fn), *mode]) == 2
    assert capsys.readouterr().err == f"validation failure: {message}\n"


@pytest.mark.parametrize("weight, code", [
    ([1, None], 4), ([1, 0], 4), ([1, 1], 0), ([2, 2], 0), ([-1, -1], 0)])
def test_dicttest_reads_a_weight_pair_as_a_mass_pair(weight, code, tmp_path, capsys):
    """A null denominator is refused, as in a "p" pair; a pair that reduces
    to 1 is the one constraint's full weight."""
    data = instance_json(fixtures.three_lin_instance())
    data["constraints"][0]["w"] = weight
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": 2, "alphabet": ["0", "1"], "dictator": 1}))
    assert main(["dicttest", str(inst), str(fn)]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("parse error: bad instance payload: ")
        assert weight[1] is not None or err.endswith("null denominator\n")
    else:
        assert json.loads(out)["result"]["acceptance"] == [1, 1]


def _truncating_payloads():
    """(argv, payload, parser name): an integer field that int() would
    truncate or read from a bool; "{}" in the argv is the payload file."""
    sym = {"n": 3, "alphabet": ["0", "1"], "dictator": 1}
    inst = instance_json(fixtures.three_lin_instance())
    pred = inst["predicate"]
    table = {"n": 1, "alphabet": ["0", "1"], "values": [[1, 0], [0, 1]]}
    return [
        (("dicttest", "inst", "{}"), {**sym, "dictator": 1.7}, "symbol function"),
        (("dicttest", "inst", "{}"), {**sym, "n": 2.9}, "symbol function"),
        (("dicttest", "{}", "sym"), {**inst, "predicate": {**pred, "k": 3.7}}, "predicate"),
        (("dicttest", "{}", "sym"),
         {**inst, "predicate": {**pred, "truth": [1.5, *pred["truth"][1:]]}}, "predicate"),
        (("dicttest", "{}", "sym"),
         {**inst, "predicate": {**pred, "truth": [1, 0.4, *pred["truth"][2:]]}}, "predicate"),
        (("stability", "{}", "--rho", "0.5"), {**table, "n": 1.5}, "table function"),
        (("analyze", "{}"), {"alphabets": [["0", "1"]], "atoms": [
            {"x": ["0"], "p": [True, 2]}, {"x": ["1"], "p": [1, 2]}]}, "distribution"),
    ]


@pytest.mark.parametrize("argv, payload, parser", _truncating_payloads())
def test_integer_fields_are_not_truncated(argv, payload, parser, tmp_path, capsys):
    files = {"inst": tmp_path / "inst.json", "sym": tmp_path / "sym.json",
             "{}": tmp_path / "payload.json"}
    fixtures.three_lin_instance().save(str(files["inst"]))
    files["sym"].write_text(json.dumps({"n": 2, "alphabet": ["0", "1"], "dictator": 1}))
    files["{}"].write_text(json.dumps(payload))
    assert main([str(files.get(a, a)) for a in argv]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"parse error: bad {parser} payload: ")


def test_dicttest_mc(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    fixtures.three_lin_instance().save(str(inst))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": 4, "alphabet": ["0", "1"], "dictator": 0}))
    code, out = run_cli(capsys, "dicttest", str(inst), str(fn), "--mode", "mc",
                        "--samples", "500", "--seed", "3")
    assert code == 0
    assert json.loads(out)["result"]["acceptance"] == 1.0


def test_stability_size_guard_exit_code(tmp_path, capsys):
    # n = 19 is the smallest n whose n + 1 stacked degree parts (20 * 2^19
    # entries) exceed the dense-tensor guard
    f = tmp_path / "f.json"
    write_parity_product(str(f), 19)
    code, _ = run_cli(capsys, "stability", str(f), "--rho", "0.5", "--decompose")
    assert code == 3


# A dictator compiles to one read layer wherever its coordinate is, so
# both dictators are answered (4 DP transitions each).
@pytest.mark.parametrize("command, payload, code", [
    ("stability", {"n": 10 ** 30, "alphabet": ["0", "1"], "values": []}, 2),
    ("dicttest", {"n": 10 ** 11, "alphabet": ["0", "1"], "dictator": 0}, 0),
    ("dicttest", {"n": 10 ** 11, "alphabet": ["0", "1"], "dictator": 10 ** 11 - 1}, 0),
])
def test_huge_sizes_end_fast(command, payload, code, tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps(payload))
    inst = tmp_path / "inst.json"
    fixtures.three_lin_instance().save(str(inst))
    argv = ([str(fn), "--rho", "0.5"] if command == "stability" else [str(inst), str(fn)])
    start = time.perf_counter()
    got, out = run_cli(capsys, command, *argv)
    assert time.perf_counter() - start < 5
    assert got == code
    if code == 0:
        assert json.loads(out)["result"]["acceptance"] == [1, 1]


def write_instance(tmp_path, predicate):
    """An instance file with `predicate` and the 3-LIN constraint, and a
    dictator file for it; their paths."""
    inst, fn = tmp_path / "inst.json", tmp_path / "f.json"
    inst.write_text(json.dumps({**instance_json(fixtures.three_lin_instance()),
                                "predicate": predicate}))
    fn.write_text(json.dumps({"n": 2, "alphabet": ["0", "1"], "dictator": 1}))
    return str(inst), str(fn)


# An "accept" list does not bound |alphabet|^k by its length, so the cell
# indices must fit in int64, and k must be at most 63, before anything of
# size k or |alphabet|^k is built (a one-symbol alphabet included).
@pytest.mark.parametrize("size, k", [(60, 11), (60, 10 ** 30), (1, 10 ** 12), (2, -1)])
def test_predicates_past_int64_cells_exit_2_at_once(size, k, tmp_path, capsys):
    symbols = [f"g{i:02d}" for i in range(size)]  # 60^10 < 2^63 <= 60^11
    inst, fn = write_instance(tmp_path, {"alphabet": symbols, "k": k, "accept": [0]})
    start = time.perf_counter()
    code, out, err = run_cli_err(capsys, "dicttest", inst, fn)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "validation failure: a predicate needs 0 <= k <= 63 and |alphabet|^k < 2^63\n"


@pytest.mark.parametrize("accept, message", [
    ([0, 5, 3, 6], "accepted cells must be strictly increasing"),
    ([0, 3, 3, 5, 6], "accepted cells must be strictly increasing"),
    ([-1, 0, 3, 5, 6], "accepted cell out of range"),
    ([0, 3, 5, 6, 8], "accepted cell out of range"),
    ([0, 3, 5, 6, 2 ** 63], "accepted cell out of range"),
    ([-2 ** 63 - 1, 0, 3, 5, 6], "accepted cell out of range"),
])
def test_bad_accepted_cells_exit_2(accept, message, tmp_path, capsys):
    pred = {"alphabet": ["0", "1"], "k": 3, "accept": [0, 3, 5, 6]}
    code, out = run_cli(capsys, "dicttest", *write_instance(tmp_path, pred))
    assert code == 0 and json.loads(out)["result"]["acceptance"] == [1, 1]
    code, out, err = run_cli_err(capsys, "dicttest",
                                 *write_instance(tmp_path, {**pred, "accept": accept}))
    assert code == 2 and out == ""
    assert err == f"validation failure: {message}\n"


def test_internal_check_failure_exits_5(tmp_path, capsys, monkeypatch):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    monkeypatch.setattr(embedding, "witness_holds", lambda dist, witness: False)
    code = main(["analyze", str(dist)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == "internal error: extracted witness failed verification\n"


def test_verify_snf_suite(capsys):
    code, out = run_cli(capsys, "verify", "snf")
    assert code == 0
    assert "[PASS] criterion 2" in out


@pytest.mark.parametrize("suite", ["snf", "embedding-oracle"])
def test_verify_prints_the_same_bytes_on_every_run(capsys, suite):
    """A passing suite reports no wall-clock time, so its digest is stable."""
    first, second = run_cli(capsys, "verify", suite), run_cli(capsys, "verify", suite)
    assert first[0] == 0
    assert first == second


def test_importing_the_cli_leaves_the_suites_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(embedlens.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, embedlens.cli; print('embedlens.acceptance' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout == "False\n", proc.stderr


def test_verify_unknown_suite(capsys):
    code = main(["verify", "no-such-suite"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "validation failure: unknown suite 'no-such-suite'; choose from ['all', ")


@pytest.mark.parametrize("argv, message", [
    (["correlate", "mu.json", "f.json", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
    (["reduce", "mu.json", "--op", "star-coupling", "--p-star", "-1/3"],
     "argument --p-star: expected one argument"),
])
def test_usage_errors_are_one_line_parse_errors(argv, message, capsys):
    assert main(argv) == 4
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: embedlens")


def test_fixture_writer(tmp_path, capsys):
    out_path = tmp_path / "m7.json"
    code, _ = run_cli(capsys, "fixture", "punctured-cube", str(out_path))
    assert code == 0
    assert JointDistribution.load(str(out_path)) == fixtures.punctured_cube()


# sha256 of the canonical analyze result (the manifest digest) per fixture,
# recorded before the lattice path went sparse; verdict bytes must not drift.
ANALYZE_DIGESTS = {
    "3lin": "59148a84ca333d7fcc0ff8f61ef83dea2f3cc2f64db8d0d278dd7254f38153dc",
    "z3sum": "7422b572198d5bfd59d2b79ef56ca4443006c6df17759a30337a9ef64d5fcfca",
    "punctured-cube": "fb0f2d3b7d0b5d6cd739e7db539563fe85ff58575c56685dba0c1be69f5d5c92",
    "disconnected-pair": "73d984e2c61df58a0058a55a36d442055bb9db5ccd4a3749de329675fd8109e4",
    "single-atom": "1d9ef907ef001a1f1889cba9821133a2b23bcd17e08e4e619a4171164a49dc49",
    "a5": "8351f634a8f2f2d0369398bcd5ffc6c50b1a37ad08f5bc1543d38d0a539c1e73",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_DIGESTS))
def test_analyze_result_bytes_pinned(name, tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.NAMED[name]().save(str(dist))
    code, out = run_cli(capsys, "analyze", str(dist))
    assert code == 0
    payload = json.loads(out)
    canonical = json.dumps(payload["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ANALYZE_DIGESTS[name]
    assert payload["manifest"]["digest"] == ANALYZE_DIGESTS[name]


# The same digest of `analyze` on the supports of `oracles.smith_supports`,
# where H is not the identity and the Smith normal form of H gives the
# divisors, the rank and the witness; recorded with the dense elimination.
SMITH_DIGESTS = {
    "a4-triple": "e7b7f9aac49b8937c85fa731fcd9bb3fdfbad18fa3c6166ad7ae0b7d6c9f98ba",
    "s4-triple": "e6cdfd0458991c8a0f8333279828f7153c58eb69af66e18dce8866b6d1c0f8be",
    "s4-relabelled": "bdd12728e5e1e4aeb8dd874a786f96910a9982563dbf65b8967611a41d0ffb4d",
    "z4-sum-k4": "90474c2c30b68cc2ceaf304fb0bcebf303713d832f288e1426c042e6b05e2756",
    "rank-deficient": "164ee10191ac0c18e4e5d4da6f0c17fb90456aae5a4cc0accce61c42721bf5d5",
}


@pytest.mark.parametrize("name", sorted(SMITH_DIGESTS))
def test_analyze_bytes_pinned_where_the_smith_form_decides(name, tmp_path, capsys):
    alphabets, support = smith_supports()[name]
    mu = uniform_on(alphabets, support)
    verdict = embedding.detect_embedding(mu)
    assert verdict.rank < verdict.s or verdict.snf_divisors[-1] > 1  # H is not the identity
    dist = tmp_path / "mu.json"
    mu.save(str(dist))
    code, out = run_cli(capsys, "analyze", str(dist))
    assert code == 0
    payload = json.loads(out)
    canonical = json.dumps(payload["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == SMITH_DIGESTS[name]
    assert payload["manifest"]["digest"] == SMITH_DIGESTS[name]


# sha256 of the full stdout (manifest, indentation and final newline
# included) of each command run on the inputs of `pinned_inputs` by relative
# path, recorded while stdout was still written by json.dumps(indent=2,
# sort_keys=True); the output bytes must not drift.
FULL_STDOUT = {
    "analyze-a5": (("analyze", "a5.json"),
                   "ac0d50f70485ac32ef64476d6f1f6b83e25975a10772d33b232820bd2b44fe91"),
    "paired-3lin": (("reduce", "3lin.json", "--op", "paired-copies"),
                    "538680a802ff8bab59f402f1237ec836aa39268d8269a973939a28b258ca87ba"),
    "paired-z3sum": (("reduce", "z3sum.json", "--op", "paired-copies"),
                     "93bf889477506d55aaf904f78a8f5611a3e13a34d67e2c7101178d5abf659716"),
    "star-3lin": (("reduce", "3lin.json", "--op", "star-coupling", "--p-star", "1/3"),
                  "998098499a71a30417e98246ab5bf19373b7abe1beb867a07a45599cab51b86e"),
    "star-z3sum": (("reduce", "z3sum.json", "--op", "star-coupling", "--p-star", "1/4"),
                   "faab965de06a6f4cbf0a8aa44b5a6fd1e5a35b7b098ac6dda32ed98e5f1d3be1"),
    "stability": (("stability", "f.json", "--rho", "0.7", "--decompose"),
                  "4754aa500ad8c902854c04bb5618ecf431ec9e178f801b08c616a2bbd7b03c64"),
    "dicttest-mc": (("dicttest", "3lin-instance.json", "dictator.json", "--mode", "mc",
                     "--samples", "2000", "--seed", "5"),
                    "0c3ab4b0030a2aaa5b5713eab52b8a05e35ba08461c9d9b9a14833bfcbdfb280"),
    "verify": (("verify", "reduction"),
               "904ceff6c1bcc3b28c238014d9d46fabf8848f0ae1c089146bc28862fb94c221"),
    "paired-a4": (("reduce", "a4.json", "--op", "paired-copies"),
                  "deb480e9f5cf65fb7c381cfe9d8a5c040c2e9c7649e0972f6fc06e6d53a024fa"),
    "star-a4": (("reduce", "a4.json", "--op", "star-coupling", "--p-star", "1/5"),
                "8fe5cfe0011c8388603600e228a278b99ad28658e89672d7e70f0b84e92361d0"),
    "paired-escapes": (("reduce", "escapes.json", "--op", "paired-copies"),
                       "a9ebf7efc04fd2e6d73a6f06cffab899b392d7ba1a267a2a049939bef58a94e5"),
    "star-escapes": (("reduce", "escapes.json", "--op", "star-coupling", "--p-star", "1/5"),
                     "0fbe0098975c41039cd4fc61c189379af2c6ee8f6e61fa716df9f910d966e22d"),
}

# sha256 of the file `reduce --out` writes for each FULL_STDOUT reduce request
# on an input built in this file, recorded with the stdout digests above.
OUT_FILE_DIGESTS = {
    "paired-a4": "67c734f53eb14b7ed67e467aca87007ce03e05d737098343976c2593b62de221",
    "star-a4": "3d1b554b006ac8a355d7e9aeee0564fc796d3e1a5c6ce20d5c2035a2cbfd7325",
    "paired-escapes": "24d610cdb14d319ad5358a5aa3d03985f6cc3e9e22388700a9371cee2fe062e2",
    "star-escapes": "925b130ce12d65308bf68eac90ea0db71b9c8984077f47ce77ce47be3c74a855",
}


def _a4_triple_product() -> dict:
    """The payload of the uniform distribution on {(x, y, z) : xyz = e} over A4^3."""
    alphabets, support = triple_product(group_elements(4, True))
    return {"alphabets": [list(a.symbols) for a in alphabets],
            "atoms": [{"x": list(x), "p": [1, len(support)]} for x in support]}


# symbols that json must escape: a quote, a backslash, control characters and
# non-ASCII text (none holds the pair separator "|" or is the star "*")
ESCAPED_SYMBOLS = ['a"q', "b\\s", "c\x07", "\u00e9t\u00e9", "\U0001f600 x"]


def _escapes_distribution() -> dict:
    """The payload of a small distribution with ESCAPED_SYMBOLS and unequal masses."""
    first, second = ESCAPED_SYMBOLS[:4], ESCAPED_SYMBOLS[1:] + ["\n"]
    cells = [(i, j) for i in range(len(first)) for j in range(len(second))]
    total = sum(1 + i * j % 3 for i, j in cells)
    atoms = [{"x": [first[i], second[j], "1" if (i + j) % 3 else "0"],
              "p": [1 + i * j % 3, total]} for i, j in cells]
    return {"alphabets": [first, second, ["0", "1"]], "atoms": atoms}


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("pinned")
    for name in ("a5", "3lin", "z3sum", "3lin-instance"):
        fixtures.NAMED[name]().save(str(d / f"{name}.json"))
    (d / "f.json").write_text(json.dumps({
        "n": 3, "alphabet": ["0", "1", "2"],
        "values": [[(i * 7 % 11) / 10 - 0.5, (i * 5 % 13) / 20] for i in range(27)]}))
    (d / "dictator.json").write_text(json.dumps({"n": 9, "alphabet": ["0", "1"], "dictator": 4}))
    (d / "a4.json").write_text(json.dumps(_a4_triple_product()))
    (d / "escapes.json").write_text(json.dumps(_escapes_distribution()))
    return d


@pytest.mark.parametrize("name", sorted(FULL_STDOUT))
def test_full_stdout_bytes_pinned(name, pinned_inputs, monkeypatch, capsys):
    argv, digest = FULL_STDOUT[name]
    monkeypatch.chdir(pinned_inputs)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reduce_out_file_holds_the_result_as_stdout_writes_it(pinned_inputs, tmp_path, capsys):
    target = tmp_path / "coupling.json"
    code, out = run_cli(capsys, "reduce", str(pinned_inputs / "z3sum.json"), "--op",
                        "star-coupling", "--p-star", "1/4", "--out", str(target))
    assert code == 0
    result = json.loads(out)["result"]
    assert target.read_bytes() == (render(result)[0] + "\n").encode()
    assert target.read_bytes() == (json.dumps(result, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("name", sorted(OUT_FILE_DIGESTS))
def test_reduce_out_file_bytes_pinned(name, pinned_inputs, tmp_path, monkeypatch, capsys):
    argv, stdout_digest = FULL_STDOUT[name]
    monkeypatch.chdir(pinned_inputs)
    target = tmp_path / "out.json"
    code, out = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == OUT_FILE_DIGESTS[name]
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


def test_float_overflow_in_a_handler_is_one_stderr_line(tmp_path):
    # numpy warnings go to the real stderr, which capsys does not see
    mu = tmp_path / "mu.json"
    fixtures.three_lin().save(str(mu))
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 1, "alphabet": ["0", "1"],
                               "values": [[1e308, 1e308], [1e308, -1e308]]}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(embedlens.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "embedlens.cli", "reduce", str(mu), "--op", "conditional-product",
         "--functions", str(big), str(big)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "validation failure: function values must be finite (no NaN or infinity)\n"


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NAN = float("nan")


def write_nan_function(path, kind):
    if kind == "table":
        payload = {"n": 1, "alphabet": ["0", "1"], "values": [[1.0, 0.0], [NAN, 0.0]]}
    else:
        payload = {"alphabet": ["0", "1"], "factors": [{"0": [1.0, 0.0], "1": [0.0, NAN]}]}
    with open(path, "w") as fh:
        json.dump(payload, fh)  # writes the bare NaN token json.load accepts


@pytest.mark.parametrize("kind", ["table", "product"])
def test_correlate_rejects_nan_function_values(kind, tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    bad = tmp_path / "bad.json"
    write_nan_function(str(bad), kind)
    good = tmp_path / "good.json"
    write_parity_product(str(good), 1)
    code, out, err = run_cli_err(capsys, "correlate", str(dist), str(bad), str(good), str(good),
                                 "--n", "1")
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("kind", ["table", "product"])
def test_stability_rejects_nan_function_values(kind, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_nan_function(str(bad), kind)
    code, out, err = run_cli_err(capsys, "stability", str(bad), "--rho", "0.5")
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_emit_refuses_non_finite_results(capsys):
    with pytest.raises(ValidationError, match="non-finite"):
        _emit("stability", [], {}, {"stability": NAN})
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("to_file", [False, True])
def test_an_integer_over_the_digit_limit_is_a_size_guard(to_file, tmp_path, capsys):
    # squared masses 1/d^2 with d = 10^2200 + 1 need 4,401 digits
    d = 10 ** 2200 + 1
    dist = tmp_path / "mu.json"
    dist.write_text(json.dumps({"alphabets": [["0", "1"], ["0", "1"]], "atoms": [
        {"x": ["0", "0"], "p": [1, d]}, {"x": ["0", "1"], "p": [d - 2, d]},
        {"x": ["1", "1"], "p": [1, d]}]}))
    out_file = tmp_path / "out.json"
    extra = ["--out", str(out_file)] if to_file else []
    code, out, err = run_cli_err(capsys, "reduce", str(dist), "--op", "paired-copies", *extra)
    assert (code, out) == (3, "")
    assert err.startswith(f"size guard: output would hold an integer over the "
                          f"{sys.get_int_max_str_digits()}-digit limit")
    assert "non-finite" not in err and err.count("\n") == 1
    assert not out_file.exists()


def test_reduce_star_coupling_p_nu_is_validated(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    code, out, err = run_cli_err(capsys, "reduce", str(dist), "--op", "star-coupling",
                                 "--p-star", "1/3", "--p-nu", "2")
    assert code == 2
    assert out == ""
    assert "branch probabilities must lie in [0, 1]" in err
    code, out = run_cli(capsys, "reduce", str(dist), "--op", "star-coupling",
                        "--p-star", "1/3", "--p-nu", "1/2")
    assert code == 0
    assert json.loads(out)["result"]["p_nu"] == [1, 2]


@pytest.mark.parametrize("op, extra", [
    ("paired-copies", ["--functions", "f.json"]),
    ("paired-copies", ["--p-star", "1/3"]),
    ("paired-copies", ["--p-nu", "1/2"]),
    ("paired-copies", ["--rate", "1/2"]),
    ("paired-copies", ["--n", "1"]),
    ("star-coupling", ["--p-star", "1/3", "--functions", "f.json"]),
    ("star-coupling", ["--p-star", "1/3", "--rate", "1/2"]),
    ("star-coupling", ["--p-star", "1/3", "--n", "1"]),
    ("conditional-product", ["--functions", "f.json", "f.json", "--p-star", "1/3"]),
    ("conditional-product", ["--functions", "f.json", "f.json", "--p-nu", "1/2"]),
    ("conditional-product", ["--functions", "f.json", "f.json", "--rate", "1/2"]),
    ("conditional-product", ["--functions", "f.json", "f.json", "--n", "1"]),
    ("coupling-identity", ["--functions", "f.json", "--n", "1", "--p-star", "1/3",
                           "--p-nu", "1/2"]),
    ("coupling-identity", ["--functions", "f.json", "f.json", "--n", "1", "--p-star", "1/3"]),
])
def test_reduce_refuses_flags_its_op_does_not_read(op, extra, tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    table = tmp_path / "f.json"
    table.write_text(json.dumps({"n": 1, "alphabet": ["0", "1"], "values": [[1, 0], [-1, 0]]}))
    argv = [str(table) if a == "f.json" else a for a in extra]
    code, out, err = run_cli_err(capsys, "reduce", str(dist), "--op", op, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"validation failure: --op {op} ") and err.count("\n") == 1


def test_negative_analyze_and_reductions_never_decode_support(tmp_path, capsys, monkeypatch):
    paths = {}
    for name in ("punctured-cube", "a5", "3lin"):
        paths[name] = str(tmp_path / f"{name}.json")
        fixtures.NAMED[name]().save(paths[name])

    def decoded(self):
        raise RuntimeError("JointDistribution.support was read")

    monkeypatch.setattr(JointDistribution, "support", property(decoded))
    for name in ("punctured-cube", "a5"):
        code, out = run_cli(capsys, "analyze", paths[name])
        assert code == 0 and json.loads(out)["result"]["admits_embedding"] is False
    for extra in (["star-coupling", "--p-star", "1/3"], ["paired-copies"]):
        code, _ = run_cli(capsys, "reduce", paths["3lin"], "--op", *extra)
        assert code == 0


def test_byte_reproducibility(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    _, out1 = run_cli(capsys, "analyze", str(dist))
    _, out2 = run_cli(capsys, "analyze", str(dist))
    assert out1 == out2


@pytest.mark.parametrize("payload", [5, None, True, 0.0])
@pytest.mark.parametrize("command", ["correlate", "stability", "conditional-product"])
def test_non_object_function_file_is_a_parse_error(payload, command, tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    good = tmp_path / "good.json"
    write_parity_product(str(good), 1)
    argv = {
        "correlate": ("correlate", str(dist), str(bad), str(good), str(good), "--n", "1"),
        "stability": ("stability", str(bad), "--rho", "0.5"),
        "conditional-product": ("reduce", str(dist), "--op", "conditional-product",
                                "--functions", str(bad), str(good)),
    }[command]
    code, out, err = run_cli_err(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "must be a JSON object" in err


def test_stability_of_large_values_is_real(tmp_path, capsys):
    # |values| ~ 1e6: the imaginary rounding (~1e-6) is tiny relative to ||f||^2 ~ 1e12
    rng = np.random.default_rng(0)
    vals = 1e6 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"n": 6, "alphabet": ["0", "1"],
                             "values": [[v.real, v.imag] for v in vals]}))
    code, out = run_cli(capsys, "stability", str(f), "--rho", "0.5", "--decompose")
    assert code == 0
    result = json.loads(out)["result"]
    predicted = sum(0.5 ** d * w for d, w in enumerate(result["degree_weights"]))
    assert result["stability"] == pytest.approx(predicted, rel=1e-10)


# sha256 of every file `embedlens fixture NAME` writes, recorded when the
# distribution files and each instance's "mu" moved to the columnar form.
FIXTURE_FILE_DIGESTS = {
    "3lin": "b439ccb22e153a4a72b493f9008e2b29d5bc46ebb4b695ce4cf519d17dc5371c",
    "3lin-instance": "94729d4bc667c0fdcb4a9356c92e2123d18f5297dcda4ee730df44336d6de3d8",
    "a5": "99389262edc0a4d6f103199e6876fafa55c7569c03bad5910c3123bf98a73b07",
    "a5-instance": "602b1c6f97791d4e4eeeb60ad0a5eeae7ec364611bc6b352f8919f024603ceae",
    "disconnected-pair": "57927aee55b87e65f51da4dd33e7678291d4965f8d130b49f3f08f6e544b2a63",
    "full-support": "aa8f41288c0ea5a0282e9cb4addcaf6d34d51bb561aff5c3823c2781a81d80fa",
    "punctured-cube": "10fa131f94e6cc0cad601a153df0d0d96c27dce7f6072371fa78450e458967d2",
    "single-atom": "e9ec1a64f6a22d0012ace734a895e44911884b0ae5456d21e2da5e33da2d68c3",
    "z3sum": "1d5e3f26907e5282415bba0b83a5f161fffdb34e65574e778efe0c37d84c1dc9",
}


# The fixture files as written in the row form, recorded before the file
# readers and writers moved behind one JSON boundary: loaded and written
# again in that form, each fixture must give these bytes, so no atom, mass
# or accepted cell moved when the columnar form replaced it.
ROW_FORM_DIGESTS = {
    "3lin": "65e10b16fb18292777bdf0ccfdee9e94f38b93856c666d91f6ebfc79ec3581aa",
    "3lin-instance": "8a0baa8bef1ef561dcba291537efc7b3201b6f6c5298967e72ac221ed582cb18",
    "a5": "db3f61d8ef0b87c5d5f229b7d0cc638f5818a0f1798d641cf4ca1d39f6c5e45d",
    "a5-instance": "9cea853373d4b70deff77c6e8a666104661103dcd0a8c57d801b7a701196f3ad",
    "disconnected-pair": "db7645be59fafb80bf0497467897f6c3075b0439d56ea07c1f3c1f9f1373b677",
    "full-support": "249f6bc8c03e8c3b37aa22a87784dedb25cd47992ce44e5f2559386751a7bccf",
    "punctured-cube": "9949d6b5fd04228d3083e05c7edccc18b5d96d872f432cdda855513e655780e1",
    "single-atom": "b69b1a8676f978406a95e63778e928e51f886b03d0343e09942fbd04bc3b42e2",
    "z3sum": "85d4b0b051fa67811d014a53eb25e3f7527a585bd48c9a5ec3f6ed0a9c1077b0",
}


# The instance fixtures as written when a predicate was written as its 0/1
# table: rendered again in that form, each instance file must give these
# bytes, so no accepted cell and no atom moved when "accept" replaced "truth".
TRUTH_FORM_DIGESTS = {
    "3lin-instance": "1406fa15004c48474085f7230df7d8aad4945c8704dad19e933fa5da26c4751a",
    "a5-instance": "95a58b4fc2d02f8db0efab558e37d5ff1c8dda31b421c490bc321fca274e25ce",
}


def row_form(inst: TestInstance, predicate: dict) -> dict:
    """The payload of `inst` with `predicate`, each "mu" the row-form atom
    list of its distribution's `to_json`."""
    return {"predicate": predicate,
            "constraints": [{"w": [w.numerator, w.denominator], "mu": mu.to_json()["atoms"]}
                            for w, mu in inst.constraints]}


@pytest.mark.parametrize("name", sorted(FIXTURE_FILE_DIGESTS))
def test_fixture_file_bytes_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    code, _ = run_cli(capsys, "fixture", name, str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXTURE_FILE_DIGESTS[name]
    again = tmp_path / "again.json"

    def written(data) -> str:
        write_json(str(again), data)
        return hashlib.sha256(again.read_bytes()).hexdigest()

    if name in TRUTH_FORM_DIGESTS:
        inst = TestInstance.load(str(path))
        assert written(row_form(inst, inst.predicate.to_json())) == ROW_FORM_DIGESTS[name]
        assert written(row_form(inst, truth_json(inst.predicate))) == TRUTH_FORM_DIGESTS[name]
    else:
        assert written(JointDistribution.load(str(path)).to_json()) == ROW_FORM_DIGESTS[name]


def test_unknown_fixture_lists_every_name(capsys):
    code, out, err = run_cli_err(capsys, "fixture", "no-such-fixture", "x.json")
    assert code == 2
    assert all(repr(name) in err for name in FIXTURE_FILE_DIGESTS)


@pytest.mark.parametrize("command", ["fixture", "reduce"])
def test_failed_write_exits_4_and_names_the_write(command, tmp_path, capsys):
    dist = tmp_path / "mu.json"
    fixtures.three_lin().save(str(dist))
    target = str(tmp_path / "missing" / "out.json")
    argv = (["fixture", "3lin", target] if command == "fixture"
            else ["reduce", str(dist), "--op", "paired-copies", "--out", target])
    code, out, err = run_cli_err(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("cannot write output: ") and target in err


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli_err(capsys, "analyze", str(bad))
    assert code == 4
    assert err.startswith("parse error: ")


def test_dicttest_does_not_run_the_embedding_analysis(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    fixtures.three_lin_instance().save(str(inst))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": 3, "alphabet": ["0", "1"], "dictator": 1}))

    def refuse(mu):
        raise AssertionError("dicttest ran the embedding verdict")

    monkeypatch.setattr(dicttest, "detect_embedding", refuse)
    code, out = run_cli(capsys, "dicttest", str(inst), str(fn))
    assert code == 0
    assert json.loads(out)["result"]["acceptance"] == [1, 1]


def test_dicttest_rejects_unnormalized_weights(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    data = instance_json(fixtures.three_lin_instance())
    data["constraints"][0]["w"] = [1, 2]
    inst.write_text(json.dumps(data))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": 2, "alphabet": ["0", "1"], "dictator": 0}))
    code, out, err = run_cli_err(capsys, "dicttest", str(inst), str(fn))
    assert code == 2
    assert err == "validation failure: weights sum to 1/2, expected 1\n"


@pytest.mark.parametrize("command", ["dicttest", "dicttest-n0", "correlate"])
def test_monte_carlo_draws_are_bounded(command, tmp_path, capsys):
    if command.startswith("dicttest"):
        inst = tmp_path / "inst.json"
        fixtures.three_lin_instance().save(str(inst))
        fn = tmp_path / "f.json"
        if command == "dicttest":  # 10 samples of a dictator on 10**11 coordinates
            f, samples = {"n": 10 ** 11, "alphabet": ["0", "1"], "dictator": 0}, 10
        else:  # 10**12 samples of a constant on no coordinates: each still costs a draw
            f, samples = {"n": 0, "alphabet": ["0", "1"], "constant": "0"}, 10 ** 12
        fn.write_text(json.dumps(f))
        argv = ["dicttest", str(inst), str(fn), "--samples", str(samples)]
    else:  # 10**12 samples at n = 1
        dist = tmp_path / "mu.json"
        fixtures.three_lin().save(str(dist))
        f = tmp_path / "f.json"
        write_parity_product(str(f), 1)
        argv = ["correlate", str(dist), str(f), str(f), str(f), "--n", "1",
                "--samples", str(10 ** 12)]
    start = time.perf_counter()
    code, out, err = run_cli_err(capsys, *argv, "--mode", "mc", "--seed", "1")
    assert time.perf_counter() - start < 5
    assert code == 3
    assert f"guard is {MC_DRAW_GUARD}" in err


def test_sweep_row_n_equals_exact_correlation(tmp_path, capsys):
    rng = np.random.default_rng(5)
    for name in ("3lin", "z3sum"):
        mu = fixtures.NAMED[name]()
        dist = tmp_path / f"{name}.json"
        mu.save(str(dist))
        alpha = mu.alphabets[0]
        rows, paths = [], []
        for i in range(3):
            rows.append(rng.uniform(-1, 1, (1, len(alpha))) + 1j * rng.uniform(-1, 1, (1, len(alpha))))
            paths.append(str(tmp_path / f"{name}-f{i}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(ProductFunction(alpha, rows[-1]).to_json(), fh)
        code, out = run_cli(capsys, "correlate", str(dist), *paths, "--sweep-n", "25")
        assert code == 0
        sweep = json.loads(out)["result"]["sweep"]
        assert [r["n"] for r in sweep] == list(range(1, 26))
        for r in sweep:
            n = r["n"]
            fs = [ProductFunction(alpha, np.repeat(row, n, axis=0)) for row in rows]
            value = exact_correlation(mu, fs, n).value
            assert complex(*r["value"]) == value
            assert r["abs"] == abs(value)


def write_sweep_inputs(tmp_path) -> list[str]:
    """The punctured cube and one single-row parity product per coordinate."""
    dist = tmp_path / "mu.json"
    fixtures.punctured_cube().save(str(dist))
    fns = []
    for i in range(3):
        fns.append(str(tmp_path / f"f{i}.json"))
        write_parity_product(fns[-1], 1)
    return [str(dist), *fns]


@pytest.mark.parametrize("n, code", [(0, 2), (-3, 2), (SWEEP_GUARD + 1, 3)])
def test_sweep_n_is_bounded_on_both_sides(n, code, tmp_path, capsys):
    start = time.perf_counter()
    got, out, err = run_cli_err(capsys, "correlate", *write_sweep_inputs(tmp_path),
                                f"--sweep-n={n}")
    assert time.perf_counter() - start < 5
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and ("must be positive" if code == 2 else "guard") in err


EXACT_READS_NO_SAMPLES = "--mode exact reads neither --samples nor --seed; they are for --mode mc"


@pytest.mark.parametrize("extra, message", [
    (["--sweep-n", "2", "--mode", "mc", "--samples", "10", "--seed", "1"],
     "--sweep-n evaluates exactly; it cannot run --mode mc"),
    (["--n", "2", "--csv"], "--csv writes sweep rows; it needs --sweep-n"),
    (["--mode", "exact", "--n", "1", "--samples", "10", "--seed", "3"], EXACT_READS_NO_SAMPLES),
    (["--n", "1", "--seed", "3"], EXACT_READS_NO_SAMPLES),
    (["--n", "1", "--samples", "10"], EXACT_READS_NO_SAMPLES),
    (["--sweep-n", "2", "--n", "5"], "--sweep-n evaluates n = 1..N; it cannot take --n"),
    (["--sweep-n", "2", "--seed", "4"], EXACT_READS_NO_SAMPLES),
])
def test_correlate_refuses_flags_it_cannot_honour(extra, message, tmp_path, capsys):
    code, out, err = run_cli_err(capsys, "correlate", *write_sweep_inputs(tmp_path), *extra)
    assert (code, out, err) == (2, "", f"validation failure: {message}\n")


@pytest.mark.parametrize("extra", [
    ["--samples", "10", "--seed", "3"], ["--mode", "exact", "--seed", "3"], ["--samples", "10"]])
def test_dicttest_exact_refuses_sampling_flags(extra, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    fixtures.three_lin_instance().save(str(inst))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": 3, "alphabet": ["0", "1"], "dictator": 1}))
    code, out, err = run_cli_err(capsys, "dicttest", str(inst), str(fn), *extra)
    assert (code, out, err) == (2, "", f"validation failure: {EXACT_READS_NO_SAMPLES}\n")


class BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("extra", [[], ["--csv"]])
def test_failed_stdout_write_exits_4_and_names_the_write(extra, tmp_path, capsys, monkeypatch):
    argv = ["correlate", *write_sweep_inputs(tmp_path), "--sweep-n", "3", *extra]
    monkeypatch.setattr("sys.stdout", BrokenStdout())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert err == "cannot write output: stdout: [Errno 32] Broken pipe\n"


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    # the reader leaves after one line; the CSV (183 kB: most rows underflow to
    # 0.0, so 3000 rows were only 64 kB) is larger than a 64 KiB pipe holds
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(embedlens.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "embedlens.cli", "correlate", *write_sweep_inputs(tmp_path),
         "--sweep-n", str(SWEEP_GUARD), "--csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n,re,im,abs\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4
    assert err == "cannot write output: stdout: [Errno 32] Broken pipe\n"


# ---------------------------------------------------------------------------
# Fuzz: the numeric options end in a documented exit code with one line on
# stderr, or in finite JSON on stdout.

SMALL_OR_HUGE = (st.integers(-3, 40) | st.integers(10 ** 6, 10 ** 12)
                 | st.integers(-10 ** 12, -10 ** 6))
# without a guard every row of a sweep is built, so values stay just past it
SWEEPS = st.integers(-3, 40) | st.integers(SWEEP_GUARD + 1, SWEEP_GUARD + 10)
RATIONALS = (st.fractions(-3, 3, max_denominator=40).map(str)
             | st.sampled_from(["0", "1", "0.5", "1e3", "7/7", "10"]))
RHOS = st.floats().map(repr) | st.floats(0, 1).map(repr)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


def _numeric_argvs(d, draw):
    mu = os.path.join(d, "mu.json")
    fixtures.three_lin().save(mu)
    p = os.path.join(d, "p.json")
    write_parity_product(p, 1)
    table = os.path.join(d, "table.json")
    with open(table, "w") as fh:
        json.dump({"n": 1, "alphabet": ["0", "1"], "values": [[1, 0], [0, 0.5]]}, fh)
    inst = os.path.join(d, "inst.json")
    fixtures.three_lin_instance().save(inst)
    sym = os.path.join(d, "sym.json")
    with open(sym, "w") as fh:
        json.dump({"n": 2, "alphabet": ["0", "1"], "dictator": 1}, fh)
    n, samples = draw(SMALL_OR_HUGE), draw(SMALL_OR_HUGE)
    return [
        ["correlate", mu, p, p, p, f"--n={n}"],
        ["correlate", mu, p, p, p, f"--n={n}", "--mode=mc", f"--samples={samples}", "--seed=1"],
        ["correlate", mu, p, p, p, f"--sweep-n={draw(SWEEPS)}"],
        ["stability", table, f"--rho={draw(RHOS)}", "--decompose"],
        ["reduce", mu, "--op=star-coupling", f"--p-star={draw(RATIONALS)}",
         f"--p-nu={draw(RATIONALS)}"],
        ["reduce", mu, "--op=coupling-identity", "--functions", table, f"--n={n}",
         f"--p-star={draw(RATIONALS)}", f"--rate={draw(RATIONALS)}"],
        ["dicttest", inst, sym, "--mode=mc", f"--samples={samples}", "--seed=1"],
    ]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 6), data=st.data())
def test_fuzz_numeric_options_end_in_documented_exit_codes(which, data):
    with tempfile.TemporaryDirectory() as d:
        argv = _numeric_argvs(d, data.draw)[which]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code:
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue(), argv
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# Fuzz: arbitrary and near-valid JSON through every loader must end in a
# documented exit code, never in an exception escaping main.

JSON_LEAVES = (st.none() | st.booleans() | st.integers(-4, 300) | st.floats()
               | st.text(max_size=3))
JSON_ANY = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)
SYMBOLS = st.sampled_from(["0", "1", "2"]) | JSON_ANY
ALPHABET = st.lists(st.sampled_from(["0", "1", "2"]), max_size=3, unique=True) | JSON_ANY
# Sizes are small, huge or non-finite; values also take integers too large
# for a float.
COUNT = st.integers(-1, 4) | st.sampled_from([10 ** 30, float("inf"), float("-inf"),
                                              float("nan")]) | JSON_ANY
NUMBER = st.integers(-2, 3) | st.floats() | st.just(10 ** 400) | JSON_ANY
# Accepted cells: increasing lists (often valid), any int lists, negative
# and huge ints (past int64 too), and any JSON.
CELLS = st.integers(-3, 9) | st.sampled_from([-2 ** 63 - 1, 2 ** 63, 10 ** 30])
ACCEPT = (st.lists(st.integers(0, 9), max_size=8, unique=True).map(sorted)
          | st.lists(CELLS, max_size=8) | JSON_ANY)
ATOMS = st.lists(st.fixed_dictionaries({
    "x": st.lists(SYMBOLS, max_size=3) | JSON_ANY,
    "p": st.lists(st.integers(-1, 4), min_size=2, max_size=2) | JSON_ANY}), max_size=4)
PAYLOADS = {
    "distribution": st.fixed_dictionaries({
        "alphabets": st.lists(ALPHABET, max_size=3) | JSON_ANY, "atoms": ATOMS | JSON_ANY}),
    "function": st.fixed_dictionaries({
        "n": COUNT, "alphabet": ALPHABET,
        "values": st.lists(st.lists(NUMBER, max_size=3), max_size=8) | JSON_ANY})
    | st.fixed_dictionaries({
        "alphabet": ALPHABET,
        "factors": st.lists(st.dictionaries(st.sampled_from(["0", "1", "2"]) | st.text(max_size=2),
                                            st.lists(NUMBER, max_size=3), max_size=3)
                            | JSON_ANY, max_size=3) | JSON_ANY}),
    "instance": st.fixed_dictionaries({
        "predicate": st.fixed_dictionaries({"alphabet": ALPHABET, "k": COUNT}, optional={
            "truth": st.lists(st.integers(0, 1), max_size=8) | JSON_ANY,
            "accept": ACCEPT}) | JSON_ANY,
        "constraints": st.lists(st.fixed_dictionaries({
            "w": st.lists(st.integers(-1, 3), min_size=2, max_size=2) | JSON_ANY,
            "mu": ATOMS | JSON_ANY}), max_size=2) | JSON_ANY}),
    "symbol-function": st.fixed_dictionaries({
        "n": COUNT, "alphabet": ALPHABET,
        "symbols": st.lists(SYMBOLS, max_size=8) | JSON_ANY,
    }, optional={"dictator": COUNT, "constant": SYMBOLS}),
}


def _fuzz_argvs(kind, path, d):
    """CLI invocations that read `path` through the loader for `kind`."""
    mu = os.path.join(d, "mu.json")
    fixtures.three_lin().save(mu)
    table = os.path.join(d, "table.json")
    with open(table, "w") as fh:
        json.dump({"n": 1, "alphabet": ["0", "1"], "values": [[1, 0], [0, 1]]}, fh)
    inst = os.path.join(d, "inst.json")
    fixtures.three_lin_instance().save(inst)
    sym = os.path.join(d, "sym.json")
    with open(sym, "w") as fh:
        json.dump({"n": 2, "alphabet": ["0", "1"], "dictator": 1}, fh)
    return {
        "distribution": [("analyze", path)],
        "measure": [("stability", table, "--rho", "0.5", "--nu", path, "--decompose")],
        "function": [("stability", path, "--rho", "0.5", "--decompose"),
                     ("correlate", mu, path, path, path, "--n", "1"),
                     ("reduce", mu, "--op", "conditional-product", "--functions", path, path)],
        "instance": [("dicttest", path, sym)],
        "symbol-function": [("dicttest", inst, path)],
    }[kind]


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(PAYLOADS) + ["measure"]), data=st.data())
def test_fuzz_json_loaders_end_in_documented_exit_codes(kind, data):
    payload = data.draw(JSON_ANY | PAYLOADS["distribution" if kind == "measure" else kind])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "payload.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        for argv in _fuzz_argvs(kind, path, d):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            assert code in (0, 2, 3, 4), (argv, payload)
