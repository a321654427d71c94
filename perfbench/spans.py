"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` wraps public functions of embedlens at every place the
package binds them (for example `row_basis` in both `embedlens.intlattice`
and `embedlens.embedding`), so calls made by the CLI and by the library
itself are seen. A wrapper passes arguments and results through untouched;
it records (name, start, end, parent span, request id) in memory and adds to
counters computed from the same arguments and result.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _snf_bits(counters, args, kwargs, snf):
    bits = max(abs(v).bit_length() for m in (snf.U, snf.V, snf.D) for v in m.entries)
    counters["intlattice.smith_normal_form.max_entry_bits"] = max(
        counters["intlattice.smith_normal_form.max_entry_bits"], bits)


def _route(args, kwargs) -> str:
    """The route exact_correlation takes, read from the argument types."""
    kinds = {type(f).__name__ for f in _arg(args, kwargs, 1, "functions")}
    if kinds == {"CharacterProduct"}:
        return "correlation.characters"
    if kinds <= {"CharacterProduct", "ProductFunction"}:
        return "correlation.products"
    return "correlation.tables"


def _route_counts(counters, args, kwargs, result):
    route = _route(args, kwargs)
    if route == "correlation.characters":
        counters["correlation.characters.exact"] += result.exact is not None
    elif route == "correlation.tables":
        counters["correlation.tables.terms"] += (
            len(_arg(args, kwargs, 0, "dist").support) ** _arg(args, kwargs, 2, "n"))


def _add(name, value_of):
    def count(counters, args, kwargs, result):
        counters[name] += value_of(args, kwargs, result)
    return count


# (span name, module, attribute, counters or None). An attribute "Class.method"
# wraps the method on the class.
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("distributions.load", "distributions", "JointDistribution.load", None),
    ("distributions.marginal", "distributions", "JointDistribution.marginal", None),
    ("distributions.condition", "distributions", "JointDistribution.condition", None),
    ("distributions.decompose_mixture", "distributions", "decompose_mixture", None),
    ("distributions.sample", "distributions", "ProductPowerSampler.sample", None),
    ("intlattice.row_basis", "intlattice", "row_basis", [
        _add("intlattice.row_basis.rows_in", lambda a, k, r: len(_arg(a, k, 0, "rows"))),
        _add("intlattice.row_basis.rows_out", lambda a, k, r: len(r))]),
    ("intlattice.smith_normal_form", "intlattice", "smith_normal_form", [_snf_bits]),
    ("embedding.constraint_matrix", "embedding", "constraint_matrix", None),
    ("embedding.detect_embedding", "embedding", "detect_embedding", [
        _add("embedding.detect_embedding.admits", lambda a, k, r: int(r.admits))]),
    ("embedding.verify_witness", "embedding", "verify_witness", None),
    ("embedding.brute_force_embedding", "embedding", "brute_force_embedding", None),
    ("embedding.connectivity", "embedding", "connected", None),
    ("embedding.connectivity", "embedding", "pairwise_connected", None),
    ("functions.load_function_file", "functions", "load_function_file", None),
    ("functions.noise_apply", "functions", "noise_apply", None),
    ("functions.inner_product", "functions", "inner_product", None),
    ("functions.stability", "functions", "stability", None),
    ("functions.efron_stein", "functions", "efron_stein", [
        _add("functions.efron_stein.subsets", lambda a, k, r: 2 ** _arg(a, k, 0, "f").n)]),
    ("correlation.<route>", "correlation", "exact_correlation", [_route_counts]),
    ("correlation.mc", "correlation", "mc_correlation", [
        _add("correlation.mc.samples", lambda a, k, r: _arg(a, k, 3, "samples"))]),
    ("reduction.build_paired_copies", "reduction", "build_paired_copies", [
        _add("reduction.build_paired_copies.atoms_out", lambda a, k, r: len(r.support))]),
    ("reduction.star_coupling_params", "reduction", "star_coupling_params", None),
    ("reduction.build_star_coupling", "reduction", "build_star_coupling", None),
    ("reduction.build_g", "reduction", "build_g", [
        _add("reduction.build_g.entries", lambda a, k, r: len(r.values))]),
    ("reduction.conditional_product_given_last", "reduction",
     "conditional_product_given_last", [
         _add("reduction.conditional_product_given_last.terms",
              lambda a, k, r: len(_arg(a, k, 0, "dist").support)
              ** _arg(a, k, 1, "functions")[0].n)]),
    ("reduction.check_coupling_identity", "reduction", "check_coupling_identity", None),
    ("dicttest.load", "dicttest", "TestInstance.load", None),
    ("dicttest.load", "dicttest", "load_symbol_function", None),
    ("dicttest.validate_instance", "dicttest", "validate_instance", None),
    ("dicttest.run_test_exact", "dicttest", "run_test_exact", None),
    ("dicttest.run_test_mc", "dicttest", "run_test_mc", [
        _add("dicttest.run_test_mc.samples", lambda a, k, r: _arg(a, k, 2, "samples"))]),
]

ROUTES = ("tables", "characters", "products")
SPANS = sorted({name for name, *_ in TARGETS if "<" not in name}
               | {f"correlation.{r}" for r in ROUTES})
# Reported counters: name -> unit. Counts are per pass; ratios are derived in
# `Tracer.metrics` from raw counts.
COUNTERS = {
    "cli.output_bytes": "bytes",
    "intlattice.row_basis.rows_in": "count",
    "intlattice.row_basis.rows_out": "count",
    "intlattice.smith_normal_form.max_entry_bits": "bits",
    "embedding.detect_embedding.admits_ratio": "ratio",
    "correlation.tables.terms": "count",
    "correlation.characters.exact_ratio": "ratio",
    "correlation.mc.samples": "count",
    "functions.efron_stein.subsets": "count",
    "reduction.build_paired_copies.atoms_out": "count",
    "reduction.build_g.entries": "count",
    "reduction.conditional_product_given_last.terms": "count",
    "dicttest.run_test_mc.samples": "count",
}

class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, request id)
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request: str | None = None

    def _wrap(self, name, fn, counters):
        def traced(*args, **kwargs):
            span = name if name != "correlation.<route>" else _route(args, kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx] = (span, start, time.perf_counter(), parent, self.request)
                self.stack.pop()
            for count in counters or ():
                count(self.counters, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at every binding site inside the embedlens package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "embedlens" or name.startswith("embedlens."))]
        for name, module, attr, counters in TARGETS:
            owner = sys.modules[f"embedlens.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, counters)))
                else:
                    setattr(cls, meth, self._wrap(name, raw, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counters)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Calls, self time and counters per pass of the request list."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = dict.fromkeys(SPANS, 0)
        self_s = dict.fromkeys(SPANS, 0.0)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[idx]
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self_s[name] / passes, "s")
        c = self.counters
        for name, unit in COUNTERS.items():
            out[name] = (c[name] / passes if unit in ("count", "bytes") else c[name], unit)
        detects = calls["embedding.detect_embedding"]
        out["embedding.detect_embedding.admits_ratio"] = (
            c["embedding.detect_embedding.admits"] / detects if detects else 0.0, "ratio")
        folds = calls["correlation.characters"]
        out["correlation.characters.exact_ratio"] = (
            c["correlation.characters.exact"] / folds if folds else 0.0, "ratio")
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
