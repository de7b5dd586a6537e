"""Per-layer spans and counters, installed from outside the program.

`install()` replaces the public entry points of each `cealg` module with a
wrapper that records a span (start, end, enclosing span) and, where it is
cheap, a work count.  Every binding of a wrapped function is replaced, in
every `cealg` module, so calls made through `from .dgca import apply_d`
style imports are seen too.  Spans are aggregated as they close: a layer's
self time is its spans' durations minus the time covered by their child
spans, so the self times of all layers add up to the time spent inside
root spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _len_product(args, kwargs, result):
    a, b = args[0], args[1]
    return len(a) * (len(b) if hasattr(b, "terms") else 1)


def _len_sum(args, kwargs, result):
    return sum(len(x) for x in args if hasattr(x, "terms"))


def _combine_terms(args, kwargs, result):
    return sum(len(el) for _, el in args[0])


def _input_len(args, kwargs, result):
    return len(args[1])


def _result_len(args, kwargs, result):
    return len(result)


#: (module, attribute or Class.method, layer, counters): each counter maps a
#: metric name to fn(args, kwargs, result) -> amount added per call.  Each
#: wrapped call also counts one `<layer>.calls`.
SPANS = [
    ("reporting", "run_task", "reporting.run_task", {}),
    ("graded", "Element.__mul__", "graded.mul",
     {"graded.mul.term_pairs": _len_product}),
    ("graded", "Element.__rmul__", "graded.mul",
     {"graded.mul.term_pairs": lambda a, k, r: len(a[0])}),
    ("graded", "Element.__add__", "graded.add",
     {"graded.add.terms_in": _len_sum}),
    ("graded", "Element.__sub__", "graded.add",
     {"graded.add.terms_in": _len_sum}),
    ("graded", "Element.__neg__", "graded.add",
     {"graded.add.terms_in": _len_sum}),
    ("graded", "linear_combine", "graded.add",
     {"graded.add.terms_in": _combine_terms}),
    ("graded", "transport", "graded.transport", {}),
    ("dgca", "apply_d", "dgca.apply_d",
     {"dgca.apply_d.terms_in": _input_len,
      "dgca.apply_d.terms_out": _result_len}),
    ("dgca", "DGCAMorphism.__call__", "dgca.morphism", {}),
    ("dgca", "ChainHomotopy.__call__", "dgca.morphism", {}),
    ("dgca", "compose", "dgca.morphism", {}),
    ("dgca", "identity_morphism", "dgca.morphism", {}),
    ("dgca", "make_dgca", "dgca.check", {}),
    ("dgca", "make_morphism", "dgca.check", {}),
    ("dgca", "check_d_squared", "dgca.check", {}),
    ("dgca", "check_chain_map", "dgca.check", {}),
    ("dgca", "check_homotopy", "dgca.check", {}),
    ("dgca", "adjoin_generator", "dgca.check", {}),
    ("dgca", "set_generators_to_zero", "dgca.check", {}),
    ("linalg", "count_monomials", "linalg.basis", {}),
    ("linalg", "monomial_basis", "linalg.basis",
     {"linalg.basis.monomials": _result_len}),
    ("linalg", "differential_matrix", "linalg.matrix",
     {"linalg.matrix.nnz": lambda a, k, r: len(r.entries)}),
    ("linalg", "rank", "linalg.eliminate",
     {"linalg.eliminate.rows": lambda a, k, r: a[0].rows}),
    ("linalg", "solve", "linalg.eliminate",
     {"linalg.eliminate.rows": lambda a, k, r: a[0].rows}),
    ("linalg", "cohomology_dims", "linalg.decide", {}),
    ("linalg", "is_coboundary", "linalg.decide", {}),
    ("clifford", "quartic_fierz_check", "clifford.fierz", {}),
    ("clifford", "check_clifford", "clifford.check", {}),
    ("clifford", "build_clifford", "clifford.build", {}),
    ("catalog", "_mink", "catalog.build", {}),
    ("catalog", "_mu", "catalog.build", {}),
    ("catalog", "super_minkowski", "catalog.build", {}),
    ("catalog", "brane_cocycle", "catalog.build", {}),
    ("catalog", "m2brane", "catalog.build", {}),
    ("catalog", "resolved_minkowski", "catalog.build", {}),
    ("catalog", "super_poincare", "catalog.build", {}),
    ("catalog", "resolved_poincare", "catalog.build", {}),
    ("catalog", "coefficient_line", "catalog.build", {}),
    ("catalog", "_omega_matrix", "catalog.build", {}),
    ("catalog", "_omega_power", "catalog.build", {}),
    ("catalog", "trace_power", "catalog.build", {}),
    ("catalog", "verify_m5_relation", "catalog.verify", {}),
    ("catalog", "measured_c", "catalog.verify", {}),
    ("catalog", "proportionality_constant", "catalog.verify", {}),
    ("catalog", "m5_cocycle", "catalog.verify", {}),
    ("catalog", "resolution_homotopy_report", "catalog.verify", {}),
    ("catalog", "equivariant_lift", "catalog.verify", {}),
    ("catalog", "lorentz_trace", "catalog.verify", {}),
    ("catalog", "family_seven_cocycle", "catalog.verify", {}),
    ("catalog", "verify_brane_scan_entry", "catalog.verify", {}),
    ("rational_homotopy", "sphere_model", "rational_homotopy", {}),
    ("rational_homotopy", "hopf_sequence_check", "rational_homotopy", {}),
    ("rational_homotopy", "poly_de_rham", "rational_homotopy", {}),
    ("rational_homotopy", "radial_contraction", "rational_homotopy", {}),
    ("rational_homotopy", "poincare_lemma_check", "rational_homotopy", {}),
    ("rational_homotopy", "flat_form_check", "rational_homotopy", {}),
    ("rational_homotopy", "_random_form", "rational_homotopy", {}),
    ("rational_homotopy", "forms_fiber_check", "rational_homotopy",
     {"rational_homotopy.samples":
      lambda a, k, r: r.pinned.get("samples", 0)}),
]

#: Helpers whose results are dense int64 tensors: counted, not spanned.
TENSOR_HELPERS = [("clifford", "_outer"), ("clifford", "_pair_sym")]
TENSOR_COUNTER = "clifford.fierz.tensor_bytes"
MIB = 1 << 20


class Tracer:
    """Aggregates spans into per-layer self time and calls, plus counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans = 0
        self.root_s = 0.0
        self._stack: list[list[float]] = []
        self._caches = []
        self._cache_base = (0, 0)

    def span(self, layer: str, fn, counters: dict):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter
        calls_key = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
                self.spans += 1
            counts[calls_key] += 1
            for key, count in counters.items():
                counts[key] += count(args, kwargs, result)
            return result

        return wrapper

    def tensor_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[TENSOR_COUNTER] += result.nbytes
            return result

        return wrapper

    def install(self):
        """Wrap every entry point in SPANS, in every `cealg` namespace."""
        import cealg.reporting  # noqa: F401  (loads every other module)

        modules = [m for name, m in sys.modules.items()
                   if name == "cealg" or name.startswith("cealg.")]
        cached = sys.modules["cealg.catalog"]
        self._caches = [v for v in vars(cached).values()
                        if hasattr(v, "cache_info")
                        and v.__module__ == cached.__name__]
        self._cache_base = self._cache_totals()
        for mod_name, attr, layer, counters in SPANS:
            make = functools.partial(self.span, layer, counters=counters)
            self._replace(modules, mod_name, attr, make)
        for mod_name, attr in TENSOR_HELPERS:
            self._replace(modules, mod_name, attr, self.tensor_counter)

    @staticmethod
    def _replace(modules, mod_name, attr, make):
        owner = sys.modules["cealg." + mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        orig = getattr(owner, attr)
        wrapped = make(orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def _cache_totals(self) -> tuple[int, int]:
        hits = calls = 0
        for fn in self._caches:
            info = fn.cache_info()
            hits += info.hits
            calls += info.hits + info.misses
        return hits, calls

    def layer_metrics(self, wall_s: float) -> dict[str, float | int]:
        """Self time per layer, counters, and the un-spanned remainder of
        `wall_s`; the `*.self_s` values plus `trace.unspanned_s` equal it."""
        out: dict[str, float | int] = {}
        for layer, secs in self.self_s.items():
            out[layer + ".self_s"] = secs
        out.update(self.counts)
        out["clifford.fierz.tensor_mib"] = out.pop(TENSOR_COUNTER, 0) / MIB
        hits, calls = self._cache_totals()
        hits -= self._cache_base[0]
        calls -= self._cache_base[1]
        out["catalog.cache.hits"] = hits
        out["catalog.cache.calls"] = calls
        out["catalog.cache.hit_ratio"] = hits / calls if calls else 0.0
        out["trace.spans"] = self.spans
        out["trace.wall_s"] = wall_s
        out["trace.unspanned_s"] = wall_s - self.root_s
        return out
