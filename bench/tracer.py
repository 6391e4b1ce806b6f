"""Call counts and spans for the hyperqudit package, installed from outside.

A function is wrapped in every namespace that binds it: its defining
module, every module that imported it by name (``hyperstate`` holds its
own ``power``, ``cli`` holds the package re-exports) and, for methods,
the class.  Per-element and per-configuration functions get count-only
wrappers; their time is charged to the span that called them.  Every
other wrapped function records a span (name, start, end, parent, job);
a span's self time is its duration minus that of its direct children.
Spans are kept in memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "hyperqudit"
MODULES = ("galois", "cyclicity", "hypergraph", "states", "hyperstate",
           "canonicalize", "fieldpoly", "marked", "catalog", "cli")

# Called once per ring element, configuration or calibration key: counted only.
COUNT_ONLY = {
    "galois": ["RingElement.__mul__", "RingElement.__add__", "RingElement.__sub__",
               "RingElement.__neg__", "RingElement.__pow__", "RingElement.scale",
               "GaloisRing.trace", "GaloisRing.index", "GaloisRing.element",
               "GaloisRing.from_int", "GaloisRing.is_unit"],
    "cyclicity": ["power", "index_period", "reduce_exponent", "monoid_add",
                  "CycExponent.component", "CycExponent.to_dense"],
    "hypergraph": ["ExpFunc.make", "ExpFunc.value", "OrdinalMorphism.image_edge"],
    "states": ["all_configurations", "config_index", "config_at", "config_add",
               "config_sub", "trace_pairing", "ef", "ef_transpose", "cyclotomic_residue",
               "render_element", "render_configuration"],
    "hyperstate": ["phase_function"],
    "marked": ["cz_phase"],
    "fieldpoly": ["_field_inverse"],
}

# Timed with a span: whole-object operations.
SPANNED = {
    "galois": ["GaloisRing.__init__", "GaloisRing.multiplicative_order",
               "GaloisRing.p_adic_digits", "GaloisRing.frobenius",
               "GaloisRing.trace_frobenius", "make_ring", "ring_from_descriptor",
               "ring_to_descriptor"],
    "cyclicity": ["CycExponent.make", "CycExponent.from_dense", "exp_add", "embed",
                  "special_exponents"],
    "hypergraph": ["CalibratedHypergraph.__init__", "CalibratedHypergraph.__eq__",
                   "WeightedHypergraph.make", "MarkedHypergraph.make", "exp_pushforward",
                   "calib_pushforward", "apply_morphism", "monadic_product",
                   "hypergraph_to_json", "hypergraph_from_json"],
    "states": ["FlatState.with_phases", "apply_pauli_z", "apply_pauli_x",
               "apply_he_morphism", "tensor", "phase_difference_counts", "is_orthogonal",
               "equal_up_to_phase", "to_dense", "fourier_matrix", "fourier", "emit_state"],
    "hyperstate": ["phase_table", "build_state", "apply_d", "stabilizer_apply",
                   "basis_state", "check_covariance", "dense_stabilizer_matrix",
                   "dense_he_matrix", "check_stabilizer_pushforward", "lme_orthonormal",
                   "lme_check", "stabilizer_fixes_state"],
    "canonicalize": ["is_effective", "effectivize", "support_index", "primitive_core",
                     "congruent", "isotropy_group", "weighted_to_calibrated",
                     "_exponent_of_power", "poly_to_calibrated", "qubit_to_weighted"],
    "fieldpoly": ["power_matrix", "power_matrix_inverse", "gaussian_inverse",
                  "m_polynomial", "reduce_mod_universal", "basic_power_matrix",
                  "expand_in_basic"],
    "marked": ["default_reference", "p_polynomial", "marked_state", "marked_to_calibrated"],
    "catalog": ["named_ring", "bell_hypergraph", "qutrit_hypergraph", "qutrit_marked"],
    "cli": ["main", "build_parser", "_load_json", "_print", "cmd_ring_info",
            "cmd_state_build", "cmd_state_verify", "cmd_reduce", "cmd_classify",
            "cmd_convert", "cmd_matrices"],
}


class Tracer:
    """Wraps the package's functions; collects counts, spans and self times."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []  # (span id, parent id, job, name, start, end)
        self.keep_spans = True  # cleared to bound memory once enough spans are kept
        self.job = -1
        self._stack: list[list] = []  # [span id, time covered by children, name]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrappers ----------------------------------------------------------------

    def _counting(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, name, fn, before=None, after=None):
        counts, self_s, spans, stack = self.counts, self.self_s, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append([sid, 0.0, name])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                children = stack.pop()[1]
                self_s[name] += (end - start) - children
                if stack:
                    stack[-1][1] += end - start
                if self.keep_spans:
                    spans.append((sid, parent, self.job, name, start, end))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def wrap(self, name, fn):
        """A spanning wrapper for a call the benchmark itself makes."""
        return self._spanning(name, fn)

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        hooks = self._hooks(mods)
        for layer, names in COUNT_ONLY.items():
            for qual in names:
                self._patch(mods[layer], qual, namespaces, self._counting)
        for layer, names in SPANNED.items():
            for qual in names:
                self._patch(mods[layer], qual, namespaces,
                            lambda name, fn: self._spanning(name, fn, *hooks.get(name, ())))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module, qual, namespaces, make):
        layer = module.__name__.rsplit(".", 1)[1]
        name = f"{layer}.{qual}"
        if "." in qual:  # a method: the class attribute is the only binding
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make(name, raw.__func__))
            else:
                wrapped = make(name, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, qual)
        wrapped = make(name, original)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapped)

    def _hooks(self, mods) -> dict:
        """Before/after callbacks that derive cache and waste counters."""
        counts = self.counts
        catalog_cache = mods["catalog"]._cache
        stack = self._stack
        searches = ("canonicalize.congruent", "canonicalize.isotropy_group")

        def phase_table_before(args, kwargs):
            hg = args[0]
            if getattr(hg, "_phase_table_cache", None) is not None:
                counts["hyperstate.phase_table.hits"] += 1
            else:
                counts["hyperstate.configs_walked"] += hg.ring.q ** hg.l

        def named_ring_before(args, kwargs):
            if args[0].strip() in catalog_cache:
                counts["catalog.named_ring.hits"] += 1

        def congruent_after(args, result):
            counts["canonicalize.useful"] += result is not None

        def isotropy_after(args, result):
            counts["canonicalize.useful"] += len(result)

        def apply_morphism_before(args, kwargs):
            if any(frame[2] in searches for frame in stack):
                counts["canonicalize.perm_tries"] += 1

        def to_dense_before(args, kwargs):
            psi = args[0]
            counts["states.dense_bytes"] += 16 * psi.ring.q ** psi.l

        def fourier_matrix_before(args, kwargs):
            ring, l = args[0], args[1]
            counts["states.dense_bytes"] += 16 * ring.q ** (2 * l)

        return {
            "hyperstate.phase_table": (phase_table_before,),
            "catalog.named_ring": (named_ring_before,),
            "canonicalize.congruent": (None, congruent_after),
            "canonicalize.isotropy_group": (None, isotropy_after),
            "hypergraph.apply_morphism": (apply_morphism_before,),
            "states.to_dense": (to_dense_before,),
            "states.fourier_matrix": (fourier_matrix_before,),
        }

    # -- output ------------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, parent, job, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(counts: Counter, self_s: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from one round's counters."""

    def self_of(prefixes) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(tuple(prefixes)))

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["galois.ring_init.calls"] = (counts["galois.GaloisRing.__init__"], "count")
    m["galois.ring_init.self_s"] = (self_s.get("galois.GaloisRing.__init__", 0.0), "s")
    m["galois.mul.calls"] = (counts["galois.RingElement.__mul__"], "count")
    m["galois.add.calls"] = (counts["galois.RingElement.__add__"], "count")
    m["galois.trace.calls"] = (counts["galois.GaloisRing.trace"], "count")
    m["cyclicity.power.calls"] = (counts["cyclicity.power"], "count")
    m["cyclicity.index_period.calls"] = (counts["cyclicity.index_period"], "count")
    pt_calls = counts["hyperstate.phase_table"]
    m["hyperstate.phase_table.calls"] = (pt_calls, "count")
    m["hyperstate.phase_table.self_s"] = (self_s.get("hyperstate.phase_table", 0.0), "s")
    m["hyperstate.phase_table.hit_ratio"] = (
        ratio(counts["hyperstate.phase_table.hits"], pt_calls), "ratio")
    m["hyperstate.configs_walked"] = (counts["hyperstate.configs_walked"], "count")
    m["hyperstate.stabilizer_apply.self_s"] = (
        self_s.get("hyperstate.stabilizer_apply", 0.0), "s")
    m["hyperstate.dense_check.self_s"] = (self_of([
        "hyperstate.lme_check", "hyperstate.check_stabilizer_pushforward",
        "hyperstate.dense_stabilizer_matrix", "hyperstate.dense_he_matrix"]), "s")
    m["states.translate.calls"] = (
        counts["states.apply_pauli_x"] + counts["states.apply_pauli_z"], "count")
    m["states.inner_product.calls"] = (counts["states.phase_difference_counts"], "count")
    m["states.dense.self_s"] = (self_of(
        ["states.to_dense", "states.fourier_matrix", "states.fourier"]), "s")
    m["states.dense_bytes"] = (counts["states.dense_bytes"], "B")
    m["hypergraph.from_json.self_s"] = (self_s.get("hypergraph.hypergraph_from_json", 0.0), "s")
    m["hypergraph.apply_morphism.calls"] = (counts["hypergraph.apply_morphism"], "count")
    m["canonicalize.congruent.calls"] = (counts["canonicalize.congruent"], "count")
    m["canonicalize.isotropy_group.self_s"] = (
        self_s.get("canonicalize.isotropy_group", 0.0), "s")
    m["canonicalize.perm_tries"] = (counts["canonicalize.perm_tries"], "count")
    m["canonicalize.useful_ratio"] = (
        ratio(counts["canonicalize.useful"], counts["canonicalize.perm_tries"]), "ratio")
    m["fieldpoly.gaussian_inverse.self_s"] = (self_s.get("fieldpoly.gaussian_inverse", 0.0), "s")
    nr_calls = counts["catalog.named_ring"]
    m["catalog.named_ring.hit_ratio"] = (ratio(counts["catalog.named_ring.hits"], nr_calls), "ratio")
    for sub in ("ring_info", "state_build", "state_verify", "reduce", "classify", "convert",
                "matrices"):
        m[f"cli.{sub}.self_s"] = (self_s.get(f"cli.cmd_{sub}", 0.0), "s")
    m["cli.json_io.self_s"] = (self_of(["cli._load_json", "cli._print"]), "s")
    for layer in MODULES:
        m[f"{layer}.self_s"] = (self_of([layer + "."]), "s")
    return m
