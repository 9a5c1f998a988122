"""Span tracer for the traced run, bound from outside the program.

The tracer wraps the program's public functions and the lattice-vector,
polynomial and report methods, and rebinds each function wrapper at every
``oapoly`` module that imported the name (``oapoly.theorems.harmonic_mean``
as well as ``oapoly.means.harmonic_mean``). Each span records its name,
start, end and parent in flat arrays that stay in memory until the run
writes them out. A call into a layer made from inside the same layer is part
of the outer span, so a layer's ``calls`` count the calls into it.

Span names are ``<layer>:<function>``; the per-layer metrics group by layer.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

CLAIMS = ("RMP", "GM", "SCHUR", "ORTHO", "HM", "GEOS", "WGM", "CROSS_TERMS")

LAYERS = (
    "lattice", "sampling", "partitions",
    "means.closed", "means.lagrange", "means.grid",
    "polynomials.eval", "polynomials.form", "polynomials.polarize", "polynomials.poa",
    "reports.residual", "reports.report", "theorems.falsify", "cli.main",
)

CHECKS = {
    "check_rmp": "RMP", "check_gm": "GM", "check_schur_bounds": "SCHUR",
    "check_eta_disjoint": "ORTHO", "check_hm_identity": "HM", "check_geos_lemma": "GEOS",
    "check_wgm_identity": "WGM", "check_cross_terms": "CROSS_TERMS",
}


def _route(method_index):
    def layer(args, kwargs):
        method = args[method_index] if len(args) > method_index else kwargs.get("method", "lagrange")
        return "means.grid" if method == "grid" else "means.lagrange"
    return layer


def _verify_claim_layer(args, kwargs):
    claim = args[0] if args else kwargs.get("claim_id")
    return f"theorems.verify_claim.{claim}"


# (layer, or a function of the call's arguments giving it; module; attribute path)
TARGETS = [
    *[("lattice", "oapoly.lattice", f"LatticeVector.{op}") for op in
      ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__abs__")],
    ("lattice", "oapoly.lattice", "PositiveVector.__init__"),
    *[("lattice", "oapoly.lattice", fn) for fn in ("sup", "inf", "is_disjoint", "apply_homogeneous")],
    *[("sampling", "oapoly.sampling", fn) for fn in
      ("log_uniform", "positive_vector", "positive_tuple", "disjoint_pair",
       "tuple_with_disjoint_pair", "diagonal_polynomial", "sparse_polynomial")],
    ("partitions", "oapoly.partitions", "weights"),
    ("partitions", "oapoly.partitions", "enumerate_complete"),
    ("partitions", "oapoly.partitions", "CompletePartition.__init__"),
    *[("means.closed", "oapoly.means", fn) for fn in
      ("root_mean_power", "geometric_mean", "harmonic_mean", "weighted_geometric_mean")],
    (_route(2), "oapoly.means", "harmonic_mean_via_infimum"),
    (_route(3), "oapoly.means", "wgm_via_infimum"),
    ("polynomials.eval", "oapoly.polynomials", "HomogeneousPolynomial.__call__"),
    ("polynomials.form", "oapoly.polynomials", "SymmetricMultilinearView.__call__"),
    ("polynomials.polarize", "oapoly.polynomials", "polarize_blackbox"),
    ("polynomials.poa", "oapoly.polynomials", "is_positively_orthogonally_additive"),
    ("reports.residual", "oapoly.reports", "residual"),
    ("reports.report", "oapoly.reports", "VerificationReport.__init__"),
    ("reports.report", "oapoly.reports", "VerificationReport.to_dict"),
    *[(f"theorems.check.{claim}", "oapoly.theorems", fn) for fn, claim in CHECKS.items()],
    (_verify_claim_layer, "oapoly.theorems", "verify_claim"),
    ("theorems.falsify", "oapoly.theorems", "falsify"),
    ("cli.main", "oapoly.cli", "main"),
]

# private caches whose hit ratios are reported; absent ones report 0
CACHES = {
    "polynomials.arrangements_cache": (("oapoly.polynomials", "_arrangements"),),
    "means.grid_cache": (("oapoly.means", "_simplex_grid"), ("oapoly.means", "_log_grid")),
}

RANDOM_DRAWS = ("sampling:positive_tuple", "sampling:disjoint_pair")


def cache_functions():
    out = []
    for entries in CACHES.values():
        for mod, attr in entries:
            fn = getattr(sys.modules.get(mod), attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                out.append(fn)
    return out


def clear_caches() -> None:
    for fn in cache_functions():
        fn.cache_clear()


def cache_counts() -> dict:
    counts = {}
    for name, entries in CACHES.items():
        hits = misses = 0
        for mod, attr in entries:
            fn = getattr(sys.modules.get(mod), attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
        counts[name] = (hits, misses)
    return counts


def grid_points(args, kwargs, wgm: bool) -> int:
    fs = args[1] if wgm else args[0]
    spec = args[2] if wgm else args[1]
    k = len(fs)
    if wgm:
        return (spec.resolution + 1) ** (k - 1) if k > 1 else 0
    return math.comb(spec.resolution + k - 1, k - 1)


def missing_layers(tracer: "Tracer", required) -> list[str]:
    """Required layers (or layer families, like theorems.verify_claim) with no span."""
    seen = {tracer.layer_of[i] for i in set(tracer.span_name)}
    return [req for req in required if not any(l == req or l.startswith(req + ".") for l in seen)]


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.span_name = array("i")  # per span: index into names
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.paused = False
        self.counters: Counter = Counter()
        self.form_terms: list = []
        self.verify_trials: Counter = Counter()
        self.falsify_reports: list = []
        self.unbound: list[str] = []
        self._restore: list = []

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(":", 1)[0])
        return nid

    def _wrap(self, fn, layer, label, on_return):
        tracer = self
        names, parents, starts, ends, stack = self.span_name, self.parent, self.start, self.end, self.stack
        layer_of = self.layer_of
        perf = time.perf_counter_ns
        fixed = None if callable(layer) else self._id(f"{layer}:{label}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._id(f"{layer(args, kwargs)}:{label}")
            top = stack[-1]
            if tracer.paused or (top >= 0 and layer_of[names[top]] == layer_of[nid]):
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(top)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(layer_of[nid], args, kwargs, result)
            return result

        return wrapper

    def _on_return(self, label):
        if label == "HomogeneousPolynomial.__call__":
            return lambda layer, a, k, r: self.counters.update({"polynomials.eval.terms": len(a[0].terms)})
        if label == "SymmetricMultilinearView.__call__":
            return lambda layer, a, k, r: self.form_terms.append(a[0].polynomial.terms)
        if label in ("harmonic_mean_via_infimum", "wgm_via_infimum"):
            wgm = label == "wgm_via_infimum"

            def count(layer, a, k, r):
                if layer == "means.grid":
                    self.counters["means.grid.points"] += grid_points(a, k, wgm)
            return count
        if label == "verify_claim":
            return lambda layer, a, k, r: self.verify_trials.update({layer: k.get("trials", 100)})
        if label == "falsify":
            return lambda layer, a, k, r: self.falsify_reports.append((r.trials, bool(r.passed)))
        return None

    def install(self) -> None:
        """Wrap every target and rebind it wherever the program imported it."""
        mods = [m for n, m in sys.modules.items() if n == "oapoly" or n.startswith("oapoly.")]
        for layer, modname, path in TARGETS:
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            # a method must be the class's own, not one it inherits
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                self.unbound.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(orig, layer, path, self._on_return(path))
            if cls_path:
                self._rebind(owner, attr, orig, wrapper)
                continue
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, name, orig, wrapper)

    def _rebind(self, owner, attr, orig, wrapper) -> None:
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
        }

    def metrics(self, wall_ns: float, untraced_ns: float, cache_before: dict, cache_after: dict,
                scale: float = 1.0) -> dict:
        """Every per-layer metric as {name: (value, unit)}.

        ``wall_ns`` is the scaled time of the traced calls and ``untraced_ns``
        that of the same calls untraced; span times are multiplied by
        ``scale``, the traced phase's scaled over raw time.
        """
        a = self.arrays()
        duration = (a["end"] - a["start"]).astype(np.float64) * scale
        own = self_times(a["parent"], duration)
        span_layer = [self.layer_of[i] for i in a["name"].tolist()]
        calls = Counter(span_layer)
        self_ns: defaultdict = defaultdict(float)
        incl_ns: defaultdict = defaultdict(float)
        for layer, own_ns, dur in zip(span_layer, own.tolist(), duration.tolist()):
            self_ns[layer] += own_ns
            incl_ns[layer] += dur

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_ms"] = (self_ns[layer] / 1e6, "ms")
        out["means.grid.points"] = (self.counters["means.grid.points"], "count")
        out["polynomials.eval.terms"] = (self.counters["polynomials.eval.terms"], "count")
        out["polynomials.form.products"] = (self._products(), "count")
        for name in CACHES:
            hits = cache_after[name][0] - cache_before[name][0]
            misses = cache_after[name][1] - cache_before[name][1]
            out[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        for claim in CLAIMS:
            out[f"theorems.check.{claim}.self_ms"] = (self_ns[f"theorems.check.{claim}"] / 1e6, "ms")
            layer = f"theorems.verify_claim.{claim}"
            rate = self.verify_trials[layer] / (incl_ns[layer] / 1e9) if incl_ns[layer] else 0.0
            out[f"{layer}.trials_per_s"] = (rate, "1/s")
        out.update(self._falsify_metrics(a["name"], a["parent"]))
        roots = a["parent"] < 0
        out["bench.other_ms"] = ((wall_ns - float(duration[roots].sum())) / 1e6, "ms")
        out["trace.overhead_ratio"] = (wall_ns / untraced_ns, "ratio")
        return out

    def _products(self) -> int:
        per_dict: dict[int, int] = {}
        total = 0
        for terms in self.form_terms:
            key = id(terms)
            if key not in per_dict:
                per_dict[key] = sum(_arrangement_count(k) for k in terms)
            total += per_dict[key]
        return total

    def _falsify_metrics(self, name: np.ndarray, parent: np.ndarray) -> dict:
        falsify_ids = [i for n, i in self.ids.items() if n.startswith("theorems.falsify:")]
        draw_ids = [self.ids[n] for n in RANDOM_DRAWS if n in self.ids]
        random_trials = 0
        if falsify_ids and draw_ids:
            has_parent = parent >= 0
            under_falsify = np.zeros(len(name), dtype=bool)
            under_falsify[has_parent] = np.isin(name[parent[has_parent]], falsify_ids)
            random_trials = int(np.sum(under_falsify & np.isin(name, draw_ids)))
        trials = [t for t, _ in self.falsify_reports]
        found = [t for t, ok in self.falsify_reports if ok]
        return {
            "theorems.falsify.structured_trials": (sum(trials) - random_trials, "count"),
            "theorems.falsify.random_trials": (random_trials, "count"),
            "theorems.falsify.witness_ratio": (len(found) / len(trials) if trials else 0.0, "ratio"),
            "theorems.falsify.trials_to_witness_p50": (float(np.median(found)) if found else 0.0, "count"),
        }


@functools.lru_cache(maxsize=None)
def _arrangement_count(key: tuple) -> int:
    """Distinct orderings of an index multiset: the products one form term computes."""
    out = math.factorial(len(key))
    for c in Counter(key).values():
        out //= math.factorial(c)
    return out
