"""Layer tracer for the benchmark: spans and counters around tropcover calls.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records a span (item, name, start, end, parent, error).
Names that other modules bound with `from .x import f` are rebound too, so
cross-module calls are seen.  The methods in `METHODS` are wrapped as well:
the `TorusHom` and `Polarization` re-verification constructors, the other
validating constructors, and the fiber scans of `HarmonicMorphism`.  Small
accessors stay unwrapped; their time counts in the caller's self time.
Generator functions get one span per resumption, parented to the span that
resumed them.

Spans stay in memory until `write()`; `metrics()` folds them into self
times (span duration minus the time covered by its child spans) and counts.
Nothing here runs unless `install()` is called.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "towerio", "graphs", "metrics", "ngonal", "jacprym", "tori", "intlinalg")

# (module, class, method) wrapped besides the public module functions.
FIBER_SCANS = ("fiber_vertices", "fiber_half_edges", "fiber_edges", "global_degree",
               "fiber_profile")
METHODS = (
    ("graphs", "Graph", "__post_init__"),
    ("graphs", "Tower", "__post_init__"),
    ("graphs", "DoubleCover", "from_harmonic"),
    *(("graphs", "HarmonicMorphism", m) for m in FIBER_SCANS),
    ("tori", "IntegralTorus", "__post_init__"),
    ("tori", "TorusHom", "__post_init__"),
    ("tori", "Polarization", "__post_init__"),
    ("tori", "Polarization", "gram"),
)

# Functions whose self times are summed into one named metric, per module.
GROUPS = {
    "towerio.load_s": ("towerio.load", "towerio.doc_to_file", "towerio.graph_from_doc",
                       "towerio.level_from_doc"),
    "towerio.save_s": ("towerio.save", "towerio.dumps_canonical", "towerio.file_to_doc",
                       "towerio.tower_to_doc", "towerio.graph_to_doc", "towerio.level_to_doc",
                       "towerio.provenance_meta", "towerio.multisection_label"),
    "graphs.validate_harmonic_s": ("graphs.validate_harmonic",),
    "graphs.fiber_scan_s": tuple(f"graphs.HarmonicMorphism.{m}" for m in FIBER_SCANS),
    "graphs.iso_s": ("graphs.iter_cover_isomorphisms", "graphs.covers_isomorphic_over_base",
                     "graphs.towers_isomorphic", "graphs.transport_cover"),
    "metrics.induce_metric_s": ("metrics.induce_metric",),
    "ngonal.construct_s": ("ngonal.ngonal_construct", "ngonal.trigonal", "ngonal.bigonal"),
    "ngonal.inverse_s": ("ngonal.recillas",),
    "ngonal.quotient_s": ("ngonal.involution_quotient",),
    "jacprym.transfer_maps_s": ("jacprym.transfer_maps", "jacprym.push_chain",
                                "jacprym.pull_chain", "jacprym.invol_chain",
                                "jacprym.symmetric_basis"),
    "jacprym.jacobian_s": ("jacprym.jacobian", "jacprym.h1_basis", "jacprym.cycle_pairing",
                           "jacprym.pairing_table"),
    "tori.hom_check_s": ("tori.TorusHom.__post_init__",),
    "tori.polarization_check_s": ("tori.Polarization.__post_init__",),
    "tori.kernel_torus_s": ("tori.kernel_torus",),
    "tori.pp_rescale_s": ("tori.pp_rescale",),
    "tori.dual_polarization_s": ("tori.dual_polarization",),
    "tori.polarized_isomorphic_s": ("tori.polarized_isomorphic",),
    "intlinalg.matmul_s": ("intlinalg.matmul",),
    "intlinalg.det_s": ("intlinalg.det",),
    "intlinalg.inverse_s": ("intlinalg.inverse",),
    "intlinalg.snf_s": ("intlinalg.snf",),
    "intlinalg.vectors_with_norm_s": ("intlinalg.vectors_with_norm",),
    "intlinalg.gram_isometries_s": ("intlinalg.gram_isometries",),
}

# Counters equal to the number of calls of one function.
CALL_COUNTS = {
    "graphs.validate_harmonic_calls": "graphs.validate_harmonic",
    "tori.hom_checks": "tori.TorusHom.__post_init__",
    "intlinalg.matmul_calls": "intlinalg.matmul",
    "intlinalg.snf_calls": "intlinalg.snf",
}

ISO_NAMES = GROUPS["graphs.iso_s"]


def metric_names() -> list:
    """Every per-layer metric of a traced run, in a fixed order.  `metrics()`
    reports all but the ratio and the two `trace` times, which need the
    untraced passes or all passes and are added when the passes are combined."""
    names = []
    for mod in MODULES:
        names.append(f"{mod}.self_s")
        names += [k for k in GROUPS if k.startswith(mod + ".")]
        names += [k for k in CALL_COUNTS if k.startswith(mod + ".")]
        names += {"towerio": ["towerio.bytes"], "graphs": ["graphs.iso_errors"],
                  "ngonal": ["ngonal.points"],
                  "tori": ["tori.iso_accepted", "tori.iso_accept_ratio"],
                  "intlinalg": ["intlinalg.vectors_enumerated",
                                "intlinalg.isometry_candidates"]}.get(mod, [])
        names.append(f"{mod}.errors")
    return names + ["trace.spans", "trace.wall_s", "trace.overhead_s"]


class Tracer:
    def __init__(self):
        self.names = []          # span name by id
        self._name_ids = {}
        self.spans = []          # (item, name id, start ns, end ns, parent index, error)
        self.stack = []
        self.counts = Counter()
        self.item = -1

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx, nid, start, error):
        end = time.perf_counter_ns()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (self.item, nid, start, end, parent, error)

    def wrap(self, name: str, fn, after=None):
        """Wrapper recording a span per call; `after(result, args)` updates counters."""
        nid = self._name_id(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._open()
                        start, error = time.perf_counter_ns(), None
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        except BaseException as exc:
                            error = type(exc).__name__
                            raise
                        finally:
                            self._close(idx, nid, start, error)
                        if after is not None:
                            after(value, args)
                        yield value
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open()
            start, error = time.perf_counter_ns(), None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(idx, nid, start, error)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def install(self):
        """Wrap the public functions of every traced module, and rebind them
        wherever the package holds a reference to the original."""
        import tropcover  # noqa: F401  (loads every module)
        from tropcover import intlinalg

        memo = intlinalg.vectors_with_norm.__defaults__[0]
        originals = {}
        for mod in MODULES:
            module = sys.modules[f"tropcover.{mod}"]
            for attr, fn in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    originals[fn] = f"{mod}.{attr}"

        def count_bytes(result, args):
            self.counts["towerio.bytes"] += os.path.getsize(args[0])

        def count_points(cons, args):
            self.counts["ngonal.points"] += len(cons.vertex_info) + len(cons.half_edge_info)

        def count_candidate(value, args):
            self.counts["intlinalg.isometry_candidates"] += 1

        def count_accepted(result, args):
            if result is not None:
                self.counts["tori.iso_accepted"] += 1

        after = {"towerio.load": count_bytes, "towerio.save": count_bytes,
                 "ngonal.ngonal_construct": count_points,
                 "intlinalg.gram_isometries": count_candidate,
                 "tori.polarized_isomorphic": count_accepted}

        wrapped = {fn: self.wrap(name, fn, after.get(name)) for fn, name in originals.items()}

        # vectors_with_norm: count vectors only when the memo does not answer
        original_vwn = intlinalg.vectors_with_norm
        vwn_span = wrapped[original_vwn]
        mat = intlinalg.mat

        def vectors_with_norm(q, target, *rest):
            cached = (mat(q), target) in memo
            result = vwn_span(q, target, *rest)
            if not cached:
                self.counts["intlinalg.vectors_enumerated"] += len(result)
            return result
        wrapped[original_vwn] = functools.wraps(original_vwn)(vectors_with_norm)

        for name, module in list(sys.modules.items()):
            if name == "tropcover" or name.startswith("tropcover."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(module, attr, wrapped[value])
        for mod, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"tropcover.{mod}"], cls_name)
            raw = vars(cls)[attr]
            name = f"{mod}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer self times, counts and error counts from the spans."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span[4] >= 0:
                child_ns[span[4]] += span[3] - span[2]
        self_ns = Counter()
        calls = Counter()
        errors = Counter()
        iso_errors = 0
        for idx, (_item, nid, start, end, parent, error) in enumerate(self.spans):
            name = self.names[nid]
            self_ns[name] += end - start - child_ns[idx]
            calls[name] += 1
            if error is None:
                continue
            mod = name.split(".", 1)[0]
            parent_mod = self.names[self.spans[parent][1]].split(".", 1)[0] if parent >= 0 else None
            if parent_mod != mod:
                errors[mod] += 1  # the exception leaves the module here
            if name in ISO_NAMES and (parent < 0 or self.names[self.spans[parent][1]] not in ISO_NAMES):
                iso_errors += 1
        out = {}
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(ns for n, ns in self_ns.items()
                                       if n.split(".", 1)[0] == mod) / 1e9
            out[f"{mod}.errors"] = errors[mod]
        for metric, names in GROUPS.items():
            out[metric] = sum(self_ns[n] for n in names) / 1e9
        for metric, name in CALL_COUNTS.items():
            out[metric] = calls[name]
        for key in ("towerio.bytes", "ngonal.points", "intlinalg.vectors_enumerated",
                    "intlinalg.isometry_candidates", "tori.iso_accepted"):
            out[key] = self.counts[key]
        out["graphs.iso_errors"] = iso_errors
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        """Spans as JSON lines: item, name, start_ns, end_ns, parent, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for item, nid, start, end, parent, error in self.spans:
                fh.write(json.dumps([item, self.names[nid], start, end, parent, error]) + "\n")
