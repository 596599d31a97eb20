"""Span tracer that measures adrkit from outside, without touching its source.

The adrkit modules bind names with ``from .exactlin import rref``, so a
function has to be replaced in every adrkit module namespace that holds it.
While a traced pass runs, every public module-level function of the seven
modules, a few ``Matrix`` methods and ``AlgebraData.opposite`` are replaced
by wrappers that append one span (name, parent, start, end) to in-memory
arrays; ``Matrix.__init__`` is replaced by a counter.  Each algebra of the
pass is one root span.  Self times and the per-layer metrics are computed
from the spans when the pass ends, and the original functions are put back,
so untraced passes run the plain code.
"""

from __future__ import annotations

import inspect
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

from adrkit import adrcore, cli, corpus, exactlin, presentation, repmod, theorems

MODULES = (exactlin, presentation, repmod, adrcore, theorems, corpus, cli)
METHODS = (
    (exactlin.Matrix, ("from_rows", "zeros", "identity", "transpose", "stack", "matmul")),
    (presentation.AlgebraData, ("opposite",)),
)
ROOT = "bench.algebra"

# Span groups behind the per-layer metrics.  ``.s`` is the inclusive time of
# the outermost group spans, ``.self_s`` the summed self time of all of them.
GROUPS = {
    "repmod.chain": ("repmod.radical_chain", "repmod.socle_chain"),
    "adrcore.formula_routes": (
        "adrcore.cartan_RA_formula", "adrcore.cartan_SA_formula", "adrcore.cartan_ringel_dual",
    ),
    "adrcore.hom_routes": (
        "adrcore.cartan_RA_hom", "adrcore.cartan_SA_hom", "adrcore.ringel_dual_cartan_from_hom",
    ),
    "adrcore.tilting": (
        "adrcore.tilting_vector", "adrcore.tilting_delta_filtration", "adrcore.tilting_hom_dim",
    ),
    "theorems.verdicts": (
        "theorems.check_theorem_a", "theorems.check_theorem_b",
        "theorems.ringel_selfdual_verdict", "theorems.check_opposite_symmetry",
    ),
    "presentation.opposite": ("presentation.AlgebraData.opposite",),
    "cli.main": ("cli.main",),
    "cli.analyze": ("cli.analyze_presentation",),
}
FAILURE_CATEGORIES = ("oracle", "structural", "triple", "theorem_b")


def _targets():
    """(span name, owner, attribute, original attribute value) for every wrapped callable."""
    out = []
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{short}.{name}", mod, name, obj))
    for cls, names in METHODS:
        short = cls.__module__.rsplit(".", 1)[1]
        for name in names:
            out.append((f"{short}.{cls.__name__}.{name}", cls, name, cls.__dict__[name]))
    return out


class Tracer:
    """Records spans while installed; ``end_pass`` turns them into metrics."""

    def __init__(self) -> None:
        self._names: list[str] = [ROOT]
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._cur = -1
        self._counts: Counter = Counter()
        self._rref_span = array("i")
        self._rref_cells = array("q")
        self._seen_reps: dict = {}
        self._patches: list = []
        self._saved_init = exactlin.Matrix.__init__
        module_wrappers = {}
        for span_name, owner, attr, original in _targets():
            nid = len(self._names)
            self._names.append(span_name)
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(nid, original.__func__, span_name))
            else:
                wrapper = self._wrap(nid, original, span_name)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
            else:
                module_wrappers[id(original)] = wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "adrkit" or mod_name.startswith("adrkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = module_wrappers.get(id(val))
                if wrapper is not None:
                    self._patches.append((mod, attr, val, wrapper))

    def _wrap(self, nid: int, fn, span_name: str):
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end
        clock = time.perf_counter
        probe = _PROBES.get(span_name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            parent = tracer._cur
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            tracer._cur = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer._cur = parent
            if probe is not None:
                probe(tracer, idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- one traced pass -------------------------------------------------

    def begin_pass(self) -> None:
        for arr in (self._span_name, self._span_parent, self._span_start, self._span_end,
                    self._rref_span, self._rref_cells):
            del arr[:]
        self._counts.clear()
        self._seen_reps.clear()
        counts = self._counts
        original_init = self._saved_init

        def counting_init(m, field, data):
            counts["matrix.constructed"] += 1
            original_init(m, field, data)

        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        exactlin.Matrix.__init__ = counting_init

    def begin_algebra(self) -> None:
        self._cur = len(self._span_name)
        self._span_name.append(0)
        self._span_parent.append(-1)
        self._span_end.append(0.0)
        self._span_start.append(time.perf_counter())

    def end_algebra(self) -> None:
        self._span_end[self._cur] = time.perf_counter()
        self._cur = -1

    def end_pass(self) -> dict[str, tuple[float, str]]:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        exactlin.Matrix.__init__ = self._saved_init
        return self._metrics()

    # -- aggregation -----------------------------------------------------

    def _metrics(self) -> dict[str, tuple[float, str]]:
        names = self._names
        nid = {n: i for i, n in enumerate(names)}
        name = np.array(self._span_name, dtype=np.int64)
        parent = np.array(self._span_parent, dtype=np.int64)
        dur = np.array(self._span_end) - np.array(self._span_start)
        n = len(name)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child_time
        calls = np.bincount(name, minlength=len(names))
        self_by_name = np.bincount(name, weights=self_t, minlength=len(names))

        def ids(span_names):
            return [nid[s] for s in span_names]

        def self_s(*span_names):
            return float(self_by_name[ids(span_names)].sum())

        def calls_of(span_name):
            return int(calls[nid[span_name]])

        def under(span_names):
            """Per span: does a proper ancestor carry one of these names?"""
            in_set = np.zeros(len(names), dtype=bool)
            in_set[ids(span_names)] = True
            out = np.zeros(n, dtype=bool)
            anc = parent.copy()
            live = anc >= 0
            while live.any():
                out[live] |= in_set[name[anc[live]]]
                anc[live] = parent[anc[live]]
                live = anc >= 0
            return out, in_set[name]

        def inclusive_s(span_names):
            above, member = under(span_names)
            return float(dur[member & ~above].sum())

        m: dict[str, tuple[float, str]] = {}
        cnt = self._counts
        m["presentation.build_algebra.self_s"] = (self_s("presentation.build_algebra"), "s")
        m["presentation.paths_enumerated"] = (cnt["paths"], "count")
        m["presentation.basis_yield"] = (cnt["dim"] / cnt["paths"] if cnt["paths"] else 0.0, "ratio")
        m["presentation.opposite.s"] = (inclusive_s(GROUPS["presentation.opposite"]), "s")
        m["presentation.opposite.self_s"] = (self_s(*GROUPS["presentation.opposite"]), "s")
        m["exactlin.from_rows.calls"] = (calls_of("exactlin.Matrix.from_rows"), "count")
        m["exactlin.from_rows.self_s"] = (self_s("exactlin.Matrix.from_rows"), "s")
        m["exactlin.matrix.constructed"] = (cnt["matrix.constructed"], "count")
        m["exactlin.rref.calls"] = (calls_of("exactlin.rref"), "count")
        m["exactlin.rref.cells"] = (int(sum(self._rref_cells)), "count")
        m["exactlin.rref.self_s"] = (self_s("exactlin.rref"), "s")
        m["exactlin.kernel_basis.calls"] = (calls_of("exactlin.kernel_basis"), "count")
        m["exactlin.kernel_basis.self_s"] = (self_s("exactlin.kernel_basis"), "s")
        m["repmod.hom_dim.calls"] = (calls_of("repmod.hom_dim"), "count")
        m["repmod.hom_dim.self_s"] = (self_s("repmod.hom_dim"), "s")
        below_hom, _ = under(("repmod.hom_dim",))
        rref_spans = np.array(self._rref_span, dtype=np.int64)
        rref_cells = np.array(self._rref_cells, dtype=np.int64)
        m["repmod.hom_dim.rref_cells"] = (int(rref_cells[below_hom[rref_spans]].sum()), "count")
        chain_calls = calls_of("repmod.radical_chain") + calls_of("repmod.socle_chain")
        m["repmod.radical_chain.calls"] = (calls_of("repmod.radical_chain"), "count")
        m["repmod.socle_chain.calls"] = (calls_of("repmod.socle_chain"), "count")
        m["repmod.chain.s"] = (inclusive_s(GROUPS["repmod.chain"]), "s")
        m["repmod.chain.self_s"] = (self_s(*GROUPS["repmod.chain"]), "s")
        m["repmod.chain.distinct_ratio"] = (
            cnt["chain.distinct"] / chain_calls if chain_calls else 0.0, "ratio",
        )
        m["repmod.projective.calls"] = (calls_of("repmod.projective"), "count")
        m["repmod.injective.calls"] = (calls_of("repmod.injective"), "count")
        for group in ("adrcore.formula_routes", "adrcore.hom_routes"):
            m[f"{group}.s"] = (inclusive_s(GROUPS[group]), "s")
            m[f"{group}.self_s"] = (self_s(*GROUPS[group]), "s")
        m["adrcore.tilting.s"] = (inclusive_s(GROUPS["adrcore.tilting"]), "s")
        m["theorems.verdicts.s"] = (inclusive_s(GROUPS["theorems.verdicts"]), "s")
        m["theorems.verdicts.self_s"] = (self_s(*GROUPS["theorems.verdicts"]), "s")
        m["corpus.battery.self_s"] = (self_s("corpus.tagged_invariant_failures"), "s")
        for cat in FAILURE_CATEGORIES:
            m[f"corpus.failures.{cat}"] = (cnt[f"failure.{cat}"], "count")
        m["cli.parse_emit.s"] = (
            inclusive_s(GROUPS["cli.main"]) - inclusive_s(GROUPS["cli.analyze"]), "s",
        )
        module_of = np.array([n.split(".", 1)[0] for n in names])
        for module in [mod.__name__.rsplit(".", 1)[1] for mod in MODULES] + ["bench"]:
            m[f"{module}.self_s"] = (float(self_by_name[module_of == module].sum()), "s")
        m["trace.wall_s"] = (float(dur[name == 0].sum()), "s")
        m["trace.spans"] = (n, "count")
        return m


def _probe_rref(tracer: Tracer, idx: int, args, result) -> None:
    m = args[0]
    tracer._rref_span.append(idx)
    tracer._rref_cells.append(m.rows * m.cols)


def _probe_paths(tracer: Tracer, idx: int, args, result) -> None:
    tracer._counts["paths"] += sum(len(layer) for layer in result)


def _probe_build(tracer: Tracer, idx: int, args, result) -> None:
    tracer._counts["dim"] += result.dim


def _probe_chain(tracer: Tracer, idx: int, args, result) -> None:
    # distinct (chain kind, representation object); a weakref guards against id reuse
    rep = args[0]
    key = (tracer._span_name[idx], id(rep))
    ref = tracer._seen_reps.get(key)
    if ref is None or ref() is not rep:
        tracer._seen_reps[key] = weakref.ref(rep)
        tracer._counts["chain.distinct"] += 1


def _probe_battery(tracer: Tracer, idx: int, args, result) -> None:
    for category, _ in result:
        tracer._counts[f"failure.{category}"] += 1


_PROBES = {
    "exactlin.rref": _probe_rref,
    "presentation.enumerate_paths": _probe_paths,
    "presentation.build_algebra": _probe_build,
    "repmod.radical_chain": _probe_chain,
    "repmod.socle_chain": _probe_chain,
    "corpus.tagged_invariant_failures": _probe_battery,
}
