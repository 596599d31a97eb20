"""The benchmark's span tracer still finds every name it reads.

``perfbench/tracer.py`` wraps adrkit functions and ``Matrix`` methods by
name and builds its per-layer metrics from the spans of those names, so a
rename or deletion in ``src/`` would break only the benchmark's traced
passes.  One traced pass over a small builtin here checks that every
per-layer metric ``BENCHMARK.json`` declares still comes out.  The test
reads ``perfbench/`` and ``BENCHMARK.json`` and changes neither.
"""

import importlib.util
import json
from pathlib import Path

from adrkit.cli import analyze_presentation
from adrkit.corpus import get_entry, tagged_invariant_failures

ROOT = Path(__file__).resolve().parent.parent
# perfbench/child.py adds these two after the traced passes, from the untraced ones
UNTRACED = {"trace.untraced_wall_s", "trace.overhead_s"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_traced_pass_reports_every_declared_per_layer_metric():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    entry = get_entry("nakayama-2-3")
    tracer.begin_pass()
    try:
        tracer.begin_algebra()
        analyze_presentation(entry.presentation)
        assert tagged_invariant_failures(entry.build()) == []
        tracer.end_algebra()
    finally:
        metrics = tracer.end_pass()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - UNTRACED <= set(metrics), sorted(declared - UNTRACED - set(metrics))
    # every span name a metric groups is a wrapped callable
    spans = set(tracer._names)
    grouped = {name for names in tracer_mod.GROUPS.values() for name in names}
    assert grouped <= spans, sorted(grouped - spans)
    assert metrics["trace.spans"][0] > 1 and metrics["presentation.paths_enumerated"][0] > 0
    # the tilting and formula-route metrics time these names, so the reports
    # must still go through them, not only define them
    called = {tracer._names[nid] for nid in tracer._span_name}
    timed = {"adrcore.cartan_ringel_dual", "adrcore.tilting_vector", "adrcore.tilting_delta_filtration"}
    assert timed <= called, sorted(timed - called)
