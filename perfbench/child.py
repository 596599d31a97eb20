"""One benchmark workload in one fresh process.

run.py starts this file with ``OMP_NUM_THREADS=1`` and ``src`` on
``PYTHONPATH``.  It builds the workload's inputs, runs closed-loop passes
(one caller, one algebra at a time, every algebra freshly built) until the
time budget is spent, checks every output against the golden digests and
prints one JSON object as the last line of its standard output.

Modes: ``--setup-only`` stops right before the first timed call (run.py
starts several of these to take the median set-up time); ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics;
``--record-golden`` runs one pass and prints the digests instead of checking.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
from adrkit import adrcore, cli, corpus, presentation
from adrkit.exactlin import RATIONAL, FieldSpec
from adrkit.presentation import Arrow, Quiver

GOLDEN = Path(__file__).resolve().parent / "golden.json"
F7 = FieldSpec.prime(7)
# The ROADMAP's 150-seed fuzz slice.  It is fixed so that every pass does the
# same work and every output has a golden digest; --seed sets the order.
FUZZ_SEEDS = range(910000, 910150)


def _loops(k: int) -> Quiver:
    return Quiver(("1",), tuple(Arrow(f"x{i}", "1", "1") for i in range(1, k + 1)))


# Three kinds of analyze input, two sizes each: build and formula routes lead
# on preprojective over F_7, Hom routes on the truncated path algebras, and
# preprojective over Q runs the Fraction path on the same shapes.
ANALYZE_INPUTS = {
    "preproj-a5-F7": lambda: corpus.preprojective_a(5, F7),
    "preproj-a6-F7": lambda: corpus.preprojective_a(6, F7),
    "trunc-2loops-L5-F7": lambda: corpus.truncated_path_algebra(_loops(2), 5, F7),
    "trunc-3loops-L4-F7": lambda: corpus.truncated_path_algebra(_loops(3), 4, F7),
    "preproj-a4-Q": lambda: corpus.preprojective_a(4, RATIONAL),
    "preproj-a5-Q": lambda: corpus.preprojective_a(5, RATIONAL),
}
WORKLOADS = ("analyze", "fuzz-battery")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class AnalyzeWorkload:
    """``adrkit analyze`` in process, JSON report to a file, Hom routes on."""

    def __init__(self, seed: int, tmp: Path) -> None:
        tmp.mkdir(parents=True, exist_ok=True)
        self.items = []
        for key, make in ANALYZE_INPUTS.items():
            doc = cli.presentation_to_doc(make().presentation)
            src = tmp / f"{key}.json"
            src.write_text(json.dumps(doc))
            self.items.append((key, src, tmp / f"{key}.report.json"))
        random.Random(seed).shuffle(self.items)

    def before_pass(self) -> None:
        for _, _, out in self.items:
            out.unlink(missing_ok=True)

    def call(self, item):
        _, src, out = item
        return cli.main(["analyze", str(src), "--out", str(out)])

    def output_digest(self, item, result) -> str:
        if result != 0:
            raise RuntimeError(f"adrkit analyze exited with {result}")
        report = json.loads(item[2].read_text())
        del report["volatile"]
        return digest(report)


class FuzzWorkload:
    """``build_algebra`` plus ``tagged_invariant_failures`` per sampled presentation."""

    def __init__(self, seed: int) -> None:
        self.items = [(str(s), corpus.random_admissible(s).presentation) for s in FUZZ_SEEDS]
        random.Random(seed).shuffle(self.items)

    def before_pass(self) -> None:
        pass

    def call(self, item):
        alg = presentation.build_algebra(item[1])
        failures = corpus.tagged_invariant_failures(alg)
        matrices = [
            adrcore.cartan_RA_formula(alg).to_dict(),
            adrcore.cartan_ringel_dual(alg).to_dict(),
            adrcore.cartan_SA_formula(alg).to_dict(),
        ]
        return failures, [alg.dim, *matrices]

    def output_digest(self, item, result) -> str:
        failures, summary = result
        if failures:
            raise RuntimeError("battery: " + "; ".join(f"{c}: {m}" for c, m in failures))
        return digest(summary)


def run_pass(work, tracer=None) -> dict:
    """One pass over ``work.items``, tuples whose first entry names the input.

    Outputs are checked after the clock stops.
    """
    work.before_pass()
    results, times = [], []
    cpu = 0.0
    if tracer is not None:
        tracer.begin_pass()
    for item in work.items:
        # Untimed: the previous algebra's cycles (an AlgebraData and its
        # cached opposite point at each other) would otherwise be freed at a
        # point that depends on allocation counts, and peak RSS with it.
        gc.collect()
        if tracer is not None:
            tracer.begin_algebra()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            results.append(work.call(item))
        except Exception as exc:  # a failing algebra is counted, not fatal
            results.append(exc)
        times.append(time.perf_counter() - t0)
        cpu += time.process_time() - cpu0
        if tracer is not None:
            tracer.end_algebra()
    layers = tracer.end_pass() if tracer is not None else None
    digests, errors = {}, []
    for item, result in zip(work.items, results):
        try:
            if isinstance(result, Exception):
                raise result
            digests[item[0]] = work.output_digest(item, result)
        except Exception as exc:
            errors.append(f"{item[0]}: {type(exc).__name__}: {exc}")
    return {"wall": sum(times), "cpu": cpu, "times": times, "digests": digests,
            "errors": errors, "layers": layers}


def check(passes: list[dict], golden: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for p in passes:
        bad = {e.split(":", 1)[0]: e for e in p["errors"]}
        for key, value in p["digests"].items():
            if golden.get(key) != value:
                bad[key] = f"{key}: digest {value[:12]} != golden {str(golden.get(key))[:12]}"
        attempted += len(p["times"])
        failed += len(bad)
        messages.extend(bad.values())
    return attempted, failed, messages


def end_to_end(passes: list[dict], n_items: int) -> dict:
    times = sorted(t for p in passes for t in p["times"])
    wall = statistics.median(p["wall"] for p in passes)
    out = {
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "algebras_per_s": n_items / wall,
        # median over passes of each pass's median: a pooled median can sit
        # between the slowest call of one input and the fastest of the next
        # and jump with either
        "algebra_s.p50": statistics.median(statistics.median(p["times"]) for p in passes),
        "algebra_s.samples": len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(times) >= 20:
        p90 = statistics.quantiles(times, n=10)[-1]
        beyond = sum(t > p90 for t in times)
        if beyond >= 10:
            out["algebra_s.p90"] = p90
            out["algebra_s.p90_beyond"] = beyond
    return out


def layer_means(traced: list[dict]) -> dict:
    """Per-pass means; means keep the self times summing to the traced wall."""
    keys = traced[0]["layers"].keys()
    return {
        k: [statistics.fmean(p["layers"][k][0] for p in traced), traced[0]["layers"][k][1]]
        for k in keys
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True, help="scratch directory for input/report files")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    if args.workload == "fuzz-battery":
        work = FuzzWorkload(args.seed)
    else:
        work = AnalyzeWorkload(args.seed, args.tmp)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record_golden:
        p = run_pass(work)
        print(json.dumps({"digests": p["digests"], "errors": p["errors"]}))
        return 0

    golden = json.loads(GOLDEN.read_text())[args.workload]
    deadline = time.perf_counter() + args.seconds
    plain, traced = [], []
    tracer = None
    if args.trace:
        import tracer as tracer_mod  # imported after set-up: tracing is not part of it
        tracer = tracer_mod.Tracer()
    while not plain or (tracer is not None and not traced) or time.perf_counter() < deadline:
        if tracer is not None and len(traced) < len(plain):
            traced.append(run_pass(work, tracer))
        else:
            plain.append(run_pass(work))
    attempted, failed, messages = check(plain + traced, golden)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": len(plain),
        "pass_walls": [p["wall"] for p in plain],
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:10],
        "end_to_end": end_to_end(plain, len(work.items)),
    }
    if tracer is not None:
        layers = layer_means(traced)
        untraced_wall = statistics.fmean(p["wall"] for p in plain)
        layers["trace.untraced_wall_s"] = [untraced_wall, "s"]
        layers["trace.overhead_s"] = [layers["trace.wall_s"][0] - untraced_wall, "s"]
        result["traced_passes"] = len(traced)
        result["per_layer"] = layers
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
