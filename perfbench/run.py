"""adrkit benchmark: analyze and fuzz workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]
    python3 perfbench/run.py --record-golden

Run from the root of a checkout that holds ``src/adrkit``.  Each workload
runs in fresh single-threaded child processes (child.py).  With --trace 0 the
last stdout line is a JSON object with the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a traced
run instead.  --all runs every workload untraced and prints all end-to-end
metrics, p90 and failed_ratio included, as a table.  --record-golden
rewrites golden.json from the code in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("analyze", "fuzz-battery")
SETUP_RUNS = 5  # set-up samples per run; the median is reported
CHILD_TIMEOUT_S = 150


def stamp(seed: int) -> dict:
    """Machine and code identity recorded next to every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(tmp: Path, args: list[str]) -> dict:
    """Run child.py in a fresh single-threaded process; return its JSON result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args, "--tmp", str(tmp), "--t0", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for k in range(SETUP_RUNS - 1):
            setups.append(spawn(tmp / f"setup{k}", [*common, "--setup-only"])["setup_s"])
    result = spawn(tmp / "run", [*common, "--trace", str(int(trace))])
    e2e = result["end_to_end"]
    setups.append(result["setup_s"])
    e2e["setup_s"] = statistics.median(setups)
    e2e["setup_s.samples"] = len(setups)
    e2e["failed_ratio"] = result["failed"] / result["attempted"]
    e2e["ok_ratio"] = 1.0 - e2e["failed_ratio"]
    return result


def contract_line(result: dict, trace: bool, benchmark: dict) -> dict:
    """The last stdout line: the metrics BENCHMARK.json names, by name and unit."""
    if trace:
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]][0], "unit": m["unit"]}
                   for m in benchmark["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]], "unit": m["unit"]}
                   for m in benchmark["end_to_end"]}
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def describe(result: dict) -> list[str]:
    e = result["end_to_end"]
    p90 = (
        f"{e['algebra_s.p90']:.4f} s ({e['algebra_s.p90_beyond']} samples beyond)"
        if "algebra_s.p90" in e
        else f"n/a (fewer than 10 of {e['algebra_s.samples']} samples beyond p90)"
    )
    lines = [
        f"{result['workload']}: seed {result['seed']}, {result['passes']} untraced passes, "
        f"{result['attempted']} algebras attempted, {result['failed']} failed",
        f"  setup_s          {e['setup_s']:.4f} s (median of {e['setup_s.samples']})",
        f"  wall_s           {e['wall_s']:.4f} s (median of {result['passes']} passes)",
        f"  cpu_s            {e['cpu_s']:.4f} s",
        f"  algebras_per_s   {e['algebras_per_s']:.4f} 1/s",
        f"  algebra_s.p50    {e['algebra_s.p50']:.4f} s ({e['algebra_s.samples']} samples)",
        f"  algebra_s.p90    {p90}",
        f"  peak_rss_mb      {e['peak_rss_mb']:.1f} MB",
        f"  failed_ratio     {e['failed_ratio']:.4f} ({result['failed']}/{result['attempted']})",
    ]
    lines += [f"  FAILED {m}" for m in result["failures"]]
    if "per_layer" in result:
        layers = result["per_layer"]
        wall = layers["trace.wall_s"][0]
        modules = [k for k in layers if k.count(".") == 1 and k.endswith(".self_s")]
        total = sum(layers[k][0] for k in modules)
        lines.append(f"  traced passes {result['traced_passes']}: self times sum to {total:.4f} s, "
                     f"traced wall {wall:.4f} s, overhead {layers['trace.overhead_s'][0]:.4f} s")
        lines += [f"    {k:<14} {layers[k][0] / wall:6.1%}" for k in modules]
        lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in layers.items()]
    return lines


def record_golden(tmp: Path) -> int:
    golden = {}
    for workload in WORKLOADS:
        out = spawn(tmp / workload, ["--workload", workload, "--seed", "0", "--seconds", "0",
                                     "--record-golden"])
        if out["errors"]:
            print("\n".join(out["errors"]), file=sys.stderr)
            return 1
        golden[workload] = dict(sorted(out["digests"].items()))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--out", type=Path, help="also write the full results as JSON")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "adrkit" / "__init__.py").is_file():
        print(f"error: no adrkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (args.all or args.record_golden or args.workload):
        ap.error("one of --workload, --all or --record-golden is required")

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    try:
        if args.record_golden:
            return record_golden(tmp)
        results = []
        for workload in WORKLOADS if args.all else [args.workload]:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), tmp / workload)
            result["stamp"] = stamp(args.seed) | {"numpy": result.pop("numpy")}
            print("\n".join(describe(result)), flush=True)
            results.append(result)
        print("stamp " + json.dumps(results[0]["stamp"]))
        if args.out:
            args.out.write_text(json.dumps(results, indent=1) + "\n")
        if args.all:
            return 0 if all(r["failed"] == 0 for r in results) else 1
        print(json.dumps(contract_line(results[0], bool(args.trace), benchmark)))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
