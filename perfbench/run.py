"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_lenet --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps the layers' entry points, records spans in memory,
writes them under ``perfbench/out/`` and reports the per-layer metrics.
The metric names, units and directions are the ones ``BENCHMARK.json``
declares.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A failed correctness gate prints ``correct: false``
and exits with status 1; a checkout without the package exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_lenet", "offline_canonical", "train_lenet")


def _pin_threads() -> None:
    # Must run before NumPy loads its BLAS / OpenMP runtime.
    from perfbench import THREAD_VARS

    cpus = str(len(os.sched_getaffinity(0)))
    for name in THREAD_VARS:
        os.environ[name] = cpus


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    _pin_threads()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"the repro package is missing under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    from perfbench.common import GateError
    from perfbench.tracing import Tracer

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("spans-*.jsonl"):
        stale.unlink()
    tracer = Tracer(out_dir) if args.trace else None
    workload = importlib.import_module(f"perfbench.{args.workload}")
    try:
        result = workload.run(args.seed, args.seconds, tracer)
    except GateError as exc:
        print(f"correctness gate failed: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    values = result.layers if args.trace else result.end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if not args.trace and missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(result.details["env"], sort_keys=True))
    for name, (value, unit) in result.figures.items():
        print(f"figure  {name:<48} {value:>14.4f} {unit}")
    for name, phase in result.details.get("phases", {}).items():
        print(f"phase   {name:<12} " + json.dumps(phase, sort_keys=True))
    for m in declared:
        row = metrics[m["name"]]
        note = "" if m["name"] in values else "  (not exercised by this workload)"
        print(f"metric  {m['name']:<48} {row['value']:>14.4f} {row['unit']:<12} "
              f"{m['better']} is better{note}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "figures": result.figures,
        "details": result.details,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=float))
    print(json.dumps({
        "correct": True,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
