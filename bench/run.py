"""Benchmark for the dpga simulator.

    python3 bench/run.py --workload comparative --seed 11 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) from the source tree
next to this directory, in this one process, with BLAS pinned to one
thread. Prints the environment, every metric by name with its unit, and
as the last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, measured untraced;
with --trace 1 they are the per-layer ones from a separate traced run,
followed by the layer-share report. CSVs, spans and a full result record
go to bench/out/. Exits 2 when the source tree is missing or the
arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def git_commit() -> str:
    """HEAD of the source tree, read without running git; 'unknown' if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dpga" / "__init__.py").is_file():
        print(f"error: no dpga source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Matrices here are at most ~4000x64; extra BLAS threads only add
    # contention and spread. Must be set before numpy is imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env))
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    measure = harness.measure_traced if args.trace else harness.measure
    result = measure(args.workload, args.seed, args.seconds, out_dir)

    passes = result["passes"]
    for res in (r for p in passes for r in p):
        for problem in res.problems:
            print(f"FAILED {problem}")
    if args.seed == workloads.DEFAULT_SEED:
        for res in passes[0]:
            print(f"info csv_identical {res.config.algorithm}: {res.csv_identical}")
    kind = "untraced and traced passes" if args.trace else "passes"
    print(f"info {len(passes)} {kind}, {result['attempted']} simulations")
    for name in result.get("missing", []):
        print(f"info missing wrap target {name}: reported as zero")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    if args.trace:
        print("layer self-time shares, largest first:")
        for name, self_s, share in harness.layer_shares(result["layers"]):
            print(f"  {share:7.2%}  {self_s:9.4f} s  {name}")

    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    record = {**line, "env": env}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
