"""The straight-line reference at the benchmark's shapes.

The Tier-1 property in test_reference.py draws at most 8 clients, delays
0-3 and models of a few dozen parameters. This script runs the same
reference_run against Simulation.run on every seed-11 simulation of the
benchmark workloads (bench/workloads.py: 32 clients at delay 8 and
d = 6,154 among them), each cut to 40 rounds, and compares records, final
weights, anchors and correction_log bit for bit. It prints one line per
simulation and exits 1 at the first one that differs, naming the field.

    PYTHONPATH=src python tests/reference_at_bench_shapes.py

Its name keeps it out of the Tier-1 collection; CI runs it natively and
under the AVX2 and Nehalem emulations.
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from dpga.engine import Simulation
from test_reference import reference_run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import DEFAULT_SEED, WORKLOADS, configs  # noqa: E402

ROUNDS = 40


def first_difference(cfg) -> str | None:
    """The first field in which Simulation.run and reference_run differ."""
    sim = Simulation(cfg)
    records = sim.run()
    want_records, want_w, want_a, want_log = reference_run(cfg)
    # repr tells every float apart bit for bit, -0.0 and nan included.
    for got, want in zip(records, want_records):
        if repr(got) != repr(want):
            return f"records (round {got.round})"
    fields = {
        "weights": (np.stack([c.weights for c in sim.clients]), want_w),
        "anchors": (np.stack([c.anchor for c in sim.clients]), want_a),
    }
    for name, (got, want) in fields.items():
        if got.tobytes() != want.tobytes():
            return name
    if repr(sim.correction_log) != repr(want_log):
        return "correction_log"
    return None


def main() -> int:
    for workload in WORKLOADS:
        for cfg in configs(workload, DEFAULT_SEED):
            cfg = replace(cfg, rounds=min(cfg.rounds, ROUNDS))
            start = time.perf_counter()
            field = first_difference(cfg)
            name = f"{workload} {cfg.algorithm}"
            if field is not None:
                print(f"FAIL {name}: {field} differ from the reference")
                return 1
            print(f"ok   {name}: {cfg.rounds} rounds bit-equal "
                  f"({time.perf_counter() - start:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
