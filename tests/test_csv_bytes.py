"""Pinned CSV bytes: 20-round copies of the 7 benchmark simulations at
seed 11, three minibatch edge cases, a derived delay, a seed past 2**32
and a full-support dense correction must write exactly the bytes whose
sha256 is in golden/csv_sha256.json.

The CSV shows neither a correction's size nor the state a run ends in, so
each case also pins, in golden/state_sha256.json, the sha256 of its
correction_log (rounds as int64, sizes as float64 bits) and of every
client's final weights and anchor, client by client.

The configs are written out here rather than imported from bench/, so the
pin holds whatever the benchmark does. The bytes also depend on the
kernels of the build (numpy 2.4.6 with its OpenBLAS 0.3.31): on x86-64
the matmul kernels of OpenBLAS and numpy's own SIMD loops (exp, log, tanh)
each round differently with and without AVX-512. A machine runs both at
one level, so a kernel family names the pair: "avx512" (SkylakeX,
Cooperlake, SapphireRapids), "avx2" (Haswell, Zen) or "sse42" (Nehalem
with numpy's baseline x86-64-v2 loops, the oldest kernels either ships).
Each case holds a pin per family, and a CSV must match its family's pin;
a mixed pair, such as Haswell BLAS under numpy's AVX-512 loops, has no
pins. A change that moves any of these bytes on purpose rewrites the pins
under all three families,

    PYTHONPATH=src python tests/test_csv_bytes.py

once as it is, once with OPENBLAS_CORETYPE=Haswell and
NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR set, which on an
AVX-512 host runs what an AVX2-only CPU runs, and once with
OPENBLAS_CORETYPE=Nehalem and
NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR,X86_V3 set, and
says so in CHANGES.md. Each run records the family it runs under and
keeps the other families' pins.
"""

import functools
import hashlib
import json
import os
import platform
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dpga.cli import write_metrics_csv
from dpga.engine import SimConfig, Simulation

GOLDEN = Path(__file__).parent / "golden" / "csv_sha256.json"
STATE_GOLDEN = Path(__file__).parent / "golden" / "state_sha256.json"
ROUNDS = 20
SEED = 11


def comparative(algorithm: str) -> SimConfig:
    return SimConfig(
        algorithm=algorithm,
        n_clients=20, rounds=ROUNDS, local_epochs=1, eta=0.3, batch_size=None,
        delay=(4 if algorithm in ("dga", "dpga") else 0),
        bandwidth=5000.0, latency=3.0, t_compute=1.5,
        walk_p0=0.1, walk_m=1, static_fraction=0.25,
        eval_every=1, seed=SEED,
        num_classes=10, dim=20, per_class=200, test_per_class=50,
        spread=1.0, alpha=1.0, rho=1.0,
    )


def exchange_heavy(algorithm: str) -> SimConfig:
    return SimConfig(
        algorithm=algorithm,
        n_clients=32, rounds=ROUNDS, local_epochs=1, eta=0.2, batch_size=None,
        delay=8, bandwidth=50000.0, latency=1.0, t_compute=1.5,
        walk_p0=0.3, walk_m=2, per_client_walk=True,
        correction_scope="full-support",
        eval_every=50, seed=SEED,
        model_kind="mlp", hidden_dims=(64, 64), activation="relu",
        num_classes=10, dim=20, per_class=40, test_per_class=100,
        spread=1.0, alpha=3.0, rho=1.0,
    )


def minibatch(algorithm: str) -> SimConfig:
    return SimConfig(
        algorithm=algorithm,
        n_clients=10, rounds=ROUNDS, local_epochs=5, eta=0.1, batch_size=32,
        delay=(2 if algorithm == "dga" else 0),
        bandwidth=100000.0, latency=0.5, t_compute=1.0,
        eval_every=25, seed=SEED,
        model_kind="mlp", hidden_dims=(32,), activation="tanh",
        num_classes=10, dim=20, per_class=400, test_per_class=50,
        spread=1.0, alpha=1.0, rho=1.0,
    )


def mixed_shards(algorithm: str) -> SimConfig:
    # Shard sizes 41, 10, 5, 11, 18, 5, 27, 6, 22 and 5: some clients draw
    # minibatches of 16 and the rest step on their whole shard.
    return SimConfig(
        algorithm=algorithm,
        n_clients=10, rounds=ROUNDS, local_epochs=3, batch_size=16, delay=2,
        seed=SEED, model_kind="mlp", hidden_dims=(16, 8), activation="relu",
        num_classes=5, dim=8, per_class=30, alpha=0.5,
    )


def small_batches(algorithm: str) -> SimConfig:
    # Logistic regression on batches of 8, and single-example steps.
    return SimConfig(
        algorithm=algorithm,
        n_clients=6, rounds=ROUNDS, local_epochs=4,
        batch_size=(8 if algorithm == "fedavg" else 1),
        delay=(None if algorithm == "fedavg" else 2), seed=SEED,
    )


def derived_delay(algorithm: str) -> SimConfig:
    # The comparative config with the delay derived: D = 3 rounds of compute
    # cover its worst round trip (the comparative cases set D = 4).
    return replace(comparative(algorithm), delay=None)


def wide_seed(algorithm: str) -> SimConfig:
    # A seed past 2**32 is two uint32 words in every derived stream,
    # the minibatch streams included.
    return replace(small_batches(algorithm), seed=2 ** 32 + SEED)


def minibatch_full_support(algorithm: str) -> SimConfig:
    # A dense upload merged over the whole aggregate support.
    return replace(minibatch(algorithm), correction_scope="full-support")


CASES = {
    **{f"comparative/{a}": (comparative, a)
       for a in ("fedavg", "dga", "dpga", "static-partial")},
    "exchange-heavy/dpga": (exchange_heavy, "dpga"),
    **{f"minibatch/{a}": (minibatch, a) for a in ("fedavg", "dga")},
    "mixed-shards/dga": (mixed_shards, "dga"),
    "batch-8/fedavg": (small_batches, "fedavg"),
    "batch-1/dpga": (small_batches, "dpga"),
    "derived-delay/dpga": (derived_delay, "dpga"),
    "batch-8-wide-seed/fedavg": (wide_seed, "fedavg"),
    "minibatch-full-support/dga": (minibatch_full_support, "dga"),
}
# OPENBLAS_CORETYPE names -> the kernel family they select.
FAMILIES = {"skylakex": "avx512", "cooperlake": "avx512",
            "sapphirerapids": "avx512", "haswell": "avx2", "zen": "avx2",
            "nehalem": "sse42"}


def kernel_family() -> str:
    """The kernels this process runs. The OpenBLAS family is the one
    OPENBLAS_CORETYPE names, or else the widest the CPU supports; numpy's
    level is "avx512" when its X86_V4 loops are on, "avx2" with X86_V3 and
    "sse42" with the x86-64-v2 baseline alone (NPY_DISABLE_CPU_FEATURES
    turns levels off). When the two agree that is the family; a mixed pair
    is named for both parts."""
    from numpy._core._multiarray_umath import __cpu_features__ as cpu
    core = os.environ.get("OPENBLAS_CORETYPE", "").lower()
    blas = (FAMILIES.get(core, core) if core else "avx512" if cpu.get("AVX512F")
            else "avx2" if cpu.get("AVX2") else platform.machine())
    simd = ("avx512" if cpu.get("X86_V4") else "avx2" if cpu.get("X86_V3")
            else "sse42" if cpu.get("X86_V2") else platform.machine())
    return blas if blas == simd else f"openblas-{blas}+numpy-{simd}"


def _sha256(*arrays: np.ndarray) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@functools.cache
def run_hashes(name: str) -> tuple[str, dict[str, str]]:
    """One run of the case: the sha256 of its CSV, and of its
    correction_log and its clients' final weights and anchors."""
    make, algorithm = CASES[name]
    sim = Simulation(make(algorithm))
    records = sim.run()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        write_metrics_csv(records, path)
        csv = hashlib.sha256(path.read_bytes()).hexdigest()
    log = sim.correction_log
    state = {
        "correction_log": _sha256(np.array([r for r, _ in log], dtype="<i8"),
                                  np.array([d for _, d in log], dtype="<f8")),
        "clients": _sha256(*(a.astype("<f8") for c in sim.clients
                             for a in (c.weights, c.anchor))),
    }
    return csv, state


def _pins(golden: Path, name: str) -> tuple[str, object]:
    family, pins = kernel_family(), json.loads(golden.read_text())[name]
    assert family in pins, f"no {family} pin; pinned families: {sorted(pins)}"
    return family, pins


@pytest.mark.parametrize("name", list(CASES))
def test_csv_bytes_are_pinned(name):
    family, pins = _pins(GOLDEN, name)
    assert run_hashes(name)[0] == pins[family], pins


@pytest.mark.parametrize("name", list(CASES))
def test_final_state_is_pinned(name):
    family, pins = _pins(STATE_GOLDEN, name)
    assert run_hashes(name)[1] == pins[family], pins


if __name__ == "__main__":
    family = kernel_family()
    if "+" in family:
        raise SystemExit(f"{family} is a mix no machine runs; set both or neither")
    for i, golden in enumerate((GOLDEN, STATE_GOLDEN)):
        old = json.loads(golden.read_text()) if golden.exists() else {}
        pins = {name: {**old.get(name, {}), family: run_hashes(name)[i]}
                for name in CASES}
        golden.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"wrote the {family} pins of {len(pins)} cases to {golden}")
