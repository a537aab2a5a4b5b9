"""Self-contained oracle suites behind the `check` subcommand.

Each suite re-derives expected behavior by an independent route (finite
differences, brute-force path enumeration, byte roundtrips, sorting
references, straight-line reference loops) and compares the
implementation against it. All suites are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .engine import SimConfig, Simulation
from .masking import (SparseGradient, decode, encode, message_bytes,
                      shared_count, topk_shared_indices)
from .models import Batch, ModelSpec, finite_diff_check, init_params, \
    loss_and_gradient
from .protocol import (AGGREGATION_MODES, pairwise_mean, pairwise_sum,
                       server_aggregate)
from .ratewalk import GRID, transition_distribution


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


# ---- gradients vs central differences ---- #

def check_gradients(cases: int = 25, seed: int = 20240,
                    grad_fn=loss_and_gradient) -> SuiteResult:
    """Randomized finite-difference validation of the analytic gradients.

    grad_fn exists so a deliberately broken gradient can be injected to
    prove the check has teeth.
    """
    rng = np.random.default_rng(seed)
    worst = {"logistic-regression": 0.0, "mlp": 0.0}
    limits = {"logistic-regression": 1e-5, "mlp": 1e-4}
    for kind in ("logistic-regression", "mlp"):
        for _ in range(cases):
            classes = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 6))
            hidden = (int(rng.integers(2, 6)),) if kind == "mlp" else ()
            spec = ModelSpec(kind=kind, input_dim=dim, num_classes=classes,
                             hidden_dims=hidden, activation="tanh")
            n = int(rng.integers(1, 6))
            batch = Batch(rng.standard_normal((n, dim)),
                          rng.integers(0, classes, size=n))
            params = rng.standard_normal(spec.dim)
            err = finite_diff_check(params, batch, spec, grad_fn=grad_fn)
            worst[kind] = max(worst[kind], err)
    passed = all(worst[k] < limits[k] for k in worst)
    detail = ", ".join(f"{k} max_rel_err={worst[k]:.3e} (limit {limits[k]:g})"
                       for k in worst)
    return SuiteResult("finite-diff", passed, detail)


# ---- rate walk vs brute-force enumeration ---- #

def enumerate_transition(p: float, m: int) -> dict[float, float]:
    """m-step law by summing all 2^m coin paths (clamp at the grid ends)."""
    start = round(p * 10) - 1
    probs = np.zeros(GRID.shape[0])
    if m == 0:
        probs[start] = 1.0
    else:
        for path in product((-1, 1), repeat=m):
            s = start
            for step in path:
                s = min(max(s + step, 0), GRID.shape[0] - 1)
            probs[s] += 0.5 ** m
    return {float(GRID[j]): float(probs[j]) for j in range(GRID.shape[0])
            if probs[j] > 0.0}


def check_walk(max_steps: int = 8, tol: float = 1e-12) -> SuiteResult:
    worst = 0.0
    for m in range(1, max_steps + 1):
        for p in GRID:
            got = transition_distribution(float(p), m)
            want = enumerate_transition(float(p), m)
            keys = set(got) | set(want)
            for k in keys:
                worst = max(worst, abs(got.get(k, 0.0) - want.get(k, 0.0)))
            worst = max(worst, abs(sum(got.values()) - 1.0))
    return SuiteResult("walk-enumeration", worst <= tol,
                       f"max_abs_err={worst:.3e} over m=1..{max_steps}, "
                       f"all {GRID.shape[0]} start states (tol {tol:g})")


# ---- codec fuzz ---- #

def check_codec(cases: int = 1000, seed: int = 77) -> SuiteResult:
    rng = np.random.default_rng(seed)
    for i in range(cases):
        d = int(rng.integers(1, 400))
        p = float(GRID[rng.integers(0, GRID.shape[0])])
        k = shared_count(p, d)
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        msg = SparseGradient(round=int(rng.integers(0, 2 ** 40)), p=p,
                             indices=idx, values=rng.standard_normal(k))
        blob = encode(msg)
        if len(blob) != message_bytes(msg):
            return SuiteResult("codec-roundtrip", False,
                               f"case {i}: size formula mismatch")
        back = decode(blob)
        if back != msg:
            return SuiteResult("codec-roundtrip", False,
                               f"case {i}: decode(encode(msg)) != msg")
    return SuiteResult("codec-roundtrip", True,
                       f"{cases} random messages round-tripped byte-exactly")


# ---- exchange layer vs sorting references ---- #

def lexsort_topk(z: np.ndarray, p: float) -> np.ndarray:
    """Top-K by definition: sort by (-|z|, index), keep K, sort ascending."""
    order = np.lexsort((np.arange(z.shape[0]), -np.abs(z)))
    return np.sort(order[:shared_count(p, z.shape[0])])


def union_aggregate(messages: list[SparseGradient], d: int, mode: str,
                    weights: np.ndarray | None):
    """Aggregate over the sorted union of indices, placed by searchsorted;
    returns length-d (values, counts), zero off the union."""
    union = np.unique(np.concatenate([m.indices for m in messages]))
    slots = np.zeros((len(messages), union.shape[0]))
    present = np.zeros((len(messages), union.shape[0]), dtype=np.int64)
    for i, m in enumerate(messages):
        pos = np.searchsorted(union, m.indices)
        slots[i, pos] = m.values
        present[i, pos] = 1
    counts = present.sum(axis=0)
    if mode == "divide-by-n":
        values = pairwise_sum(slots) / len(messages)
    elif weights is None:
        values = pairwise_sum(slots) / counts
    else:
        values = (pairwise_sum(slots * weights[:, None])
                  / pairwise_sum(present * weights[:, None]))
    full_values, full_counts = np.zeros(d), np.zeros(d, dtype=np.int64)
    full_values[union], full_counts[union] = values, counts
    return full_values, full_counts


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _exchange_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    """Gaussian, or small integers with signed zeros so magnitudes tie."""
    if rng.integers(0, 2):
        return rng.standard_normal(d)
    z = rng.integers(-3, 4, size=d).astype(np.float64)
    z[z == 0.0] *= rng.choice([-1.0, 1.0], size=np.count_nonzero(z == 0.0))
    return z


def check_exchange(cases: int = 1000, seed: int = 4099) -> SuiteResult:
    """Top-K selection and server aggregation against sorting references.

    Each case draws d, then checks Top-K of one vector against the lexsort
    definition and the aggregate of 1-8 uploads against the union and
    searchsorted route, bit for bit over all d, in a random aggregation mode.
    """
    rng = np.random.default_rng(seed)
    for i in range(cases):
        d = int(rng.integers(1, 300))
        z = _exchange_vector(rng, d)
        p = float(GRID[rng.integers(0, GRID.shape[0])])
        if not _same_bits(topk_shared_indices(z, p), lexsort_topk(z, p)):
            return SuiteResult("exchange", False,
                               f"case {i}: Top-K differs from the lexsort rule")
        msgs = []
        for _ in range(int(rng.integers(1, 9))):
            z = _exchange_vector(rng, d)
            p = float(GRID[rng.integers(0, GRID.shape[0])])
            idx = topk_shared_indices(z, p)
            msgs.append(SparseGradient(round=i, p=p, indices=idx, values=z[idx]))
        mode = AGGREGATION_MODES[int(rng.integers(0, len(AGGREGATION_MODES)))]
        weights = None
        if mode == "per-component" and rng.integers(0, 2):
            sizes = rng.integers(1, 50, size=len(msgs)).astype(np.float64)
            weights = sizes / sizes.sum()
        got = server_aggregate(msgs, d, mode, weights)
        values, counts = union_aggregate(msgs, d, mode, weights)
        if not (_same_bits(got.values, values) and _same_bits(got.counts, counts)):
            return SuiteResult("exchange", False,
                               f"case {i}: aggregate differs from the union route")
    return SuiteResult("exchange", True,
                       f"{cases} cases: Top-K equals the lexsort rule and the "
                       "aggregate equals the union route bit for bit")


# ---- protocol reductions ---- #

def _mini_config(**kw) -> SimConfig:
    base = dict(algorithm="dpga", n_clients=4, rounds=8, local_epochs=2,
                eta=0.1, batch_size=None, walk_m=0, walk_p0=1.0,
                bandwidth=1e9, latency=0.0, num_classes=3, dim=5,
                per_class=30, test_per_class=15, spread=1.0,
                alpha=1.0, rho=1.0, seed=91)
    base.update(kw)
    return SimConfig(**base)


def check_reductions() -> SuiteResult:
    """Two degenerate-case identities the protocol must hit exactly.

    First, clients with identical shards and full batches must see
    corrections of exactly zero. Second, with p = 1 and zero delay the
    trajectory must equal straight synchronized gradient averaging bitwise,
    re-derived here with a plain loop over the model primitives.
    """
    sym = Simulation(_mini_config(delay=2))
    shard = sym.clients[0].shard
    for c in sym.clients:
        c.shard = shard  # identical data on every client
    sym.run()
    worst = max((d for _, d in sym.correction_log), default=0.0)
    if worst != 0.0:
        return SuiteResult("reduction-identities", False,
                           f"identical clients saw correction {worst:.3e} != 0")

    cfg = _mini_config(delay=0, rounds=6)
    sim = Simulation(cfg)
    w = sim.clients[0].weights.copy()
    shards = [c.shard for c in sim.clients]
    spec = sim.spec
    for _ in range(cfg.rounds):
        zs = []
        for shard in shards:
            z = np.zeros_like(w)
            cur = w
            for _ in range(cfg.local_epochs):
                _, g = loss_and_gradient(cur, shard, spec)
                z += g
                cur = w - cfg.eta * z
            zs.append(z)
        w = w - cfg.eta * pairwise_mean(np.stack(zs))
    sim.run()
    if not all(np.array_equal(c.weights, w) for c in sim.clients):
        return SuiteResult("reduction-identities", False,
                           "p=1, delay 0 did not match synchronized averaging bitwise")
    return SuiteResult("reduction-identities", True,
                       "zero-correction symmetry exact; p=1/delay-0 matches "
                       "synchronized averaging bitwise")


def run_all(suites=None) -> list[SuiteResult]:
    if suites is None:
        suites = [check_gradients, check_walk, check_codec, check_exchange,
                  check_reductions]
    return [fn() for fn in suites]
