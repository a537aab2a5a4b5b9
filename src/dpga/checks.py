"""Self-contained oracle suites behind the `check` subcommand.

Each suite re-derives expected behavior by an independent route (finite
differences, brute-force path enumeration, byte roundtrips, sorting
references, straight-line reference loops) and compares the
implementation against it. All suites are deterministic.

Each oracle is defined here and nowhere else. The acceptance gate
(tests/test_acceptance.py) calls the same functions: criteria 1 and 2 are
the two halves of reduction-identities, run at the same sizes, 3 is
check_walk, 4 is check_gradients and the codec half of 5 is check_codec.
The unit tests take their Top-K reference from lexsort_topk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .engine import SimConfig, Simulation
from .masking import (SparseGradient, decode, encode, shared_count,
                      topk_shared_indices)
from .models import Batch, ModelSpec, finite_diff_check, loss_and_gradient
from .protocol import (AGGREGATION_MODES, pairwise_mean, pairwise_sum,
                       server_aggregate)
from .ratewalk import GRID, state_index, transition_distribution


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
    start = state_index(p)
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
        # The DPG1 layout spelled out: a 17-byte header, 4 + 8 bytes per entry.
        if len(blob) != 17 + 12 * k:
            return SuiteResult("codec-roundtrip", False,
                               f"case {i}: {len(blob)} bytes, not 17 + 12k")
        back = decode(blob)
        if back != msg:
            return SuiteResult("codec-roundtrip", False,
                               f"case {i}: decode(encode(msg)) != msg")
    return SuiteResult("codec-roundtrip", True,
                       f"{cases} random messages round-tripped byte-exactly "
                       "at 17 + 12k bytes")


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

# Acceptance criteria 1 and 2: full rate, 3 classes in 6 dimensions.
_SMALL = dict(algorithm="dpga", local_epochs=2, eta=0.1, batch_size=None,
              walk_m=0, walk_p0=1.0, num_classes=3, dim=6, per_class=40,
              test_per_class=20, spread=1.0, alpha=1.0, rho=1.0)
IDENTICAL_SHARDS = SimConfig(n_clients=4, delay=2, bandwidth=1e9, latency=0.0,
                             eval_every=50, seed=17, **_SMALL)
SYNCHRONIZED = SimConfig(n_clients=8, delay=0, eval_every=30, seed=23, **_SMALL)


def averaged_local_sgd(w: np.ndarray, shards: list[Batch], spec: ModelSpec,
                       epochs: int, eta: float, horizons) -> dict:
    """Straight-line averaged local SGD, each shard's round telescoped the
    way a client round is; returns {t: weights after round t} for t in
    horizons. With one shard this is standalone local SGD."""
    out = {}
    for t in range(1, max(horizons) + 1):
        zs = []
        for shard in shards:
            z = np.zeros_like(w)
            cur = w
            for _ in range(epochs):
                _, g = loss_and_gradient(cur, shard, spec)
                z += g
                cur = w - eta * z
            zs.append(z)
        w = w - eta * pairwise_mean(np.stack(zs))
        if t in horizons:
            out[t] = w
    return out


def _collapse(name: str, cfg: SimConfig, horizons, identical: bool) -> SuiteResult:
    """Run cfg to each horizon; every client must sit bitwise on
    averaged_local_sgd after one delivery per round. With identical shards
    every correction must also be exactly 0.0."""
    sims = [Simulation(replace(cfg, rounds=r)) for r in horizons]
    shards = [c.shard for c in sims[0].clients]
    if identical:
        shard = shards[0]
        shards = [shard]
        for c in (c for sim in sims for c in sim.clients):
            c.shard = shard  # identical data on every client
    want = averaged_local_sgd(sims[0].clients[0].weights, shards, sims[0].spec,
                              cfg.local_epochs, cfg.eta, horizons)
    delivered, bitwise = True, True
    for sim in sims:
        sim.run()
        log = sim.correction_log
        delivered &= len(log) == sim.cfg.rounds and not (
            identical and any(delta != 0.0 for _, delta in log))
        bitwise &= all(np.array_equal(c.weights, want[sim.cfg.rounds])
                       for c in sim.clients)
    zero = ", each correcting by exactly 0.0" if identical else ""
    sgd = "standalone" if identical else "synchronized averaged"
    return SuiteResult(name, delivered and bitwise,
                       f"{cfg.n_clients} clients at delay {cfg.delay}: one "
                       f"delivery per round{zero} ({delivered}), bitwise equal to "
                       f"{sgd} local SGD at rounds {horizons} ({bitwise})")


def check_identical_shards() -> SuiteResult:
    return _collapse("identical-shards", IDENTICAL_SHARDS, (10, 30, 50), True)


def check_synchronized() -> SuiteResult:
    return _collapse("synchronized-averaging", SYNCHRONIZED, (5, 15, 30), False)


def check_reductions() -> SuiteResult:
    """Acceptance criteria 1 and 2, bit for bit."""
    parts = [check_identical_shards(), check_synchronized()]
    return SuiteResult("reduction-identities", all(r.passed for r in parts),
                       "; ".join(f"{r.name}: {r.detail}" for r in parts))


def run_all(suites=None) -> list[SuiteResult]:
    if suites is None:
        suites = [check_gradients, check_walk, check_codec, check_exchange,
                  check_reductions]
    return [fn() for fn in suites]
