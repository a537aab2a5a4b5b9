"""Self-contained oracle suites behind the `check` subcommand.

Each suite re-derives expected behavior by an independent route (central
finite differences, brute-force path enumeration, byte roundtrips, sorting
references, straight-line reference loops) and compares the arrays the
run path uses against it. Every suite is deterministic and has one size.
A suite whose subject raises fails, naming the exception.

Each oracle is defined here and nowhere else. The acceptance gate
(tests/test_acceptance.py) calls the same functions: criteria 1 and 2 are
the two halves of reduction-identities, 3 is check_walk, 4 is
check_gradients and the codec half of 5 is check_codec. The unit tests
take their Top-K reference from lexsort_topk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import wraps
from itertools import product

import numpy as np

from .engine import SimConfig, Simulation
from .masking import (SharedSet, SparseGradient, decode, encode,
                      extract_shared, shared_count, topk_shared_indices)
from .models import ACTIVATIONS, KINDS, Batch, ModelSpec, loss_and_gradient
from .protocol import (pairwise_mean, pairwise_sum, server_aggregate,
                       static_partial_mask)
from .ratewalk import GRID, N_STATES, m_step_matrix


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _suite(name: str):
    """Make a body that returns (passed, detail) the suite `name`. An
    exception from the body fails the suite, and the detail names it."""
    def wrap(body):
        @wraps(body)
        def suite() -> SuiteResult:
            try:
                return SuiteResult(name, *body())
            except Exception as exc:
                return SuiteResult(name, False, f"raised {type(exc).__name__}: {exc}")
        return suite
    return wrap


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    """Gaussian, or small integers with signed zeros so magnitudes tie."""
    if rng.integers(0, 2):
        return rng.standard_normal(d)
    z = rng.integers(-3, 4, size=d).astype(np.float64)
    z[z == 0.0] *= rng.choice([-1.0, 1.0], size=np.count_nonzero(z == 0.0))
    return z


# ---- gradients vs central differences ---- #

def _finite_diff_error(params, batch: Batch, spec: ModelSpec) -> float:
    """Max over coordinates of |analytic - numeric| / max(1, |analytic|),
    the numeric derivative being the central difference of the loss."""
    _, grad = loss_and_gradient(params, batch, spec)
    worst, h = 0.0, 1e-5
    for j in range(params.shape[0]):
        bump = params.copy()
        bump[j] += h
        hi, _ = loss_and_gradient(bump, batch, spec)
        bump[j] = params[j] - h
        lo, _ = loss_and_gradient(bump, batch, spec)
        numeric = (hi - lo) / (2.0 * h)
        worst = max(worst, abs(grad[j] - numeric) / max(1.0, abs(grad[j])))
    return worst


@_suite("finite-diff")
def check_gradients():
    """Acceptance criterion 4: the analytic gradient of random logistic
    regressions and MLPs (1-2 hidden layers, half relu and half tanh)
    against central differences of the loss."""
    rng = np.random.default_rng(20240)
    worst = dict.fromkeys(KINDS, 0.0)
    limits = {"logistic-regression": 1e-5, "mlp": 1e-4}
    for kind in KINDS:
        for i in range(100):
            classes = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 6))
            hidden = (tuple(rng.integers(2, 6, size=rng.integers(1, 3)).tolist())
                      if kind == "mlp" else ())
            spec = ModelSpec(kind=kind, input_dim=dim, num_classes=classes,
                             hidden_dims=hidden, activation=ACTIVATIONS[i % 2])
            n = int(rng.integers(1, 6))
            batch = Batch(rng.standard_normal((n, dim)),
                          rng.integers(0, classes, size=n))
            err = _finite_diff_error(rng.standard_normal(spec.dim), batch, spec)
            worst[kind] = max(worst[kind], err)
    return (all(worst[k] < limits[k] for k in KINDS),
            "100 cases per kind, the MLPs half relu and half tanh: " + ", ".join(
                f"{k} max_rel_err={worst[k]:.3e} (limit {limits[k]:g})" for k in KINDS))


# ---- rate walk vs brute-force enumeration ---- #

def enumerate_transition(start: int, m: int) -> np.ndarray:
    """The m-step law from grid index start, summed over all 2^m coin
    paths; a step past either end of the grid stays put."""
    probs = np.zeros(N_STATES)
    for path in product((-1, 1), repeat=m):
        s = start
        for step in path:
            s = min(max(s + step, 0), N_STATES - 1)
        probs[s] += 0.5 ** m
    return probs


@_suite("walk-enumeration")
def check_walk():
    """Acceptance criterion 3: every row of m_step_matrix, the law that
    RateState.sample draws from, equals path enumeration bit for bit."""
    for m in range(9):
        rows = m_step_matrix(m)
        for start in range(N_STATES):
            if not _same_bits(rows[start], enumerate_transition(start, m)):
                return False, (f"m={m}: the row from p={GRID[start]:g} differs "
                               "from path enumeration")
    return True, (f"m=0..8, all {N_STATES} start states: every "
                  "m_step_matrix row equals path enumeration bit for bit")


# ---- codec fuzz ---- #

@_suite("codec-roundtrip")
def check_codec():
    """Random messages, with signed zeros and ties in about half of them,
    encode to 17 + 12k bytes and decode to bit-equal fields."""
    rng = np.random.default_rng(77)
    for i in range(1000):
        d = int(rng.integers(1, 400))
        p = float(GRID[rng.integers(0, GRID.shape[0])])
        k = shared_count(p, d)
        shared = SharedSet(np.sort(rng.choice(d, size=k, replace=False)), d)
        msg = SparseGradient(round=int(rng.integers(0, 2 ** 64, dtype=np.uint64)),
                             p=p, shared=shared, values=_random_vector(rng, k))
        blob = encode(msg)
        # The DPG1 layout spelled out: a 17-byte header, 4 + 8 bytes per entry.
        if len(blob) != 17 + 12 * k:
            return False, f"case {i}: {len(blob)} bytes, not 17 + 12k"
        back = decode(blob)
        for name in ("round", "p", "indices", "values"):
            sent, got = (np.asarray(getattr(m, name)) for m in (msg, back))
            if not _same_bits(got, sent):
                return False, f"case {i}: the decoded {name} field differs"
    return True, "1000 random messages round-tripped bit for bit at 17 + 12k bytes"


# ---- exchange layer vs sorting references ---- #

def lexsort_topk(z: np.ndarray, p: float) -> np.ndarray:
    """Top-K by definition: sort by (-|z|, index), keep K, sort ascending."""
    order = np.lexsort((np.arange(z.shape[0]), -np.abs(z)))
    return np.sort(order[:shared_count(p, z.shape[0])])


def union_aggregate(messages: list[SparseGradient], d: int,
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
    if weights is None:
        values = pairwise_sum(slots) / counts
    else:
        values = (pairwise_sum(slots * weights[:, None])
                  / pairwise_sum(present * weights[:, None]))
    full_values, full_counts = np.zeros(d), np.zeros(d, dtype=np.int64)
    full_values[union], full_counts[union] = values, counts
    return full_values, full_counts


@_suite("exchange")
def check_exchange():
    """Top-K selection and server aggregation against sorting references.

    Each case draws d, then checks Top-K of one vector against the lexsort
    definition and the aggregate of 1-8 uploads against the union and
    searchsorted route, bit for bit over all d. In about half the cases
    the uploads are Top-K; the rest all carry one fixed set, every
    coordinate or a tail, as a dense or static run sends them, and only
    these are size-weighted, in about half the cases.
    """
    rng = np.random.default_rng(4099)
    for i in range(1000):
        d = int(rng.integers(1, 300))
        z = _random_vector(rng, d)
        p = float(GRID[rng.integers(0, GRID.shape[0])])
        if not _same_bits(topk_shared_indices(z, p).indices, lexsort_topk(z, p)):
            return False, f"case {i}: Top-K differs from the lexsort rule"
        upload = ("top-k", "dense", "tail")[rng.choice(3, p=[0.5, 0.25, 0.25])]
        fixed = static_partial_mask(d, 1.0 if upload == "dense" else p)
        msgs = []
        for _ in range(int(rng.integers(1, 9))):
            z = _random_vector(rng, d)
            p = float(GRID[rng.integers(0, GRID.shape[0])])
            shared = topk_shared_indices(z, p) if upload == "top-k" else fixed
            msgs.append(extract_shared(z, shared, i, p))
        weights = None
        if rng.integers(0, 2):
            sizes = rng.integers(1, 50, size=len(msgs)).astype(np.float64)
            weights = None if upload == "top-k" else sizes / sizes.sum()
        got = server_aggregate(msgs, d, weights)
        values, counts = union_aggregate(msgs, d, weights)
        if not (_same_bits(got.values, values) and _same_bits(got.counts, counts)):
            return False, (f"case {i}: aggregate differs from the union "
                           f"route ({upload} uploads)")
    return True, ("1000 cases: Top-K equals the lexsort rule and the "
                  "aggregate of Top-K, dense and tail uploads equals the "
                  "union route bit for bit")


# ---- protocol reductions ---- #

# Acceptance criteria 1 and 2: full rate, 3 classes in 6 dimensions.
_SMALL = dict(algorithm="dpga", local_epochs=2, eta=0.1, batch_size=None,
              walk_m=0, walk_p0=1.0, num_classes=3, dim=6, per_class=40,
              test_per_class=20, spread=1.0, alpha=1.0, rho=1.0)
# Spread 0 makes every example its class mean, and a huge alpha splits
# every class evenly, so the config itself gives every client the same shard.
IDENTICAL_SHARDS = SimConfig(n_clients=4, delay=2, bandwidth=1e9, latency=0.0,
                             eval_every=50, seed=17,
                             **dict(_SMALL, spread=0.0, alpha=1e6))
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
        w = w - eta * pairwise_mean(zs)
        if t in horizons:
            out[t] = w
    return out


def _collapse(cfg: SimConfig, horizons, identical: bool):
    """Run cfg to each horizon; every client must sit bitwise on
    averaged_local_sgd after one delivery per round. With identical shards
    every correction must also be exactly 0.0."""
    sims = [Simulation(replace(cfg, rounds=r)) for r in horizons]
    shards = [c.shard for c in sims[0].clients]
    if identical:
        differ = [i for i, s in enumerate(shards) if not (
            _same_bits(s.features, shards[0].features)
            and _same_bits(s.labels, shards[0].labels))]
        if differ:
            return False, (f"the shards of clients {differ} are not bitwise "
                           "equal to client 0's")
        shards = shards[:1]
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
    return delivered and bitwise, (
        f"{cfg.n_clients} clients at delay {cfg.delay}: one delivery per "
        f"round{zero} ({delivered}), bitwise equal to {sgd} local SGD at "
        f"rounds {horizons} ({bitwise})")


@_suite("identical-shards")
def check_identical_shards():
    return _collapse(IDENTICAL_SHARDS, (10, 30, 50), True)


@_suite("synchronized-averaging")
def check_synchronized():
    return _collapse(SYNCHRONIZED, (5, 15, 30), False)


@_suite("reduction-identities")
def check_reductions():
    """Acceptance criteria 1 and 2, bit for bit."""
    parts = [check_identical_shards(), check_synchronized()]
    return (all(r.passed for r in parts),
            "; ".join(f"{r.name}: {r.detail}" for r in parts))


def run_all() -> list[SuiteResult]:
    return [check_gradients(), check_walk(), check_codec(), check_exchange(),
            check_reductions()]
