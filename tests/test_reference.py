"""The general case against a straight-line reference.

The run path keeps per-client queues, sparse messages and two aggregation
routes. reference_run keeps every client's weights, anchor and z as rows
of dense (n, d) arrays and every upload as a bool mask row, and spells
each rule of a run out once:

- local steps on the whole shard, or on minibatches drawn from
  default_rng([seed, 5, t, id]).choice, with w = w_start - eta * z;
- Top-K by the lexsort definition (checks.lexsort_topk), or the fixed
  tail every upload of a dense or static run carries;
- the aggregate: pairwise_sum over where(mask, Z, 0), divided where the
  counts are positive, or size-weighted for fedavg;
- the merge where(touched, values, z), its size max |merged - z| in the
  round the aggregate forms, and D rounds later the anchor step
  anchor - eta * merged with every later round's eta * z replayed on it;
- the clock, the byte totals and the evaluation of the averaged model.

From Simulation it borrows only what a run is built from: the data, the
shards, w0 and the rate schedule (_rates). Small configs drawn over all
four algorithms, both scopes, delays 0-3, per-client walks, minibatches
and both models must give the same records, final weights, anchors and
correction_log as Simulation.run(), bit for bit.
"""

from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st

from dpga import protocol
from dpga.checks import lexsort_topk
from dpga.engine import ALGORITHMS, MetricsRecord, SimConfig, Simulation, resolve_delay
from dpga.errors import ConfigurationError
from dpga.masking import payload_bytes, shared_count
from dpga.models import evaluate, loss_and_gradient, mean_loss
from dpga.protocol import pairwise_mean, pairwise_sum
from dpga.ratewalk import GRID
from test_models import _pooled_bias

_BATCH_TAG = 5  # the purpose tag of the minibatch streams


def reference_run(cfg: SimConfig):
    """One run of cfg, straight-line; returns (records, weights, anchors,
    correction_log) with weights and anchors as (n, d) arrays."""
    built = Simulation(cfg)
    spec, n, eta = built.spec, cfg.n_clients, cfg.eta
    shards = [c.shard for c in built.clients]
    d, delay = spec.dim, resolve_delay(cfg)
    top_k = cfg.algorithm == "dpga"
    indexed = cfg.algorithm in ("dpga", "static-partial")
    own_shared = cfg.correction_scope == "own-shared"
    tail = np.zeros(d, dtype=bool)
    tail[d - shared_count(cfg.static_fraction if cfg.algorithm == "static-partial"
                          else 1.0, d):] = True
    sizes = np.array([s.size for s in shards], dtype=np.float64)
    shares = sizes / sizes.sum() if cfg.algorithm == "fedavg" else None

    W = np.stack([c.weights for c in built.clients])
    A = W.copy()
    inflight = deque()  # (round, merged, Z, downlink bytes, correction size)
    records, log = [], []
    up_total = down_total = 0
    clock = 0.0
    for t in range(1, cfg.rounds + 1):
        rates, p = built._rates(t)

        Z = np.zeros((n, d))
        for i, shard in enumerate(shards):
            steps = [shard] * cfg.local_epochs
            if cfg.batch_size is not None and cfg.batch_size < shard.size:
                rng = np.random.default_rng([cfg.seed, _BATCH_TAG, t, i])
                steps = [shard.rows(rng.choice(shard.size, cfg.batch_size, replace=False))
                         for _ in range(cfg.local_epochs)]
            start = W[i].copy()
            for batch in steps:
                Z[i] += loss_and_gradient(W[i], batch, spec)[1]
                W[i] = start - eta * Z[i]

        M = np.zeros((n, d), dtype=bool)
        for i in range(n):
            M[i] = tail if not top_k else np.isin(np.arange(d), lexsort_topk(Z[i], rates[i]))
        up = [payload_bytes(int(k), indexed) for k in M.sum(axis=1)]
        up_total += sum(up)

        counts = M.sum(axis=0)
        V = np.zeros(d)
        if shares is None:
            np.divide(pairwise_sum(np.where(M, Z, 0.0)), counts, out=V, where=counts > 0)
        else:
            V[counts > 0] = (pairwise_sum(np.where(M, Z * shares[:, None], 0.0))
                             / pairwise_sum(shares[:, None]))[counts > 0]
        T = M & (counts > 0) if own_shared else np.broadcast_to(counts > 0, (n, d))
        merged = np.where(T, V, Z)
        delta = float(np.max(np.abs(merged - Z), initial=0.0))
        down = up if own_shared else [payload_bytes(int((counts > 0).sum()), indexed)] * n
        inflight.append((t, merged, Z, sum(down), delta))
        exchange = max(u + v for u, v in zip(up, down))

        while inflight and (inflight[0][0] + delay <= t or t == cfg.rounds):
            due, merged, _, down_bytes, delta = inflight.popleft()
            A = A - eta * merged
            W = A.copy()
            for _, _, later, _, _ in inflight:
                W = W - eta * later
            log.append((due, delta))
            down_total += down_bytes

        clock += cfg.t_compute
        if delay == 0 or t == cfg.rounds:
            clock += cfg.latency + exchange / cfg.bandwidth

        loss = acc = float("nan")
        if t % cfg.eval_every == 0 or t == cfg.rounds:
            wbar = pairwise_mean(W)
            loss, acc = mean_loss(wbar, built.train, spec), evaluate(wbar, built.test, spec)
        records.append(MetricsRecord(round=t, sim_time=clock, up_bytes=up_total,
                                     down_bytes=down_total, p=p, train_loss=loss,
                                     eval_acc=acc))
    return records, W, A, log


@st.composite
def small_configs(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
    synchronous = algorithm in ("fedavg", "static-partial")
    mlp = draw(st.booleans())
    n_clients = draw(st.integers(1, 8))
    return SimConfig(
        algorithm=algorithm,
        n_clients=n_clients, rounds=draw(st.integers(1, 6)),
        local_epochs=draw(st.integers(1, 4)), eta=draw(st.sampled_from([0.05, 0.2])),
        batch_size=draw(st.one_of(st.none(), st.integers(1, 12))),
        delay=0 if synchronous else draw(st.integers(0, 3)),
        bandwidth=10_000.0, latency=draw(st.sampled_from([0.0, 0.5])),
        walk_m=draw(st.integers(0, 2)), walk_p0=float(draw(st.sampled_from(GRID))),
        per_client_walk=draw(st.booleans()),
        correction_scope=draw(st.sampled_from(["own-shared", "full-support"])),
        static_fraction=draw(st.sampled_from([0.1, 0.35, 1.0])),
        eval_every=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**40)),
        model_kind="mlp" if mlp else "logistic-regression",
        hidden_dims=(tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
                     if mlp else ()),
        activation=draw(st.sampled_from(["relu", "tanh"])),
        num_classes=draw(st.integers(2, 3)), dim=draw(st.integers(1, 4)),
        per_class=draw(st.integers(6, 12 + 3 * n_clients)), test_per_class=3,
        alpha=draw(st.sampled_from([1.0, 5.0])),
    )


@given(small_configs())
def test_run_equals_straight_line_reference(cfg):
    try:
        sim = Simulation(cfg)
    except ConfigurationError:  # the partition left a client without data
        reject()
    want_records, want_w, want_a, want_log = reference_run(cfg)
    records = sim.run()
    # repr tells every float apart bit for bit, -0.0 and nan included.
    assert repr(records) == repr(want_records)
    assert np.stack([c.weights for c in sim.clients]).tobytes() == want_w.tobytes()
    assert np.stack([c.anchor for c in sim.clients]).tobytes() == want_a.tobytes()
    assert repr(sim.correction_log) == repr(want_log)


def test_pooled_bias_gradient_fails():
    """The run steps its samplers stacked and the reference steps each
    client alone, so a stacked kernel that sums each bias gradient over the
    clients fails the property."""
    with mock.patch.object(protocol, "loss_and_gradient", _pooled_bias):
        with pytest.raises(AssertionError):
            test_run_equals_straight_line_reference()
