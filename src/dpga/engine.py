"""Experiment driver: four algorithms under one deterministic clock.

What each algorithm is made of lives in one table, SCHEMES: which
coordinates go up, whether aggregation is size-weighted, and whether the
exchange is synchronous. The rest of this module reads that table and
never an algorithm's name.

Clock model: every round costs t_compute. With delay 0 a round
additionally blocks on its exchange (latency + bytes / bandwidth); with a
delay D > 0 communication hides behind compute and only the final exchange
is paid once at the end, when the still-in-flight aggregates drain. D must
therefore cover a full round trip. Payload sizes come from
masking.payload_bytes.

Determinism: every random stream is derived from (seed, purpose tag), the
per-(round, client) batch streams included, and all reductions run in a
fixed order, so a config reproduces its metrics byte for byte.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .data import PartitionConfig, gen_synthetic, partition
from .errors import ConfigurationError, ProtocolError
from .masking import U32_MAX, payload_bytes, snap_rate
from .models import Batch, ModelSpec, evaluate, init_params
from .protocol import (AGGREGATION_MODES, CORRECTION_SCOPES, ClientState,
                       apply_correction, build_upload, local_round,
                       pairwise_mean, server_aggregate, static_partial_mask)
from .ratewalk import MAX_STEPS, RateState, state_index


@dataclass(frozen=True)
class Scheme:
    """The parts one algorithm is made of.

    upload: which coordinates go up each round: "dense" (all of them, sent
        without an index list), "top-k" (the largest |z| at a random-walk
        rate) or "static" (a fixed tail mask).
    weighted: the server weights each client by its shard size.
    synchronous: every aggregate applies in its own round (delay 0).
    """

    upload: str
    weighted: bool
    synchronous: bool


# The paper's scheme comes first and is SimConfig's default; the other
# three are the baselines it is compared against.
SCHEMES = {
    "dpga": Scheme(upload="top-k", weighted=False, synchronous=False),
    "fedavg": Scheme(upload="dense", weighted=True, synchronous=True),
    "dga": Scheme(upload="dense", weighted=False, synchronous=False),
    "static-partial": Scheme(upload="static", weighted=False, synchronous=True),
}
ALGORITHMS = tuple(SCHEMES)

# Purpose tags for derived random streams.
_SEED_DATA, _SEED_PART, _SEED_INIT, _SEED_WALK, _SEED_BATCH = range(1, 6)


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a run. Same config, same output bytes."""

    algorithm: str = ALGORITHMS[0]
    n_clients: int = 8
    rounds: int = 50
    local_epochs: int = 2
    eta: float = 0.1
    batch_size: int | None = None        # None = full shard
    delay: int | None = None             # None = derive from the network
    bandwidth: float = 1e6               # bytes per time unit
    latency: float = 0.0
    t_compute: float = 1.0
    walk_m: int = 2
    walk_p0: float = 0.5
    per_client_walk: bool = False
    aggregation: str = "per-component"
    correction_scope: str = "own-shared"
    static_fraction: float = 0.5
    eval_every: int = 1
    seed: int = 0
    model_kind: str = "logistic-regression"
    hidden_dims: tuple[int, ...] = ()
    activation: str = "relu"
    num_classes: int = 3
    dim: int = 6
    per_class: int = 40
    test_per_class: int = 20
    spread: float = 1.0
    alpha: float = 1.0
    rho: float = 1.0

    def model_spec(self) -> ModelSpec:
        return ModelSpec(kind=self.model_kind, input_dim=self.dim,
                         num_classes=self.num_classes,
                         hidden_dims=tuple(self.hidden_dims),
                         activation=self.activation)


@dataclass(frozen=True)
class MetricsRecord:
    """One row of run output. Byte totals are cumulative."""

    round: int
    sim_time: float
    up_bytes: int
    down_bytes: int
    p: float
    train_loss: float
    eval_acc: float


def comm_time(nbytes: float, bandwidth: float, latency: float) -> float:
    """Transfer time for one exchange: latency plus payload over bandwidth."""
    if not bandwidth > 0.0:
        raise ConfigurationError("bandwidth must be positive")
    if latency < 0.0:
        raise ConfigurationError("latency must be >= 0")
    if nbytes < 0:
        raise ConfigurationError("byte count must be >= 0")
    return latency + nbytes / bandwidth


def _worst_roundtrip(cfg: SimConfig) -> float:
    """Per-client up+down time of the largest possible exchange (p = 1)."""
    indexed = SCHEMES[cfg.algorithm].upload != "dense"
    return comm_time(2 * payload_bytes(cfg.model_spec().dim, indexed),
                     cfg.bandwidth, cfg.latency)


def _covering_rounds(rt: float, t_compute: float) -> int:
    rounds = rt / t_compute
    # The quotient rounds, so its ceiling can fall one step short of rt;
    # then take the next round (past 2**53, the next float).
    while math.isfinite(rounds):
        covering = math.ceil(rounds)
        if covering * t_compute >= rt:
            return covering
        rounds = math.nextafter(covering, math.inf)
    raise ConfigurationError(f"a round trip of {rt:g} time units spans "
                             "more compute rounds than can be counted")


def resolve_delay(cfg: SimConfig) -> int:
    """The delay D a run uses: 0 blocks on every exchange, D > 0 hides it
    behind D rounds of compute and must cover the worst round trip."""
    if SCHEMES[cfg.algorithm].synchronous:
        if cfg.delay not in (None, 0):
            raise ConfigurationError(
                f"{cfg.algorithm} is synchronous; delay must be 0 or omitted")
        return 0
    rt = _worst_roundtrip(cfg)
    delay = _covering_rounds(rt, cfg.t_compute) if cfg.delay is None else cfg.delay
    try:
        hidden = delay * cfg.t_compute
    except OverflowError:
        raise ConfigurationError(
            "delay is more rounds than a float can hold") from None
    if delay > 0 and rt > hidden:
        raise ConfigurationError(
            f"delay {delay} hides only {hidden:g} time units "
            f"but a full exchange takes {rt:g}; corrections would arrive "
            "before their uploads finish")
    return delay


def validate_config(cfg: SimConfig) -> int:
    """Check every field; returns the resolved delay."""
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {cfg.algorithm!r}")
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        # An infinite bandwidth is a free link; no other real may be non-finite.
        if isinstance(value, float) and not math.isfinite(value) and not (
                f.name == "bandwidth" and value == math.inf):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")
    if cfg.n_clients < 1:
        raise ConfigurationError("n_clients must be >= 1")
    if cfg.rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    if cfg.local_epochs < 1:
        raise ConfigurationError("local_epochs must be >= 1")
    if not cfg.eta > 0.0:
        raise ConfigurationError("eta must be positive")
    if cfg.batch_size is not None and cfg.batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1 or full")
    if cfg.delay is not None and cfg.delay < 0:
        raise ConfigurationError("delay must be >= 0")
    if not cfg.t_compute > 0.0:
        raise ConfigurationError("t_compute must be positive")
    if cfg.eval_every < 1:
        raise ConfigurationError("eval_every must be >= 1")
    if cfg.seed < 0:
        raise ConfigurationError("seed must be >= 0")
    if cfg.per_class < 1:
        raise ConfigurationError("per_class must be >= 1")
    if cfg.test_per_class < 1:
        raise ConfigurationError("test_per_class must be >= 1")
    if not 0 <= cfg.walk_m <= MAX_STEPS:
        raise ConfigurationError(f"walk m must be in 0..{MAX_STEPS}")
    state_index(cfg.walk_p0)
    if cfg.aggregation not in AGGREGATION_MODES:
        raise ConfigurationError(f"unknown aggregation mode {cfg.aggregation!r}")
    if cfg.correction_scope not in CORRECTION_SCOPES:
        raise ConfigurationError(f"unknown correction scope {cfg.correction_scope!r}")
    if not 0.0 < cfg.static_fraction <= 1.0:
        raise ConfigurationError("static_fraction must be in (0, 1]")
    if SCHEMES[cfg.algorithm].weighted and cfg.aggregation != "per-component":
        raise ConfigurationError(
            f"{cfg.algorithm} uses size-weighted per-component averaging")
    if cfg.model_spec().dim > U32_MAX:  # building the spec validates it
        raise ConfigurationError(
            "the model has more parameters than the DPG1 wire format can "
            f"index; its u32 indices and entry counts stop at {U32_MAX}")
    delay = resolve_delay(cfg)
    # The clock is largest when every exchange is as big as it can be.
    rt = _worst_roundtrip(cfg)
    try:
        last_clock = (cfg.rounds * (cfg.t_compute + rt) if delay == 0
                      else cfg.rounds * cfg.t_compute + rt)
    except OverflowError:  # more rounds than a float can hold
        last_clock = math.inf
    if not math.isfinite(last_clock):
        raise ConfigurationError(
            "the clock would reach inf; shrink rounds, t_compute or the "
            "round trip")
    return delay


def objective(wbar: np.ndarray, train: Batch, spec: ModelSpec) -> float:
    """Global training objective at wbar: sum_k (n_k / n) F_k(wbar), the
    size-weighted mean of the client losses. The shards partition the
    training set, so that is the mean loss over train in one pass."""
    loss, _ = evaluate(wbar, train, spec)
    return loss


class Simulation:
    """A fully built experiment; run() yields one MetricsRecord per round."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.delay = validate_config(cfg)
        self.scheme = SCHEMES[cfg.algorithm]

        self.spec = cfg.model_spec()
        # One draw covers train and eval so both see the same class means;
        # the last test_per_class samples of every class are held out.
        full = gen_synthetic(cfg.num_classes, cfg.dim,
                             cfg.per_class + cfg.test_per_class, cfg.spread,
                             _derived_seed(cfg.seed, _SEED_DATA))
        rows = np.arange(full.size).reshape(cfg.num_classes, -1)
        train, test = rows[:, :cfg.per_class].ravel(), rows[:, cfg.per_class:].ravel()
        self.train = Batch(full.features[train], full.labels[train])
        self.test = Batch(full.features[test], full.labels[test])
        shards = partition(self.train.labels, cfg.num_classes, PartitionConfig(
            alpha=cfg.alpha, rho=cfg.rho, n_clients=cfg.n_clients,
            seed=_derived_seed(cfg.seed, _SEED_PART)))
        for i, idx in enumerate(shards):
            if idx.size == 0:
                raise ConfigurationError(
                    f"partition left client {i} without data; grow the dataset "
                    "or raise alpha/rho")
        w0 = init_params(self.spec, _derived_seed(cfg.seed, _SEED_INIT))
        self.clients = [
            ClientState(id=i, weights=w0.copy(),
                        shard=Batch(self.train.features[idx], self.train.labels[idx]),
                        spec=self.spec, max_pending=self.delay + 1)
            for i, idx in enumerate(shards)
        ]

        self._weights = None
        if self.scheme.weighted:
            sizes = np.array([c.n_i for c in self.clients], dtype=np.float64)
            self._weights = sizes / sizes.sum()
        self._walks: list[RateState] = []
        if self.scheme.upload == "dense":
            self._shared = np.arange(self.spec.dim, dtype=np.int64)
        elif self.scheme.upload == "static":
            self._shared = static_partial_mask(self.spec, cfg.static_fraction)
        else:
            self._shared = None  # build_upload picks Top-K by |z|
            seeds = ([[cfg.seed, _SEED_WALK, i] for i in range(cfg.n_clients)]
                     if cfg.per_client_walk else [[cfg.seed, _SEED_WALK]])
            self._walks = [RateState.from_seed(cfg.walk_p0, cfg.walk_m, seed)
                           for seed in seeds]

        self.records: list[MetricsRecord] = []
        self.correction_log: list[tuple[int, float]] = []  # (round, max |g - z|)

    # ---- helpers ---- #

    def _payload(self, count: int) -> int:
        return payload_bytes(count, indexed=self.scheme.upload != "dense")

    def _rates(self, round_: int) -> tuple[list[float], float]:
        """Each client's update rate this round and the p the round reports."""
        cfg = self.cfg
        if self.scheme.upload == "dense":
            return [1.0] * cfg.n_clients, 1.0
        if self.scheme.upload == "static":
            # The wire carries the snapped grid rate; the record the nominal one.
            return [snap_rate(cfg.static_fraction)] * cfg.n_clients, cfg.static_fraction
        # The first round runs at the configured p0.
        rates = [w.p if round_ == 1 else w.sample() for w in self._walks]
        if cfg.per_client_walk:
            return rates, float(np.mean(rates))
        return rates * cfg.n_clients, rates[0]

    def _local_all(self, round_: int) -> list[np.ndarray]:
        cfg = self.cfg
        return [local_round(c, cfg.local_epochs, cfg.eta, cfg.batch_size,
                            [cfg.seed, _SEED_BATCH, round_, c.id])
                for c in self.clients]

    def _deliver(self, agg, down_sizes: list[int]) -> int:
        worst = 0.0
        for client in self.clients:
            delta = apply_correction(client, agg, self.cfg.eta,
                                     scope=self.cfg.correction_scope)
            worst = max(worst, delta)
        self.correction_log.append((agg.round, worst))
        return sum(down_sizes)

    def _evaluate(self):
        wbar = pairwise_mean(np.stack([c.weights for c in self.clients]))
        train_loss = objective(wbar, self.train, self.spec)
        _, acc = evaluate(wbar, self.test, self.spec)
        return train_loss, acc

    # ---- main loop ---- #

    def run(self) -> list[MetricsRecord]:
        cfg = self.cfg
        inflight: deque = deque()
        up_total = 0
        down_total = 0
        clock = 0.0

        for t in range(1, cfg.rounds + 1):
            rates, p_used = self._rates(t)
            zs = self._local_all(t)

            msgs = [build_upload(client, z, p, t, shared=self._shared)
                    for client, z, p in zip(self.clients, zs, rates)]
            up_sizes = [self._payload(m.count) for m in msgs]
            up_total += sum(up_sizes)

            agg = server_aggregate(msgs, self.spec.dim, cfg.aggregation, self._weights)
            if cfg.correction_scope == "own-shared":
                down_sizes = [self._payload(m.count) for m in msgs]
            else:
                down_sizes = [self._payload(int(agg.indices.shape[0]))] * len(msgs)
            inflight.append((t + self.delay, agg, down_sizes))
            exchange = max(u + dn for u, dn in zip(up_sizes, down_sizes))

            # The last round drains everything still in flight.
            while inflight and (inflight[0][0] <= t or t == cfg.rounds):
                _, due, sizes = inflight.popleft()
                down_total += self._deliver(due, sizes)

            clock += cfg.t_compute
            # A delayed run only waits once, for the final exchange to drain.
            if self.delay == 0 or t == cfg.rounds:
                clock += comm_time(exchange, cfg.bandwidth, cfg.latency)

            if t % cfg.eval_every == 0 or t == cfg.rounds:
                train_loss, acc = self._evaluate()
            else:
                train_loss = acc = float("nan")
            self.records.append(MetricsRecord(
                round=t, sim_time=clock, up_bytes=up_total, down_bytes=down_total,
                p=p_used, train_loss=train_loss, eval_acc=acc))

        if any(c.pending for c in self.clients):
            raise ProtocolError("run ended with undelivered aggregates")
        return self.records


def run_experiment(cfg: SimConfig) -> list[MetricsRecord]:
    """Build and run a simulation; returns one MetricsRecord per round."""
    return Simulation(cfg).run()
