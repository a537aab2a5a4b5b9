"""Client/server state machine for delayed partial gradient averaging.

Per round a client runs K local SGD steps, accumulates the step gradients
into a single vector z, and uploads the Top-K shared part of z. The server
averages the shared parts component-wise over whoever contributed each
coordinate, keeping one value per model coordinate. The aggregate returns
D rounds later; the client then swaps the shared part of that old z for
the global values and rebuilds its weights from the round the upload
left, replaying the local updates it made in the meantime.

Float discipline: within a round, weights are always materialized as
w_round_start - eta * z_partial (left-to-right accumulation), so
w_after == w_before - eta * z holds bitwise. The replay after a correction
reuses exactly this per-round expression, which makes the two documented
degenerate cases exact: identical clients see corrections of exactly zero
and stay on the plain SGD trajectory, and p=1 with zero delay reproduces
synchronized gradient averaging bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, ProtocolError
from .masking import SparseGradient, extract_shared, shared_count, topk_shared_indices
from .models import Batch, ModelSpec, loss_and_gradient

AGGREGATION_MODES = ("per-component", "divide-by-n")
CORRECTION_SCOPES = ("own-shared", "full-support")


# ---- fixed-order reductions ---- #

def pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """Sum 2-d rows with a fixed balanced tree (odd row carried upward).

    The association depends only on the row count, so results are
    reproducible regardless of host parallelism, and summing 2^k identical
    rows is exact.
    """
    a = np.asarray(rows, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ContractViolationError("pairwise_sum needs a non-empty 2-d array")
    while a.shape[0] > 1:
        even = (a.shape[0] // 2) * 2
        paired = a[0:even:2] + a[1:even:2]
        if a.shape[0] % 2:
            paired = np.vstack([paired, a[even:]])
        a = paired
    return a[0].copy()


def pairwise_mean(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return pairwise_sum(rows) / rows.shape[0]


# ---- state ---- #

@dataclass
class PendingRound:
    """An upload still waiting for its aggregate.

    Keeps the coordinates the client shared and the full accumulated
    gradient of that round; the latter is needed to rebuild weights when
    the aggregate lands.
    """

    round: int
    shared: np.ndarray
    z_full: np.ndarray


@dataclass
class ClientState:
    """One simulated client."""

    id: int
    weights: np.ndarray
    shard: Batch
    spec: ModelSpec
    max_pending: int
    anchor: np.ndarray = None
    pending: deque = field(default_factory=deque)
    last_round: int = -1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.anchor is None:
            self.anchor = self.weights.copy()

    @property
    def n_i(self) -> int:
        return self.shard.size


@dataclass(eq=False)
class GlobalAggregate:
    """Component-wise aggregate of one round's uploads, in model coordinates.

    values and counts have one entry per model coordinate: counts[j] is how
    many clients shared coordinate j and values[j] is their aggregate.
    Where nobody shared, both are 0.
    """

    round: int
    values: np.ndarray
    counts: np.ndarray

    @property
    def indices(self) -> np.ndarray:
        """The coordinates at least one client shared, ascending."""
        return np.flatnonzero(self.counts)


# ---- operations ---- #

def local_round(client: ClientState, epochs: int, eta: float,
                batch_size: int | None, rng) -> np.ndarray:
    """Run K local SGD steps and return the accumulated gradient z.

    Weights are updated so that w_after == w_before - eta * z exactly:
    each step recomputes w from the round-start weights and the running
    gradient sum rather than chaining subtractions. rng is a Generator or a
    seed for one, built only when a minibatch is drawn.
    """
    if epochs < 1:
        raise ContractViolationError("epochs must be >= 1")
    if not eta > 0.0:
        raise ContractViolationError("eta must be positive")
    if batch_size is not None and batch_size < 1:
        raise ContractViolationError("batch_size must be >= 1 or None")
    w0 = client.weights
    z = np.zeros_like(w0)
    w = w0
    n = client.shard.size
    sampled = batch_size is not None and batch_size < n
    rng = np.random.default_rng(rng) if sampled else None
    for _ in range(epochs):
        batch = client.shard
        if sampled:
            take = rng.choice(n, size=batch_size, replace=False)
            batch = Batch(client.shard.features[take], client.shard.labels[take])
        _, g = loss_and_gradient(w, batch, client.spec)
        z += g
        w = w0 - eta * z
    client.weights = w
    return z


def build_upload(client: ClientState, z: np.ndarray, p: float, round: int,
                 shared: np.ndarray | None = None) -> SparseGradient:
    """Select the shared part of z, queue it, and return the message.

    The shared set defaults to Top-K by |z|; a fixed mask (static partial
    sharing) can be passed instead. Rounds must strictly increase per
    client, and the pending queue may not outgrow the configured delay.
    """
    if round <= client.last_round:
        raise ProtocolError(
            f"client {client.id}: round {round} not after {client.last_round}")
    if shared is None:
        shared = topk_shared_indices(z, p)
    msg = extract_shared(z, shared, round, p)
    client.pending.append(PendingRound(round=round, shared=msg.indices, z_full=z.copy()))
    client.last_round = round
    if len(client.pending) > client.max_pending:
        raise ProtocolError(
            f"client {client.id}: pending queue exceeded {client.max_pending}")
    return msg


def server_aggregate(messages: list[SparseGradient], d: int,
                     mode: str = "per-component",
                     weights: np.ndarray | None = None) -> GlobalAggregate:
    """Combine one round's uploads into a global aggregate.

    per-component: each coordinate is the mean over the clients that
    shared it (weighted mean if per-client weights are given). divide-by-n:
    the sum of contributions divided by the full client count, so missing
    clients drag a coordinate toward zero. Messages must be passed in
    ascending client-id order; the reduction order is fixed by position.

    d is the model size: every index must lie below it, and the aggregate
    has one value and one count per coordinate, 0 where nobody shared. Each
    message is scattered into one row of an (n_messages, d) buffer, so the
    work is linear in d and no index is sorted or searched.
    """
    if not messages:
        raise ContractViolationError("nothing to aggregate")
    if mode not in AGGREGATION_MODES:
        raise ContractViolationError(f"unknown aggregation mode {mode!r}")
    round_ = messages[0].round
    if any(m.round != round_ for m in messages):
        raise ContractViolationError("aggregating messages from different rounds")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(messages),):
            raise ContractViolationError("need one weight per message")
        if mode != "per-component":
            raise ContractViolationError("weights only apply to per-component mode")

    slots = np.zeros((len(messages), d))
    present = np.zeros((len(messages), d), dtype=bool)
    for i, m in enumerate(messages):
        if m.count and m.indices[-1] >= d:
            raise ContractViolationError(
                f"index {m.indices[-1]} outside a model of size {d}")
        slots[i, m.indices] = m.values
        present[i, m.indices] = True
    counts = present.sum(axis=0)

    # Each column sums on its own, so a shared coordinate carries the same
    # bits as a tree over the shared coordinates alone.
    if mode == "divide-by-n":
        num, den = pairwise_sum(slots), len(messages)
    elif weights is None:
        num, den = pairwise_sum(slots), counts
    else:
        num = pairwise_sum(slots * weights[:, None])
        den = pairwise_sum(present * weights[:, None])
    values = np.divide(num, den, out=np.zeros(d), where=counts > 0)
    return GlobalAggregate(round=round_, values=values, counts=counts)


def apply_correction(client: ClientState, agg: GlobalAggregate, eta: float,
                     scope: str = "own-shared") -> float:
    """Fold a delayed aggregate into the client's weights.

    The aggregate must match the oldest pending round and have one entry
    per model coordinate. Its values replace that round's accumulated
    gradient on the coordinates at least one client shared: within the
    client's own shared set by default, or anywhere with full-support
    scope. The weights are then rebuilt from the round's starting point by
    replaying the later pending rounds with the same per-round update
    expression the forward pass used. Returns the largest |global - local|
    substitution made, which is exactly 0.0 when the aggregate agrees with
    the client's own shared values.
    """
    if scope not in CORRECTION_SCOPES:
        raise ContractViolationError(f"unknown correction scope {scope!r}")
    if not client.pending:
        raise ProtocolError(f"client {client.id}: no pending round for correction")
    pend = client.pending[0]
    if pend.round != agg.round:
        raise ProtocolError(
            f"client {client.id}: aggregate round {agg.round} != pending {pend.round}")
    merged = pend.z_full.copy()
    if not agg.values.shape == agg.counts.shape == merged.shape:
        raise ContractViolationError("aggregate length differs from the model size")

    coords = pend.shared if scope == "own-shared" else np.arange(merged.shape[0])
    touched = coords[agg.counts[coords] > 0]
    vals = agg.values[touched]
    delta = float(np.max(np.abs(vals - merged[touched]), initial=0.0))
    merged[touched] = vals

    eta = float(eta)
    w = client.anchor - eta * merged
    client.anchor = w
    client.pending.popleft()
    for later in client.pending:
        w = w - eta * later.z_full
    client.weights = w
    return delta


def static_partial_mask(spec: ModelSpec, fraction: float) -> np.ndarray:
    """Fixed shared set: the last ceil(fraction * d) coordinates.

    With the layer-by-layer packing the tail of the vector is the output
    side of the network, mirroring depth-first partial sharing schemes.
    """
    k = shared_count(fraction, spec.dim)
    return np.arange(spec.dim - k, spec.dim, dtype=np.int64)
