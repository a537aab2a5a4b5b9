"""Client/server state machine for delayed partial gradient averaging.

Per round a client runs K local SGD steps, accumulates the step gradients
into a single vector z, and uploads the Top-K shared part of z. The server
averages the shared parts component-wise over whoever contributed each
coordinate, keeping one value per model coordinate. The aggregate returns
D rounds later; the client then swaps the shared part of that old z for
the global values and rebuilds its weights from the round the upload
left, replaying the local updates it made in the meantime.

Float discipline: within a round, weights are always materialized as
w_round_start - eta * z_partial (left-to-right accumulation) by
step_weights. local_round returns z alone; a caller that keeps the
round's weights forms them with the same step_weights, so
w_after == w_before - eta * z holds bitwise, and a round that delivers an
aggregate, which rebuilds the weights from the anchor, forms none. An
upload's z stays with the caller until its aggregate forms, then is
scaled to eta * z in place and queued, and not written while it waits. Its delivery
consumes it: the merge and the subtraction from the anchor run in place
in that buffer, which becomes the new anchor. Scaling commutes with the merge's select, and the replay
subtracts each stored step, so it rounds the same product and difference
as w - eta * z. The server and the evaluation sum rows with one streaming
tree, pairwise_sum, whose association depends only on the row count, so
neither stacks an (n_clients, d) array; the server counts contributors
by adding each message's shared-set mask into one row. That makes the
two documented degenerate cases exact: identical clients see corrections
of exactly zero and stay on the plain SGD trajectory, and p=1 with zero
delay reproduces synchronized gradient averaging bit for bit.
local_round is the one SGD loop, for one client or for clients stacked,
with the same arithmetic per client, so stacking changes no bit either.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ContractViolationError
from .masking import (SharedSet, SparseGradient, extract_shared, shared_count,
                      topk_shared_indices)
from .models import Batch, ModelSpec, loss_and_gradient

CORRECTION_SCOPES = ("own-shared", "full-support")


# ---- fixed-order reductions ---- #

def pairwise_sum(rows) -> np.ndarray:
    """Sum equal-length 1-d rows with a fixed balanced tree, streaming.

    rows is any iterable of rows (a 2-d array gives its rows), consumed
    once. The tree pairs rows 0+1, 2+3, ..., then those sums, and so on,
    an odd partial carried up to the next level. It keeps one partial
    per level, like a binary counter, so it holds at most
    ceil(log2 n) + 1 rows at a time. A pair of caller rows is added into
    a new array and every higher pair into the tree's own left partial,
    so no row passed in is written; one row comes back as a copy.

    The association depends only on the row count, so results are
    reproducible regardless of host parallelism, and summing 2^k identical
    rows is exact.
    """
    stack: list[tuple[int, np.ndarray]] = []  # (level, partial), levels descending
    d = None
    for row in rows:
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1 or (d is not None and row.shape[0] != d):
            raise ContractViolationError(
                f"pairwise_sum needs 1-d rows of one length, got shape {row.shape}")
        d, level, part = row.shape[0], 0, row
        while stack and stack[-1][0] == level:
            left = stack.pop()[1]
            part = np.add(left, part, out=None if level == 0 else left)
            level += 1
        stack.append((level, part))
    if not stack:
        raise ContractViolationError("pairwise_sum needs at least one row")
    level, total = stack.pop()
    if not stack:
        return total.copy() if level == 0 else total
    # Carried partials join from the lowest level up, each on the right.
    while stack:
        left = stack.pop()[1]
        total = np.add(left, total, out=left)
    return total


def pairwise_mean(rows) -> np.ndarray:
    """The pairwise_sum of a sequence of rows divided by their count."""
    total = pairwise_sum(rows)
    return np.divide(total, len(rows), out=total)


# ---- state ---- #

@dataclass
class PendingRound:
    """One client's in-flight round: everything its delivery reads.

    z_full is the round's step eta * z, touched is where the aggregate
    substitutes (None for every coordinate), scaled is the aggregate's
    eta * values, one array every client's entry shares, and size is the
    client's correction size. Only measure_correction builds one, and
    nothing writes to it while it is queued; apply_correction takes it off
    the queue and turns z_full into the client's new anchor in place.
    """

    round: int
    z_full: np.ndarray
    touched: np.ndarray | None
    scaled: np.ndarray
    size: float


@dataclass(eq=False)
class ClientState:
    """One simulated client. Two clients are equal only when they are the
    same object. pending holds the measured rounds, oldest first; its
    newest is last_round, the last upload, once that upload is measured.
    The anchor defaults to the weights array itself: weights and anchor
    are replaced, never written in place, so clients may share them.
    weights is None from the local step of a round that delivers an
    aggregate until apply_correction rebuilds it from the anchor and the
    pending steps, which it does without reading the old weights."""

    id: int
    weights: np.ndarray | None
    shard: Batch
    max_pending: int
    anchor: np.ndarray = None
    pending: deque = field(default_factory=deque)
    last_round: int = -1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.anchor is None:
            self.anchor = self.weights


@dataclass(eq=False)
class GlobalAggregate:
    """Component-wise aggregate of one round's uploads, in model coordinates.

    values and counts have one entry per model coordinate: counts[j] is how
    many clients shared coordinate j and values[j] is their aggregate.
    Where nobody shared, both are 0. Built, an aggregate has checked that
    values and counts have one length and derived its support from counts
    alone: mask is counts > 0 and indices the shared coordinates, ascending.
    It is read-only once server_aggregate returns it, or the support would
    no longer match counts. It lives only for the round it forms, when
    measure_correction reads it and queues its round and eta * values.
    """

    round: int
    values: np.ndarray
    counts: np.ndarray
    mask: np.ndarray = field(init=False)
    indices: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.values.shape != self.counts.shape:
            raise ContractViolationError("aggregate values and counts differ in length")
        self.mask = self.counts > 0
        self.indices = np.flatnonzero(self.mask)


# ---- operations ---- #

def step_weights(w0: np.ndarray, z: np.ndarray, eta: float) -> np.ndarray:
    """w0 - eta * z as one new array: the product, then the difference
    written over it. local_round forms every step's weights this way, so
    a caller forms the weights its last step reaches with the same bits."""
    w = np.multiply(z, eta)
    return np.subtract(w0, w, out=w)


def local_round(w0: np.ndarray, steps: list[Batch], spec: ModelSpec,
                eta: float) -> np.ndarray:
    """Run one SGD step per batch of `steps` from w0 and return the
    accumulated gradient z.

    w0 is one client's (d,) weights with unstacked batches, or n clients'
    (n, d) weights with n stacked batches per step. Each later step takes
    its weights from w0 and the running gradient sum, step_weights(w0, z,
    eta), rather than chaining subtractions. No weights are formed after
    the last step: the caller forms step_weights(w0, z, eta) if it keeps
    them, which equals what the loop would have formed bit for bit, and
    a round whose weights a delivery rebuilds forms none. z is the first
    step's gradient array plus 0.0, in place (the bits of 0.0 + g, so a
    -0.0 reads +0.0), and each later gradient is added into it. w0 is
    not written. An empty step list is refused: a round takes at least
    one step. Each gradient call checks its weights and batch against
    the spec.
    """
    if not steps:
        raise ContractViolationError("a local round needs at least one step")
    _, z = loss_and_gradient(w0, steps[0], spec)
    np.add(z, 0.0, out=z)
    for batch in steps[1:]:
        _, g = loss_and_gradient(step_weights(w0, z, eta), batch, spec)
        z += g
    return z


def build_upload(client: ClientState, z: np.ndarray, p: float, round: int,
                 shared: SharedSet | None = None) -> SparseGradient:
    """Select the shared part of z, record the upload's round, and
    return the message.

    The shared set defaults to Top-K by |z|; a fixed SharedSet (every
    coordinate, or static partial sharing) can be passed instead, and the
    message carries it as is. Anything else is refused, as is a set for
    another length than z's. Rounds must strictly increase per client,
    and the pending queue may not outgrow the configured delay; a
    refused upload leaves the client as it was.

    z is read, not kept: the caller hands it to measure_correction when
    the round's aggregate forms. The message holds its own gathered values.
    """
    if round <= client.last_round:
        raise ContractViolationError(
            f"client {client.id}: round {round} not after {client.last_round}")
    if len(client.pending) >= client.max_pending:
        raise ContractViolationError(
            f"client {client.id}: pending queue exceeded {client.max_pending}")
    if shared is None:
        shared = topk_shared_indices(z, p)
    msg = extract_shared(z, shared, round, p)
    client.last_round = round
    return msg


def server_aggregate(messages: list[SparseGradient], d: int,
                     weights: np.ndarray | None = None) -> GlobalAggregate:
    """Combine one round's uploads into a global aggregate.

    Each coordinate is the mean over the clients that shared it, weighted
    if per-client weights are given, which needs one fixed shared set.
    Messages must be passed in ascending client-id order; the reduction
    order is fixed by position.

    d is the model size, which every message's set must be for, and the
    aggregate has one value and one count per coordinate, 0 where nobody
    shared. pairwise_sum streams the messages, each scattered into its
    own zeroed length-d row, so a round holds a few rows, never an
    (n_messages, d) array, and the fixed tree sums them column by
    column: a shared coordinate carries the same bits whichever other
    coordinates are shared. A message that spans every coordinate is its
    own row, with nothing to scatter. Weights, each finite and > 0, scale
    the rows first and the tree over the weights is the denominator.
    After the tree each message adds its set's bool mask into one
    length-d row of counts, and the aggregate derives its support from
    those counts. This checks the rounds, the weights and each set's d
    before anything is allocated or any mask is read, and writes to no
    message. The work is linear in d and no index is sorted or searched.
    """
    if not messages:
        raise ContractViolationError("nothing to aggregate")
    round_ = messages[0].round
    if any(m.round != round_ for m in messages):
        raise ContractViolationError("aggregating messages from different rounds")
    if weights is not None:
        if any(m.shared is not messages[0].shared for m in messages):
            raise ContractViolationError("weights need one fixed shared set")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(messages),):
            raise ContractViolationError("need one weight per message")
        if not all(math.isfinite(w) and w > 0.0 for w in weights.tolist()):
            raise ContractViolationError(f"weights must be finite and > 0, got {weights}")
    if any(m.shared.d != d for m in messages):
        raise ContractViolationError(f"a message's shared set is not for a model of size {d}")

    def rows():
        for i, m in enumerate(messages):
            if m.count == d:
                # pairwise_sum writes no row it is passed.
                yield m.values if weights is None else m.values * weights[i]
                continue
            row = np.zeros(d)
            row[m.indices] = m.values
            if weights is not None:
                row *= weights[i]
            yield row

    # Off the support every row holds +0.0, so the sum there is already 0.
    values = pairwise_sum(rows())
    # Counted after the tree, the counts do not add to its peak.
    counts = np.zeros(d, dtype=np.int64)
    for m in messages:
        counts += m.shared.mask
    # One fixed set: each shared column holds every message's weight.
    den = counts if weights is None else pairwise_sum(weights[:, None])
    np.divide(values, den, out=values, where=counts > 0)
    return GlobalAggregate(round=round_, values=values, counts=counts)


def _touched(own: SharedSet, agg: GlobalAggregate, scope: str) -> np.ndarray | None:
    """Where agg substitutes in the round whose upload shared `own`:
    agg.mask, ANDed with own's mask under own-shared scope; None for
    everywhere, which the index arrays' sizes tell."""
    d, own_shared = agg.counts.shape[0], scope == "own-shared"
    if agg.indices.shape[0] == d and (not own_shared or own.indices.shape[0] == d):
        return None
    if not own_shared:
        return agg.mask
    return np.logical_and(own.mask, agg.mask)


def measure_correction(clients: list[ClientState], zs: list[np.ndarray],
                       sent: list[SparseGradient], agg: GlobalAggregate,
                       eta: float, scope: str = "own-shared") -> None:
    """Size the correction agg makes to each client's round, in the round
    agg forms, then scale its raw z to eta * z in place and queue it.

    zs and sent hold each client's z and its upload, whose shared set is
    the client's own; the set's mask is read here and not kept. Each z is
    queued itself, so the caller must not write it again. eta * values is
    formed once and every entry holds that array. An entry's size is the
    largest |where(touched, values, z) - z|, exactly 0.0 when agg agrees
    with the client's shared values; touched is agg.mask itself under
    full-support scope, a new mask only under own-shared scope with a
    partial merge. An unknown scope, or for any client an aggregate other
    than its last upload's, a round already queued, or an upload or z of
    another round or length is refused before anything is written.
    Neither agg nor a message is written to.
    """
    if scope not in CORRECTION_SCOPES:
        raise ContractViolationError(f"unknown correction scope {scope!r}")
    d = agg.values.shape[0]
    for client, z, msg in zip(clients, zs, sent, strict=True):
        if client.pending and client.pending[-1].round >= agg.round:
            raise ContractViolationError(
                f"client {client.id}: round {agg.round} is already queued")
        if (agg.round != client.last_round or msg.round != agg.round
                or z.shape != (d,) or msg.shared.d != d):
            raise ContractViolationError(
                f"client {client.id}: an upload of round {msg.round}, a z of shape {z.shape} "
                f"and aggregate round {agg.round} do not fit round {client.last_round} "
                f"of {d} coordinates")
    scaled = agg.values * float(eta)
    for client, z, msg in zip(clients, zs, sent):
        touched = _touched(msg.shared, agg, scope)
        # On an untouched coordinate the merge equals z, so |merged - z| adds
        # exactly 0.0, the max's initial value.
        diff = agg.values - z if touched is None else np.where(touched, agg.values, z) - z
        size = float(np.maximum.reduce(np.abs(diff, out=diff), initial=0.0))
        np.multiply(z, float(eta), out=z)
        client.pending.append(PendingRound(agg.round, z, touched, scaled, size))


def apply_correction(client: ClientState, round: int) -> float:
    """Fold round `round`'s delayed aggregate into the client's weights;
    returns the correction size its measurement stored.

    round must be the oldest pending round, and the last upload must be
    queued, or the replay would miss its step. The oldest round is
    consumed: its step buffer becomes the new anchor in place, first
    where(touched, scaled, step), then anchor - that, or anchor - scaled
    when every coordinate is touched. The later steps then come off the
    new anchor into one new array, the replayed weights, which is all a
    call allocates. Nothing else is written: not scaled, which every
    client's entry shares, not a later pending step, and not the old
    anchor, which other clients may share; all are checked first.
    """
    if not client.pending:
        raise ContractViolationError(f"client {client.id}: no pending round for correction")
    if client.pending[-1].round != client.last_round:
        raise ContractViolationError(
            f"client {client.id}: round {client.last_round} was never measured")
    pend = client.pending[0]
    if pend.round != round:
        raise ContractViolationError(
            f"client {client.id}: round {round} is not the oldest pending round, {pend.round}")
    anchor, touched = pend.z_full, pend.touched
    if touched is None:
        np.subtract(client.anchor, pend.scaled, out=anchor)
    else:
        np.copyto(anchor, pend.scaled, where=touched)
        np.subtract(client.anchor, anchor, out=anchor)
    client.anchor = w = anchor
    client.pending.popleft()
    if client.pending:
        w = anchor - client.pending[0].z_full
        for later in islice(client.pending, 1, None):
            w -= later.z_full
    client.weights = w
    return pend.size


def static_partial_mask(d: int, fraction: float) -> SharedSet:
    """Fixed shared set: the last ceil(fraction * d) of d coordinates.

    With the layer-by-layer packing the tail of the vector is the output
    side of the network, mirroring depth-first partial sharing schemes.
    """
    start = d - shared_count(fraction, d)
    mask = np.zeros(d, dtype=bool)
    mask[start:] = True
    return SharedSet._trusted(np.arange(start, d, dtype=np.int64), d, mask)
