"""Client/server protocol: local rounds, aggregation, delayed corrections."""

import copy
import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dpga import protocol
from dpga.checks import union_aggregate
from dpga.errors import ContractViolationError
from dpga.masking import (SharedSet, SparseGradient, decode, encode, extract_shared,
                          topk_shared_indices)
from dpga.models import Batch, ModelSpec, init_params, loss_and_gradient
from dpga.protocol import (CORRECTION_SCOPES, ClientState, GlobalAggregate,
                           apply_correction, build_upload, local_round,
                           measure_correction, pairwise_mean, pairwise_sum,
                           seed_words, server_aggregate, static_partial_mask,
                           step_weights)
from test_models import _joined

SPEC = ModelSpec(kind="logistic-regression", input_dim=2, num_classes=2)


def _agg(round, indices, values, counts, d=SPEC.dim):
    """A hand-built aggregate: the listed coordinates, zero elsewhere."""
    full_values, full_counts = np.zeros(d), np.zeros(d, dtype=np.int64)
    full_values[indices], full_counts[indices] = values, counts
    return GlobalAggregate(round=round, values=full_values, counts=full_counts)


def _client(cid=0, seed=0, n=3, max_pending=8):
    rng = np.random.default_rng([seed, cid])
    shard = Batch(rng.standard_normal((n, 2)), rng.integers(0, 2, n))
    return ClientState(id=cid, weights=init_params(SPEC, seed),
                       shard=shard, max_pending=max_pending)


def _step(client, epochs, eta):
    """One local round of `epochs` full-shard steps, as Simulation takes
    one in a round that keeps its weights: sets the client's weights to
    step_weights(w0, z, eta) and returns its z."""
    z = local_round(client.weights, [client.shard] * epochs, SPEC, eta)
    client.weights = step_weights(client.weights, z, eta)
    return z


def _straight_line(w0, batches, spec, eta):
    """The plain SGD loop, one step per batch: (w, acc) after the last
    step, each step's weights written out as w0 - eta * acc."""
    w, acc = w0, np.zeros_like(w0)
    for batch in batches:
        _, g = loss_and_gradient(w, batch, spec)
        acc = acc + g
        w = w0 - eta * acc
    return w, acc


def _level_tree(rows) -> np.ndarray:
    """The reference tree, level by level: each level's pairs are written
    into a preallocated buffer and an odd row is carried to the next."""
    a = np.asarray(rows, dtype=np.float64)
    n, d = a.shape
    # Levels alternate between two buffers; level j holds ceil(n / 2**j) rows.
    out, spare = np.empty(((n + 1) // 2, d)), np.empty(((n + 3) // 4, d))
    while n > 1:
        half = n // 2
        np.add(a[0:2 * half:2], a[1:2 * half:2], out=out[:half])
        if n % 2:
            out[half] = a[n - 1]
        a, n, out, spare = out, half + n % 2, spare, out
    return a[0].copy()


def _mixed_magnitudes(seed, n, width):
    """n rows of `width` entries whose magnitudes span 1e-8 to 1e8, with
    random signs and about one entry in ten a signed zero."""
    rng = np.random.default_rng(seed)
    rows = rng.choice([-1.0, 1.0], (n, width)) * 10.0 ** rng.uniform(-8, 8, (n, width))
    zeros = rng.random((n, width)) < 0.1
    rows[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return rows


class TestPairwiseReductions:
    def test_single_row(self):
        row = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(pairwise_sum(row), [1.0, 2.0])

    def test_matches_plain_sum(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8, 13):
            rows = rng.standard_normal((n, 20))
            np.testing.assert_allclose(pairwise_sum(rows), rows.sum(axis=0),
                                       rtol=1e-12, atol=1e-12)

    def test_mean_of_identical_rows_is_exact(self):
        # The balanced tree makes the mean of 2^k copies bitwise equal to
        # the row itself, for any values.
        row = np.array([0.1, -0.3, 7.7, 1e-17])
        for n in (2, 4, 8):
            rows = np.tile(row, (n, 1))
            np.testing.assert_array_equal(pairwise_mean(rows), row)

    def test_deterministic(self):
        rows = np.random.default_rng(5).standard_normal((7, 11))
        np.testing.assert_array_equal(pairwise_sum(rows), pairwise_sum(rows.copy()))

    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            pairwise_sum(np.empty((0, 3)))

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 40).flatmap(lambda n: arrays(
        np.float64, (n, 3), elements=st.one_of(
            st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6)))))
    @example(rows=np.full((40, 3), -0.0))
    def test_equals_stacked_tree(self, rows):
        """Same bits as the tree that stacks each level and appends the
        carried odd row, signed zeros included."""
        a = rows
        while a.shape[0] > 1:
            even = (a.shape[0] // 2) * 2
            paired = a[0:even:2] + a[1:even:2]
            if a.shape[0] % 2:
                paired = np.vstack([paired, a[even:]])
            a = paired
        assert pairwise_sum(rows).tobytes() == a[0].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 130), width=st.integers(1, 9),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=129, width=9, seed=0)
    @example(n=130, width=1, seed=1)
    def test_streaming_equals_level_tree(self, n, width, seed):
        """The streaming tree has the bits of the level-by-level tree for
        every row count, fed as an array, a list or a generator."""
        rows = _mixed_magnitudes(seed, n, width)
        want = _level_tree(rows).tobytes()
        assert pairwise_sum(rows).tobytes() == want
        assert pairwise_sum(list(rows)).tobytes() == want
        assert pairwise_sum(row for row in rows).tobytes() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 33])
    def test_caller_rows_are_never_written(self, n):
        """Read-only rows go in, and a fresh array comes out: for one row,
        a copy."""
        rows = [row.copy() for row in _mixed_magnitudes(n, n, 5)]
        for row in rows:
            row.setflags(write=False)
        before = [row.tobytes() for row in rows]
        total = pairwise_sum(rows)
        assert [row.tobytes() for row in rows] == before
        assert total.flags.writeable
        assert not any(np.shares_memory(total, row) for row in rows)
        if n == 1:
            assert total.tobytes() == before[0]

    def test_generator_is_consumed_once(self):
        rows = _mixed_magnitudes(3, 11, 4)
        drawn = []

        def stream():
            for i, row in enumerate(rows):
                drawn.append(i)
                yield row

        gen = stream()
        assert pairwise_sum(gen).tobytes() == _level_tree(rows).tobytes()
        assert drawn == list(range(11))
        assert next(gen, None) is None

    @pytest.mark.parametrize("rows", [[], iter(()), [np.zeros(3), np.zeros(4)],
                                      [np.zeros(3), np.zeros((1, 3))],
                                      [np.zeros((2, 3)), np.zeros((2, 3))],
                                      np.zeros(3), np.zeros((2, 2, 3))],
                             ids=["empty-list", "empty-iterator", "two-lengths",
                                  "a-2-d-row", "2-d-rows", "1-d-array", "3-d-array"])
    def test_refuses_rows_that_are_not_one_length_and_1_d(self, rows):
        with pytest.raises(ContractViolationError):
            pairwise_sum(rows)


class TestSeedWords:
    """Generators built from precomputed seed words draw what the seed
    list draws."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 80), t=st.integers(1, 2 ** 32),
           cid=st.integers(0, 2 ** 33))
    @example(seed=0, t=1, cid=0)
    @example(seed=2 ** 32 - 1, t=2 ** 32 - 1, cid=9)
    @example(seed=2 ** 32, t=2 ** 32, cid=2 ** 32)
    def test_equals_seed_list(self, seed, t, cid):
        words = np.concatenate((seed_words(seed, 5), seed_words(t), seed_words(cid)))
        assert words.dtype == np.uint32
        got = np.random.default_rng(words)
        want = np.random.default_rng([seed, 5, t, cid])
        assert got.bit_generator.state == want.bit_generator.state
        for n in (40, 400):
            np.testing.assert_array_equal(got.choice(n, size=32, replace=False),
                                          want.choice(n, size=32, replace=False))

    def test_words(self):
        np.testing.assert_array_equal(seed_words(0, 5, 2 ** 32 + 3, 2 ** 64),
                                      [0, 5, 3, 1, 0, 0, 1])
        with pytest.raises(ContractViolationError):
            seed_words(-1)


class TestLocalRound:
    def test_telescoping_identity(self):
        """The weights a caller forms, step_weights(w_before, z, eta), are
        w_before - eta * z and the straight-line loop's last weights,
        bitwise, for several K."""
        for epochs in (1, 2, 3, 7):
            client = _client(seed=epochs)
            before = client.weights.copy()
            z = local_round(before, [client.shard] * epochs, SPEC, 0.1)
            w = step_weights(before, z, 0.1)
            np.testing.assert_array_equal(w, before - 0.1 * z)
            want_w, want_z = _straight_line(before, [client.shard] * epochs, SPEC, 0.1)
            assert w.tobytes() == want_w.tobytes() and z.tobytes() == want_z.tobytes()

    def test_single_epoch_full_batch_is_one_gradient(self):
        client = _client(seed=4)
        z = local_round(client.weights, [client.shard], SPEC, 0.2)
        _, g = loss_and_gradient(client.weights, client.shard, SPEC)
        np.testing.assert_array_equal(z, g)

    def test_matches_manual_three_step_loop(self):
        client = _client(seed=9)
        w0 = client.weights.copy()
        z = local_round(w0, [client.shard] * 3, SPEC, 0.05)
        w_got = step_weights(w0, z, 0.05)
        w, acc = _straight_line(w0, [client.shard] * 3, SPEC, 0.05)
        assert z.tobytes() == acc.tobytes() and w_got.tobytes() == w.tobytes()

    def test_stacked_weights_equal_one_call_per_client(self):
        """(n, d) weights with n stacked batches per step give each row
        the bits of that client's own (d,) call, z and the weights
        step_weights forms from it alike, and those of the straight-line
        loop."""
        clients = [_client(cid=i, seed=i, n=4) for i in range(3)]
        pool = _joined([c.shard for c in clients])
        rows = np.arange(12).reshape(3, 4)
        steps = [pool.rows(rows), pool.rows(rows[::-1, ::-1])]
        w0 = np.stack([c.weights for c in clients])
        z = local_round(w0, steps, SPEC, 0.1)
        w = step_weights(w0, z, 0.1)
        for i, c in enumerate(clients):
            batches = [step.rows(i) for step in steps]
            zi = local_round(c.weights, batches, SPEC, 0.1)
            wi = step_weights(c.weights, zi, 0.1)
            assert w[i].tobytes() == wi.tobytes() and z[i].tobytes() == zi.tobytes()
            want_w, want_z = _straight_line(c.weights, batches, SPEC, 0.1)
            assert wi.tobytes() == want_w.tobytes() and zi.tobytes() == want_z.tobytes()

    def test_empty_step_list_refused(self):
        """A round takes at least one step; none is refused, not answered
        with w0 and a zero z."""
        client = _client()
        with pytest.raises(ContractViolationError, match="at least one step"):
            local_round(client.weights, [], SPEC, 0.1)

    def test_w0_is_not_written_and_z_is_a_fresh_array(self):
        """A read-only w0 steps; z reads +0.0 where 0.0 + g does, and
        shares memory with neither w0 nor the weights step_weights forms
        from it."""
        client = _client(seed=6)
        w0 = client.weights.copy()
        w0.setflags(write=False)
        for epochs in (1, 3):
            z = local_round(w0, [client.shard] * epochs, SPEC, 0.1)
            w = step_weights(w0, z, 0.1)
            assert not np.shares_memory(z, w0) and not np.shares_memory(z, w)
            assert not np.shares_memory(w, w0)
            assert z.flags.writeable
        g = np.array([-0.0, 0.0, -0.0, 1.5, -2.0, -0.0])
        with mock.patch.object(protocol, "loss_and_gradient",
                               lambda w, batch, spec: (0.0, g.copy())):
            z = local_round(w0, [client.shard], SPEC, 0.1)
        assert z.tobytes() == (0.0 + g).tobytes() != g.tobytes()

    def test_client_equality_is_identity(self):
        a, b = _client(), _client()
        assert a == a and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)

    def test_empty_shard_impossible(self):
        # A zero-row batch cannot even be constructed, so every client
        # holds at least one example.
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((0, 2)), np.zeros(0, dtype=int))


@st.composite
def _groups(draw):
    """Clients with one spec, each shard larger than batch_size, so every
    client samples."""
    kind = draw(st.sampled_from(["logistic-regression", "mlp"]))
    hidden = (tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
              if kind == "mlp" else ())
    spec = ModelSpec(kind=kind, input_dim=draw(st.integers(1, 6)),
                     num_classes=draw(st.integers(2, 5)), hidden_dims=hidden,
                     activation=draw(st.sampled_from(["relu", "tanh"])))
    batch_size = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clients = []
    for i, n in enumerate(draw(st.lists(st.integers(batch_size + 1, batch_size + 24),
                                        min_size=1, max_size=8))):
        shard = Batch(rng.standard_normal((n, spec.input_dim)),
                      rng.integers(0, spec.num_classes, n))
        clients.append(ClientState(id=i, weights=rng.standard_normal(spec.dim),
                                   shard=shard, max_pending=1))
    return (clients, spec, draw(st.integers(1, 4)),
            draw(st.sampled_from([0.01, 0.1, 0.5])), batch_size, draw(st.integers(0, 1000)))


def _check_grouped(case):
    """One stacked local_round over every client's minibatches, gathered
    from one pool of their shards as Simulation gathers its samplers'
    steps, against a straight-line loop per client: each draws its steps'
    rows from default_rng([seed, id])."""
    clients, spec, epochs, eta, batch_size, seed = case
    pool = _joined([c.shard for c in clients])
    starts = np.cumsum([0] + [c.shard.size for c in clients[:-1]])
    take = np.empty((epochs, len(clients), batch_size), dtype=np.int64)
    for j, c in enumerate(clients):
        gen = np.random.default_rng([seed, c.id])
        for step in take[:, j]:
            step[...] = gen.choice(c.shard.size, size=batch_size, replace=False)
    batches = pool.rows(take + starts[:, None])
    w0s = np.stack([c.weights for c in clients])
    zs = local_round(w0s, [batches.rows(step) for step in range(epochs)], spec, eta)
    ws = step_weights(w0s, zs, eta)
    for c, w_got, z in zip(clients, ws, zs):
        n, rng = c.shard.size, np.random.default_rng([seed, c.id])
        w0 = w = c.weights
        acc = np.zeros_like(w0)
        for _ in range(epochs):
            batch = c.shard.rows(rng.choice(n, size=batch_size, replace=False))
            _, g = loss_and_gradient(w, batch, spec)
            acc += g
            w = w0 - eta * acc
        assert z.tobytes() == acc.tobytes()
        assert w_got.tobytes() == w.tobytes()


class TestGroupedLocalRound:
    """Stepping the sampling clients together in one stacked local_round
    changes no bit of any client's weights or z."""

    @settings(max_examples=150, deadline=None)
    @given(_groups())
    def test_equals_local_round_per_client(self, case):
        _check_grouped(case)


class TestClientState:
    def test_anchor_defaults_to_the_weights_array(self):
        """Without an anchor a client anchors on its weights array itself;
        a given anchor is kept as it is."""
        client = _client()
        assert client.anchor is client.weights
        anchor = np.zeros(SPEC.dim)
        other = ClientState(id=1, weights=client.weights, shard=client.shard,
                            max_pending=1, anchor=anchor)
        assert other.weights is client.weights and other.anchor is anchor


class TestBuildUpload:
    @pytest.mark.parametrize("shared", [[2, 1], [1, 1], [0, SPEC.dim],
                                        [-1, 0], [0, 100, 3]],
                             ids=["unsorted", "duplicated", "past-the-end",
                                  "negative", "unsorted-past-the-end"])
    def test_bad_fixed_set_rejected(self, shared):
        """A raw index array is refused, good or bad; SharedSet refuses the
        bad sets themselves (test_masking.TestSharedSet)."""
        client = _client()
        with pytest.raises(ContractViolationError, match="SharedSet"):
            build_upload(client, np.ones(SPEC.dim), 0.5, round=1,
                         shared=np.array(shared))
        with pytest.raises(ContractViolationError):
            SharedSet(np.array(shared), SPEC.dim)
        assert client.staged is None and not client.pending and client.last_round == -1

    def test_shared_set_travels_as_is(self):
        """Every upload from one SharedSet carries the set's own read-only
        array."""
        fixed = SharedSet(np.array([1, 4]), SPEC.dim)
        clients = [_client(cid=i) for i in range(2)]
        msgs = [build_upload(c, np.arange(SPEC.dim) + 0.5, 0.3, round=1,
                             shared=fixed) for c in clients]
        for c, m in zip(clients, msgs):
            assert m.indices is fixed.indices
            np.testing.assert_array_equal(m.values, [1.5, 4.5])
        assert not fixed.indices.flags.writeable
        with pytest.raises(ContractViolationError):
            build_upload(_client(), np.ones(SPEC.dim + 1), 0.3, round=1, shared=fixed)

    def test_topk_example(self):
        client = _client()
        z = np.array([3.0, -5.0, 1.0, 0.0, 0.0, 0.0])
        msg = build_upload(client, z, 0.5, round=1)
        # ceil(0.5 * 6) = 3 largest magnitudes: coordinates 1, 0, 2
        np.testing.assert_array_equal(msg.indices, [0, 1, 2])
        np.testing.assert_array_equal(msg.values, [3.0, -5.0, 1.0])
        assert client.staged is z  # kept, not copied
        assert not client.pending

    @pytest.mark.parametrize("scope", CORRECTION_SCOPES)
    def test_pending_round_keeps_no_index_array(self, scope):
        """A Top-K round, queued once its correction is measured from its
        upload's indices, holds nothing of them."""
        client = _client()
        msg = build_upload(client, np.array([3.0, -5.0, 1.0, 0.0, 0.0, 0.0]), 0.5, round=1)
        assert not np.shares_memory(client.staged, msg.indices)
        measure_correction(client, msg, _agg(1, [0, 3], [1.0, 2.0], [1, 1]), eta=0.1,
                           scope=scope)
        pend = client.pending[0]
        held = [a for a in (getattr(pend, f.name) for f in dataclasses.fields(pend))
                if isinstance(a, np.ndarray)]
        assert held and all(not np.shares_memory(a, msg.indices) for a in held)

    def test_full_rate_uploads_densely(self):
        client = _client()
        z = np.arange(SPEC.dim, dtype=np.float64)
        msg = build_upload(client, z, 1.0, round=1)
        assert msg.count == SPEC.dim
        np.testing.assert_array_equal(msg.values, z)

    def test_fixed_mask_override(self):
        client = _client()
        z = np.arange(SPEC.dim, dtype=np.float64)
        mask = static_partial_mask(SPEC.dim, 0.3)
        msg = build_upload(client, z, 0.3, round=1, shared=mask)
        np.testing.assert_array_equal(msg.indices, [4, 5])
        np.testing.assert_array_equal(msg.values, [4.0, 5.0])

    def test_rounds_must_increase(self):
        client = _client()
        build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        with pytest.raises(ContractViolationError):
            build_upload(client, np.ones(SPEC.dim), 1.0, round=1)

    def test_queue_overflow(self):
        """A refused upload leaves the queue and the last round as they were."""
        client = _client(max_pending=2)
        for r in (1, 2):
            msg = build_upload(client, np.ones(SPEC.dim), 1.0, round=r)
            measure_correction(client, msg, _agg(r, [0], [1.0], [1]), eta=0.1)
        with pytest.raises(ContractViolationError, match="pending queue"):
            build_upload(client, np.ones(SPEC.dim), 1.0, round=3)
        assert [p.round for p in client.pending] == [1, 2]
        assert client.last_round == 2


_SET_KINDS = ("top-k", "dense", "tail", "checked")


def _mixed_round(kinds, d, seed, weighted):
    """One round of messages cut from z rows of mixed magnitudes and
    signed zeros, one per entry of `kinds`: a Top-K set at a random grid
    rate, every coordinate, a static tail, or a checked set of random
    indices. Weighted, every message carries the first kind's one fixed
    set (a Top-K first kind becomes a checked set) and a weight."""
    rng = np.random.default_rng(seed)
    zs = _mixed_magnitudes(seed, len(kinds), d)

    def cut(kind, z):
        if kind == "top-k":
            return topk_shared_indices(z, rng.integers(1, 11) / 10)
        if kind in ("dense", "tail"):
            return static_partial_mask(d, 1.0 if kind == "dense" else rng.uniform(0.05, 1.0))
        return SharedSet(np.flatnonzero(rng.random(d) < rng.random()), d)

    if weighted:
        fixed = cut("checked" if kinds[0] == "top-k" else kinds[0], zs[0])
        sets = [fixed] * len(kinds)
    else:
        sets = [cut(kind, z) for kind, z in zip(kinds, zs)]
    msgs = [extract_shared(z, shared, 1, 0.5) for z, shared in zip(zs, sets)]
    return msgs, d, (rng.uniform(0.5, 1.5, len(msgs)) if weighted else None)


def _scatter_route(msgs, d, weights):
    """server_aggregate as it was before sets carried masks: every
    message scattered into its own zeroed row and weighted there, the
    rows summed by pairwise_sum, and one bincount per message."""
    def rows():
        for i, m in enumerate(msgs):
            row = np.zeros(d)
            row[m.indices] = m.values
            if weights is not None:
                row *= weights[i]
            yield row

    values = pairwise_sum(rows())
    counts = np.zeros(d, dtype=np.int64)
    for m in msgs:
        counts += np.bincount(m.indices, minlength=d)
    den = counts if weights is None else pairwise_sum(weights[:, None])
    np.divide(values, den, out=values, where=counts > 0)
    return values, counts


class TestServerAggregate:
    def _msg(self, d, indices, values, round=1, p=0.5):
        shared = indices if isinstance(indices, SharedSet) else SharedSet(indices, d)
        return SparseGradient(round=round, p=p, shared=shared, values=values)

    def test_singleton_coordinate_mean(self):
        agg = server_aggregate([self._msg(4, [3], [7.0])], 4)
        np.testing.assert_array_equal(agg.indices, [3])
        np.testing.assert_array_equal(agg.values, [0.0, 0.0, 0.0, 7.0])
        np.testing.assert_array_equal(agg.counts, [0, 0, 0, 1])

    def test_two_contributors(self):
        msgs = [self._msg(3, [2], [2.0]), self._msg(3, [2], [4.0])]
        agg = server_aggregate(msgs, 3)
        assert agg.values[2] == 3.0

    def test_unshared_coordinates_absent(self):
        agg = server_aggregate([self._msg(6, [1, 5], [1.0, 2.0])], 6)
        np.testing.assert_array_equal(agg.indices, [1, 5])
        np.testing.assert_array_equal(agg.counts, [0, 1, 0, 0, 0, 1])

    @pytest.mark.parametrize("weights", [None, np.array([0.25, 0.75])],
                             ids=["per-component-None", "per-component-weights1"])
    def test_off_union_is_exact_zero(self, weights):
        # Coordinate 1 is shared with the value 0: it still counts as
        # shared. Weights travel only with one fixed set.
        first = self._msg(6, [1, 4], [-0.0, 3.0])
        second = (self._msg(6, [4], [5.0]) if weights is None
                  else self._msg(6, first.shared, [-0.0, 5.0]))
        agg = server_aggregate([first, second], 6, weights)
        off = [0, 2, 3, 5]
        assert agg.values.shape == agg.counts.shape == (6,)
        assert agg.values[off].tobytes() == np.zeros(4).tobytes()
        assert not agg.counts[off].any()
        np.testing.assert_array_equal(agg.indices, [1, 4])

    def test_weighted_mean(self):
        """Weights need one fixed set: equal sets held by two SharedSets
        are refused before anything is summed."""
        fixed = SharedSet([0], 1)
        msgs = [self._msg(1, fixed, [1.0]), self._msg(1, fixed, [5.0])]
        agg = server_aggregate(msgs, 1, weights=np.array([0.75, 0.25]))
        np.testing.assert_allclose(agg.values, [0.75 * 1.0 + 0.25 * 5.0])
        msgs[1] = self._msg(1, [0], [5.0])
        with pytest.raises(ContractViolationError, match="one fixed shared set"):
            server_aggregate(msgs, 1, weights=np.array([0.75, 0.25]))

    def test_one_weight_per_message(self):
        msgs = [self._msg(1, [0], [1.0]), self._msg(1, [0], [5.0])]
        with pytest.raises(ContractViolationError):
            server_aggregate(msgs, 1, weights=np.array([1.0]))

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [1.0, -1.0], [math.inf, 1.0],
                                         [math.nan, 1.0]],
                             ids=["zeros", "negative", "inf", "nan"])
    def test_degenerate_weights_rejected(self, weights):
        """A weight that is not finite and > 0 is refused before any sum,
        not turned into a warning and an inf or NaN aggregate."""
        fixed = SharedSet([0, 1], 2)
        msgs = [self._msg(2, fixed, [1.0, 2.0]), self._msg(2, fixed, [3.0, 4.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="finite and > 0"):
                server_aggregate(msgs, 2, weights=np.array(weights))

    def test_messages_keep_their_values(self):
        """Aggregating writes to no message, weighted or not."""
        rng = np.random.default_rng(8)
        fixed = SharedSet(np.arange(2, 6), 6)
        for weights in (None, rng.uniform(0.5, 1.5, 5)):
            msgs = [self._msg(6, fixed, rng.standard_normal(4)) for _ in range(5)]
            for m in msgs:
                m.values.setflags(write=False)
            before = [m.values.tobytes() for m in msgs]
            server_aggregate(msgs, 6, weights)
            assert [m.values.tobytes() for m in msgs] == before

    def test_no_message_by_model_buffer(self):
        """One exchange-heavy round, 32 Top-K uploads at d = 6,154, peaks
        below ceil(log2 n) + 3 rows of d: the streamed tree holds a few
        rows, never one per message, and the counts need no concatenation
        of every message's indices."""
        d, n = 6154, 32
        rng = np.random.default_rng(28)
        msgs = [extract_shared(z, topk_shared_indices(z, p), 1, p)
                for z, p in zip(rng.standard_normal((n, d)), rng.uniform(0.3, 0.9, n))]
        bound = (math.ceil(math.log2(n)) + 3) * 8 * d
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            server_aggregate(msgs, d)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_mixed_rounds_rejected(self):
        msgs = [self._msg(1, [0], [1.0], round=1), self._msg(1, [0], [1.0], round=2)]
        with pytest.raises(ContractViolationError):
            server_aggregate(msgs, 1)

    def test_empty_input_rejected(self):
        with pytest.raises(ContractViolationError):
            server_aggregate([], 1)

    def test_aggregate_checks_its_own_shape(self):
        with pytest.raises(ContractViolationError, match="differ in length"):
            GlobalAggregate(round=1, values=np.zeros(6), counts=np.zeros(7, dtype=np.int64))

    def test_index_outside_model_rejected(self):
        # A decoded u32 index can be far beyond the model; it must not size
        # the aggregation buffer. A decoded message is not bound to a model.
        wire = decode(encode(self._msg(2 ** 32, [1, 2 ** 32 - 1], [1.0, 2.0])))
        msgs = [self._msg(3, [0, 2], [1.0, 2.0]), wire]
        with pytest.raises(ContractViolationError, match="size 3"):
            server_aggregate(msgs, 3)
        with pytest.raises(ContractViolationError, match="size 3"):
            server_aggregate([decode(encode(self._msg(4, [3], [1.0])))], 3)
        with pytest.raises(ContractViolationError, match="out of range"):
            SharedSet(wire.indices, 3)

    def test_set_for_another_model_size_rejected(self):
        """A message cut from a length-10 z is refused by a model of size
        5, though every one of its indices lies below 5."""
        msg = extract_shared(np.arange(10.0), SharedSet([0, 1], 10), round=1, p=0.2)
        with pytest.raises(ContractViolationError, match="size 5"):
            server_aggregate([msg], 5)
        client = ClientState(id=0, weights=np.zeros(5), shard=Batch(np.zeros((1, 1)), [0]),
                             max_pending=1)
        build_upload(client, np.ones(5), 0.2, round=1)
        with pytest.raises(ContractViolationError, match="5 coordinates"):
            measure_correction(client, msg, _agg(1, [0], [1.0], [1], d=5), eta=0.1)
        assert client.staged.tobytes() == np.ones(5).tobytes() and not client.pending

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("fixed", [np.arange(6), np.arange(3, 6)],
                             ids=["dense", "tail"])
    def test_one_fixed_set_equals_union_oracle(self, fixed, weighted):
        """Messages that carry one SharedSet, as a dense or static run
        sends them, aggregate to the union route of `dpga check`, values
        and counts bit for bit, with or without weights."""
        rng = np.random.default_rng(3)
        fixed = SharedSet(fixed, 6)
        zs = rng.standard_normal((5, 6))
        msgs = [self._msg(6, fixed, z[fixed.indices]) for z in zs]
        weights = rng.uniform(0.5, 1.5, 5) if weighted else None
        agg = server_aggregate(msgs, 6, weights)
        values, counts = union_aggregate(msgs, 6, weights)
        assert agg.values.tobytes() == values.tobytes()
        assert agg.counts.tobytes() == counts.tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("upload", ["top-k", "dense", "tail"])
    def test_support_is_derived_from_counts(self, upload, weighted):
        """The support is the coordinates with a nonzero count, in a fresh
        array. Top-K uploads take no weights."""
        rng = np.random.default_rng(5)
        shared = {"top-k": None, "dense": SharedSet(np.arange(6), SPEC.dim),
                  "tail": SharedSet(np.arange(3, 6), SPEC.dim)}[upload]
        clients = [_client(cid=i, seed=i) for i in range(4)]
        msgs = [build_upload(c, rng.standard_normal(SPEC.dim), 0.3, round=1,
                             shared=shared) for c in clients]
        weights = rng.uniform(0.5, 1.5, 4) if weighted else None
        if weighted and shared is None:
            with pytest.raises(ContractViolationError, match="one fixed shared set"):
                server_aggregate(msgs, SPEC.dim, weights)
            return
        agg = server_aggregate(msgs, SPEC.dim, weights)
        assert agg.indices.tobytes() == np.flatnonzero(agg.counts).tobytes()
        np.testing.assert_array_equal(agg.mask, agg.counts > 0)
        for m in msgs:
            assert not np.shares_memory(agg.indices, m.indices)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), d=st.integers(1, 40),
           weighted=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_plain_loop_reference(self, data, n, d, weighted, seed):
        """Each message draws its own set, or with weights all carry one."""
        rng = np.random.default_rng(seed)
        subsets = [sorted(data.draw(st.sets(st.integers(0, d - 1), max_size=d)))
                   for _ in range(1 if weighted else n)]
        if weighted:
            fixed = SharedSet(np.array(subsets[0], dtype=np.int64), d)
            subsets *= n
        msgs = [self._msg(d, fixed if weighted else idx, rng.standard_normal(len(idx)))
                for idx in subsets]
        weights = rng.uniform(0.5, 1.5, n) if weighted else None
        agg = server_aggregate(msgs, d, weights)

        union = sorted(set().union(*subsets))
        want, counts = [], []
        for j in union:
            contrib = [(i, float(m.values[subsets[i].index(j)]))
                       for i, m in enumerate(msgs) if j in subsets[i]]
            counts.append(len(contrib))
            if weighted:
                want.append(math.fsum(weights[i] * v for i, v in contrib)
                            / math.fsum(weights[i] for i, _ in contrib))
            else:
                want.append(math.fsum(v for _, v in contrib) / len(contrib))

        np.testing.assert_array_equal(agg.indices, np.array(union, dtype=np.int64))
        np.testing.assert_array_equal(agg.counts[union], counts)
        # Relative to the largest value: the tree and fsum round differently,
        # which matters only where contributions cancel.
        scale = max((abs(v) for m in msgs for v in m.values), default=0.0)
        np.testing.assert_allclose(agg.values[union], want, rtol=1e-12,
                                   atol=1e-12 * scale)
        off = np.setdiff1d(np.arange(d), union)
        assert agg.values[off].tobytes() == np.zeros(off.shape[0]).tobytes()
        assert not agg.counts[off].any()

    @settings(max_examples=150, deadline=None)
    @example(case=(["top-k"], 7, 1, False))
    @example(case=(["tail"] * 4, 9, 2, True))
    @example(case=(["checked"] * 3, 5, 3, True))
    @example(case=(["dense", "top-k", "tail", "checked", "dense"], 12, 4, False))
    @given(case=st.tuples(st.lists(st.sampled_from(_SET_KINDS), min_size=1, max_size=8),
                          st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans()))
    def test_mask_counts_equal_the_scatter_route(self, case):
        """A round mixing Top-K, dense, tail and checked sets, or one whose
        messages all carry one weighted fixed set: each set's mask is its
        indices scattered into d read-only bools, and the aggregate's counts
        and values are the bincount and scatter route's, bit for bit."""
        msgs, d, weights = _mixed_round(*case)
        for m in msgs:
            want = np.zeros(d, dtype=bool)
            want[m.indices] = True
            mask = m.shared.mask
            assert mask.dtype == bool and mask.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                mask[0] = not mask[0]
        agg = server_aggregate(msgs, d, weights)
        values, counts = _scatter_route(msgs, d, weights)
        assert agg.counts.dtype == np.int64 and agg.counts.tobytes() == counts.tobytes()
        assert agg.values.tobytes() == values.tobytes()

    def test_wire_bound_set_is_refused_before_any_mask(self):
        """A decoded set spans the wire's u32 range, so its mask would be
        4 GiB: the server and the measurement refuse it on its size before
        any mask is formed."""
        wire = decode(encode(self._msg(2 ** 32, [1, 2 ** 32 - 1], [1.0, 2.0])))
        client = _client()
        build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        tracemalloc.start()
        try:
            with pytest.raises(ContractViolationError, match=f"size {SPEC.dim}"):
                server_aggregate([self._msg(SPEC.dim, [0], [1.0]), wire], SPEC.dim)
            with pytest.raises(ContractViolationError, match="coordinates"):
                measure_correction(client, wire, _agg(1, [0], [1.0], [1]), eta=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak
        assert "mask" not in wire.shared.__dict__ and client.staged is not None


# Signed zeros on purpose: a merge or replay that loses a sign shows in
# the bytes.
_ENTRIES = st.one_of(st.just(0.0), st.just(-0.0),
                     st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def _corrections(draw):
    """A client with 1-5 rounds still to measure, each as its raw z and
    upload, with the aggregate of each round; the oldest one's is
    delivered.

    Coordinates may be uncovered (count 0, value 0) even inside the
    client's own shared set, and covered values may be signed zeros.
    """
    input_dim, classes = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    spec = ModelSpec(kind="logistic-regression", input_dim=input_dim,
                     num_classes=classes)
    d = spec.dim
    vector = arrays(np.float64, d, elements=_ENTRIES)
    client = ClientState(id=0, weights=draw(vector),
                         shard=Batch(np.zeros((1, input_dim)), [0]), max_pending=5)
    client.anchor = draw(vector)
    uploads, aggs = [], []
    for r in range(1, draw(st.integers(0, 4)) + 2):
        shared = np.array(sorted(draw(st.sets(st.integers(0, d - 1), max_size=d))),
                          dtype=np.int64)
        z = draw(vector)
        uploads.append((z, _sent(r, z, shared)))
        counts = draw(arrays(np.int64, d, elements=st.integers(0, 3)))
        values = np.where(counts > 0, draw(vector), 0.0)
        aggs.append(GlobalAggregate(round=r, values=values, counts=counts))
    return (client, uploads, aggs, draw(st.sampled_from([0.1, 0.3, 1.0])),
            draw(st.sampled_from(CORRECTION_SCOPES)))


def _sent(round, z, shared):
    """The upload of round `round` from a raw z: its values on the
    coordinates `shared`."""
    return extract_shared(z, SharedSet(shared, z.shape[0]), round, 0.5)


def _straight_line_correction(client, uploads, agg, eta, scope):
    """(weights, anchor, delta) by the plain expressions over the raw z of
    each round: copy, gather and scatter on the oldest round's covered
    coordinates, then w = w - eta * z per later round."""
    (z, sent), later = uploads[0], uploads[1:]
    merged = z.copy()
    coords = sent.indices if scope == "own-shared" else np.arange(merged.shape[0])
    touched = coords[agg.counts[coords] > 0]
    vals = agg.values[touched]
    delta = float(np.max(np.abs(vals - merged[touched]), initial=0.0))
    merged[touched] = vals
    anchor = w = client.anchor - eta * merged
    for z_later, _ in later:
        w = w - eta * z_later
    return w, anchor, delta


def _deliver(client, uploads, aggs, eta, scope="own-shared", measure=measure_correction):
    """What a run does: each round's z is staged as build_upload leaves
    it and measured from its upload (uploads, oldest first) when its
    aggregate (aggs) forms, and then the oldest round's aggregate is
    delivered with its values scaled once. Returns that round's size."""
    sizes = []
    for (z, sent), agg in zip(uploads, aggs):
        client.staged, client.last_round = z, sent.round
        sizes.append(measure(client, sent, agg, eta, scope=scope))
    apply_correction(client, aggs[0].round, aggs[0].values * eta)
    return sizes[0]


def _correction_example(own, support, scope="own-shared"):
    """A client with two rounds to measure, the oldest of which shared
    `own`, and an aggregate for that round over `support` (the newer
    round's aggregate covers everything)."""
    rng = np.random.default_rng(len(own) + 10 * len(support))
    client = ClientState(id=0, weights=rng.standard_normal(SPEC.dim),
                         shard=Batch(np.zeros((1, 2)), [0]), max_pending=5)
    client.anchor = rng.standard_normal(SPEC.dim)
    uploads = []
    for r in (1, 2):
        z = rng.standard_normal(SPEC.dim)
        uploads.append((z, _sent(r, z, np.array(own, dtype=np.int64))))
    counts = np.zeros(SPEC.dim, dtype=np.int64)
    counts[support] = 2
    values = np.where(counts > 0, rng.standard_normal(SPEC.dim), 0.0)
    newer = GlobalAggregate(round=2, values=rng.standard_normal(SPEC.dim),
                            counts=np.full(SPEC.dim, 2))
    return (client, uploads, [GlobalAggregate(round=1, values=values, counts=counts), newer],
            0.1, scope)


def _correction_examples(test):
    """Supports as large as the client's own set but not equal to it, one
    of them disjoint from it, an own set of every coordinate under a
    smaller support, and full sets under both scopes."""
    everything = list(range(SPEC.dim))
    for case in ([0, 2, 4], [0, 2, 5]), ([0, 1, 2], [3, 4, 5]), \
            (everything, [0, 2, 5]), \
            (everything, everything), (everything, everything, "full-support"):
        test = example(_correction_example(*case))(test)
    return test


def _check_correction(case, deliver=_deliver):
    # Explicit examples are built once, so work on a copy.
    client, uploads, aggs, eta, scope = copy.deepcopy(case)
    want_w, want_anchor, want_delta = _straight_line_correction(
        client, uploads, aggs[0], eta, scope)
    later = [sent.round for _, sent in uploads][1:]
    delta = deliver(client, uploads, aggs, eta, scope=scope)
    assert client.weights.tobytes() == want_w.tobytes()
    assert client.anchor.tobytes() == want_anchor.tobytes()
    assert np.float64(delta).tobytes() == np.float64(want_delta).tobytes()
    assert [p.round for p in client.pending] == later


def _merge_ignoring_counts(client, uploads, aggs, eta, scope="own-shared"):
    """Substitutes on every candidate coordinate, writing the aggregate's 0
    where nobody shared."""
    everywhere = GlobalAggregate(round=aggs[0].round, values=aggs[0].values,
                                 counts=np.ones_like(aggs[0].counts))
    return _deliver(client, uploads, [everywhere, *aggs[1:]], eta, scope=scope)


def _replay_skipping_newest(client, uploads, aggs, eta, scope="own-shared"):
    """Rebuilds the weights without the newest pending round."""
    delta = _deliver(client, uploads, aggs, eta, scope=scope)
    w = client.anchor
    for later in list(client.pending)[:-1]:
        w = w - later.z_full
    client.weights = w
    return delta


def _copy_on_full_own_set(client, uploads, aggs, eta, scope="own-shared"):
    """Merges by a copy of the aggregate's values whenever the client's own
    set is every coordinate, whatever the support."""
    if uploads[0][1].indices.shape == aggs[0].values.shape:
        return _merge_ignoring_counts(client, uploads, aggs, eta, scope=scope)
    return _deliver(client, uploads, aggs, eta, scope=scope)


def _measure_after_scaling(client, sent, agg, eta, scope="own-shared"):
    """Scales z to eta * z first and sizes the correction against that."""
    client.staged *= eta
    return measure_correction(client, sent, agg, 1.0, scope=scope)


def _delta_after_scaling(client, uploads, aggs, eta, scope="own-shared"):
    return _deliver(client, uploads, aggs, eta, scope=scope, measure=_measure_after_scaling)


def _measure_against_support(client, sent, agg, eta, scope="own-shared"):
    """Takes the aggregate's support for the client's own set."""
    support = extract_shared(agg.values, SharedSet(agg.indices, agg.values.shape[0]),
                             sent.round, sent.p)
    return measure_correction(client, support, agg, eta, scope=scope)


def _own_set_from_support(client, uploads, aggs, eta, scope="own-shared"):
    return _deliver(client, uploads, aggs, eta, scope=scope, measure=_measure_against_support)


def _replay_scaling_again(client, uploads, aggs, eta, scope="own-shared"):
    """Replays each later round as w - eta * its stored step, which
    already holds eta * z."""
    delta = _deliver(client, uploads, aggs, eta, scope=scope)
    w = client.anchor
    for later in client.pending:
        w = w - eta * later.z_full
    client.weights = w
    return delta


class TestApplyCorrection:
    @settings(max_examples=150, deadline=None)
    @_correction_examples
    @given(_corrections())
    def test_equals_straight_line_correction(self, case):
        _check_correction(case)

    @pytest.mark.parametrize("fault", [_merge_ignoring_counts,
                                       _replay_skipping_newest,
                                       _copy_on_full_own_set,
                                       _delta_after_scaling,
                                       _own_set_from_support,
                                       _replay_scaling_again],
                             ids=["merge-ignoring-counts", "replay-skipping-newest",
                                  "copy-on-full-own-set", "delta-after-scaling",
                                  "own-set-from-support", "replay-scaling-again"])
    def test_fault_fails(self, fault):
        # Finding a failure is the point; shrinking it would only cost time.
        with pytest.raises(AssertionError):
            settings(max_examples=150, deadline=None, report_multiple_bugs=False,
                     phases=(Phase.explicit, Phase.reuse, Phase.generate))(
                _correction_examples(given(_corrections())(
                    lambda case: _check_correction(case, fault))))()

    @pytest.mark.parametrize("scope", CORRECTION_SCOPES)
    def test_shared_aggregate_and_later_rounds_keep_their_bytes(self, scope):
        """One aggregate goes to every client and its scaled values to
        every delivery; measuring writes to neither, delivering writes to
        no round still pending, and no client's new state may share memory
        with any of them."""
        clients = [_client(cid=i, seed=i) for i in range(3)]
        for r in (1, 2, 3):
            msgs = [build_upload(c, _step(c, 1, 0.1), 0.5, round=r)
                    for c in clients]
            formed = server_aggregate(msgs, SPEC.dim)
            if r == 1:
                agg = formed
                fields = (agg.values, agg.counts, agg.mask, agg.indices)
                before = [a.tobytes() for a in fields]
            for c, m in zip(clients, msgs):
                measure_correction(c, m, formed, eta=0.1, scope=scope)
        scaled = agg.values * 0.1
        fields += (scaled,)
        before.append(scaled.tobytes())
        later = [p.z_full.tobytes() for c in clients for p in list(c.pending)[1:]]
        for c in clients:
            apply_correction(c, agg.round, scaled)
        assert [a.tobytes() for a in fields] == before
        assert [p.z_full.tobytes() for c in clients for p in c.pending] == later
        for c in clients:
            for a in fields + tuple(p.z_full for p in c.pending):
                assert not np.shares_memory(c.weights, a)
                assert not np.shares_memory(c.anchor, a)

    @pytest.mark.parametrize("scope, p", [("full-support", 1.0), ("own-shared", 0.5)],
                             ids=["every-coordinate", "touched-mask"])
    def test_delivery_writes_only_the_step_it_consumes(self, scope, p):
        """Two clients start from one read-only model, as weights and as
        anchor, with two rounds in flight (delay 2). Delivering the oldest
        round to one client rewrites that round's step buffer into its new
        anchor and nothing else: not scaled, not its later step, not the
        shared model, and nothing of the other client."""
        w0 = init_params(SPEC, 0)
        w0.setflags(write=False)
        shard = _client().shard
        clients = [ClientState(id=i, weights=w0, shard=shard, max_pending=2)
                   for i in range(2)]
        aggs = []
        for r in (1, 2):
            msgs = [build_upload(c, _step(c, 1 + i, 0.1), p, round=r)
                    for i, c in enumerate(clients)]
            aggs.append(server_aggregate(msgs, SPEC.dim))
            for c, m in zip(clients, msgs):
                measure_correction(c, m, aggs[-1], eta=0.1, scope=scope)
        one, other = clients
        assert (one.pending[0].touched is None) == (p == 1.0)
        scaled = aggs[0].values * 0.1
        scaled.setflags(write=False)
        step = one.pending[0].z_full
        unchanged = lambda: ([scaled.tobytes(), w0.tobytes(), one.pending[-1].z_full.tobytes(),
                              other.weights.tobytes(), other.anchor.tobytes()]
                             + [(q.round, q.z_full.tobytes(), q.touched is None)
                                for q in other.pending])
        before = unchanged()
        apply_correction(one, 1, scaled)
        assert unchanged() == before
        assert one.anchor is step and other.anchor is w0
        assert [q.round for q in one.pending] == [2] and len(other.pending) == 2
        assert not np.shares_memory(one.weights, one.pending[0].z_full)

    @pytest.mark.parametrize("touched", [None, np.arange(SPEC.dim * 500) % 3 == 0],
                             ids=["every-coordinate", "touched-mask"])
    def test_delivery_allocates_only_the_replayed_weights(self, touched):
        """With two later rounds pending, one delivery allocates one
        d-length array, the replayed weights; the new anchor is the
        consumed step."""
        d = SPEC.dim * 500
        rng = np.random.default_rng(9)
        client = ClientState(id=0, weights=rng.standard_normal(d),
                             shard=_client().shard, max_pending=3)
        client.pending.extend(protocol.PendingRound(r, rng.standard_normal(d), touched)
                              for r in (1, 2, 3))
        scaled = rng.standard_normal(d)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            apply_correction(client, 1, scaled)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 8 * d <= peak < 8 * d + 4096, peak

    @pytest.mark.parametrize("scope", CORRECTION_SCOPES)
    @pytest.mark.parametrize("fixed", [np.arange(6), np.arange(3, 6)],
                             ids=["dense", "tail"])
    def test_fixed_set_equals_straight_line_correction(self, fixed, scope):
        """An aggregate of one fixed set's uploads, whose support is that
        set, merges by the straight-line rule."""
        fixed = SharedSet(fixed, SPEC.dim)
        clients = [_client(cid=i, seed=i) for i in range(3)]
        uploads, aggs = [], []
        for r in (1, 2):
            zs = [_step(c, 1, 0.1) for c in clients]
            uploads.append([(z, extract_shared(z, fixed, r, 0.5)) for z in zs])
            aggs.append(server_aggregate([m for _, m in uploads[-1]], SPEC.dim))
        for i, c in enumerate(clients):
            _check_correction((c, [u[i] for u in uploads], aggs, 0.1, scope))

    def test_substitution_example(self):
        """shared={0}, global 1, own value 2, eta=0.1: coordinate 0 gains
        exactly 0.1 and everything else stays put."""
        client = _client()
        z = np.zeros(SPEC.dim)
        z[0] = 2.0
        w_start = client.weights.copy()
        msg = build_upload(client, z.copy(), 0.1, round=1)  # ceil(0.1 * 6) = 1 coord
        np.testing.assert_array_equal(msg.indices, [0])
        client.weights = w_start - 0.1 * z  # what a local round would leave

        agg = _agg(1, [0], [1.0], [2])
        before = client.weights.copy()
        assert measure_correction(client, msg, agg, eta=0.1) == 1.0  # |1 - 2|
        np.testing.assert_array_equal(client.pending[0].z_full, 0.1 * z)
        apply_correction(client, agg.round, agg.values * 0.1)
        np.testing.assert_array_equal(client.weights[0], before[0] + 0.1)
        np.testing.assert_array_equal(client.weights[1:], before[1:])
        assert not client.pending

    def test_identical_clients_see_zero_correction(self):
        """When everyone uploads the same values the aggregate equals each
        client's own share and the correction is exactly zero."""
        shard = _client().shard
        clients = [ClientState(id=i, weights=init_params(SPEC, 0), shard=shard,
                               max_pending=8) for i in range(4)]
        uploads = []
        for c in clients:
            z = _step(c, 2, 0.1)
            uploads.append((z, build_upload(c, z, 0.5, round=1)))
        agg = server_aggregate([m for _, m in uploads], SPEC.dim)
        trajectories = []
        for c, upload in zip(clients, uploads):
            assert _deliver(c, [upload], [agg], 0.1) == 0.0
            trajectories.append(c.weights)
        for w in trajectories[1:]:
            np.testing.assert_array_equal(w, trajectories[0])

    def test_round_mismatch_rejected(self):
        """An aggregate of another round than the newest pending one, or an
        upload of another round than the aggregate's, is refused."""
        client = _client()
        first = build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        agg = _agg(2, [0], [1.0], [1])
        with pytest.raises(ContractViolationError):
            measure_correction(client, first, agg, eta=0.1)
        measure_correction(client, first, _agg(1, [0], [1.0], [1]), eta=0.1)
        build_upload(client, np.ones(SPEC.dim), 1.0, round=2)
        with pytest.raises(ContractViolationError, match="upload of round 1"):
            measure_correction(client, first, agg, eta=0.1)
        assert client.staged.tobytes() == np.ones(SPEC.dim).tobytes()
        assert [p.round for p in client.pending] == [1]
        with pytest.raises(ContractViolationError):
            apply_correction(client, agg.round, agg.values * 0.1)

    @pytest.mark.parametrize("scope", CORRECTION_SCOPES)
    def test_upload_outside_model_rejected(self, scope):
        client = _client()
        build_upload(client, np.ones(SPEC.dim), 0.5, round=1)
        outside = extract_shared(np.ones(SPEC.dim + 1), SharedSet([0, SPEC.dim], SPEC.dim + 1),
                                 round=1, p=0.5)
        with pytest.raises(ContractViolationError, match="6 coordinates"):
            measure_correction(client, outside, _agg(1, [0], [1.0], [1]), eta=0.1, scope=scope)
        assert client.staged.tobytes() == np.ones(SPEC.dim).tobytes() and not client.pending

    def test_no_pending_rejected(self):
        client = _client()
        agg = _agg(1, [0], [1.0], [1])
        sent = extract_shared(np.ones(SPEC.dim), SharedSet([0], SPEC.dim), round=1, p=0.2)
        with pytest.raises(ContractViolationError):
            measure_correction(client, sent, agg, eta=0.1)
        with pytest.raises(ContractViolationError):
            apply_correction(client, agg.round, agg.values * 0.1)

    def test_each_round_is_measured_once_before_delivery(self):
        """Delivery and the next upload wait until the staged round is
        measured, and a measured round is not measured again."""
        client = _client()
        agg = _agg(1, [0], [1.0], [1])
        first = build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        with pytest.raises(ContractViolationError, match="round 1 was never measured"):
            apply_correction(client, agg.round, agg.values * 0.1)
        measure_correction(client, first, agg, eta=0.1)
        second = build_upload(client, np.ones(SPEC.dim), 1.0, round=2)
        with pytest.raises(ContractViolationError, match="round 2 was never measured"):
            build_upload(client, np.ones(SPEC.dim), 1.0, round=3)
        measure_correction(client, second, _agg(2, [0], [1.0], [1]), eta=0.1)
        with pytest.raises(ContractViolationError, match="no upload waits"):
            measure_correction(client, second, _agg(2, [0], [1.0], [1]), eta=0.1)
        np.testing.assert_array_equal(client.pending[1].z_full, np.full(SPEC.dim, 0.1))
        apply_correction(client, agg.round, agg.values * 0.1)
        assert [p.round for p in client.pending] == [2]

    def test_unknown_scope_rejected(self):
        client = _client()
        msg = build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        agg = _agg(1, [0], [1.0], [1])
        with pytest.raises(ContractViolationError, match="scope"):
            measure_correction(client, msg, agg, eta=0.1, scope="everything")
        assert client.staged.tobytes() == np.ones(SPEC.dim).tobytes() and not client.pending

    @pytest.mark.parametrize("d", [SPEC.dim - 1, SPEC.dim + 1])
    def test_wrong_length_rejected(self, d):
        client = _client()
        msg = build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        wrong = _agg(1, [0], [1.0], [1], d=d)
        with pytest.raises(ContractViolationError):
            measure_correction(client, msg, wrong, eta=0.1)
        agg = _agg(1, [0], [1.0], [1])
        measure_correction(client, msg, agg, eta=0.1)
        with pytest.raises(ContractViolationError):
            apply_correction(client, agg.round, wrong.values * 0.1)
        assert len(client.pending) == 1

    def test_full_support_scope_touches_aggregate_support(self):
        client = _client()
        z = np.zeros(SPEC.dim)
        z[0] = 2.0
        msg = build_upload(client, z, 0.1, round=1)
        w_before = client.weights.copy()
        # Aggregate defines a coordinate this client never shared.
        agg = _agg(1, [0, 3], [2.0, 1.0], [1, 1])
        _deliver(client, [(z, msg)], [agg], 0.1, scope="full-support")
        np.testing.assert_array_equal(client.weights[3], w_before[3] - 0.1)

    def test_own_shared_scope_ignores_foreign_coordinates(self):
        client = _client()
        z = np.zeros(SPEC.dim)
        z[0] = 2.0
        msg = build_upload(client, z, 0.1, round=1)
        w_before = client.weights.copy()
        agg = _agg(1, [0, 3], [2.0, 1.0], [1, 1])
        _deliver(client, [(z, msg)], [agg], 0.1)
        np.testing.assert_array_equal(client.weights[3], w_before[3])


def _upload(client, r):
    return build_upload(client, np.arange(SPEC.dim) * 0.5 + r, 1.0, round=r)


def _measure(client, msg, d=SPEC.dim, scope="own-shared"):
    return measure_correction(client, msg, _agg(msg.round, [0], [1.0], [1], d=d), eta=0.1,
                              scope=scope)


def _state(client):
    """What a refused call must leave as it was, by value: the queued
    rounds, the last round, the weights, the anchor and the staged z."""
    return ([(p.round, p.z_full.tobytes(), None if p.touched is None else p.touched.tobytes())
             for p in client.pending],
            client.last_round, client.weights.tobytes(), client.anchor.tobytes(),
            None if client.staged is None else client.staged.tobytes())


def _deliver_zeros(round, d=SPEC.dim):
    return lambda c, m: apply_correction(c, round, np.zeros(d))


# name: (rounds measured, round left staged, the refused call on the
# client and its uploads by round)
_REFUSALS = {
    "upload-while-staged": ([], 1, lambda c, m: _upload(c, 2)),
    "upload-past-queue-bound": ([1, 2], None, lambda c, m: _upload(c, 3)),
    "measure-nothing-staged": ([], None, lambda c, m: _measure(
        c, _sent(1, np.ones(SPEC.dim), [0]))),
    "measure-twice": ([1], None, lambda c, m: _measure(c, m[1])),
    "measure-another-round": ([1], 2, lambda c, m: _measure(c, m[1])),
    "measure-aggregate-of-another-length": ([], 1, lambda c, m: _measure(
        c, m[1], d=SPEC.dim + 1)),
    "measure-upload-of-another-length": ([], 1, lambda c, m: _measure(
        c, _sent(1, np.ones(SPEC.dim + 1), [0]))),
    "measure-unknown-scope": ([], 1, lambda c, m: _measure(c, m[1], scope="everything")),
    "deliver-while-staged": ([1], 2, _deliver_zeros(1)),
    "deliver-nothing-pending": ([], None, _deliver_zeros(1)),
    "deliver-wrong-round": ([1], None, _deliver_zeros(2)),
    "deliver-wrong-length": ([1], None, _deliver_zeros(1, SPEC.dim + 1)),
}


class TestStagedLifecycle:
    @pytest.mark.parametrize("measured, staged, refused", _REFUSALS.values(),
                             ids=_REFUSALS.keys())
    def test_refusal_leaves_the_client_as_it_was(self, measured, staged, refused):
        """An upload waits in the staged slot until it is measured and
        queued; every call out of that order is refused before it writes."""
        client = _client(max_pending=2)
        client.anchor = client.anchor + 1.0  # tell the anchor from the weights
        msgs = {}
        for r in measured:
            msgs[r] = _upload(client, r)
            _measure(client, msgs[r])
        if staged is not None:
            msgs[staged] = _upload(client, staged)
        before, slot, queued = _state(client), client.staged, list(client.pending)
        with pytest.raises(ContractViolationError):
            refused(client, msgs)
        assert client.staged is slot
        assert len(client.pending) == len(queued)
        assert all(a is b for a, b in zip(client.pending, queued))
        assert _state(client) == before


class TestDelayedPipelineTrace:
    def test_two_clients_one_round_delay(self):
        """Hand-unrolled two-round exchange with D=1.

        Every quantity on the expected side is written out as the direct
        formula; the protocol side goes through the state machinery. The
        two must agree bitwise.
        """
        eta = 0.1
        clients = [_client(cid=0, seed=1), _client(cid=1, seed=1)]
        w0 = clients[0].weights.copy()
        np.testing.assert_array_equal(clients[1].weights, w0)

        # round 1: local step, upload top half, nothing arrives yet
        z1, msgs1, sets1 = [], [], []
        for c in clients:
            z = _step(c, 1, eta)
            z1.append(z)
            msgs1.append(build_upload(c, z.copy(), 0.5, round=1))
            sets1.append(msgs1[-1].indices)
        agg1 = server_aggregate(msgs1, SPEC.dim)
        for c, m in zip(clients, msgs1):
            measure_correction(c, m, agg1, eta)

        # round 2: another local step, its aggregate forms, then the
        # round-1 aggregate lands, and the last round drains round 2's
        z2, msgs2 = [], []
        for c in clients:
            z2.append(_step(c, 1, eta))
            msgs2.append(build_upload(c, z2[-1].copy(), 0.5, round=2))
        agg2 = server_aggregate(msgs2, SPEC.dim)
        for c, m in zip(clients, msgs2):
            measure_correction(c, m, agg2, eta)
        for agg in (agg1, agg2):
            for c in clients:
                apply_correction(c, agg.round, agg.values * eta)

        # independent replay of the same schedule, straight-line
        for i, c in enumerate(clients):
            merged1 = z1[i].copy()
            merged1[sets1[i]] = agg1.values[sets1[i]]
            w_r1 = w0 - eta * merged1          # corrected end of round 1

            z2_set = topk_shared_indices(z2[i], 0.5).indices
            merged2 = z2[i].copy()
            merged2[z2_set] = agg2.values[z2_set]
            w_final = w_r1 - eta * merged2     # corrected end of round 2

            np.testing.assert_array_equal(c.weights, w_final)
            assert not c.pending

    def test_correction_then_replay_preserves_later_rounds(self):
        """With two rounds in flight, correcting the older one must rebuild
        the newer one on top of the corrected base."""
        eta = 0.2
        client = _client(cid=0, seed=3)
        w0 = client.weights.copy()
        za = _step(client, 2, eta)
        msg = build_upload(client, za.copy(), 0.5, round=1)
        own = msg.indices
        g = np.full(own.shape[0], 0.25)
        agg = _agg(1, own, g, 1)
        measure_correction(client, msg, agg, eta)
        zb = _step(client, 2, eta)
        later = build_upload(client, zb.copy(), 0.5, round=2)
        measure_correction(client, later, _agg(2, [], [], 0), eta)
        apply_correction(client, agg.round, agg.values * eta)

        merged = za.copy()
        merged[own] = g
        expect = (w0 - eta * merged) - eta * zb
        np.testing.assert_array_equal(client.weights, expect)
        assert len(client.pending) == 1
        assert client.pending[0].round == 2


class TestStaticPartialMask:
    def test_full_fraction(self):
        spec = ModelSpec(kind="logistic-regression", input_dim=3, num_classes=2)
        np.testing.assert_array_equal(static_partial_mask(spec.dim, 1.0).indices,
                                      np.arange(8))

    def test_quarter_of_logistic(self):
        # d = 8, ceil(0.25 * 8) = 2: the final two coordinates
        spec = ModelSpec(kind="logistic-regression", input_dim=3, num_classes=2)
        shared = static_partial_mask(spec.dim, 0.25)
        assert isinstance(shared, SharedSet) and shared.d == 8
        np.testing.assert_array_equal(shared.indices, [6, 7])

    def test_static_across_calls(self):
        spec = ModelSpec(kind="mlp", input_dim=4, num_classes=3, hidden_dims=(5,))
        np.testing.assert_array_equal(static_partial_mask(spec.dim, 0.3).indices,
                                      static_partial_mask(spec.dim, 0.3).indices)
