"""Client/server protocol: local rounds, aggregation, delayed corrections."""

import copy
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dpga import protocol
from dpga.engine import SimConfig, Simulation
from dpga.errors import ContractViolationError
from dpga.masking import (SharedSet, SparseGradient, decode, encode, extract_shared,
                          topk_shared_indices)
from dpga.models import Batch, ModelSpec, init_params, loss_and_gradient
from dpga.protocol import (CORRECTION_SCOPES, ClientGroup, ClientState,
                           GlobalAggregate, PendingRound, apply_correction,
                           build_upload, grouped_local_round, local_round,
                           measure_correction, pairwise_mean, pairwise_sum,
                           seed_words, server_aggregate, static_partial_mask)
from test_models import _pooled_bias

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
    """One local round of `epochs` full-shard steps: sets the client's
    weights and returns its z."""
    client.weights, z = local_round(client.weights, [client.shard] * epochs, SPEC, eta)
    return z


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
        """w_after == w_before - eta * z, bitwise, for several K."""
        for epochs in (1, 2, 3, 7):
            client = _client(seed=epochs)
            before = client.weights.copy()
            w, z = local_round(before, [client.shard] * epochs, SPEC, 0.1)
            np.testing.assert_array_equal(w, before - 0.1 * z)

    def test_single_epoch_full_batch_is_one_gradient(self):
        client = _client(seed=4)
        _, z = local_round(client.weights, [client.shard], SPEC, 0.2)
        _, g = loss_and_gradient(client.weights, client.shard, SPEC)
        np.testing.assert_array_equal(z, g)

    def test_matches_manual_three_step_loop(self):
        client = _client(seed=9)
        w0 = client.weights.copy()
        w_got, z = local_round(w0, [client.shard] * 3, SPEC, 0.05)

        acc = np.zeros_like(w0)
        w = w0
        for _ in range(3):
            _, g = loss_and_gradient(w, client.shard, SPEC)
            acc = acc + g
            w = w0 - 0.05 * acc
        np.testing.assert_array_equal(z, acc)
        np.testing.assert_array_equal(w_got, w)

    def test_stacked_weights_equal_one_call_per_client(self):
        """(n, d) weights with n stacked batches per step give each row
        the bits of that client's own (d,) call."""
        clients = [_client(cid=i, seed=i, n=4) for i in range(3)]
        pool = Batch.concatenate([c.shard for c in clients])
        rows = np.arange(12).reshape(3, 4)
        steps = [pool.rows(rows), pool.rows(rows[::-1, ::-1])]
        w, z = local_round(np.stack([c.weights for c in clients]), steps, SPEC, 0.1)
        for i, c in enumerate(clients):
            wi, zi = local_round(c.weights, [step.rows(i) for step in steps], SPEC, 0.1)
            assert w[i].tobytes() == wi.tobytes() and z[i].tobytes() == zi.tobytes()

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
    """Clients with one spec and shards on both sides of batch_size."""
    kind = draw(st.sampled_from(["logistic-regression", "mlp"]))
    hidden = (tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
              if kind == "mlp" else ())
    spec = ModelSpec(kind=kind, input_dim=draw(st.integers(1, 6)),
                     num_classes=draw(st.integers(2, 5)), hidden_dims=hidden,
                     activation=draw(st.sampled_from(["relu", "tanh"])))
    batch_size = draw(st.none() | st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clients = []
    for i, n in enumerate(draw(st.lists(st.integers(1, 24), min_size=1, max_size=8))):
        shard = Batch(rng.standard_normal((n, spec.input_dim)),
                      rng.integers(0, spec.num_classes, n))
        clients.append(ClientState(id=i, weights=rng.standard_normal(spec.dim),
                                   shard=shard, max_pending=1))
    return (clients, spec, draw(st.integers(1, 4)),
            draw(st.sampled_from([0.01, 0.1, 0.5])), batch_size, draw(st.integers(0, 1000)))


def _check_grouped(case):
    """The group's weights and z against a straight-line loop per client:
    a sampler draws each step's rows from default_rng([seed, id]), and a
    full-shard client takes its whole shard."""
    clients, spec, epochs, eta, batch_size, seed = case
    alone = copy.deepcopy(clients)
    zs = grouped_local_round(ClientGroup(clients, spec, batch_size), epochs, eta,
                             seed_words(seed))
    for c, a, z in zip(clients, alone, zs):
        n, rng = a.shard.size, np.random.default_rng([seed, a.id])
        w0 = w = a.weights
        acc = np.zeros_like(w0)
        for _ in range(epochs):
            batch = a.shard
            if batch_size is not None and batch_size < n:
                batch = a.shard.rows(rng.choice(n, size=batch_size, replace=False))
            _, g = loss_and_gradient(w, batch, spec)
            acc += g
            w = w0 - eta * acc
        assert np.array_equal(z, acc)
        assert np.array_equal(c.weights, w)


class TestGroupedLocalRound:
    """Stepping the sampled clients together changes no bit of any
    client's weights or z."""

    @settings(max_examples=150, deadline=None)
    @given(_groups())
    def test_equals_local_round_per_client(self, case):
        _check_grouped(case)

    def test_pooled_bias_gradient_fails(self):
        with mock.patch.object(protocol, "loss_and_gradient", _pooled_bias):
            with pytest.raises(AssertionError):
                settings(max_examples=150, deadline=None)(
                    given(_groups())(_check_grouped))()

    def _group(self, n=3, rows=6, classes=2):
        rng = np.random.default_rng(7)
        return [ClientState(id=i, weights=init_params(SPEC, i),
                            shard=Batch(rng.standard_normal((rows, 2)),
                                        rng.integers(0, classes, rows)),
                            max_pending=1) for i in range(n)]

    def test_checks_hold(self):
        for batch_size in (2, None):  # the samplers, or every client on its shard
            self._check_refusals(batch_size)

    def _check_refusals(self, batch_size):
        def run(clients, epochs=2, eta=0.1, batch_size=batch_size):
            return grouped_local_round(ClientGroup(clients, SPEC, batch_size), epochs,
                                       eta, seed_words(0))

        for args in (dict(epochs=0), dict(eta=0.0), dict(eta=float("nan")),
                     dict(batch_size=0)):
            with pytest.raises(ContractViolationError):
                run(self._group(), **args)
        with pytest.raises(ContractViolationError):  # seed words are uint32
            grouped_local_round(ClientGroup(self._group(), SPEC, batch_size), 1, 0.1,
                                [[0, 0]])
        for bad in (0, 2):  # every client, or the last one, with a wrong length
            clients = self._group()
            for c in clients[bad:]:
                c.weights = np.zeros(SPEC.dim + 1)
            with pytest.raises(ContractViolationError):
                run(clients)
        clients = self._group()
        clients[1].shard = Batch(np.ones((6, 3)), np.zeros(6, dtype=int))
        with pytest.raises(ContractViolationError):
            run(clients)
        with pytest.raises(ContractViolationError):
            run(self._group(classes=3))  # a label outside SPEC's 2 classes
        clients = self._group()
        clients[2].weights = np.full(SPEC.dim, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolationError, match="non-finite"):
                run(clients)

    def test_every_gradient_call_runs_inside_local_round(self):
        """A run takes every local step in local_round: one call per
        full-shard client and one for the stacked samplers each round."""
        depth, calls = [0], {"local_round": 0, "inside": 0, "outside": 0}
        real_round, real_gradient = protocol.local_round, protocol.loss_and_gradient

        def counted_round(*args):
            calls["local_round"] += 1
            depth[0] += 1
            try:
                return real_round(*args)
            finally:
                depth[0] -= 1

        def counted_gradient(*args):
            calls["inside" if depth[0] else "outside"] += 1
            return real_gradient(*args)

        # Shards of 11, 15, 6, 21, 25, 19, 19 and 4 examples: 5 samplers
        # and 3 full-shard clients.
        cfg = SimConfig(batch_size=12, rounds=3)
        with (mock.patch.object(protocol, "local_round", counted_round),
              mock.patch.object(protocol, "loss_and_gradient", counted_gradient)):
            sim = Simulation(cfg)
            assert len(sim._group.samplers) == 5
            sim.run()
        assert calls == {"local_round": 4 * cfg.rounds,
                         "inside": 4 * cfg.rounds * cfg.local_epochs, "outside": 0}


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
        assert not client.pending and client.last_round == -1

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
        assert len(client.pending) == 1
        assert client.pending[0].z_full is z  # kept, not copied

    @pytest.mark.parametrize("scope", CORRECTION_SCOPES)
    def test_pending_round_keeps_no_index_array(self, scope):
        """A Top-K round holds nothing of its upload's indices, before or
        after its correction is measured from them."""
        client = _client()
        msg = build_upload(client, np.array([3.0, -5.0, 1.0, 0.0, 0.0, 0.0]), 0.5, round=1)
        pend = client.pending[0]

        def arrays_held():
            return [a for a in (getattr(pend, f.name) for f in dataclasses.fields(pend))
                    if isinstance(a, np.ndarray)]

        assert all(not np.shares_memory(a, msg.indices) for a in arrays_held())
        measure_correction(client, msg, _agg(1, [0, 3], [1.0, 2.0], [1, 1]), eta=0.1,
                           scope=scope)
        assert all(not np.shares_memory(a, msg.indices) for a in arrays_held())

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
        build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        build_upload(client, np.ones(SPEC.dim), 1.0, round=2)
        with pytest.raises(ContractViolationError, match="pending queue"):
            build_upload(client, np.ones(SPEC.dim), 1.0, round=3)
        assert [p.round for p in client.pending] == [1, 2]
        assert client.last_round == 2


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
        # Coordinate 1 is shared with the value 0: it still counts as shared.
        msgs = [self._msg(6, [1, 4], [-0.0, 3.0]), self._msg(6, [4], [5.0])]
        agg = server_aggregate(msgs, 6, weights)
        off = [0, 2, 3, 5]
        assert agg.values.shape == agg.counts.shape == (6,)
        assert agg.values[off].tobytes() == np.zeros(4).tobytes()
        assert not agg.counts[off].any()
        np.testing.assert_array_equal(agg.indices, [1, 4])

    def test_weighted_mean(self):
        msgs = [self._msg(1, [0], [1.0]), self._msg(1, [0], [5.0])]
        agg = server_aggregate(msgs, 1, weights=np.array([0.75, 0.25]))
        np.testing.assert_allclose(agg.values, [0.75 * 1.0 + 0.25 * 5.0])

    def test_one_weight_per_message(self):
        msgs = [self._msg(1, [0], [1.0]), self._msg(1, [0], [5.0])]
        with pytest.raises(ContractViolationError):
            server_aggregate(msgs, 1, weights=np.array([1.0]))

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
        client.pending.append(PendingRound(round=1, z_full=np.ones(5)))
        with pytest.raises(ContractViolationError, match="5 coordinates"):
            measure_correction(client, msg, _agg(1, [0], [1.0], [1], d=5), eta=0.1)
        assert not client.pending[0].scaled

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("fixed", [np.arange(6), np.arange(3, 6)],
                             ids=["dense", "tail"])
    def test_one_fixed_set_equals_scatter_route(self, fixed, weighted):
        """Messages that carry one SharedSet take the stacked route; the
        same messages with a SharedSet copy each take the scatter route."""
        rng = np.random.default_rng(3)
        fixed = SharedSet(fixed, 6)
        zs = rng.standard_normal((5, 6))
        weights = rng.uniform(0.5, 1.5, 5) if weighted else None
        one = server_aggregate([self._msg(6, fixed, z[fixed.indices]) for z in zs], 6, weights)
        own = server_aggregate([self._msg(6, fixed.indices, z[fixed.indices])
                                for z in zs], 6, weights)
        assert one.values.tobytes() == own.values.tobytes()
        assert one.counts.tobytes() == own.counts.tobytes()
        np.testing.assert_array_equal(one.mask, own.mask)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("upload", ["top-k", "dense", "tail"])
    def test_support_is_derived_from_counts(self, upload, weighted):
        """Whatever route the server takes, the support is the
        coordinates with a nonzero count, in a fresh array."""
        rng = np.random.default_rng(5)
        shared = {"top-k": None, "dense": SharedSet(np.arange(6), SPEC.dim),
                  "tail": SharedSet(np.arange(3, 6), SPEC.dim)}[upload]
        clients = [_client(cid=i, seed=i) for i in range(4)]
        msgs = [build_upload(c, rng.standard_normal(SPEC.dim), 0.3, round=1,
                             shared=shared) for c in clients]
        agg = server_aggregate(msgs, SPEC.dim, rng.uniform(0.5, 1.5, 4) if weighted else None)
        assert agg.indices.tobytes() == np.flatnonzero(agg.counts).tobytes()
        np.testing.assert_array_equal(agg.mask, agg.counts > 0)
        for m in msgs:
            assert not np.shares_memory(agg.indices, m.indices)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), d=st.integers(1, 40),
           weighted=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_plain_loop_reference(self, data, n, d, weighted, seed):
        rng = np.random.default_rng(seed)
        subsets = [sorted(data.draw(st.sets(st.integers(0, d - 1), max_size=d)))
                   for _ in range(n)]
        msgs = [self._msg(d, idx, rng.standard_normal(len(idx))) for idx in subsets]
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


# Signed zeros on purpose: a merge or replay that loses a sign shows in
# the bytes.
_ENTRIES = st.one_of(st.just(0.0), st.just(-0.0),
                     st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def _corrections(draw):
    """A client with 1-5 pending rounds, their z still raw, with the
    upload and the aggregate of each round; the oldest one's is delivered.

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
    sents, aggs = [], []
    for r in range(1, draw(st.integers(0, 4)) + 2):
        shared = np.array(sorted(draw(st.sets(st.integers(0, d - 1), max_size=d))),
                          dtype=np.int64)
        client.pending.append(PendingRound(round=r, z_full=draw(vector)))
        sents.append(_sent(client.pending[-1], shared))
        counts = draw(arrays(np.int64, d, elements=st.integers(0, 3)))
        values = np.where(counts > 0, draw(vector), 0.0)
        aggs.append(GlobalAggregate(round=r, values=values, counts=counts))
    return (client, sents, aggs, draw(st.sampled_from([0.1, 0.3, 1.0])),
            draw(st.sampled_from(CORRECTION_SCOPES)))


def _sent(pend, shared):
    """The upload of a pending round whose z is still raw: its values on
    the coordinates `shared`."""
    return extract_shared(pend.z_full, SharedSet(shared, pend.z_full.shape[0]),
                          pend.round, 0.5)


def _straight_line_correction(client, own, agg, eta, scope):
    """(weights, anchor, delta) by the plain expressions over the raw z of
    the oldest round, whose upload shared `own`: copy, gather and scatter
    on the covered coordinates, then w = w - eta * z per later round."""
    pend = client.pending[0]
    merged = pend.z_full.copy()
    coords = own if scope == "own-shared" else np.arange(merged.shape[0])
    touched = coords[agg.counts[coords] > 0]
    vals = agg.values[touched]
    delta = float(np.max(np.abs(vals - merged[touched]), initial=0.0))
    merged[touched] = vals
    anchor = w = client.anchor - eta * merged
    for later in list(client.pending)[1:]:
        w = w - eta * later.z_full
    return w, anchor, delta


def _deliver(client, sents, aggs, eta, scope="own-shared", measure=measure_correction):
    """What a run does: each pending round is measured from its upload
    (sents, oldest first) when its aggregate (aggs) forms, and then the
    oldest round's aggregate is delivered with its values scaled once.
    Returns that round's size."""
    rounds = list(client.pending)
    client.pending.clear()
    sizes = []
    for pend, sent, agg in zip(rounds, sents, aggs):
        client.pending.append(pend)
        sizes.append(measure(client, sent, agg, eta, scope=scope))
    apply_correction(client, aggs[0].round, aggs[0].values * eta)
    return sizes[0]


def _correction_example(own, support, scope="own-shared"):
    """A client whose oldest of two pending rounds shared `own`, and an
    aggregate for that round over `support` (the newer round's aggregate
    covers everything)."""
    rng = np.random.default_rng(len(own) + 10 * len(support))
    client = ClientState(id=0, weights=rng.standard_normal(SPEC.dim),
                         shard=Batch(np.zeros((1, 2)), [0]), max_pending=5)
    client.anchor = rng.standard_normal(SPEC.dim)
    sents = []
    for r in (1, 2):
        client.pending.append(PendingRound(round=r, z_full=rng.standard_normal(SPEC.dim)))
        sents.append(_sent(client.pending[-1], np.array(own, dtype=np.int64)))
    counts = np.zeros(SPEC.dim, dtype=np.int64)
    counts[support] = 2
    values = np.where(counts > 0, rng.standard_normal(SPEC.dim), 0.0)
    newer = GlobalAggregate(round=2, values=rng.standard_normal(SPEC.dim),
                            counts=np.full(SPEC.dim, 2))
    return (client, sents, [GlobalAggregate(round=1, values=values, counts=counts), newer],
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
    client, sents, aggs, eta, scope = copy.deepcopy(case)
    want_w, want_anchor, want_delta = _straight_line_correction(
        copy.deepcopy(client), sents[0].indices, aggs[0], eta, scope)
    later = [p.round for p in client.pending][1:]
    delta = deliver(client, sents, aggs, eta, scope=scope)
    assert client.weights.tobytes() == want_w.tobytes()
    assert client.anchor.tobytes() == want_anchor.tobytes()
    assert np.float64(delta).tobytes() == np.float64(want_delta).tobytes()
    assert [p.round for p in client.pending] == later


def _merge_ignoring_counts(client, sents, aggs, eta, scope="own-shared"):
    """Substitutes on every candidate coordinate, writing the aggregate's 0
    where nobody shared."""
    everywhere = GlobalAggregate(round=aggs[0].round, values=aggs[0].values,
                                 counts=np.ones_like(aggs[0].counts))
    return _deliver(client, sents, [everywhere, *aggs[1:]], eta, scope=scope)


def _replay_skipping_newest(client, sents, aggs, eta, scope="own-shared"):
    """Rebuilds the weights without the newest pending round."""
    newest = client.pending.pop() if len(client.pending) > 1 else None
    delta = _deliver(client, sents, aggs, eta, scope=scope)
    if newest is not None:
        client.pending.append(newest)
    return delta


def _copy_on_full_own_set(client, sents, aggs, eta, scope="own-shared"):
    """Merges by a copy of the aggregate's values whenever the client's own
    set is every coordinate, whatever the support."""
    if sents[0].indices.shape == aggs[0].values.shape:
        return _merge_ignoring_counts(client, sents, aggs, eta, scope=scope)
    return _deliver(client, sents, aggs, eta, scope=scope)


def _measure_after_scaling(client, sent, agg, eta, scope="own-shared"):
    """Scales z to eta * z first and sizes the correction against that."""
    client.pending[-1].z_full *= eta
    return measure_correction(client, sent, agg, 1.0, scope=scope)


def _delta_after_scaling(client, sents, aggs, eta, scope="own-shared"):
    return _deliver(client, sents, aggs, eta, scope=scope, measure=_measure_after_scaling)


def _measure_against_support(client, sent, agg, eta, scope="own-shared"):
    """Takes the aggregate's support for the client's own set."""
    support = extract_shared(agg.values, SharedSet(agg.indices, agg.values.shape[0]),
                             sent.round, sent.p)
    return measure_correction(client, support, agg, eta, scope=scope)


def _own_set_from_support(client, sents, aggs, eta, scope="own-shared"):
    return _deliver(client, sents, aggs, eta, scope=scope, measure=_measure_against_support)


def _replay_scaling_again(client, sents, aggs, eta, scope="own-shared"):
    """Replays each later round as w - eta * its stored step, which
    already holds eta * z."""
    delta = _deliver(client, sents, aggs, eta, scope=scope)
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

    @pytest.mark.parametrize("scope", CORRECTION_SCOPES)
    @pytest.mark.parametrize("fixed", [np.arange(6), np.arange(3, 6)],
                             ids=["dense", "tail"])
    def test_fixed_set_equals_straight_line_correction(self, fixed, scope):
        """An aggregate of one fixed set's uploads, whose support is that
        set, merges by the straight-line rule."""
        fixed = SharedSet(fixed, SPEC.dim)
        clients = [_client(cid=i, seed=i) for i in range(3)]
        msgs, aggs = [], []
        for r in (1, 2):
            msgs.append([build_upload(c, _step(c, 1, 0.1), 0.5, round=r,
                                      shared=fixed) for c in clients])
            aggs.append(server_aggregate(msgs[-1], SPEC.dim))
        for i, c in enumerate(clients):
            _check_correction((c, [m[i] for m in msgs], aggs, 0.1, scope))

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
        msgs = []
        for c in clients:
            z = _step(c, 2, 0.1)
            msgs.append(build_upload(c, z, 0.5, round=1))
        agg = server_aggregate(msgs, SPEC.dim)
        trajectories = []
        for c, m in zip(clients, msgs):
            assert _deliver(c, [m], [agg], 0.1) == 0.0
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
        assert not client.pending[1].scaled
        np.testing.assert_array_equal(client.pending[1].z_full, np.ones(SPEC.dim))
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
        assert not client.pending[0].scaled

    def test_no_pending_rejected(self):
        client = _client()
        agg = _agg(1, [0], [1.0], [1])
        sent = extract_shared(np.ones(SPEC.dim), SharedSet([0], SPEC.dim), round=1, p=0.2)
        with pytest.raises(ContractViolationError):
            measure_correction(client, sent, agg, eta=0.1)
        with pytest.raises(ContractViolationError):
            apply_correction(client, agg.round, agg.values * 0.1)

    def test_each_round_is_measured_once_before_delivery(self):
        """Delivery needs every pending round scaled, and a scaled round
        is not scaled again."""
        client = _client()
        agg = _agg(1, [0], [1.0], [1])
        first = build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        with pytest.raises(ContractViolationError, match="every pending round measured"):
            apply_correction(client, agg.round, agg.values * 0.1)
        measure_correction(client, first, agg, eta=0.1)
        second = build_upload(client, np.ones(SPEC.dim), 1.0, round=2)
        with pytest.raises(ContractViolationError, match="every pending round measured"):
            apply_correction(client, agg.round, agg.values * 0.1)
        measure_correction(client, second, _agg(2, [0], [1.0], [1]), eta=0.1)
        with pytest.raises(ContractViolationError, match="already measured"):
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
        assert not client.pending[0].scaled
        np.testing.assert_array_equal(client.pending[0].z_full, np.ones(SPEC.dim))

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
        _deliver(client, [msg], [agg], 0.1, scope="full-support")
        np.testing.assert_array_equal(client.weights[3], w_before[3] - 0.1)

    def test_own_shared_scope_ignores_foreign_coordinates(self):
        client = _client()
        z = np.zeros(SPEC.dim)
        z[0] = 2.0
        msg = build_upload(client, z, 0.1, round=1)
        w_before = client.weights.copy()
        agg = _agg(1, [0, 3], [2.0, 1.0], [1, 1])
        _deliver(client, [msg], [agg], 0.1)
        np.testing.assert_array_equal(client.weights[3], w_before[3])


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
