"""Client/server protocol: local rounds, aggregation, delayed corrections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpga.errors import ContractViolationError, ProtocolError
from dpga.masking import SparseGradient, topk_shared_indices
from dpga.models import Batch, ModelSpec, init_params, loss_and_gradient
from dpga.protocol import (ClientState, GlobalAggregate, apply_correction,
                           build_upload, local_round, pairwise_mean,
                           pairwise_sum, server_aggregate, static_partial_mask)

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
                       shard=shard, spec=SPEC, max_pending=max_pending)


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


class TestLocalRound:
    def test_telescoping_identity(self):
        """w_after == w_before - eta * z, bitwise, for several K."""
        for epochs in (1, 2, 3, 7):
            client = _client(seed=epochs)
            before = client.weights.copy()
            z = local_round(client, epochs, 0.1,
                            batch_size=None, rng=np.random.default_rng(0))
            np.testing.assert_array_equal(client.weights, before - 0.1 * z)

    def test_single_epoch_full_batch_is_one_gradient(self):
        client = _client(seed=4)
        w = client.weights.copy()
        z = local_round(client, 1, 0.2, None, np.random.default_rng(0))
        _, g = loss_and_gradient(w, client.shard, SPEC)
        np.testing.assert_array_equal(z, g)

    def test_matches_manual_three_step_loop(self):
        client = _client(seed=9)
        w0 = client.weights.copy()
        z = local_round(client, 3, 0.05, None, np.random.default_rng(0))

        acc = np.zeros_like(w0)
        w = w0
        for _ in range(3):
            _, g = loss_and_gradient(w, client.shard, SPEC)
            acc = acc + g
            w = w0 - 0.05 * acc
        np.testing.assert_array_equal(z, acc)
        np.testing.assert_array_equal(client.weights, w)

    def test_minibatch_draws_are_seeded(self):
        a = _client(seed=2, n=10)
        b = _client(seed=2, n=10)
        za = local_round(a, 4, 0.1, 3, np.random.default_rng(42))
        zb = local_round(b, 4, 0.1, 3, np.random.default_rng(42))
        np.testing.assert_array_equal(za, zb)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_rejects_bad_arguments(self):
        client = _client()
        with pytest.raises(ContractViolationError):
            local_round(client, 0, 0.1, None, np.random.default_rng(0))
        with pytest.raises(ContractViolationError):
            local_round(client, 1, 0.0, None, np.random.default_rng(0))
        with pytest.raises(ContractViolationError):
            local_round(client, 1, 0.1, 0, np.random.default_rng(0))

    def test_empty_shard_impossible(self):
        # A zero-row batch cannot even be constructed, so every client
        # holds at least one example.
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestBuildUpload:
    def test_topk_example(self):
        client = _client()
        z = np.array([3.0, -5.0, 1.0, 0.0, 0.0, 0.0])
        msg = build_upload(client, z, 0.5, round=1)
        # ceil(0.5 * 6) = 3 largest magnitudes: coordinates 1, 0, 2
        np.testing.assert_array_equal(msg.indices, [0, 1, 2])
        np.testing.assert_array_equal(msg.values, [3.0, -5.0, 1.0])
        assert len(client.pending) == 1
        np.testing.assert_array_equal(client.pending[0].z_full, z)

    def test_full_rate_uploads_densely(self):
        client = _client()
        z = np.arange(SPEC.dim, dtype=np.float64)
        msg = build_upload(client, z, 1.0, round=1)
        assert msg.count == SPEC.dim
        np.testing.assert_array_equal(msg.values, z)

    def test_fixed_mask_override(self):
        client = _client()
        z = np.arange(SPEC.dim, dtype=np.float64)
        mask = np.array([4, 5], dtype=np.int64)
        msg = build_upload(client, z, 0.3, round=1, shared=mask)
        np.testing.assert_array_equal(msg.indices, mask)
        np.testing.assert_array_equal(msg.values, [4.0, 5.0])

    def test_rounds_must_increase(self):
        client = _client()
        z = np.ones(SPEC.dim)
        build_upload(client, z, 1.0, round=1)
        with pytest.raises(ProtocolError):
            build_upload(client, z, 1.0, round=1)

    def test_queue_overflow(self):
        client = _client(max_pending=2)
        z = np.ones(SPEC.dim)
        build_upload(client, z, 1.0, round=1)
        build_upload(client, z, 1.0, round=2)
        with pytest.raises(ProtocolError):
            build_upload(client, z, 1.0, round=3)


class TestServerAggregate:
    def _msg(self, indices, values, round=1, p=0.5):
        return SparseGradient(round=round, p=p, indices=indices, values=values)

    def test_singleton_coordinate_mean(self):
        agg = server_aggregate([self._msg([3], [7.0])], 4)
        np.testing.assert_array_equal(agg.indices, [3])
        np.testing.assert_array_equal(agg.values, [0.0, 0.0, 0.0, 7.0])
        np.testing.assert_array_equal(agg.counts, [0, 0, 0, 1])

    def test_two_contributors(self):
        msgs = [self._msg([2], [2.0]), self._msg([2], [4.0])]
        agg = server_aggregate(msgs, 3, "per-component")
        assert agg.values[2] == 3.0
        agg_n = server_aggregate(msgs, 3, "divide-by-n")
        assert agg_n.values[2] == 6.0 / 2

    def test_divide_by_n_counts_absentees(self):
        msgs = [self._msg([0], [2.0]), self._msg([1], [4.0]),
                self._msg([0, 1], [2.0, 4.0])]
        per = server_aggregate(msgs, 2, "per-component")
        div = server_aggregate(msgs, 2, "divide-by-n")
        np.testing.assert_array_equal(per.values, [2.0, 4.0])
        np.testing.assert_allclose(div.values, [4.0 / 3, 8.0 / 3])

    def test_mode_relation(self):
        """divide-by-n value = per-component value * contributors / N."""
        rng = np.random.default_rng(31)
        msgs = []
        for _ in range(5):
            idx = np.sort(rng.choice(30, size=8, replace=False))
            msgs.append(self._msg(idx, rng.standard_normal(8)))
        per = server_aggregate(msgs, 30, "per-component")
        div = server_aggregate(msgs, 30, "divide-by-n")
        np.testing.assert_array_equal(per.indices, div.indices)
        np.testing.assert_allclose(div.values,
                                   per.values * per.counts / len(msgs),
                                   rtol=1e-12)

    def test_unshared_coordinates_absent(self):
        agg = server_aggregate([self._msg([1, 5], [1.0, 2.0])], 6)
        np.testing.assert_array_equal(agg.indices, [1, 5])
        np.testing.assert_array_equal(agg.counts, [0, 1, 0, 0, 0, 1])

    @pytest.mark.parametrize("mode, weights", [
        ("per-component", None), ("per-component", np.array([0.25, 0.75])),
        ("divide-by-n", None)])
    def test_off_union_is_exact_zero(self, mode, weights):
        # Coordinate 1 is shared with the value 0: it still counts as shared.
        msgs = [self._msg([1, 4], [-0.0, 3.0]), self._msg([4], [5.0])]
        agg = server_aggregate(msgs, 6, mode, weights)
        off = [0, 2, 3, 5]
        assert agg.values.shape == agg.counts.shape == (6,)
        assert agg.values[off].tobytes() == np.zeros(4).tobytes()
        assert not agg.counts[off].any()
        np.testing.assert_array_equal(agg.indices, [1, 4])

    def test_weighted_mean(self):
        msgs = [self._msg([0], [1.0]), self._msg([0], [5.0])]
        agg = server_aggregate(msgs, 1, "per-component",
                               weights=np.array([0.75, 0.25]))
        np.testing.assert_allclose(agg.values, [0.75 * 1.0 + 0.25 * 5.0])

    def test_weights_rejected_outside_per_component(self):
        msgs = [self._msg([0], [1.0])]
        with pytest.raises(ContractViolationError):
            server_aggregate(msgs, 1, "divide-by-n", weights=np.array([1.0]))

    def test_mixed_rounds_rejected(self):
        msgs = [self._msg([0], [1.0], round=1), self._msg([0], [1.0], round=2)]
        with pytest.raises(ContractViolationError):
            server_aggregate(msgs, 1)

    def test_empty_input_rejected(self):
        with pytest.raises(ContractViolationError):
            server_aggregate([], 1)

    def test_index_outside_model_rejected(self):
        # A decoded u32 index can be far beyond the model; it must not size
        # the aggregation buffer.
        msgs = [self._msg([0, 2], [1.0, 2.0]),
                self._msg([1, 2 ** 32 - 1], [1.0, 2.0])]
        with pytest.raises(ContractViolationError):
            server_aggregate(msgs, 3)
        with pytest.raises(ContractViolationError):
            server_aggregate([self._msg([3], [1.0])], 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), d=st.integers(1, 40),
           kind=st.sampled_from(["per-component", "weighted", "divide-by-n"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_plain_loop_reference(self, data, n, d, kind, seed):
        rng = np.random.default_rng(seed)
        subsets = [sorted(data.draw(st.sets(st.integers(0, d - 1), max_size=d)))
                   for _ in range(n)]
        msgs = [self._msg(idx, rng.standard_normal(len(idx))) for idx in subsets]
        weights = rng.uniform(0.5, 1.5, n) if kind == "weighted" else None
        mode = "divide-by-n" if kind == "divide-by-n" else "per-component"
        agg = server_aggregate(msgs, d, mode, weights)

        union = sorted(set().union(*subsets))
        want, counts = [], []
        for j in union:
            contrib = [(i, float(m.values[subsets[i].index(j)]))
                       for i, m in enumerate(msgs) if j in subsets[i]]
            counts.append(len(contrib))
            if kind == "weighted":
                want.append(math.fsum(weights[i] * v for i, v in contrib)
                            / math.fsum(weights[i] for i, _ in contrib))
            else:
                total = math.fsum(v for _, v in contrib)
                want.append(total / (n if kind == "divide-by-n" else len(contrib)))

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


class TestApplyCorrection:
    def test_substitution_example(self):
        """shared={0}, global 1, own value 2, eta=0.1: coordinate 0 gains
        exactly 0.1 and everything else stays put."""
        client = _client()
        z = np.zeros(SPEC.dim)
        z[0] = 2.0
        w_start = client.weights.copy()
        msg = build_upload(client, z, 0.1, round=1)  # ceil(0.1 * 6) = 1 coord
        np.testing.assert_array_equal(msg.indices, [0])
        client.weights = w_start - 0.1 * z  # what a local round would leave

        agg = _agg(1, [0], [1.0], [2])
        before = client.weights.copy()
        delta = apply_correction(client, agg, eta=0.1)
        assert delta == 1.0  # |1 - 2|
        np.testing.assert_array_equal(client.weights[0], before[0] + 0.1)
        np.testing.assert_array_equal(client.weights[1:], before[1:])
        assert not client.pending

    def test_identical_clients_see_zero_correction(self):
        """When everyone uploads the same values the aggregate equals each
        client's own share and the correction is exactly zero."""
        shard = _client().shard
        clients = [ClientState(id=i, weights=init_params(SPEC, 0), shard=shard,
                               spec=SPEC, max_pending=8) for i in range(4)]
        msgs = []
        for c in clients:
            z = local_round(c, 2, 0.1, None, np.random.default_rng(1))
            msgs.append(build_upload(c, z, 0.5, round=1))
        agg = server_aggregate(msgs, SPEC.dim)
        trajectories = []
        for c in clients:
            assert apply_correction(c, agg, eta=0.1) == 0.0
            trajectories.append(c.weights)
        for w in trajectories[1:]:
            np.testing.assert_array_equal(w, trajectories[0])

    def test_round_mismatch_rejected(self):
        client = _client()
        build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        agg = _agg(2, [0], [1.0], [1])
        with pytest.raises(ProtocolError):
            apply_correction(client, agg, eta=0.1)

    def test_no_pending_rejected(self):
        client = _client()
        agg = _agg(1, [0], [1.0], [1])
        with pytest.raises(ProtocolError):
            apply_correction(client, agg, eta=0.1)

    @pytest.mark.parametrize("d", [SPEC.dim - 1, SPEC.dim + 1])
    def test_wrong_length_rejected(self, d):
        client = _client()
        build_upload(client, np.ones(SPEC.dim), 1.0, round=1)
        with pytest.raises(ContractViolationError):
            apply_correction(client, _agg(1, [0], [1.0], [1], d=d), eta=0.1)
        assert len(client.pending) == 1

    def test_full_support_scope_touches_aggregate_support(self):
        client = _client()
        z = np.zeros(SPEC.dim)
        z[0] = 2.0
        build_upload(client, z, 0.1, round=1)
        w_before = client.weights.copy()
        # Aggregate defines a coordinate this client never shared.
        agg = _agg(1, [0, 3], [2.0, 1.0], [1, 1])
        apply_correction(client, agg, eta=0.1, scope="full-support")
        np.testing.assert_array_equal(client.weights[3], w_before[3] - 0.1)

    def test_own_shared_scope_ignores_foreign_coordinates(self):
        client = _client()
        z = np.zeros(SPEC.dim)
        z[0] = 2.0
        build_upload(client, z, 0.1, round=1)
        w_before = client.weights.copy()
        agg = _agg(1, [0, 3], [2.0, 1.0], [1, 1])
        apply_correction(client, agg, eta=0.1)
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
            z = local_round(c, 1, eta, None, np.random.default_rng(0))
            z1.append(z)
            msgs1.append(build_upload(c, z, 0.5, round=1))
            sets1.append(msgs1[-1].indices)
        agg1 = server_aggregate(msgs1, SPEC.dim)

        # round 2: another local step, then the round-1 aggregate lands
        z2, msgs2 = [], []
        for c in clients:
            z2.append(local_round(c, 1, eta, None, np.random.default_rng(0)))
            msgs2.append(build_upload(c, z2[-1], 0.5, round=2))
        for c in clients:
            apply_correction(c, agg1, eta)
        agg2 = server_aggregate(msgs2, SPEC.dim)
        for c in clients:
            apply_correction(c, agg2, eta)

        # independent replay of the same schedule, straight-line
        for i, c in enumerate(clients):
            merged1 = z1[i].copy()
            merged1[sets1[i]] = agg1.values[sets1[i]]
            w_r1 = w0 - eta * merged1          # corrected end of round 1

            z2_set = topk_shared_indices(z2[i], 0.5)
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
        za = local_round(client, 2, eta, None, np.random.default_rng(0))
        build_upload(client, za, 0.5, round=1)
        zb = local_round(client, 2, eta, None, np.random.default_rng(0))
        build_upload(client, zb, 0.5, round=2)

        own = client.pending[0].shared
        g = np.full(own.shape[0], 0.25)
        agg = _agg(1, own, g, 1)
        apply_correction(client, agg, eta)

        merged = za.copy()
        merged[own] = g
        expect = (w0 - eta * merged) - eta * zb
        np.testing.assert_array_equal(client.weights, expect)
        assert len(client.pending) == 1
        assert client.pending[0].round == 2


class TestStaticPartialMask:
    def test_full_fraction(self):
        spec = ModelSpec(kind="logistic-regression", input_dim=3, num_classes=2)
        np.testing.assert_array_equal(static_partial_mask(spec, 1.0),
                                      np.arange(8))

    def test_quarter_of_logistic(self):
        # d = 8, ceil(0.25 * 8) = 2: the final two coordinates
        spec = ModelSpec(kind="logistic-regression", input_dim=3, num_classes=2)
        np.testing.assert_array_equal(static_partial_mask(spec, 0.25), [6, 7])

    def test_static_across_calls(self):
        spec = ModelSpec(kind="mlp", input_dim=4, num_classes=3, hidden_dims=(5,))
        np.testing.assert_array_equal(static_partial_mask(spec, 0.3),
                                      static_partial_mask(spec, 0.3))
