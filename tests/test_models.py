"""Model core: layout arithmetic, loss/gradient exactness, SGD identities."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpga import models
from dpga.errors import ConfigurationError, ContractViolationError
from dpga.models import (Batch, ModelSpec, evaluate, init_params, loss_and_gradient,
                         mean_loss)


def _joined(batches):
    """The examples of unstacked batches one after another, as one batch."""
    return Batch(np.concatenate([b.features for b in batches]),
                 np.concatenate([b.labels for b in batches]))


def _logistic(dim=3, classes=2):
    return ModelSpec(kind="logistic-regression", input_dim=dim, num_classes=classes)


class TestModelSpec:
    def test_logistic_dim(self):
        # input_dim * num_classes weights plus num_classes biases
        assert _logistic(3, 2).dim == 8

    def test_mlp_dim(self):
        spec = ModelSpec(kind="mlp", input_dim=3, num_classes=2, hidden_dims=(4,))
        assert spec.dim == 3 * 4 + 4 + 4 * 2 + 2 == 26

    def test_layer_dims(self):
        spec = ModelSpec(kind="mlp", input_dim=5, num_classes=3, hidden_dims=(7, 4))
        assert spec.layer_dims == (5, 7, 4, 3)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="cnn", input_dim=3, num_classes=2),
        dict(kind="logistic-regression", input_dim=3, num_classes=1),
        dict(kind="logistic-regression", input_dim=0, num_classes=2),
        dict(kind="logistic-regression", input_dim=3, num_classes=2,
             hidden_dims=(4,)),
        dict(kind="mlp", input_dim=3, num_classes=2),
        dict(kind="mlp", input_dim=3, num_classes=2, hidden_dims=(0,)),
        dict(kind="mlp", input_dim=3, num_classes=2, hidden_dims=(4,),
             activation="sigmoid"),
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelSpec(**kwargs)


class TestBatch:
    def test_coerces_dtypes(self):
        b = Batch([[1, 2]], [0])
        assert b.features.dtype == np.float64
        assert b.labels.dtype == np.int64
        assert b.size == 1

    def test_arrays_are_read_only(self):
        feats, labels = np.zeros((3, 2)), np.zeros(3, dtype=np.int64)
        b = Batch(feats, labels)
        with pytest.raises(ValueError):
            b.labels[0] = 5
        with pytest.raises(ValueError):
            b.features[0, 0] = np.inf
        # The caller's own arrays stay writable.
        labels[0] = 1
        feats[0, 0] = 2.0

    def test_rows_equal_a_fresh_batch(self):
        rng = np.random.default_rng(4)
        shard = Batch(rng.standard_normal((40, 5)), rng.integers(0, 7, 40))
        take = rng.choice(40, size=9, replace=False)
        sub = shard.rows(take)
        fresh = Batch(shard.features[take], shard.labels[take])
        for name in ("features", "labels"):
            got, want = getattr(sub, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            assert got.flags.c_contiguous and not got.flags.writeable
        with pytest.raises(ValueError):
            sub.labels[0] = 99
        # The sub-batch keeps the parent's bound, never a smaller one.
        assert sub.label_bound == shard.label_bound >= fresh.label_bound

    def test_rows_need_an_example(self):
        shard = Batch(np.zeros((3, 2)), [0, 1, 0])
        with pytest.raises(ContractViolationError):
            shard.rows(np.array([], dtype=np.int64))
        with pytest.raises(ContractViolationError, match="row axis"):
            shard.rows(0)  # one example without its row axis

    def test_equality_is_identity(self):
        a = Batch(np.zeros((2, 2)), [0, 1])
        b = Batch(np.zeros((2, 2)), [0, 1])
        assert a == a and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)

    def test_stacked_batches(self):
        b = Batch(np.zeros((3, 4, 2)), np.arange(12).reshape(3, 4))
        assert b.size == 12 and b.label_bound == 12
        shard = Batch(np.arange(10.0).reshape(5, 2), [0, 1, 2, 3, 4])
        sub = shard.rows(np.array([[4, 0], [1, 2]]))
        assert sub.features.shape == (2, 2, 2) and sub.labels.tolist() == [[4, 0], [1, 2]]
        pool = _joined([shard, Batch([[9.0, 9.0]], [7])])
        assert pool.size == 6 and pool.label_bound == 8
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((3, 4, 2)), np.zeros((3, 3), dtype=int))
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((0, 4, 2)), np.zeros((0, 4), dtype=int))
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((1, 3, 4, 2)), np.zeros((1, 3, 4), dtype=int))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ContractViolationError):
            Batch(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ContractViolationError):
            Batch([[np.inf, 0.0]], [0])
        with pytest.raises(ContractViolationError):
            Batch([[1.0, 0.0]], [-1])


def _positions(labels, num_classes):
    """Row starts and label positions in the flat logits, written out."""
    starts = np.arange(labels.size) * num_classes
    return starts, (starts + labels.reshape(-1)).reshape(labels.shape)


def _bits(result):
    """The float64 bytes of a kernel's result, a value or a tuple of them."""
    parts = result if isinstance(result, tuple) else (result,)
    return [np.asarray(x, dtype=np.float64).tobytes() for x in parts]


class TestLabelPositions:
    """A batch caches its label positions per number of classes in its
    own __dict__; nothing outside the batch holds them or it."""

    def test_positions_are_cached_read_only_per_class_count(self):
        b = Batch(np.zeros((4, 2)), [2, 0, 1, 2])
        for classes in (3, 5):
            got = b.label_positions(classes)
            assert b.label_positions(classes) is got
            for have, want in zip(got, _positions(b.labels, classes)):
                assert have.dtype == np.int64 and have.tolist() == want.tolist()
                assert not have.flags.writeable
        assert b.label_positions(3)[1].tolist() == [2, 3, 7, 11]

    def test_sub_batches_get_their_own_positions(self):
        """A rows() sub-batch, by index, slice or an (n, rows) take, never
        inherits its parent's positions and computes what a fresh batch of
        its rows computes."""
        rng = np.random.default_rng(12)
        spec = ModelSpec(kind="mlp", input_dim=3, num_classes=4, hidden_dims=(5,))
        shard = Batch(rng.standard_normal((10, 3)), rng.integers(0, 4, 10))
        shard.label_positions(4)
        for take in (np.array([7, 1, 4]), slice(2, 8), np.array([[0, 5, 9], [3, 3, 1]])):
            sub = shard.rows(take)
            assert "_label_positions" not in sub.__dict__
            for have, want in zip(sub.label_positions(4), _positions(sub.labels, 4)):
                assert have.tolist() == want.tolist()
            params = rng.standard_normal(sub.labels.shape[:-1] + (spec.dim,))
            fresh = Batch(sub.features.copy(), sub.labels.copy())
            for kernel in (loss_and_gradient, mean_loss):
                got, want = kernel(params, sub, spec), kernel(params, fresh, spec)
                assert _bits(got) == _bits(want)
        assert shard.label_positions(4)[1].shape == (10,)

    def test_one_batch_under_two_class_counts(self):
        """One batch alternates between a 3- and a 5-class model, and each
        call gives the loss and gradient of a fresh batch bit for bit."""
        rng = np.random.default_rng(13)
        b = Batch(rng.standard_normal((6, 2)), rng.integers(0, 3, 6))
        for classes in (3, 5, 3, 5):
            spec = _logistic(dim=2, classes=classes)
            params = rng.standard_normal(spec.dim)
            fresh = Batch(b.features.copy(), b.labels.copy())
            loss, grad = loss_and_gradient(params, b, spec)
            want_loss, want_grad = loss_and_gradient(params, fresh, spec)
            assert loss == want_loss and grad.tobytes() == want_grad.tobytes()
            assert mean_loss(params, b, spec) == want_loss
            ref_loss, ref_grad = _ref_loss_and_gradient(params, b.features, b.labels, spec)
            assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()
        assert sorted(b.__dict__["_label_positions"]) == [3, 5]

    def test_batch_is_collected_after_use(self):
        """No registry outside the batch keeps it, or its positions, alive."""
        spec = _logistic(dim=2, classes=3)
        b = Batch(np.ones((5, 2)), [0, 1, 2, 1, 0])
        stacked = b.rows(np.array([[0, 1], [2, 3]]))
        loss_and_gradient(np.zeros(spec.dim), b, spec)
        mean_loss(np.zeros((2, spec.dim)), stacked, spec)
        refs = [weakref.ref(x) for x in (b, stacked, b.label_positions(3)[1])]
        del b, stacked
        gc.collect()
        assert [r() for r in refs] == [None, None, None]


class TestLossAndGradient:
    def test_uniform_loss_at_zero(self):
        # All-zero parameters give uniform class probabilities.
        spec = _logistic(4, 2)
        batch = Batch(np.ones((3, 4)), [0, 1, 0])
        loss, _ = loss_and_gradient(np.zeros(spec.dim), batch, spec)
        assert loss == pytest.approx(np.log(2.0), abs=1e-15)

    def test_single_example_gradient(self):
        # x = [1, 0], label 0, zero weights: probabilities are (1/2, 1/2),
        # so dL/dlogits = (-1/2, +1/2) and only the first input row moves.
        spec = _logistic(2, 2)
        batch = Batch([[1.0, 0.0]], [0])
        loss, grad = loss_and_gradient(np.zeros(spec.dim), batch, spec)
        assert loss == pytest.approx(np.log(2.0), abs=1e-15)
        np.testing.assert_array_equal(grad, [-0.5, 0.5, 0.0, 0.0, -0.5, 0.5])

    def test_batch_gradient_is_size_weighted_mean_of_parts(self):
        rng = np.random.default_rng(11)
        spec = _logistic(3, 3)
        params = rng.standard_normal(spec.dim)
        fa, la = rng.standard_normal((2, 3)), rng.integers(0, 3, 2)
        fb, lb = rng.standard_normal((5, 3)), rng.integers(0, 3, 5)
        _, ga = loss_and_gradient(params, Batch(fa, la), spec)
        _, gb = loss_and_gradient(params, Batch(fb, lb), spec)
        _, gall = loss_and_gradient(
            params, Batch(np.vstack([fa, fb]), np.concatenate([la, lb])), spec)
        np.testing.assert_allclose(gall, (2 * ga + 5 * gb) / 7, rtol=1e-12, atol=1e-15)

    def test_loss_matches_naive_per_sample_computation(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec(kind="mlp", input_dim=3, num_classes=3,
                         hidden_dims=(4,), activation="tanh")
        params = rng.standard_normal(spec.dim)
        feats = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, 6)
        loss, _ = loss_and_gradient(params, Batch(feats, labels), spec)

        # Re-derive sample by sample with explicit matrix slices.
        w1 = params[:12].reshape(3, 4)
        b1 = params[12:16]
        w2 = params[16:28].reshape(4, 3)
        b2 = params[28:31]
        total = 0.0
        for x, y in zip(feats, labels):
            h = np.tanh(x @ w1 + b1)
            logits = h @ w2 + b2
            probs = np.exp(logits) / np.exp(logits).sum()
            total += -np.log(probs[y])
        assert loss == pytest.approx(total / 6, rel=1e-12)

    def test_extreme_logits_stay_finite(self):
        spec = _logistic(2, 2)
        batch = Batch([[1e3, -1e3]], [1])
        loss, grad = loss_and_gradient(np.ones(spec.dim), batch, spec)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_wrong_param_length_rejected(self):
        spec = _logistic(2, 2)
        batch = Batch([[1.0, 0.0]], [0])
        with pytest.raises(ContractViolationError):
            loss_and_gradient(np.zeros(spec.dim + 1), batch, spec)

    def test_label_out_of_range_rejected(self):
        spec = _logistic(2, 2)
        with pytest.raises(ContractViolationError):
            loss_and_gradient(np.zeros(spec.dim), Batch([[1.0, 0.0]], [2]), spec)

    def test_label_out_of_range_rejected_through_rows(self):
        spec = _logistic(2, 2)
        shard = Batch([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 2, 1])
        for take in ([1], [0, 1, 2]):
            with pytest.raises(ContractViolationError):
                loss_and_gradient(np.zeros(spec.dim), shard.rows(np.array(take)), spec)
            with pytest.raises(ContractViolationError):
                mean_loss(np.zeros(spec.dim), shard.rows(np.array(take)), spec)
            with pytest.raises(ContractViolationError):
                evaluate(np.zeros(spec.dim), shard.rows(np.array(take)), spec)

    def test_overflowing_gradient_rejected(self):
        # Class 1 dominates, so delta is (-1, +1); back through hidden
        # weights of -/+1e308 it sums to inf while the loss stays finite.
        spec = ModelSpec(kind="mlp", input_dim=2, num_classes=2, hidden_dims=(2,),
                         activation="tanh")
        params = np.zeros(spec.dim)
        w2 = params[6:10].reshape(2, 2)
        w2[:, 0], w2[:, 1] = -1e308, 1e308
        params[10:12] = [0.0, 1000.0]
        batch = Batch([[1.0, 1.0]], [0])
        assert np.isfinite(mean_loss(params, batch, spec))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolationError, match="non-finite"):
                loss_and_gradient(params, batch, spec)

    def test_feature_dim_mismatch_rejected(self):
        spec = _logistic(2, 2)
        with pytest.raises(ContractViolationError):
            loss_and_gradient(np.zeros(spec.dim), Batch([[1.0, 0.0, 2.0]], [0]), spec)

    def test_checks_hold_for_sub_batches(self):
        spec = _logistic(2, 2)
        shard = Batch(np.ones((4, 2)), [0, 1, 1, 0])
        sub = shard.rows(np.array([2, 0]))
        with pytest.raises(ContractViolationError):
            loss_and_gradient(np.zeros(spec.dim + 1), sub, spec)
        with pytest.raises(ContractViolationError):
            loss_and_gradient(np.zeros(_logistic(3, 2).dim), sub, _logistic(3, 2))


# ---- reference kernel ---- #
# A straight-line copy of the forward pass, loss_and_gradient and evaluate
# as written before the layer layout was cached, the temporaries were
# reused and evaluation split into mean_loss and evaluate. The lean kernel
# must match it bit for bit.

def _ref_forward(params, feats, labels, spec):
    dims = spec.layer_dims
    off, layers = 0, []
    for a, b in zip(dims[:-1], dims[1:]):
        w = params[off:off + a * b].reshape(a, b)
        off += a * b
        layers.append((w, params[off:off + b]))
        off += b
    acts = [feats]
    for w, bias in layers[:-1]:
        z = acts[-1] @ w + bias
        acts.append(np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z))
    w, bias = layers[-1]
    logits = acts[-1] @ w + bias
    shift = logits - logits.max(axis=1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(feats.shape[0]), labels].mean())
    return layers, acts, logits, logp, loss


def _ref_loss_and_gradient(params, feats, labels, spec):
    layers, acts, _, logp, loss = _ref_forward(params, feats, labels, spec)
    n = feats.shape[0]
    delta = np.exp(logp)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad = np.empty(spec.dim)
    dims = spec.layer_dims
    off, views = 0, []
    for a, b in zip(dims[:-1], dims[1:]):
        views.append((grad[off:off + a * b].reshape(a, b), grad[off + a * b:off + a * b + b]))
        off += a * b + b
    for li, (gw, gb) in reversed(list(enumerate(views))):
        gw[...] = acts[li].T @ delta
        gb[...] = delta.sum(axis=0)
        if li > 0:
            delta = delta @ layers[li][0].T
            a = acts[li]
            delta = delta * ((a > 0.0) if spec.activation == "relu" else (1.0 - a * a))
    return loss, grad


def _ref_evaluate(params, feats, labels, spec):
    _, _, logits, _, loss = _ref_forward(params, feats, labels, spec)
    return loss, float(np.mean(np.argmax(logits, axis=1) == labels))


@st.composite
def _kernel_cases(draw):
    kind = draw(st.sampled_from(["logistic-regression", "mlp"]))
    hidden = (tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
              if kind == "mlp" else ())
    spec = ModelSpec(kind=kind, input_dim=draw(st.integers(1, 12)),
                     num_classes=draw(st.integers(2, 8)), hidden_dims=hidden,
                     activation=draw(st.sampled_from(["relu", "tanh"])))
    n = draw(st.integers(1, 64))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 100.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = scale * rng.standard_normal((n, spec.input_dim))
    labels = rng.integers(0, spec.num_classes, n)
    return spec, rng.standard_normal(spec.dim), feats, labels


class TestLeanKernel:
    @given(_kernel_cases())
    def test_matches_reference_bitwise(self, case):
        spec, params, feats, labels = case
        batch = Batch(feats, labels)
        loss, grad = loss_and_gradient(params, batch, spec)
        ref_loss, ref_grad = _ref_loss_and_gradient(params, feats, labels, spec)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        ref_eval_loss, ref_acc = _ref_evaluate(params, feats, labels, spec)
        assert mean_loss(params, batch, spec) == ref_eval_loss
        assert evaluate(params, batch, spec) == ref_acc
        # Stacked: the batch under params and its rows reversed under -params.
        flip = np.arange(feats.shape[0])[::-1]
        cases = [(params, feats, labels), (-params, feats[flip], labels[flip])]
        stacked_params = np.stack([c[0] for c in cases])
        stacked = Batch(np.stack([c[1] for c in cases]), np.stack([c[2] for c in cases]))
        losses = mean_loss(stacked_params, stacked, spec)
        accs = evaluate(stacked_params, stacked, spec)
        for i, case_i in enumerate(cases):
            assert (losses[i], accs[i]) == _ref_evaluate(*case_i, spec)
        # A trusted sub-batch computes the same as a fresh batch of its rows.
        sub_loss, sub_grad = loss_and_gradient(params, batch.rows(flip), spec)
        fresh_loss, fresh_grad = loss_and_gradient(params, Batch(feats[flip], labels[flip]), spec)
        assert sub_loss == fresh_loss and np.array_equal(sub_grad, fresh_grad)


# Entries on which a max can go wrong: signed zeros, infinities and NaNs
# of either sign, among ordinary values.
_MAX_ENTRIES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf,
                         np.nan, np.copysign(np.nan, -1.0)])


@st.composite
def _logit_rows(draw):
    rows, classes = draw(st.integers(1, 3000)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(_MAX_ENTRIES, size=(rows, classes))


def _check_class_max(logits, class_max=models._class_max):
    starts = np.arange(0, logits.size, logits.shape[-1])
    got = class_max(logits.reshape(-1), starts)
    want = np.maximum.reduce(logits, axis=-1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _skips_last_class(flat, starts):
    """A broken class max that never looks at the last class."""
    return np.maximum.reduce(flat.reshape(starts.shape[0], -1)[:, :-1], axis=-1)


class TestClassMax:
    """The reduceat class max has np.maximum.reduce's bits, entry for entry."""

    @given(_logit_rows())
    def test_equals_maximum_reduce(self, logits):
        _check_class_max(logits)

    def test_skipping_the_last_class_fails(self):
        with pytest.raises(AssertionError):
            given(_logit_rows())(
                lambda logits: _check_class_max(logits, _skips_last_class))()


@st.composite
def _stacked_cases(draw, min_n=1):
    kind = draw(st.sampled_from(["logistic-regression", "mlp"]))
    hidden = (tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
              if kind == "mlp" else ())
    spec = ModelSpec(kind=kind, input_dim=draw(st.integers(1, 12)),
                     num_classes=draw(st.integers(2, 8)), hidden_dims=hidden,
                     activation=draw(st.sampled_from(["relu", "tanh"])))
    n, rows = draw(st.integers(min_n, 8)), draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = rng.standard_normal((n, rows, spec.input_dim))
    labels = rng.integers(0, spec.num_classes, (n, rows))
    return spec, rng.standard_normal((n, spec.dim)), feats, labels


def _pooled_bias(params, batch, spec):
    """A broken stacked kernel: each bias gradient is also summed over the
    client axis, as a reduction over axes (0, 1) instead of the rows alone
    would do."""
    losses, grads = loss_and_gradient(params, batch, spec)
    if grads.ndim == 2:
        for _, b0, b1, _, _ in spec.layout:
            grads[:, b0:b1] = np.add.reduce(grads[:, b0:b1], axis=0)
    return losses, grads


def _check_stacked(case, kernel=loss_and_gradient):
    spec, params, feats, labels = case
    stacked = Batch(feats, labels)
    losses, grads = kernel(params, stacked, spec)
    accs = evaluate(params, stacked, spec)
    assert losses.shape == accs.shape == (feats.shape[0],)
    for i in range(feats.shape[0]):
        one = Batch(feats[i], labels[i])
        loss, grad = loss_and_gradient(params[i], one, spec)
        assert losses[i] == loss and np.array_equal(grads[i], grad)
        assert accs[i] == evaluate(params[i], one, spec)


class TestStackedKernel:
    """A stacked call equals one 2-d call per batch, bit for bit."""

    @given(_stacked_cases())
    def test_equals_separate_calls(self, case):
        _check_stacked(case)

    def test_pooled_bias_gradient_fails(self):
        with pytest.raises(AssertionError):
            given(_stacked_cases(min_n=2))(
                lambda case: _check_stacked(case, _pooled_bias))()

    def test_checks_hold(self):
        spec = _logistic(2, 3)
        stacked = Batch(np.ones((2, 3, 2)), [[0, 1, 2], [2, 1, 0]])
        loss_and_gradient(np.zeros((2, spec.dim)), stacked, spec)
        for params in (np.zeros((2, spec.dim + 1)), np.zeros((3, spec.dim)),
                       np.zeros(spec.dim)):
            with pytest.raises(ContractViolationError):
                loss_and_gradient(params, stacked, spec)
        with pytest.raises(ContractViolationError):
            loss_and_gradient(np.zeros((2, spec.dim)), stacked, _logistic(2, 2))
        with pytest.raises(ContractViolationError):
            loss_and_gradient(np.zeros((2, spec.dim)), stacked, _logistic(3, 3))


class TestInitParams:
    def test_deterministic(self):
        spec = ModelSpec(kind="mlp", input_dim=4, num_classes=3, hidden_dims=(6,))
        np.testing.assert_array_equal(init_params(spec, 42), init_params(spec, 42))
        assert not np.array_equal(init_params(spec, 42), init_params(spec, 43))

    def test_bounds_and_zero_biases(self):
        spec = ModelSpec(kind="mlp", input_dim=4, num_classes=3, hidden_dims=(6,))
        params = init_params(spec, 0)
        assert params.shape == (spec.dim,)
        w1 = params[:24]
        b1 = params[24:30]
        w2 = params[30:48]
        b2 = params[48:51]
        assert np.all(np.abs(w1) <= np.sqrt(6.0 / 10))
        assert np.all(np.abs(w2) <= np.sqrt(6.0 / 9))
        np.testing.assert_array_equal(b1, np.zeros(6))
        np.testing.assert_array_equal(b2, np.zeros(3))


class TestEvaluate:
    def test_argmax_ties_take_lowest_class(self):
        # Zero parameters make every logit equal; prediction must be class 0.
        spec = _logistic(2, 3)
        batch = Batch([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1, 2])
        acc = evaluate(np.zeros(spec.dim), batch, spec)
        assert acc == pytest.approx(1.0 / 3.0)

    def test_perfect_separation(self):
        spec = _logistic(2, 2)
        # Weights aligned with the features: class 0 on +x, class 1 on +y.
        params = np.array([5.0, -5.0, -5.0, 5.0, 0.0, 0.0])
        batch = Batch([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        acc = evaluate(params, batch, spec)
        loss = mean_loss(params, batch, spec)
        assert acc == 1.0
        assert loss < 1e-3

    def test_non_finite_logits_rejected(self):
        # Logits of 2e308 overflow to inf; accuracy is not taken on them.
        spec = _logistic(1, 2)
        params = np.array([1e308, -1e308, 0.0, 0.0])
        batch = Batch([[2.0]], [0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolationError, match="non-finite"):
                evaluate(params, batch, spec)
            with pytest.raises(ContractViolationError, match="non-finite"):
                mean_loss(params, batch, spec)
