"""Flat-parameter classifiers with hand-written gradients.

All model state lives in a single float64 vector so that the exchange,
masking, and averaging layers can treat parameters and gradients as plain
coordinate vectors. Two architectures are supported: multinomial logistic
regression and a fully connected MLP (relu or tanh hidden units). Losses
are mean softmax cross-entropy; gradients are exact, not autodiff.

A `Batch` is checked once, at construction, and is read-only after that,
so each call only checks what depends on the spec: the parameter shape,
the feature dim and the batch's recorded label bound. `Batch.rows`
takes examples of a checked batch without a second check.

Batches of equal size can be stacked on a leading axis. With features
(n, rows, f) and labels (n, rows), the params are (n, d): the n batches
run through one forward and backward pass, and the call returns n losses
and an (n, d) gradient. Every matmul, reduction and elementwise step acts
on each batch alone, with the same expressions in the same order as a
single call, so the stacked result equals n separate calls bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ContractViolationError

KINDS = ("logistic-regression", "mlp")
ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; fixes the parameter layout.

    Parameters are packed layer by layer, each layer as a row-major
    (fan_in, fan_out) weight matrix followed by its fan_out bias entries.
    The output layer therefore occupies the tail of the vector.
    """

    kind: str
    input_dim: int
    num_classes: int
    hidden_dims: tuple[int, ...] = ()
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigurationError("hidden_dims must all be >= 1")
        if self.kind == "logistic-regression" and self.hidden_dims:
            raise ConfigurationError("logistic-regression takes no hidden layers")
        if self.kind == "mlp" and not self.hidden_dims:
            raise ConfigurationError("mlp needs at least one hidden layer")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.num_classes)

    @cached_property
    def layout(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """(weight start, bias start, bias end, fan_in, fan_out) per layer."""
        dims = self.layer_dims
        off, out = 0, []
        for a, b in zip(dims[:-1], dims[1:]):
            out.append((off, off + a * b, off + a * b + b, a, b))
            off += a * b + b
        return tuple(out)

    @cached_property
    def dim(self) -> int:
        """Total number of parameters."""
        return self.layout[-1][2]


def _frozen(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class Batch:
    """A block of examples: float64 features, integer class labels.

    The examples are checked once, here: finite features of shape
    (rows, f), or (n, rows, f) for n stacked batches of equal size, and one
    non-negative label per row. The stored arrays are read-only views, so
    no write through the batch can invalidate that check. `rows` takes
    examples of a checked batch without checking them again. Two batches
    are equal only when they are the same object.

    Like its label bound, a batch caches the positions a cross-entropy
    reads in its flat logits, per number of classes, in its own __dict__
    (see label_positions): they live and die with the batch, and a
    sub-batch from `rows` forms its own.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))
        if feats.ndim not in (2, 3):
            raise ContractViolationError("features must be a 2-d array, or "
                                         "3-d for stacked batches")
        if labels.shape != feats.shape[:-1]:
            raise ContractViolationError("labels must have one entry per feature row")
        if self.size < 1:
            raise ContractViolationError("batch must contain at least one example")
        if not np.all(np.isfinite(feats)):
            raise ContractViolationError("features must be finite")
        if np.any(labels < 0):
            raise ContractViolationError("labels must be non-negative")

    @classmethod
    def _trusted(cls, features: np.ndarray, labels: np.ndarray,
                 label_bound: int) -> Batch:
        batch = object.__new__(cls)
        object.__setattr__(batch, "features", _frozen(features))
        object.__setattr__(batch, "labels", _frozen(labels))
        if features.ndim < 2:
            raise ContractViolationError("a batch needs a row axis; an integer "
                                         "take picks one batch of a stack")
        if batch.size < 1:
            raise ContractViolationError("batch must contain at least one example")
        batch.__dict__["label_bound"] = label_bound
        return batch

    @property
    def size(self) -> int:
        """The number of examples, over all stacked batches."""
        return self.labels.size

    @cached_property
    def label_bound(self) -> int:
        """One more than the largest label: the fewest classes a spec needs."""
        return int(np.maximum.reduce(self.labels, axis=None)) + 1

    def rows(self, take: np.ndarray | slice | int) -> Batch:
        """The examples at `take`, without a second check.

        Rows of a checked batch are valid, so the sub-batch only takes
        copies of them and keeps this batch's label bound; it must still
        hold at least one example. An (n, rows) take gives n stacked
        batches, and a take with more axes stacks deeper. An integer or a
        slice takes a view instead of a copy.
        """
        return Batch._trusted(self.features[take], self.labels[take], self.label_bound)

    def label_positions(self, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
        """(starts, picks) in this batch's flat logits over num_classes
        classes: starts[i] = i * num_classes is where row i begins, and
        picks, shaped like labels, where each row's label entry lies.
        Both are read-only and formed once per num_classes."""
        cache = self.__dict__.setdefault("_label_positions", {})
        got = cache.get(num_classes)
        if got is None:
            starts = np.arange(0, self.size * num_classes, num_classes)
            picks = (starts + self.labels.reshape(-1)).reshape(self.labels.shape)
            got = cache[num_classes] = (_frozen(starts), _frozen(picks))
        return got


def _layer_views(params: np.ndarray, spec: ModelSpec):
    """(W, b) views into the flat vector, layer by layer: W is
    (fan_in, fan_out) and b is one (1, fan_out) row, so it broadcasts over
    a batch's rows. A leading axis of params carries through to both."""
    lead = params.shape[:-1]
    return [(params[..., w0:b0].reshape(lead + (a, b)), params[..., None, b0:b1])
            for w0, b0, b1, a, b in spec.layout]


def _check_args(params: np.ndarray, batch: Batch, spec: ModelSpec) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    want = batch.labels.shape[:-1] + (spec.dim,)
    if params.shape != want:
        raise ContractViolationError(
            f"parameters have shape {params.shape}; the batch and spec need {want}")
    if batch.features.shape[-1] != spec.input_dim:
        raise ContractViolationError(
            f"batch feature dim {batch.features.shape[-1]} != spec input_dim {spec.input_dim}")
    if batch.label_bound > spec.num_classes:
        raise ContractViolationError("label out of range for spec.num_classes")
    return params


def _per_batch(x):
    """A Python float for an unstacked batch, one entry per batch otherwise."""
    return float(x) if x.ndim == 0 else x


def init_params(spec: ModelSpec, seed) -> np.ndarray:
    """Deterministic initial parameters.

    Weights are uniform on +-sqrt(6 / (fan_in + fan_out)), biases zero.
    The same (spec, seed) pair always yields the identical vector.
    """
    rng = np.random.default_rng(seed)
    params = np.zeros(spec.dim)
    for w, _ in _layer_views(params, spec):
        lim = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-lim, lim, size=w.shape)
    return params


def _forward(params: np.ndarray, batch: Batch, spec: ModelSpec):
    """Run the network on a batch.

    Returns (layers, acts, logits): the (W, b) views of params, the input
    to each layer and the logits.
    """
    layers = _layer_views(params, spec)
    relu = spec.activation == "relu"
    acts = [batch.features]
    for w, bias in layers[:-1]:
        z = np.matmul(acts[-1], w)
        z += bias
        acts.append(np.maximum(z, 0.0, out=z) if relu else np.tanh(z, out=z))
    w, bias = layers[-1]
    logits = np.matmul(acts[-1], w)
    logits += bias
    return layers, acts, logits


def _class_max(flat: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The largest of each row's logits: flat holds the rows one after
    another and starts[i] is where row i begins. One reduceat over the
    flat array gives the bits np.maximum.reduce(axis=-1) gives, NaN and
    signed zeros included, in about half the time."""
    return np.maximum.reduceat(flat, starts)


def _shift_logits(logits: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Subtract each row's max from the logits in place, giving the shift,
    and return lognorm, the log of each row's sum of exp(shift), with a
    trailing axis of 1. The log-softmax is shift - lognorm. starts is
    where each row begins in the flat logits."""
    top = _class_max(logits.reshape(-1), starts)
    # Max-subtracted log-sum-exp keeps this finite for any logit scale.
    shift = np.subtract(logits, top.reshape(logits.shape[:-1] + (1,)), out=logits)
    norm = np.add.reduce(np.exp(shift), axis=-1, keepdims=True)
    return np.log(norm, out=norm)


def _mean_nll(picked: np.ndarray):
    """The mean cross-entropy of each batch from its label log-probabilities."""
    return -(np.add.reduce(picked, axis=-1) / picked.shape[-1])


def loss_and_gradient(params: np.ndarray, batch: Batch, spec: ModelSpec):
    """Mean cross-entropy loss and its exact gradient.

    Returns:
        (loss, grad): a float and a float64 vector of length spec.dim; for
        n stacked batches, n losses and an (n, spec.dim) array.
    """
    params = _check_args(params, batch, spec)
    layers, acts, logits = _forward(params, batch, spec)
    starts, picks = batch.label_positions(spec.num_classes)
    # The logits buffer becomes the log-softmax, then delta, in place.
    lognorm = _shift_logits(logits, starts)
    logits -= lognorm
    loss = _mean_nll(logits.reshape(-1)[picks])
    delta = np.exp(logits, out=logits)
    delta.reshape(-1)[picks] -= 1.0
    delta /= batch.labels.shape[-1]

    # Backpropagate, writing each layer's gradient into its views of grad.
    grad, lead = np.empty(params.shape), params.shape[:-1]
    for li in range(len(layers) - 1, -1, -1):
        w0, b0, b1, a, b = spec.layout[li]
        np.matmul(acts[li].swapaxes(-1, -2), delta,
                  out=grad[..., w0:b0].reshape(lead + (a, b)))
        np.add.reduce(delta, axis=-2, keepdims=True, out=grad[..., None, b0:b1])
        if li > 0:
            delta = np.matmul(delta, layers[li][0].swapaxes(-1, -2))
            a = acts[li]  # f(z) of the hidden layer below; f'(z) follows from it
            if spec.activation == "relu":
                delta *= a > 0.0
            else:
                da = np.multiply(a, a)
                delta *= np.subtract(1.0, da, out=da)
    return _finite_loss(loss, grad), grad


def _finite_loss(loss, grad=None):
    """The loss per batch, refused when it (or grad) is not finite."""
    loss = _per_batch(loss)
    # One float takes math.isfinite: np.isfinite(x).all() costs microseconds.
    finite = math.isfinite(loss) if isinstance(loss, float) else np.isfinite(loss).all()
    if not (finite and (grad is None or np.isfinite(grad).all())):
        raise ContractViolationError("loss/gradient overflowed to non-finite values")
    return loss


def mean_loss(params: np.ndarray, batch: Batch, spec: ModelSpec):
    """Mean cross-entropy on a batch: loss_and_gradient's loss, bit for bit,
    without the gradient.

    Only each row's label entry of the log-softmax is formed, as shift -
    lognorm with the same two roundings. Stacked batches give one loss
    each. A loss that is not finite breaks the contract.
    """
    params = _check_args(params, batch, spec)
    _, _, logits = _forward(params, batch, spec)
    starts, picks = batch.label_positions(spec.num_classes)
    lognorm = _shift_logits(logits, starts)
    picked = logits.reshape(-1)[picks]
    picked -= lognorm.reshape(picks.shape)
    return _finite_loss(_mean_nll(picked))


def evaluate(params: np.ndarray, batch: Batch, spec: ModelSpec):
    """Accuracy on a batch: the share of rows whose argmax over the logits
    is their label. Ties resolve to the lowest class index. Stacked
    batches give one accuracy each. No loss is formed (mean_loss gives
    it); logits that are not finite break the contract, as a non-finite
    loss does in mean_loss.
    """
    params = _check_args(params, batch, spec)
    _, _, logits = _forward(params, batch, spec)
    if not np.isfinite(logits).all():
        raise ContractViolationError("logits overflowed to non-finite values")
    return _per_batch(np.mean(np.argmax(logits, axis=-1) == batch.labels, axis=-1))
