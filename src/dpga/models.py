"""Flat-parameter classifiers with hand-written gradients.

All model state lives in a single float64 vector so that the exchange,
masking, and averaging layers can treat parameters and gradients as plain
coordinate vectors. Two architectures are supported: multinomial logistic
regression and a fully connected MLP (relu or tanh hidden units). Losses
are mean softmax cross-entropy; gradients are exact, not autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def dim(self) -> int:
        """Total number of parameters."""
        dims = self.layer_dims
        return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class Batch:
    """A block of examples: float64 features, integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2:
            raise ContractViolationError("features must be a 2-d array")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ContractViolationError("labels must be 1-d and match features")
        if feats.shape[0] < 1:
            raise ContractViolationError("batch must contain at least one example")
        if not np.all(np.isfinite(feats)):
            raise ContractViolationError("features must be finite")
        if np.any(labels < 0):
            raise ContractViolationError("labels must be non-negative")

    @property
    def size(self) -> int:
        return self.features.shape[0]


def _layer_views(params: np.ndarray, spec: ModelSpec):
    """Yield (W, b) views into the flat vector, layer by layer."""
    dims = spec.layer_dims
    off = 0
    out = []
    for a, b in zip(dims[:-1], dims[1:]):
        w = params[off:off + a * b].reshape(a, b)
        off += a * b
        bias = params[off:off + b]
        off += b
        out.append((w, bias))
    return out


def _check_args(params: np.ndarray, batch: Batch, spec: ModelSpec) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.shape[0] != spec.dim:
        raise ContractViolationError(
            f"parameter vector has length {params.shape}, spec needs {spec.dim}")
    if batch.features.shape[1] != spec.input_dim:
        raise ContractViolationError(
            f"batch feature dim {batch.features.shape[1]} != spec input_dim {spec.input_dim}")
    if np.any(batch.labels >= spec.num_classes):
        raise ContractViolationError("label out of range for spec.num_classes")
    return params


def init_params(spec: ModelSpec, seed) -> np.ndarray:
    """Deterministic initial parameters.

    Weights are uniform on +-sqrt(6 / (fan_in + fan_out)), biases zero.
    The same (spec, seed) pair always yields the identical vector.
    """
    rng = np.random.default_rng(seed)
    dims = spec.layer_dims
    parts = []
    for a, b in zip(dims[:-1], dims[1:]):
        lim = np.sqrt(6.0 / (a + b))
        parts.append(rng.uniform(-lim, lim, size=a * b))
        parts.append(np.zeros(b))
    return np.concatenate(parts)


def _forward(params: np.ndarray, batch: Batch, spec: ModelSpec):
    """Run the network; returns (logits, per-layer caches for backprop)."""
    layers = _layer_views(params, spec)
    acts = [batch.features]
    pres = []
    a = batch.features
    for li, (w, bias) in enumerate(layers):
        z = a @ w + bias
        if li < len(layers) - 1:
            pres.append(z)
            a = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
            acts.append(a)
        else:
            logits = z
    return logits, acts, pres


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # Max-subtracted log-sum-exp keeps this finite for any logit scale.
    shift = logits - logits.max(axis=1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))


def loss_and_gradient(params: np.ndarray, batch: Batch, spec: ModelSpec):
    """Mean cross-entropy loss and its exact gradient.

    Returns:
        (loss, grad): scalar float and a float64 vector of length spec.dim.
    """
    params = _check_args(params, batch, spec)
    logits, acts, pres = _forward(params, batch, spec)
    n = batch.size
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(n), batch.labels].mean())

    delta = np.exp(logp)
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    layers = _layer_views(params, spec)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        grads[li] = (acts[li].T @ delta, delta.sum(axis=0))
        if li > 0:
            delta = delta @ w.T
            if spec.activation == "relu":
                delta = delta * (pres[li - 1] > 0.0)
            else:
                t = np.tanh(pres[li - 1])
                delta = delta * (1.0 - t * t)

    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    if not np.isfinite(loss) or not np.all(np.isfinite(flat)):
        raise ContractViolationError("loss/gradient overflowed to non-finite values")
    return loss, flat


def finite_diff_check(params: np.ndarray, batch: Batch, spec: ModelSpec,
                      h: float = 1e-5, grad_fn=loss_and_gradient) -> float:
    """Max relative error of grad_fn's gradient vs central differences of
    the loss.

    Error per coordinate is |analytic - numeric| / max(1, |analytic|); the
    maximum over all coordinates is returned. grad_fn lets a test inject a
    broken gradient to prove the check has teeth.
    """
    params = _check_args(params, batch, spec)
    _, grad = grad_fn(params, batch, spec)
    worst = 0.0
    for j in range(params.shape[0]):
        bump = params.copy()
        bump[j] += h
        hi, _ = loss_and_gradient(bump, batch, spec)
        bump[j] = params[j] - h
        lo, _ = loss_and_gradient(bump, batch, spec)
        numeric = (hi - lo) / (2.0 * h)
        err = abs(grad[j] - numeric) / max(1.0, abs(grad[j]))
        worst = max(worst, err)
    return worst


def evaluate(params: np.ndarray, batch: Batch, spec: ModelSpec):
    """Mean loss and accuracy on a batch.

    Predictions take the argmax over logits; ties resolve to the lowest
    class index.
    """
    params = _check_args(params, batch, spec)
    logits, _, _ = _forward(params, batch, spec)
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(batch.size), batch.labels].mean())
    pred = np.argmax(logits, axis=1)
    acc = float(np.mean(pred == batch.labels))
    return loss, acc
