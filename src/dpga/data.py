"""Synthetic classification data and non-IID client partitioning.

Clients receive disjoint shards controlled by two knobs: rho, the
Bernoulli probability that a (client, class) pair is eligible at all, and
alpha, the Dirichlet concentration that splits each class among its
eligible clients. Small alpha means a few clients dominate each class;
large alpha approaches an even split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .models import Batch

CLASS_SEPARATION = 3.0  # radius of the class-mean sphere

_MAX_PRESENCE_REDRAWS = 10000


@dataclass(frozen=True)
class PartitionConfig:
    alpha: float
    rho: float
    n_clients: int
    seed: int

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ConfigurationError("alpha must be > 0")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigurationError("rho must be in (0, 1]")
        if self.n_clients < 1:
            raise ConfigurationError("need at least one client")


def gen_synthetic(num_classes: int, dim: int, per_class: int, spread: float,
                  seed) -> Batch:
    """Gaussian blobs with well-separated class means.

    Means sit on a sphere of radius CLASS_SEPARATION: orthonormal
    directions (QR of a seeded Gaussian matrix) when dim >= num_classes,
    otherwise random unit directions. Features are mean + spread * noise;
    a spread so large that they overflow is a configuration error.
    """
    if num_classes < 2 or dim < 1 or per_class < 1:
        raise ConfigurationError("num_classes >= 2, dim >= 1, per_class >= 1 required")
    if spread < 0.0:
        raise ConfigurationError("spread must be >= 0")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, num_classes))
    if dim >= num_classes:
        q, _ = np.linalg.qr(raw)
        means = CLASS_SEPARATION * q[:, :num_classes].T
    else:
        means = raw.T / np.linalg.norm(raw.T, axis=1, keepdims=True) * CLASS_SEPARATION
    labels = np.repeat(np.arange(num_classes), per_class)
    noise = rng.standard_normal((labels.shape[0], dim))
    with np.errstate(over="raise"):
        try:
            features = means[labels] + spread * noise
        except FloatingPointError:
            raise ConfigurationError(
                f"dataset.spread {spread:g} overflows the features to inf") from None
    return Batch(features, labels)


def _largest_remainder(props: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, proportional to props."""
    exact = props * total
    counts = np.floor(exact).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        frac = exact - counts
        # Largest fractional part first; ties go to the lower slot.
        order = np.lexsort((np.arange(props.shape[0]), -frac))
        counts[order[:short]] += 1
    return counts


def partition(labels: np.ndarray, num_classes: int,
              cfg: PartitionConfig) -> list[np.ndarray]:
    """Split the examples with these labels into disjoint client shards.

    A label outside 0..num_classes-1 is refused before the first draw.
    For every class: draw per-client presence ~ Bernoulli(rho), redrawing
    until someone holds the class; then deal the class's examples, in
    index order, to the present clients by Dirichlet(alpha) proportions
    rounded by largest remainder; an alpha so large that the draw
    overflows is refused. One stable sort by owner returns
    ascending int64 index arrays, one per client, empty if it holds none.

    The same (labels, num_classes, cfg) always produces the same shards.
    """
    unknown = labels[~np.isin(labels, np.arange(num_classes))]
    if unknown.size:
        raise ContractViolationError(f"label {unknown[0]} is not a class in 0..{num_classes - 1}")
    rng = np.random.default_rng(cfg.seed)
    owner = np.empty(labels.shape[0], dtype=np.int64)
    for c in range(num_classes):
        members = np.nonzero(labels == c)[0]
        for attempt in range(_MAX_PRESENCE_REDRAWS):
            present = np.nonzero(rng.random(cfg.n_clients) < cfg.rho)[0]
            if present.size:
                break
        else:
            raise ConfigurationError(
                f"could not draw a non-empty presence set for class {c}")
        props = rng.dirichlet(np.full(present.size, cfg.alpha))
        if not props.sum() > 0.0:  # the gamma draws overflowed to inf
            raise ConfigurationError(
                f"alpha {cfg.alpha:g} is too large for a Dirichlet draw over "
                f"{present.size} clients")
        owner[members] = np.repeat(present, _largest_remainder(props, members.size))
    order = np.argsort(owner, kind="stable")
    return np.split(order, np.cumsum(np.bincount(owner, minlength=cfg.n_clients))[:-1])
