"""Synthetic data generation and the (alpha, rho) shard partitioner."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpga.data import (CLASS_SEPARATION, PartitionConfig, _largest_remainder,
                       gen_synthetic, partition)
from dpga.errors import ConfigurationError, ContractViolationError
from dpga.models import ModelSpec, evaluate, loss_and_gradient


class TestGenSynthetic:
    def test_shapes_and_label_counts(self):
        ds = gen_synthetic(num_classes=10, dim=8, per_class=50, spread=1.0, seed=3)
        assert ds.features.shape == (500, 8)
        assert ds.labels.shape == (500,)
        vals, counts = np.unique(ds.labels, return_counts=True)
        np.testing.assert_array_equal(vals, np.arange(10))
        np.testing.assert_array_equal(counts, np.full(10, 50))

    def test_deterministic_in_seed(self):
        a = gen_synthetic(3, 5, 20, 0.7, seed=9)
        b = gen_synthetic(3, 5, 20, 0.7, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = gen_synthetic(3, 5, 20, 0.7, seed=10)
        assert not np.array_equal(a.features, c.features)

    def test_class_means_well_separated(self):
        # dim >= classes puts the means on orthogonal directions, so every
        # pair sits at distance sqrt(2) * radius.
        ds = gen_synthetic(4, 6, 200, spread=0.0, seed=1)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                dist = np.linalg.norm(means[i] - means[j])
                assert dist == pytest.approx(np.sqrt(2) * CLASS_SEPARATION,
                                             rel=1e-9)

    def test_low_spread_is_linearly_separable(self):
        """A fitted logistic regression reaches accuracy 1.0 as spread -> 0."""
        ds = gen_synthetic(3, 6, 30, spread=0.01, seed=12)
        spec = ModelSpec(kind="logistic-regression", input_dim=6, num_classes=3)
        w = np.zeros(spec.dim)
        for _ in range(200):
            _, g = loss_and_gradient(w, ds, spec)
            w = w - 0.5 * g
        acc = evaluate(w, ds, spec)
        assert acc == 1.0

    def test_narrow_input_still_works(self):
        ds = gen_synthetic(num_classes=5, dim=2, per_class=10, spread=0.5, seed=4)
        assert ds.features.shape == (50, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            gen_synthetic(1, 4, 10, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            gen_synthetic(3, 0, 10, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            gen_synthetic(3, 4, 10, -1.0, seed=0)


class TestLargestRemainder:
    def test_exact_proportions(self):
        np.testing.assert_array_equal(
            _largest_remainder(np.array([0.4, 0.4, 0.2]), 5), [2, 2, 1])

    def test_tie_goes_to_lower_slot(self):
        np.testing.assert_array_equal(
            _largest_remainder(np.array([0.5, 0.5]), 3), [2, 1])

    def test_sums_match_total(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            props = rng.dirichlet(np.full(n, 0.5))
            total = int(rng.integers(0, 500))
            counts = _largest_remainder(props, total)
            assert counts.sum() == total
            assert np.all(counts >= 0)


def _per_client_lists(labels, num_classes, cfg):
    """The partition rule dealt through per-client lists, kept as a
    reference: each present client takes its slice of every class, and
    each client's slices are joined and sorted once."""
    rng = np.random.default_rng(cfg.seed)
    per_client = [[] for _ in range(cfg.n_clients)]
    for c in range(num_classes):
        members = np.nonzero(labels == c)[0]
        while True:
            present = np.nonzero(rng.random(cfg.n_clients) < cfg.rho)[0]
            if present.size:
                break
        props = rng.dirichlet(np.full(present.size, cfg.alpha))
        counts = _largest_remainder(props, members.shape[0])
        stops = np.cumsum(counts)
        for client, start, stop in zip(present, stops - counts, stops):
            if stop > start:
                per_client[client].append(members[start:stop])
    return [np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
            for parts in per_client]


@st.composite
def _partition_cases(draw):
    """Labels (possibly none) over classes that may hold no example, and
    a partition config with rho at or below 1."""
    num_classes = draw(st.integers(0, 6))
    labels = draw(st.lists(st.integers(0, num_classes - 1), max_size=80)
                  if num_classes else st.just([]))
    cfg = PartitionConfig(alpha=draw(st.floats(0.05, 50.0)), rho=draw(st.floats(0.2, 1.0)),
                          n_clients=draw(st.integers(1, 9)),
                          seed=draw(st.integers(0, 2**32 - 1)))
    return np.array(labels, dtype=np.int64), num_classes, cfg


class TestPartition:
    @given(_partition_cases())
    def test_one_sort_equals_per_client_lists(self, case):
        """Dealing every shard by one stable sort over the owners gives
        each client exactly the shard the per-client lists give, in
        values and dtype, empty shards included."""
        labels, num_classes, cfg = case
        got, want = partition(labels, num_classes, cfg), _per_client_lists(*case)
        assert len(got) == len(want) == cfg.n_clients
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    def test_refuses_labels_it_cannot_deal(self):
        """A label outside 0..num_classes-1 belongs to no class, so no
        client could hold it; it is named, not silently dropped."""
        cfg = PartitionConfig(alpha=1.0, rho=1.0, n_clients=2, seed=3)
        with pytest.raises(ContractViolationError, match="label 5 is not a class in 0..1"):
            partition(np.array([0, 1, 5, -1, 1, 0]), 2, cfg)
        with pytest.raises(ContractViolationError, match="label -1 "):
            partition(np.array([0, -1]), 2, cfg)
        with pytest.raises(ContractViolationError, match="label 0 "):
            partition(np.array([0]), 0, cfg)

    def _cover_check(self, shards, n):
        joined = np.concatenate(shards)
        assert joined.shape[0] == n
        np.testing.assert_array_equal(np.sort(joined), np.arange(n))

    def test_disjoint_cover(self):
        ds = gen_synthetic(5, 4, 40, 1.0, seed=0)
        for seed in range(5):
            for alpha in (0.1, 1.0, 100.0):
                shards = partition(ds.labels, 5, PartitionConfig(
                    alpha=alpha, rho=1.0, n_clients=7, seed=seed))
                assert len(shards) == 7
                self._cover_check(shards, ds.size)

    def test_cover_holds_with_partial_presence(self):
        ds = gen_synthetic(4, 4, 30, 1.0, seed=2)
        shards = partition(ds.labels, 4, PartitionConfig(alpha=1.0, rho=0.4,
                                                         n_clients=6, seed=5))
        self._cover_check(shards, ds.size)

    def test_every_class_held_by_someone(self):
        ds = gen_synthetic(6, 4, 25, 1.0, seed=1)
        shards = partition(ds.labels, 6, PartitionConfig(alpha=0.5, rho=0.3,
                                                         n_clients=8, seed=3))
        hist = np.array([np.bincount(ds.labels[s], minlength=6) for s in shards])
        assert np.all(hist.sum(axis=0) == 25)
        assert np.all((hist > 0).any(axis=0))

    def test_high_alpha_approaches_even_split(self):
        """rho=1, alpha=1e6: every client's per-class share within +-20%
        of 1/N on a balanced dataset."""
        ds = gen_synthetic(10, 4, 100, 1.0, seed=7)
        shards = partition(ds.labels, 10, PartitionConfig(alpha=1e6, rho=1.0,
                                                          n_clients=10, seed=21))
        hist = np.array([np.bincount(ds.labels[s], minlength=10) for s in shards])
        share = hist / 100.0
        assert np.all(share >= 0.8 / 10)
        assert np.all(share <= 1.2 / 10)

    def test_low_alpha_is_skewed(self):
        """alpha=0.1 concentrates classes: some client gets more than half
        of its samples from a single class."""
        ds = gen_synthetic(10, 4, 100, 1.0, seed=7)
        shards = partition(ds.labels, 10, PartitionConfig(alpha=0.1, rho=1.0,
                                                          n_clients=10, seed=21))
        hist = np.array([np.bincount(ds.labels[s], minlength=10) for s in shards])
        sizes = hist.sum(axis=1)
        top_share = hist.max(axis=1)[sizes > 0] / sizes[sizes > 0]
        assert top_share.max() > 0.5

    def test_deterministic(self):
        ds = gen_synthetic(4, 3, 20, 1.0, seed=6)
        cfg = PartitionConfig(alpha=0.7, rho=0.8, n_clients=5, seed=13)
        a = partition(ds.labels, 4, cfg)
        b = partition(ds.labels, 4, cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_shards_are_sorted_int64(self):
        ds = gen_synthetic(3, 3, 15, 1.0, seed=0)
        for idx in partition(ds.labels, 3, PartitionConfig(1.0, 1.0, 4, seed=2)):
            assert idx.dtype == np.int64
            assert np.all(idx[:-1] < idx[1:]) if idx.size > 1 else True

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            PartitionConfig(alpha=0.0, rho=1.0, n_clients=3, seed=0)
        with pytest.raises(ConfigurationError):
            PartitionConfig(alpha=1.0, rho=0.0, n_clients=3, seed=0)
        with pytest.raises(ConfigurationError):
            PartitionConfig(alpha=1.0, rho=1.0, n_clients=0, seed=0)
        # One client present with probability 1e-9 never holds the class.
        labels = np.zeros(4, dtype=np.int64)
        with pytest.raises(ConfigurationError, match="presence set for class 0"):
            partition(labels, 1, PartitionConfig(1.0, 1e-9, 1, seed=0))


class TestPartitionStats:
    def test_counts_are_exact(self):
        ds = gen_synthetic(4, 3, 30, 1.0, seed=5)
        shards = partition(ds.labels, 4, PartitionConfig(1.0, 1.0, 6, seed=9))
        hist = np.array([np.bincount(ds.labels[s], minlength=4) for s in shards])
        assert hist.sum() == ds.size
        # Replay the partitioner's draws: at rho = 1 every client is
        # present, so each class takes one random(6) and one dirichlet.
        # Round them by an independent largest-remainder rule.
        rng = np.random.default_rng(9)
        for c in range(4):
            rng.random(6)
            exact = [float(p) * 30 for p in rng.dirichlet(np.ones(6))]
            counts = [math.floor(e) for e in exact]
            by_remainder = sorted(range(6), key=lambda k: (-(exact[k] - counts[k]), k))
            for k in by_remainder[:30 - sum(counts)]:
                counts[k] += 1
            assert hist[:, c].tolist() == counts

    @given(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=40),
           st.integers(0, 10_000), st.integers(0, 2**32 - 1))
    def test_largest_remainder_sums_and_stays_within_one(self, alpha, total, seed):
        props = np.random.default_rng(seed).dirichlet(alpha)
        counts = _largest_remainder(props, total)
        assert counts.sum() == total
        assert np.all(np.abs(counts - props * total) < 1.0)
