"""Synthetic data generation and the (alpha, rho) shard partitioner."""

import numpy as np
import pytest

from dpga.data import (CLASS_SEPARATION, PartitionConfig, _largest_remainder,
                       gen_synthetic, partition, partition_stats)
from dpga.errors import ConfigurationError
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
        _, acc = evaluate(w, ds, spec)
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


class TestPartition:
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
        hist, _ = partition_stats(shards, ds.labels, 6)
        assert np.all(hist.sum(axis=0) == 25)
        assert np.all((hist > 0).any(axis=0))

    def test_high_alpha_approaches_even_split(self):
        """rho=1, alpha=1e6: every client's per-class share within +-20%
        of 1/N on a balanced dataset."""
        ds = gen_synthetic(10, 4, 100, 1.0, seed=7)
        shards = partition(ds.labels, 10, PartitionConfig(alpha=1e6, rho=1.0,
                                                          n_clients=10, seed=21))
        hist, _ = partition_stats(shards, ds.labels, 10)
        share = hist / 100.0
        assert np.all(share >= 0.8 / 10)
        assert np.all(share <= 1.2 / 10)

    def test_low_alpha_is_skewed(self):
        """alpha=0.1 concentrates classes: some client gets more than half
        of its samples from a single class."""
        ds = gen_synthetic(10, 4, 100, 1.0, seed=7)
        shards = partition(ds.labels, 10, PartitionConfig(alpha=0.1, rho=1.0,
                                                          n_clients=10, seed=21))
        hist, sizes = partition_stats(shards, ds.labels, 10)
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


class TestPartitionStats:
    def test_counts_are_exact(self):
        ds = gen_synthetic(4, 3, 30, 1.0, seed=5)
        shards = partition(ds.labels, 4, PartitionConfig(1.0, 1.0, 6, seed=9))
        hist, sizes = partition_stats(shards, ds.labels, 4)
        assert hist.shape == (6, 4)
        np.testing.assert_array_equal(hist.sum(axis=1), sizes)
        assert sizes.sum() == ds.size
        for i, idx in enumerate(shards):
            for c in range(4):
                assert hist[i, c] == int(np.sum(ds.labels[idx] == c))
