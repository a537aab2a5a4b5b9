"""Rate walk: one-step matrix, m-step law vs path enumeration, sampling."""

from fractions import Fraction

import numpy as np
import pytest

from dpga.checks import enumerate_transition
from dpga.errors import ConfigurationError
from dpga.ratewalk import (GRID, MAX_STEPS, N_STATES, RateState, m_step_matrix,
                           one_step_matrix, state_index, transition_distribution)


class TestOneStepMatrix:
    def test_interior_row(self):
        assert transition_distribution(0.5, 1) == {0.4: 0.5, 0.6: 0.5}

    def test_lower_boundary_holds(self):
        assert transition_distribution(0.1, 1) == {0.1: 0.5, 0.2: 0.5}

    def test_upper_boundary_holds(self):
        assert transition_distribution(1.0, 1) == {0.9: 0.5, 1.0: 0.5}

    def test_rows_sum_to_one(self):
        np.testing.assert_allclose(one_step_matrix().sum(axis=1), np.ones(10),
                                   rtol=0, atol=0)


class TestTransitionDistribution:
    def test_two_steps_from_center(self):
        assert transition_distribution(0.5, 2) == {0.3: 0.25, 0.5: 0.5, 0.7: 0.25}

    def test_two_steps_from_boundary(self):
        assert transition_distribution(0.1, 2) == {0.1: 0.5, 0.2: 0.25, 0.3: 0.25}

    def test_zero_steps_is_identity(self):
        assert transition_distribution(0.7, 0) == {0.7: 1.0}

    def test_matches_path_enumeration(self):
        """Brute-force all 2^m coin paths and compare coordinate-wise."""
        for m in range(0, 9):
            for p in GRID:
                got = transition_distribution(float(p), m)
                want = enumerate_transition(float(p), m)
                assert set(got) == set(want)
                for k in want:
                    assert abs(got[k] - want[k]) <= 1e-12
                assert abs(sum(got.values()) - 1.0) <= 1e-12

    def test_interior_symmetry_and_mean(self):
        # With the full step range inside the grid the law is symmetric
        # about the start, so its mean is the start itself.
        for p, m in [(0.5, 2), (0.5, 4), (0.4, 3), (0.6, 3)]:
            dist = transition_distribution(p, m)
            mean = sum(k * v for k, v in dist.items())
            assert mean == pytest.approx(p, abs=1e-12)
            for k, v in dist.items():
                mirror = round(2 * p - k, 10)
                assert dist[mirror] == pytest.approx(v, abs=1e-12)

    def test_monotone_gap_decay(self):
        # Interior: probability never grows with the distance from the start.
        for m in (2, 3, 4):
            dist = transition_distribution(0.5, m)
            gaps = sorted(round(abs(k - 0.5), 10) for k in dist)
            probs = [max(dist.get(round(0.5 + g, 10), 0.0),
                         dist.get(round(0.5 - g, 10), 0.0)) for g in gaps]
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_rows_of_m_step_matrix_are_stochastic(self):
        for m in (0, 1, 5, 16):
            rows = m_step_matrix(m)
            np.testing.assert_allclose(rows.sum(axis=1), np.ones(10), atol=1e-12)
            assert np.all(rows >= 0.0)

    def test_off_grid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            transition_distribution(0.55, 2)
        with pytest.raises(ConfigurationError):
            state_index(0.0)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            m_step_matrix(-1)

    def test_step_count_capped_where_rows_stay_stochastic(self):
        with pytest.raises(ConfigurationError):
            m_step_matrix(MAX_STEPS + 1)
        state = RateState(0.5, MAX_STEPS, np.random.default_rng(2))
        for _ in range(50):
            assert state.sample() in GRID

    def test_float_power_exact_through_56_steps(self):
        one = [[Fraction(0)] * N_STATES for _ in range(N_STATES)]
        for i in range(N_STATES):
            one[i][max(i - 1, 0)] += Fraction(1, 2)
            one[i][min(i + 1, N_STATES - 1)] += Fraction(1, 2)
        exact = [[Fraction(int(i == j)) for j in range(N_STATES)]
                 for i in range(N_STATES)]
        for m in range(1, 58):
            exact = [[sum(exact[i][k] * one[k][j] for k in range(N_STATES))
                      for j in range(N_STATES)] for i in range(N_STATES)]
            got = m_step_matrix(m)
            same = all(Fraction(float(got[i, j])) == exact[i][j]
                       for i in range(N_STATES) for j in range(N_STATES))
            assert same == (m <= 56), m


class TestSampling:
    def test_zero_steps_keeps_rate_and_rng(self):
        state = RateState(0.6, 0, np.random.default_rng(5))
        before = state.rng.bit_generator.state
        assert state.sample() == 0.6
        assert state.sample() == 0.6
        assert state.rng.bit_generator.state == before

    def test_same_seed_same_sequence(self):
        a = RateState(0.5, 2, np.random.default_rng(11))
        b = RateState(0.5, 2, np.random.default_rng(11))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_stays_on_grid(self):
        state = RateState(0.5, 3, np.random.default_rng(1))
        for _ in range(200):
            p = state.sample()
            assert round(p * 10) == pytest.approx(p * 10, abs=1e-12)
            assert 0.1 <= p <= 1.0

    def test_empirical_frequencies_match_law(self):
        """10^5 draws from (p=0.5, m=2) against {0.25, 0.5, 0.25} within
        three binomial standard deviations."""
        n = 100_000
        state = RateState(0.5, 2, np.random.default_rng(1234))
        counts = {0.3: 0, 0.5: 0, 0.7: 0}
        for _ in range(n):
            state.p = 0.5  # resample from the same start every time
            counts[state.sample()] += 1
        for value, prob in [(0.3, 0.25), (0.5, 0.5), (0.7, 0.25)]:
            sigma = np.sqrt(prob * (1 - prob) / n)
            assert abs(counts[value] / n - prob) < 3 * sigma
