"""Rate walk: one-step matrix, m-step law, sampling. The law against path
enumeration is the walk-enumeration suite in dpga.checks."""

import bisect
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpga import ratewalk
from dpga.errors import ConfigurationError
from dpga.ratewalk import (GRID, MAX_STEPS, N_STATES, RateState, m_step_matrix,
                           one_step_matrix, state_index)


def _row(p: float, m: int) -> np.ndarray:
    """The m-step law from rate p: its row of m_step_matrix."""
    return m_step_matrix(m)[state_index(p)]


def _law(probs: dict[float, float]) -> np.ndarray:
    """A law over the grid from {rate: probability}."""
    row = np.zeros(N_STATES)
    for p, prob in probs.items():
        row[state_index(p)] = prob
    return row


class TestOneStepMatrix:
    def test_interior_row(self):
        np.testing.assert_array_equal(_row(0.5, 1), _law({0.4: 0.5, 0.6: 0.5}))

    def test_lower_boundary_holds(self):
        np.testing.assert_array_equal(_row(0.1, 1), _law({0.1: 0.5, 0.2: 0.5}))

    def test_upper_boundary_holds(self):
        np.testing.assert_array_equal(_row(1.0, 1), _law({0.9: 0.5, 1.0: 0.5}))

    def test_rows_sum_to_one(self):
        np.testing.assert_allclose(one_step_matrix().sum(axis=1), np.ones(10),
                                   rtol=0, atol=0)


class TestTransitionDistribution:
    def test_two_steps_from_center(self):
        np.testing.assert_array_equal(_row(0.5, 2),
                                      _law({0.3: 0.25, 0.5: 0.5, 0.7: 0.25}))

    def test_two_steps_from_boundary(self):
        np.testing.assert_array_equal(_row(0.1, 2),
                                      _law({0.1: 0.5, 0.2: 0.25, 0.3: 0.25}))

    def test_zero_steps_is_identity(self):
        np.testing.assert_array_equal(_row(0.7, 0), _law({0.7: 1.0}))

    def test_interior_symmetry_and_mean(self):
        # With the full step range inside the grid the law is symmetric
        # about the start, so its mean is the start itself.
        for p, m in [(0.5, 2), (0.5, 4), (0.4, 3), (0.6, 3)]:
            row, i = _row(p, m), state_index(p)
            assert row @ GRID == pytest.approx(p, abs=1e-12)
            window = row[i - m:i + m + 1]
            assert window.sum() == 1.0
            np.testing.assert_allclose(window, window[::-1], rtol=0, atol=1e-12)

    def test_monotone_gap_decay(self):
        # Interior: probability never grows with the distance from the start.
        i = state_index(0.5)
        for m in (2, 3, 4):
            row = _row(0.5, m)
            probs = [max(row[i + g], row[i - g]) for g in range(m % 2, m + 1, 2)]
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_rows_of_m_step_matrix_are_stochastic(self):
        for m in (0, 1, 5, 16):
            rows = m_step_matrix(m)
            np.testing.assert_allclose(rows.sum(axis=1), np.ones(10), atol=1e-12)
            assert np.all(rows >= 0.0)

    def test_off_grid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            RateState(0.55, 2, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            state_index(0.0)

    @pytest.mark.parametrize("p", [1.797693134862316e307, -1e308, math.inf, math.nan])
    def test_rate_past_float_range_rejected(self, p):
        """A rate whose p * N_STATES overflows or is NaN is off the grid,
        not an OverflowError or ValueError from round()."""
        assert ratewalk.grid_numerator(p) is None
        with pytest.raises(ConfigurationError, match="grid"):
            state_index(p)

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

    def test_rounded_powers_equal_under_the_oldest_blas_kernels(self):
        """Past m = 56 the law rounds, and it rounds to the same bits under
        OpenBLAS's Nehalem kernels as here: no BLAS call computes it."""
        steps = (60, 100, MAX_STEPS)
        code = ("import sys; from dpga.ratewalk import m_step_matrix; "
                f"sys.stdout.write(''.join(m_step_matrix(m).tobytes().hex() for m in {steps}))")
        src = str(Path(ratewalk.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "".join(m_step_matrix(m).tobytes().hex() for m in steps)


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


# PCG64 moves its 128-bit state s to s * _PCG_MULT + inc, then outputs the
# new state's high and low halves XORed and rotated right by its top 6 bits.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STEP_COUNTS = (0, 1, 2, 3, 56, 10 ** 9)


def _generator_drawing(u: float) -> np.random.Generator:
    """A Generator whose next random() is u, a multiple of 2**-53 in [0, 1).

    random() is the top 53 bits of one 64-bit output over 2**53, and a
    state whose high half is 0 outputs its low half as is, so the state
    before it is solved for."""
    bits = np.random.PCG64(0)
    state = bits.state
    after = int(u * 2 ** 53) << 11
    state["state"]["state"] = ((after - state["state"]["inc"])
                               * pow(_PCG_MULT, -1, 2 ** 128) % 2 ** 128)
    bits.state = state
    return np.random.Generator(bits)


def _check_draw(i: int, m: int, u: float):
    """From state i, with u as the next draw, sample() returns what
    Generator.choice(p=row) returns and leaves the stream where it does
    (with m = 0 it draws nothing)."""
    ours, ref = _generator_drawing(u), _generator_drawing(u)
    want = float(GRID[ref.choice(N_STATES, p=m_step_matrix(m)[i])])
    assert _generator_drawing(u).random() == u
    assert RateState(float(GRID[i]), m, ours).sample() == want, (i, m, u)
    if m:
        assert ours.bit_generator.state == ref.bit_generator.state


def _check_cdf_edges(m: int):
    """Every start state, at each cumulative probability below 1 of its row
    (on the 2**-53 grid a draw lives on) and at the draw just below it."""
    for i in range(N_STATES):
        cdf = m_step_matrix(m)[i].cumsum()
        cdf /= cdf[-1]
        for c in cdf[cdf < 1.0]:
            k = math.floor(c * 2 ** 53)
            for u in {k, max(k - 1, 0)}:
                _check_draw(i, m, u / 2 ** 53)


class TestDrawsAsChoice:
    """sample() is Generator.choice(N_STATES, p=row) without its call
    overhead, draw for draw."""

    @pytest.mark.parametrize("m", _STEP_COUNTS)
    def test_cdf_edges(self, m):
        _check_cdf_edges(m)

    @settings(max_examples=200, deadline=None)
    @given(i=st.integers(0, N_STATES - 1), m=st.sampled_from(_STEP_COUNTS),
           k=st.integers(0, 2 ** 53 - 1))
    def test_any_draw(self, i, m, k):
        _check_draw(i, m, k / 2 ** 53)

    @settings(max_examples=30, deadline=None)
    @given(i=st.integers(0, N_STATES - 1), m=st.sampled_from(_STEP_COUNTS[1:]),
           seed=st.integers(0, 2 ** 64))
    def test_chained_draws(self, i, m, seed):
        state = RateState(float(GRID[i]), m, np.random.default_rng(seed))
        ref, rows, j = np.random.default_rng(seed), m_step_matrix(m), i
        for _ in range(200):
            j = ref.choice(N_STATES, p=rows[j])
            assert state.sample() == float(GRID[j])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bisect_left_fails(self, monkeypatch, m):
        """A draw equal to a cumulative entry goes to the next state; the
        left bisection keeps it in the state that entry closes."""
        monkeypatch.setattr(ratewalk, "bisect_right", bisect.bisect_left)
        with pytest.raises(AssertionError):
            _check_cdf_edges(m)
