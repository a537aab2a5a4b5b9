"""Random walk over the update-rate grid {0.1, ..., 1.0}.

Each sampling event runs m fair-coin steps of size 0.1. Interior states
move up or down with probability 1/2 each; at the grid ends the outward
half of the coin mass stays put, so each single step is a reflecting-hold
move. The m-step law is the corresponding row of the one-step matrix
raised to the m-th power. Every entry is a multiple of 2**-m; float64
holds the power exactly up to m = 56, past that it rounds, and each row
sum drifts from 1 by about 6e-19 * m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# Rates are n / N_STATES for n = 1..N_STATES, so N_STATES is also the
# grid's denominator.
N_STATES = 10
GRID = np.arange(1, N_STATES + 1) / N_STATES
# At this many steps the row-sum drift is about 6e-10, well inside the
# 1.5e-8 that Generator.choice tolerates; from about 2.4e10 it rejects rows.
MAX_STEPS = 10 ** 9


def grid_numerator(p: float) -> int | None:
    """The n in 1..N_STATES with p * N_STATES within 1e-9 of n, or None when
    p is off the grid. Every rate on the grid is parsed here."""
    num = round(p * N_STATES)
    if 1 <= num <= N_STATES and abs(p * N_STATES - num) <= 1e-9:
        return num
    return None


def state_index(p: float) -> int:
    """Grid index for a rate; rejects off-grid values."""
    num = grid_numerator(p)
    if num is None:
        raise ConfigurationError(f"rate {p} is not on the 0.1 grid")
    return num - 1


def one_step_matrix() -> np.ndarray:
    """Row-stochastic single-step transition matrix."""
    m = np.zeros((N_STATES, N_STATES))
    for i in range(N_STATES):
        m[i, max(i - 1, 0)] += 0.5
        m[i, min(i + 1, N_STATES - 1)] += 0.5
    return m


def m_step_matrix(m: int) -> np.ndarray:
    if not 0 <= m <= MAX_STEPS:
        raise ConfigurationError(f"step count m must be in 0..{MAX_STEPS}")
    return np.linalg.matrix_power(one_step_matrix(), m)


def transition_distribution(p: float, m: int) -> dict[float, float]:
    """Distribution of the rate after m steps from p; zero entries dropped."""
    row = m_step_matrix(m)[state_index(p)]
    return {float(GRID[j]): float(row[j]) for j in range(N_STATES) if row[j] > 0.0}


@dataclass(eq=False)
class RateState:
    """Walk position plus its private random stream."""

    p: float
    m: int
    rng: np.random.Generator
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        state_index(self.p)
        self._rows = m_step_matrix(self.m)

    @classmethod
    def from_seed(cls, p0: float, m: int, seed) -> "RateState":
        return cls(p=p0, m=m, rng=np.random.default_rng(seed))

    def sample(self) -> float:
        """Advance the walk by one m-step draw and return the new rate."""
        if self.m == 0:
            return self.p
        row = self._rows[state_index(self.p)]
        j = int(self.rng.choice(N_STATES, p=row))
        self.p = float(GRID[j])
        return self.p
