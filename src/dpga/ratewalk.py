"""Random walk over the update-rate grid {0.1, ..., 1.0}.

Each sampling event runs m fair-coin steps of size 0.1. Interior states
move up or down with probability 1/2 each; at the grid ends the outward
half of the coin mass stays put, so each single step is a reflecting-hold
move. The m-step law is the corresponding row of the one-step matrix
raised to the m-th power. Every entry is a multiple of 2**-m; float64
holds the power exactly up to m = 56, past that it rounds, and each row
sum drifts from 1 by about 6e-19 * m. No BLAS call computes the power,
so it rounds to the same bits whichever BLAS kernels a host selects.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# Rates are n / N_STATES for n = 1..N_STATES, so N_STATES is also the
# grid's denominator.
N_STATES = 10
GRID = np.arange(1, N_STATES + 1) / N_STATES
# At this many steps the row-sum drift is about 6e-10; a draw divides it
# out, as Generator.choice does, so it only bounds the law's error.
MAX_STEPS = 10 ** 9


def grid_numerator(p: float) -> int | None:
    """The n in 1..N_STATES with p * N_STATES within 1e-9 of n, or None when
    p is off the grid. Every rate on the grid is parsed here; a huge, an
    infinite or a NaN p is off it."""
    scaled = p * N_STATES
    if not abs(scaled) <= N_STATES + 1:
        return None
    num = round(scaled)
    if 1 <= num <= N_STATES and abs(scaled - num) <= 1e-9:
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
    """The one-step matrix to the m-th power in np.linalg.matrix_power's
    order, each product summed over k in order in numpy's own loops."""
    if not 0 <= m <= MAX_STEPS:
        raise ConfigurationError(f"step count m must be in 0..{MAX_STEPS}")
    def product(a, b):
        return functools.reduce(np.add, (a[:, k, None] * b[None, k] for k in range(N_STATES)))
    result, square = np.eye(N_STATES), one_step_matrix()
    for bit in reversed(f"{m:b}"):
        if bit == "1":
            result = product(result, square)
        square = product(square, square)
    return result


@functools.lru_cache(maxsize=16)
def _cdf_rows(m: int) -> tuple[tuple[float, ...], ...]:
    """The rows of m_step_matrix(m) as Generator.choice(p=row) sums them:
    cumulative, then divided by the last entry."""
    cdf = m_step_matrix(m).cumsum(axis=1)
    return tuple(map(tuple, (cdf / cdf[:, -1:]).tolist()))


@dataclass(eq=False)
class RateState:
    """Walk position plus its private random stream."""

    p: float
    m: int
    rng: np.random.Generator
    _cdf: tuple = field(init=False, repr=False)

    def __post_init__(self):
        state_index(self.p)
        self._cdf = _cdf_rows(self.m)

    def sample(self) -> float:
        """Advance the walk by one m-step draw and return the new rate:
        the state Generator.choice(N_STATES, p=row) would draw."""
        if self.m == 0:
            return self.p
        j = bisect_right(self._cdf[state_index(self.p)], self.rng.random())
        self.p = float(GRID[j])
        return self.p
