"""Top-K coordinate selection and the sparse gradient wire format.

A client shares the K = ceil(p * d) largest-magnitude coordinates of its
accumulated gradient and keeps the rest private. Selection runs in O(d):
one np.partition finds the K-th largest magnitude t, every coordinate
above t is kept, and the remaining slots go to the lowest-indexed
coordinates equal to t, so magnitude ties resolve toward the lower index
without a sort. Messages travel in a
little-endian binary layout ("DPG1"): 4-byte magic, u64 round, u8 rate
numerator (p * 10), u32 entry count, then the ascending u32 indices and
their f64 values. Index overhead is real and counted: 12 bytes per entry
against 8 for a dense value, whose coordinates the receiver already knows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DecodeError
from .ratewalk import N_STATES, grid_numerator

MAGIC = b"DPG1"
_HEADER = struct.Struct("<4sQBI")
HEADER_BYTES = _HEADER.size          # 17
VALUE_BYTES = 8                      # f64 value
ENTRY_BYTES = 4 + VALUE_BYTES        # u32 index + f64 value
U32_MAX = 2 ** 32 - 1                # bounds every index and the entry count


def shared_count(p: float, d: int) -> int:
    """K = ceil(p * d), computed exactly for grid rates."""
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"update rate must be in (0, 1], got {p}")
    if d < 1:
        raise ConfigurationError("vector length must be >= 1")
    num = grid_numerator(p)
    if num is not None:
        # Grid rate: integer ceil of (num * d) / 10 avoids float edge cases.
        return -((-num * d) // N_STATES)
    return math.ceil(p * d)


@dataclass(frozen=True, eq=False)
class SparseGradient:
    """Shared part of a gradient: ascending indices and their values."""

    round: int
    p: float
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        if idx.ndim != 1 or vals.ndim != 1 or idx.shape != vals.shape:
            raise ContractViolationError("indices and values must be 1-d and matched")
        if idx.size and (np.any(idx[:-1] >= idx[1:]) or idx[0] < 0):
            raise ContractViolationError("indices must be strictly ascending and >= 0")
        if self.round < 0:
            raise ContractViolationError("round must be >= 0")

    @property
    def count(self) -> int:
        return int(self.indices.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseGradient):
            return NotImplemented
        return (self.round == other.round and self.p == other.p
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.values, other.values))


def topk_shared_indices(z: np.ndarray, p: float) -> np.ndarray:
    """Indices of the K = ceil(p * d) largest |z| entries, sorted ascending.

    Runs in O(d) without a sort: t = the K-th largest |z| (np.partition),
    every |z| > t is kept, and the remaining slots go to the lowest-indexed
    entries where |z| == t. Magnitude ties therefore resolve toward the
    lower index, so the selection is a pure function of (z, p). z must be
    finite.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ContractViolationError("z must be a non-empty 1-d vector")
    if not np.isfinite(z).all():
        raise ContractViolationError("z must be finite")
    d = z.shape[0]
    k = shared_count(p, d)
    if k == d:
        return np.arange(d)
    mag = np.abs(z)
    t = np.partition(mag, d - k)[d - k]
    keep = mag >= t
    excess = np.count_nonzero(keep) - k
    if excess:  # more than K tie at t: the highest-indexed ties stay private
        keep[np.flatnonzero(mag == t)[-excess:]] = False
    return np.flatnonzero(keep)


def extract_shared(z: np.ndarray, shared: np.ndarray, round: int, p: float) -> SparseGradient:
    """Pull the shared coordinates of z into a message."""
    z = np.asarray(z, dtype=np.float64)
    shared = np.asarray(shared, dtype=np.int64)
    if shared.size and (shared[0] < 0 or shared[-1] >= z.shape[0]):
        raise ContractViolationError("shared indices out of range")
    return SparseGradient(round=round, p=p, indices=shared.copy(), values=z[shared])


def snap_rate(fraction: float) -> float:
    """Nearest grid rate for a free-form fraction (for the wire p field)."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    num = min(max(round(fraction * N_STATES), 1), N_STATES)
    return num / N_STATES


def payload_bytes(count: int, indexed: bool = True) -> int:
    """Bytes on the wire for `count` values: the header plus one entry each.

    An entry is an index and a value; a dense payload (indexed=False) sends
    the values alone.
    """
    return HEADER_BYTES + (ENTRY_BYTES if indexed else VALUE_BYTES) * count


def encode(msg: SparseGradient) -> bytes:
    """Serialize a message to the DPG1 layout."""
    if msg.count > U32_MAX:
        raise ContractViolationError("entry count exceeds u32")
    if msg.count and msg.indices[-1] > U32_MAX:
        raise ContractViolationError("index exceeds u32")
    if msg.round >= 2 ** 64:
        raise ContractViolationError("round exceeds u64")
    num = grid_numerator(msg.p)
    if num is None:
        raise ContractViolationError(
            f"wire format carries rates on the 0.1 grid only, got {msg.p}")
    head = _HEADER.pack(MAGIC, msg.round, num, msg.count)
    return (head
            + msg.indices.astype("<u4").tobytes()
            + msg.values.astype("<f8").tobytes())


def decode(data: bytes) -> SparseGradient:
    """Parse a DPG1 message; raises DecodeError with the offending offset."""
    if len(data) < HEADER_BYTES:
        raise DecodeError("message truncated inside header", len(data))
    magic, round_, num, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}", 0)
    if grid_numerator(num / N_STATES) != num:
        raise DecodeError(f"rate numerator {num} outside 1..{N_STATES}", 12)
    expected = payload_bytes(count)
    if len(data) != expected:
        raise DecodeError(
            f"length {len(data)} != {expected} required for {count} entries",
            min(len(data), expected))
    idx_end = HEADER_BYTES + 4 * count
    indices = np.frombuffer(data, dtype="<u4", count=count, offset=HEADER_BYTES)
    values = np.frombuffer(data, dtype="<f8", count=count, offset=idx_end)
    if count > 1:
        bad = np.nonzero(indices[:-1] >= indices[1:])[0]
        if bad.size:
            raise DecodeError("indices not strictly ascending",
                              HEADER_BYTES + 4 * (int(bad[0]) + 1))
    return SparseGradient(round=round_, p=num / N_STATES,
                          indices=indices.astype(np.int64),
                          values=values.astype(np.float64))
