"""Top-K coordinate selection and the sparse gradient wire format.

A client shares the K = ceil(p * d) largest-magnitude coordinates of its
accumulated gradient and keeps the rest private. Selection runs in O(d):
one np.partition finds the K-th largest magnitude t, every coordinate
above t is kept, and the remaining slots go to the lowest-indexed
coordinates equal to t, so magnitude ties resolve toward the lower index
without a sort. A message carries the SharedSet it was cut by, which alone
checks its indices. Messages travel in a little-endian binary layout
("DPG1"): 4-byte magic, u64 round, u8 rate numerator (p * 10), u32 entry
count, then the ascending u32 indices and their f64 values. Index overhead
is real and counted: 12 bytes per entry against 8 for a dense value, whose
coordinates the receiver already knows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

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


def _checked_indices(indices, d: int) -> np.ndarray:
    """indices as int64, checked to be 1-d, strictly ascending and in 0..d-1."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ContractViolationError("shared indices must be 1-d")
    if idx.size and np.any(idx[:-1] >= idx[1:]):
        raise ContractViolationError("shared indices must be strictly ascending")
    if idx.size and (idx[0] < 0 or idx[-1] >= d):
        raise ContractViolationError("shared indices out of range")
    return idx


@dataclass(frozen=True, eq=False)
class SharedSet:
    """The coordinates of a length-d vector that go up, checked once.

    The indices are copied, checked to be strictly ascending and below d,
    and stored read-only. mask is the same set as d read-only bools, True
    at each index; Top-K and a fixed set hand theirs over when they build
    the set, and any other set forms it on first read, so a decoded set,
    which spans the wire's u32 range, holds none until it is read. A fixed
    shared set (every coordinate, or a static tail) is built once per
    run, and every message extract_shared builds from it carries this
    same set, with no copy and no second check. Two sets are equal only
    when they are the same object.
    """

    indices: np.ndarray
    d: int

    def __post_init__(self):
        idx = _checked_indices(self.indices, self.d).copy()
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def _trusted(cls, indices: np.ndarray, d: int,
                 mask: np.ndarray | None = None) -> SharedSet:
        """Int64 indices its maker built strictly ascending and below d,
        and, if it has it, the length-d bool mask of the same set."""
        indices.setflags(write=False)
        shared = object.__new__(cls)
        object.__setattr__(shared, "indices", indices)
        object.__setattr__(shared, "d", d)
        if mask is not None:
            mask.setflags(write=False)
            shared.__dict__["mask"] = mask
        return shared

    @cached_property
    def mask(self) -> np.ndarray:
        """d read-only bools, True exactly at the shared indices."""
        mask = np.zeros(self.d, dtype=bool)
        mask[self.indices] = True
        mask.setflags(write=False)
        return mask


@dataclass(frozen=True, eq=False)
class SparseGradient:
    """Shared part of a gradient: the SharedSet it was cut by, whose
    indices it reads as is, and one value per index. Two messages are
    equal only when they are the same object."""

    round: int
    p: float
    shared: SharedSet
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.shared, SharedSet):
            raise ContractViolationError("a message's indices must be a SharedSet")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.shape != self.shared.indices.shape:
            raise ContractViolationError("need one value per shared index")
        if self.round < 0:
            raise ContractViolationError("round must be >= 0")

    @property
    def indices(self) -> np.ndarray:
        return self.shared.indices

    @property
    def count(self) -> int:
        return int(self.shared.indices.shape[0])


def topk_shared_indices(z: np.ndarray, p: float) -> SharedSet:
    """The K = ceil(p * d) largest |z| entries as a SharedSet, built
    without a second check: its indices ascend and lie below d by design.

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
    mag = np.abs(z)
    t = np.partition(mag, d - k)[d - k]
    keep = mag >= t
    excess = np.count_nonzero(keep) - k
    if excess:  # more than K tie at t: the highest-indexed ties stay private
        keep[np.flatnonzero(mag == t)[-excess:]] = False
    return SharedSet._trusted(np.flatnonzero(keep), d, keep)


def extract_shared(z: np.ndarray, shared: SharedSet, round: int,
                   p: float) -> SparseGradient:
    """Pull the shared coordinates of z into a message that carries the
    SharedSet `shared`, which must be for z's length."""
    if not isinstance(shared, SharedSet):
        raise ContractViolationError("the shared set must be a SharedSet")
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (shared.d,):
        raise ContractViolationError(
            f"z has shape {z.shape}; the shared set is for length {shared.d}")
    return SparseGradient(round=round, p=p, shared=shared, values=z[shared.indices])


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
    """Parse a DPG1 message; raises DecodeError with the offending offset.
    The wire has no model size: the set spans u32 indices until a receiver
    binds it to its model with SharedSet(msg.indices, d)."""
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
                          shared=SharedSet._trusted(indices.astype(np.int64), U32_MAX + 1),
                          values=values.astype(np.float64))
