"""Top-K selection, shared/personal split, and the binary wire format."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpga.checks import lexsort_topk
from dpga.errors import ConfigurationError, ContractViolationError, DecodeError
from dpga.masking import (ENTRY_BYTES, HEADER_BYTES, SharedSet, SparseGradient,
                          decode, encode, extract_shared, payload_bytes,
                          shared_count, snap_rate, topk_shared_indices)
from dpga.protocol import server_aggregate


def _msg(indices, values, round=0, p=0.5, d=2 ** 32):
    """A message over SharedSet(indices, d); d defaults to the u32 index
    space a decoded message spans."""
    return SparseGradient(round=round, p=p, shared=SharedSet(indices, d), values=values)


class TestSharedCount:
    def test_grid_rates_match_exact_ceil(self):
        for num in range(1, 11):
            p = num / 10.0
            for d in range(1, 201):
                want = math.ceil(Fraction(num, 10) * d)
                assert shared_count(p, d) == want

    def test_off_grid_rate(self):
        assert shared_count(1 / 3, 3) == 1
        assert shared_count(0.25, 8) == 2
        assert shared_count(0.26, 8) == 3

    def test_full_rate_shares_everything(self):
        assert shared_count(1.0, 57) == 57

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            shared_count(0.0, 5)
        with pytest.raises(ConfigurationError):
            shared_count(1.1, 5)
        with pytest.raises(ConfigurationError):
            shared_count(0.5, 0)


class TestTopK:
    def test_example(self):
        np.testing.assert_array_equal(
            topk_shared_indices(np.array([3.0, -5.0, 1.0, 0.0]), 0.5).indices, [0, 1])

    def test_magnitude_tie_takes_lower_index(self):
        np.testing.assert_array_equal(
            topk_shared_indices(np.array([2.0, -2.0, 1.0]), 1 / 3).indices, [0])

    def test_full_rate_is_identity_mask(self):
        z = np.array([0.0, -1.0, 2.0])
        np.testing.assert_array_equal(topk_shared_indices(z, 1.0).indices, [0, 1, 2])

    def test_properties_randomized(self):
        """Size, complementarity, and dominance over random (z, p) draws."""
        rng = np.random.default_rng(404)
        for _ in range(500):
            d = int(rng.integers(1, 120))
            p = float((int(rng.integers(1, 11))) / 10.0)
            z = rng.standard_normal(d)
            shared = topk_shared_indices(z, p).indices
            k = shared_count(p, d)
            assert shared.shape[0] == k
            assert np.all(shared[:-1] < shared[1:]) if k > 1 else True
            personal = np.setdiff1d(np.arange(d), shared)
            assert shared.shape[0] + personal.shape[0] == d
            if personal.size and shared.size:
                assert np.abs(z[shared]).min() >= np.abs(z[personal]).max()

    def test_deterministic_under_ties(self):
        z = np.zeros(10)
        np.testing.assert_array_equal(topk_shared_indices(z, 0.3).indices,
                                      topk_shared_indices(z.copy(), 0.3).indices)
        np.testing.assert_array_equal(topk_shared_indices(z, 0.3).indices, [0, 1, 2])

    def test_result_is_a_read_only_set_messages_carry(self):
        """A Top-K set is built once, read-only, and a message built from
        it carries its array as is."""
        z = np.array([3.0, -5.0, 1.0, 0.0])
        shared = topk_shared_indices(z, 0.5)
        assert isinstance(shared, SharedSet) and shared.d == 4
        assert shared.indices.dtype == np.int64 and not shared.indices.flags.writeable
        with mock.patch("dpga.masking._checked_indices") as check:
            msg = extract_shared(z, shared, round=1, p=0.5)
        check.assert_not_called()
        assert msg.indices is shared.indices

    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            topk_shared_indices(np.empty(0), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # Partition and sort would place NaN at opposite ends.
        with pytest.raises(ContractViolationError):
            topk_shared_indices(np.array([1.0, bad, 0.0]), 0.5)

    # Integer-valued z makes many ties; signed zeros tie with each other.
    @settings(max_examples=400, deadline=None)
    @given(z=st.lists(st.integers(-3, 3).map(float)
                      | st.sampled_from([0.0, -0.0])
                      | st.floats(-1e6, 1e6),
                      min_size=1, max_size=60),
           num=st.integers(1, 10))
    @example(z=[-0.0], num=1)                      # d == 1
    @example(z=[0.0, -0.0, 2.0, -2.0, 0.0], num=10)  # k == d
    @example(z=[0.0, -0.0, 1.0, -0.0, 0.0], num=6)   # tie at a signed zero
    def test_matches_lexsort_definition(self, z, num):
        z = np.array(z)
        p = num / 10.0
        np.testing.assert_array_equal(topk_shared_indices(z, p).indices,
                                      lexsort_topk(z, p))


class TestExtractMerge:
    def test_extract(self):
        z = np.array([3.0, -5.0, 1.0, 0.0])
        msg = extract_shared(z, SharedSet([0, 1], 4), round=7, p=0.5)
        assert msg.round == 7 and msg.p == 0.5
        np.testing.assert_array_equal(msg.indices, [0, 1])
        np.testing.assert_array_equal(msg.values, [3.0, -5.0])

    @pytest.mark.parametrize("shared", [[1, 4], [-1, 2]])
    def test_rejects_indices_outside_z(self, shared):
        """A raw array is refused, and a set holding them is not for z."""
        with pytest.raises(ContractViolationError, match="SharedSet"):
            extract_shared(np.zeros(4), np.array(shared), round=0, p=0.5)
        with pytest.raises(ContractViolationError, match="out of range"):
            SharedSet(np.array(shared), 4)


class TestSharedSet:
    @pytest.mark.parametrize("indices", [[2, 1], [1, 1], [0, 4], [-1, 0], [[0, 1]]],
                             ids=["unsorted", "duplicated", "past-the-end",
                                  "negative", "2-d"])
    def test_rejects_bad_sets(self, indices):
        with pytest.raises(ContractViolationError):
            SharedSet(np.array(indices), 4)

    def test_checked_copy_is_read_only(self):
        given = np.array([1, 3])
        fixed = SharedSet(given, 4)
        given[0] = 2
        np.testing.assert_array_equal(fixed.indices, [1, 3])
        assert fixed.indices.dtype == np.int64 and not fixed.indices.flags.writeable

    def test_messages_carry_the_set(self):
        fixed = SharedSet(np.array([0, 2]), 4)
        msg = extract_shared(np.array([3.0, -5.0, 1.0, 0.0]), fixed, round=1, p=0.5)
        assert msg.indices is fixed.indices
        np.testing.assert_array_equal(msg.values, [3.0, 1.0])
        with pytest.raises(ContractViolationError, match="length 4"):
            extract_shared(np.zeros(5), fixed, round=1, p=0.5)


class TestSparseGradient:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ContractViolationError, match="SharedSet"):
            SparseGradient(round=0, p=0.5, shared=np.array([2, 1]), values=[1.0, 2.0])
        with pytest.raises(ContractViolationError):
            _msg([2, 1], [1.0, 2.0])

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ContractViolationError, match="SharedSet"):
            SparseGradient(round=0, p=0.5, shared=np.array([1, 1]), values=[1.0, 2.0])
        with pytest.raises(ContractViolationError):
            _msg([1, 1], [1.0, 2.0])

    def test_rejects_length_mismatch(self):
        for values in ([1.0, 2.0], [], [[1.0]]):
            with pytest.raises(ContractViolationError, match="one value"):
                _msg([1], values)

    def test_rejects_negative_round(self):
        with pytest.raises(ContractViolationError, match="round"):
            _msg([1], [1.0], round=-1)

    def test_indices_and_count_read_through_the_set(self):
        shared = SharedSet([0, 2], 4)
        msg = SparseGradient(round=1, p=0.5, shared=shared, values=[1.0, 2.0])
        assert msg.indices is shared.indices and msg.count == 2
        with pytest.raises(AttributeError):
            msg.indices = np.array([0, 1])

    def test_equality(self):
        """Messages compare by identity; check_codec compares decoded
        fields bit for bit."""
        a = _msg([0, 2], [1.0, 2.0], round=1)
        b = _msg([0, 2], [1.0, 2.0], round=1)
        assert a == a
        assert a != b
        assert len({a, b}) == 2


class TestWireFormat:
    def test_empty_message_is_header_only(self):
        msg = _msg([], [], p=0.1)
        assert payload_bytes(msg.count) == HEADER_BYTES == 17
        assert len(encode(msg)) == 17

    def test_fifty_entries(self):
        msg = _msg(np.arange(50), np.zeros(50), round=3)
        assert payload_bytes(msg.count) == 17 + 50 * ENTRY_BYTES == 617
        assert len(encode(msg)) == 617

    def test_bytes_monotone_in_rate(self):
        z = np.random.default_rng(1).standard_normal(64)
        sizes = []
        for num in range(1, 11):
            p = num / 10.0
            sizes.append(payload_bytes(topk_shared_indices(z, p).indices.size))
        assert sizes == sorted(sizes)

    def test_halving_rate_roughly_halves_payload(self):
        z = np.random.default_rng(2).standard_normal(1000)
        full = payload_bytes(topk_shared_indices(z, 1.0).indices.size)
        half = payload_bytes(topk_shared_indices(z, 0.5).indices.size)
        assert abs(half / full - 0.5) < 0.05

    def test_off_grid_rate_not_encodable(self):
        msg = _msg([0], [1.0], p=0.55)
        with pytest.raises(ContractViolationError):
            encode(msg)

    @pytest.mark.parametrize("round_, index, reason", [
        (0, 2 ** 32, "index exceeds u32"),
        (2 ** 64, 0, "round exceeds u64"),
    ])
    def test_field_past_its_width_not_encodable(self, round_, index, reason):
        msg = _msg([index], [1.0], round=round_, d=2 ** 32 + 1)
        with pytest.raises(ContractViolationError, match=reason):
            encode(msg)


@st.composite
def _messages(draw):
    """A message over a drawn SharedSet of a length-d model, d in 1..300,
    with ties and signed zeros among its values, any u64 round and a grid
    rate."""
    d = draw(st.integers(1, 300))
    indices = sorted(draw(st.sets(st.integers(0, d - 1), max_size=d)))
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0])
                           | st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(indices), max_size=len(indices)))
    return d, _msg(indices, values, round=draw(st.integers(0, 2 ** 64 - 1)),
                   p=draw(st.integers(1, 10)) / 10, d=d)


class TestWireCodecWithSets:
    @settings(max_examples=200, deadline=None)
    @given(case=_messages())
    def test_round_trip_and_rebinding(self, case):
        """A decoded message equals the sent one field by field, spans the
        u32 index space until a receiver binds it to its model, and then
        aggregates to the sent message's bits."""
        d, msg = case
        blob = encode(msg)
        assert len(blob) == 17 + 12 * msg.count
        back = decode(blob)
        assert (back.round, back.p) == (msg.round, msg.p)
        assert back.indices.tobytes() == msg.indices.tobytes()
        assert back.values.tobytes() == msg.values.tobytes()
        assert back.shared.d == 2 ** 32
        with pytest.raises(ContractViolationError):
            server_aggregate([back], d)
        bound = SparseGradient(back.round, back.p, SharedSet(back.indices, d), back.values)
        got, want = server_aggregate([bound], d), server_aggregate([msg], d)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.counts.tobytes() == want.counts.tobytes()


class TestDecodeErrors:
    def test_truncated_header(self):
        with pytest.raises(DecodeError) as exc:
            decode(b"DPG1\x00")
        assert exc.value.offset == 5
        assert "at byte 5" in str(exc.value)

    def test_bad_magic(self):
        blob = encode(_msg([], []))
        with pytest.raises(DecodeError) as exc:
            decode(b"XXXX" + blob[4:])
        assert exc.value.offset == 0

    def test_bad_rate_numerator(self):
        blob = bytearray(encode(_msg([], [])))
        blob[12] = 11
        with pytest.raises(DecodeError) as exc:
            decode(bytes(blob))
        assert exc.value.offset == 12

    def test_truncated_payload(self):
        msg = _msg([0, 3], [1.0, 2.0])
        blob = encode(msg)
        with pytest.raises(DecodeError) as exc:
            decode(blob[:-4])
        assert exc.value.offset == len(blob) - 4

    def test_trailing_garbage(self):
        blob = encode(_msg([0], [1.0]))
        with pytest.raises(DecodeError) as exc:
            decode(blob + b"\x00")
        assert exc.value.offset == len(blob)

    def test_non_ascending_indices(self):
        msg = _msg([0, 1, 2], [1.0, 2.0, 3.0])
        blob = bytearray(encode(msg))
        # Overwrite the second index (offset 17 + 4) with 0, breaking order.
        blob[21:25] = (0).to_bytes(4, "little")
        with pytest.raises(DecodeError) as exc:
            decode(bytes(blob))
        assert exc.value.offset == HEADER_BYTES + 4 * 1  # the offending index


@st.composite
def _valid_blobs(draw):
    """Encoded DPG1 messages: any round, grid rate, support and values."""
    indices = sorted(draw(st.sets(st.integers(0, 2 ** 32 - 1), max_size=6)))
    values = draw(st.lists(st.floats(), min_size=len(indices),
                           max_size=len(indices)))
    return encode(_msg(indices, values, round=draw(st.integers(0, 2 ** 64 - 1)),
                       p=draw(st.integers(1, 10)) / 10))


class TestDecodeProperties:
    """Damaged input either decodes or raises DecodeError, nothing else."""

    @settings(max_examples=100, deadline=None)
    @given(blob=_valid_blobs(), data=st.data())
    def test_truncation(self, blob, data):
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(DecodeError):
            decode(blob[:cut])

    @settings(max_examples=200, deadline=None)
    @given(blob=_valid_blobs(), data=st.data())
    def test_single_byte_change(self, blob, data):
        pos = data.draw(st.integers(0, len(blob) - 1))
        new = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
        damaged = blob[:pos] + bytes([new]) + blob[pos + 1:]
        try:
            msg = decode(damaged)
        except DecodeError:
            return
        assert payload_bytes(msg.count) == len(damaged)


class TestSnapRate:
    def test_on_grid_passthrough(self):
        assert snap_rate(0.5) == 0.5
        assert snap_rate(1.0) == 1.0

    def test_rounds_to_nearest_grid_value(self):
        assert snap_rate(0.41) == 0.4
        assert snap_rate(0.07) == 0.1

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            snap_rate(0.0)
        with pytest.raises(ConfigurationError):
            snap_rate(1.2)
