"""Tests for database persistence -- the v3 store written by
``save_store`` and, read-only through ``open_store``, the legacy v1/v2
``.npz`` archives -- and for the wire codecs the transport subsystem
ships between processes (tagged binary messages in length-prefixed
frames)."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datagen
from repro.aggregation import AVERAGE, MIN
from repro.core import ThresholdAlgorithm
from repro.middleware import (
    ColumnarDatabase,
    Database,
    WireFormatError,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.middleware.errors import StoreFormatError
from repro.middleware.serialization import (
    FRAME_FLAG_COMPRESSED,
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    decompress_frame_payload,
    frame_header_info,
    frame_payload_size,
)
from repro.store import open_store, save_store

from tests.helpers import write_v2_npz


def _store_round_trip(db, tmp_path, name="db.store"):
    path = tmp_path / name
    save_store(db, path)
    return open_store(path)


def _npz_round_trip(db, tmp_path, name="db.npz"):
    path = tmp_path / name
    write_v2_npz(db, path)
    return open_store(path)


class TestStoreRoundTrip:
    def test_grades_preserved(self, tmp_path, tiny_db):
        loaded = _store_round_trip(tiny_db, tmp_path)
        assert loaded.num_objects == tiny_db.num_objects
        for obj in tiny_db.objects:
            assert loaded.grade_vector(obj) == tiny_db.grade_vector(obj)

    def test_tie_order_preserved(self, tmp_path):
        """The property the adversarial families depend on."""
        inst = datagen.example_6_3(8)
        loaded = _store_round_trip(inst.database, tmp_path)
        for i in range(2):
            for p in range(loaded.num_objects):
                assert loaded.sorted_entry(i, p) == inst.database.sorted_entry(
                    i, p
                )

    def test_algorithms_agree_after_round_trip(self, tmp_path):
        inst = datagen.example_6_3(10)
        loaded = _store_round_trip(inst.database, tmp_path)
        before = ThresholdAlgorithm().run_on(inst.database, MIN, 1)
        after = ThresholdAlgorithm().run_on(loaded, MIN, 1)
        assert before.objects == after.objects
        assert before.middleware_cost == after.middleware_cost

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(StoreFormatError):
            open_store(path)

    def test_string_ids_preserved(self, tmp_path):
        db = Database.from_rows({"alpha": (0.3,), "beta": (0.9,)})
        loaded = _store_round_trip(db, tmp_path)
        assert set(loaded.objects) == {"alpha", "beta"}

    def test_int_ids_restored_as_ints(self, tmp_path):
        loaded = _store_round_trip(datagen.uniform(10, 2, seed=0), tmp_path)
        assert all(isinstance(obj, int) for obj in loaded.objects)

    def test_columnar_round_trip_runs_identically(self, tmp_path):
        _assert_ta_identical_after(_store_round_trip, tmp_path)


def _assert_ta_identical_after(round_trip, tmp_path):
    db = datagen.uniform(120, 3, seed=8).to_columnar()
    loaded = round_trip(db, tmp_path)
    before = ThresholdAlgorithm().run_on(db, AVERAGE, 7)
    after = ThresholdAlgorithm().run_on(loaded, AVERAGE, 7)
    assert [(it.obj, it.grade) for it in before.items] == [
        (it.obj, it.grade) for it in after.items
    ]
    assert before.stats.sorted_accesses == after.stats.sorted_accesses
    assert before.stats.random_accesses == after.stats.random_accesses


class TestNpzRoundTrip:
    """Legacy v2 archives (written in-test: the library no longer
    writes them) still read back exactly through ``open_store``."""

    def test_grades_preserved(self, tmp_path):
        db = datagen.uniform(50, 3, seed=2)
        loaded = _npz_round_trip(db, tmp_path)
        assert loaded.num_objects == 50
        for obj in db.objects:
            assert loaded.grade_vector(obj) == pytest.approx(
                db.grade_vector(obj)
            )

    def test_string_ids_preserved(self, tmp_path):
        db = Database.from_rows({"alpha": (0.3,), "beta": (0.9,)})
        loaded = _npz_round_trip(db, tmp_path)
        assert set(loaded.objects) == {"alpha", "beta"}

    def test_int_ids_restored_as_ints(self, tmp_path):
        loaded = _npz_round_trip(datagen.uniform(10, 2, seed=0), tmp_path)
        assert all(isinstance(obj, int) for obj in loaded.objects)

    def test_top_k_stable_across_round_trip(self, tmp_path):
        db = datagen.permutations(60, 2, seed=3)
        loaded = _npz_round_trip(db, tmp_path)
        assert [g for _, g in db.top_k(MIN, 5)] == pytest.approx(
            [g for _, g in loaded.top_k(MIN, 5)]
        )


class TestNpzOrderArrays:
    """The v2 archive persists the per-list order arrays: reload
    returns a ready columnar backend, skips the argsort, and preserves
    the exact tie order (which the grades-only v1 archive could not)."""

    def test_reload_is_columnar_and_tie_order_preserved(self, tmp_path):
        inst = datagen.example_6_3(10)
        loaded = _npz_round_trip(inst.database, tmp_path, "adv.npz")
        assert isinstance(loaded, ColumnarDatabase)
        for i in range(loaded.num_lists):
            for p in range(loaded.num_objects):
                assert loaded.sorted_entry(i, p) == inst.database.sorted_entry(
                    i, p
                )

    def test_reload_skips_argsort(self, tmp_path, monkeypatch):
        """Sort-spy: with the order arrays persisted, no argsort may run
        during load, and sorted access must serve the stored orderings
        directly."""
        db = datagen.uniform(80, 3, seed=6)
        columnar = db.to_columnar()
        path = tmp_path / "col.npz"
        write_v2_npz(columnar, path)

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("argsort ran during the npz load")

        monkeypatch.setattr(np, "argsort", forbidden)
        loaded = open_store(path)
        assert isinstance(loaded, ColumnarDatabase)
        for i in range(3):
            assert np.array_equal(
                loaded._order_rows[i], columnar._order_rows[i]
            )
            assert np.array_equal(
                loaded._order_grades[i], columnar._order_grades[i]
            )
        assert loaded.sorted_entry(1, 0) == columnar.sorted_entry(1, 0)

    def test_columnar_round_trip_runs_identically(self, tmp_path):
        _assert_ta_identical_after(_npz_round_trip, tmp_path)

    def test_legacy_grades_only_files_still_load(self, tmp_path):
        """v1 archives, written before the order arrays existed (grades
        + string ids only), rebuild with the deterministic stable
        sort."""
        db = datagen.uniform(30, 2, seed=4)
        ids_sorted = sorted(db.objects, key=str)
        ids, grades = db.to_array(object_ids=ids_sorted)
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            grades=grades,
            object_ids=np.array([str(obj) for obj in ids]),
            int_ids=np.array([isinstance(obj, int) for obj in ids]),
        )
        loaded = open_store(path)
        assert loaded.num_objects == 30
        for obj in db.objects:
            assert loaded.grade_vector(obj) == pytest.approx(
                db.grade_vector(obj)
            )


# ----------------------------------------------------------------------
# wire codecs (the transport subsystem's frames; see repro.transport)
# ----------------------------------------------------------------------

def bits(x: float) -> bytes:
    """A float's identity as its IEEE-754 bytes: distinguishes -0.0
    from 0.0 and compares NaN payloads exactly."""
    return struct.pack("<d", x)


wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: exercises the bigint escape hatch
    st.floats(allow_nan=False),  # ±0.0, ±inf, subnormals included
    st.text(),  # arbitrary unicode ids
    st.binary(max_size=64),
)

wire_messages = st.recursive(
    wire_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=12), children, max_size=6),
    ),
    max_leaves=24,
)


class TestWireMessageRoundTrip:
    @given(wire_messages)
    @settings(max_examples=200, deadline=None)
    def test_any_message_round_trips(self, value):
        assert decode_message(encode_message(value)) == value

    @given(st.floats(allow_nan=True))
    @settings(max_examples=200, deadline=None)
    def test_floats_round_trip_bit_for_bit(self, x):
        assert bits(decode_message(encode_message(x))) == bits(x)

    @pytest.mark.parametrize(
        "x",
        [
            0.0,
            -0.0,
            5e-324,  # smallest positive subnormal
            -5e-324,
            2.2250738585072014e-308,  # smallest normal
            float("inf"),
            float("-inf"),
            1 / 3,
        ],
    )
    def test_exact_float_corners(self, x):
        assert bits(decode_message(encode_message(x))) == bits(x)

    def test_nan_payload_preserved(self):
        quiet = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0]
        assert math.isnan(quiet)
        assert bits(decode_message(encode_message(quiet))) == bits(quiet)

    def test_types_are_not_conflated(self):
        for value, kind in [(True, bool), (1, int), (1.0, float)]:
            decoded = decode_message(encode_message(value))
            assert type(decoded) is kind

    @given(st.integers())
    @settings(max_examples=100, deadline=None)
    def test_unbounded_ints(self, n):
        decoded = decode_message(encode_message(n))
        assert decoded == n and type(decoded) is int

    @pytest.mark.parametrize(
        "text", ["", "café", "名前", "🔎🗂️", "a\x00b", " "]
    )
    def test_unicode_ids(self, text):
        assert decode_message(encode_message(text)) == text

    def test_numpy_scalars_coerce(self):
        assert decode_message(encode_message(np.int64(-7))) == -7
        assert bits(decode_message(encode_message(np.float64(-0.0)))) == bits(
            -0.0
        )

    @given(
        st.lists(st.floats(allow_nan=False), max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_float64_arrays_round_trip(self, values):
        arr = np.asarray(values, dtype=np.float64)
        out = decode_message(encode_message(arr))
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.tobytes() == arr.tobytes()  # bit-for-bit, ±0.0 included

    def test_int_arrays_round_trip_and_intp_travels_as_int64(self):
        arr = np.arange(-5, 5, dtype=np.intp)
        out = decode_message(encode_message(arr))
        assert out.dtype == np.int64
        assert np.array_equal(out, arr)

    def test_empty_page_shapes(self):
        page = {"objects": [], "grades": np.empty(0, dtype=np.float64)}
        out = decode_message(encode_message(page))
        assert out["objects"] == [] and len(out["grades"]) == 0

    def test_unsupported_values_fail_loudly(self):
        with pytest.raises(WireFormatError):
            encode_message(object())
        with pytest.raises(WireFormatError):
            encode_message({1: "non-str key"})
        with pytest.raises(WireFormatError):
            encode_message(np.zeros((2, 2)))  # only 1-D arrays
        with pytest.raises(WireFormatError):
            encode_message(np.zeros(3, dtype=np.complex128))


class TestWireFrames:
    def test_frame_round_trip(self):
        message = {"op": "page", "src": 2, "start": 0, "count": 64}
        decoded, rest = decode_frame(encode_frame(message))
        assert decoded == message and rest == b""

    def test_back_to_back_frames(self):
        data = encode_frame([1]) + encode_frame([2])
        first, rest = decode_frame(data)
        second, tail = decode_frame(rest)
        assert (first, second, tail) == ([1], [2], b"")

    def test_max_size_frame_boundary(self):
        """A frame exactly at the limit passes; one byte over fails --
        on encode and on header parse alike."""
        payload_at_limit = b"x" * 100
        limit = len(encode_message(payload_at_limit))
        frame = encode_frame(payload_at_limit, max_frame=limit)
        message, rest = decode_frame(frame, max_frame=limit)
        assert message == payload_at_limit and rest == b""
        with pytest.raises(WireFormatError):
            encode_frame(b"x" * 101, max_frame=limit)
        oversized = struct.pack("<I", limit + 1)
        with pytest.raises(WireFormatError):
            frame_payload_size(oversized, max_frame=limit)
        assert frame_payload_size(struct.pack("<I", limit), limit) == limit

    @given(wire_messages)
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_is_rejected(self, value):
        """Every proper prefix of a frame must raise, never decode."""
        frame = encode_frame(value)
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                decode_frame(frame[:cut])

    def test_trailing_garbage_is_rejected(self):
        data = encode_message("ok") + b"\x00"
        with pytest.raises(WireFormatError):
            decode_message(data)

    def test_unknown_tag_is_rejected(self):
        with pytest.raises(WireFormatError):
            decode_message(b"z")

    def test_corrupt_utf8_is_rejected(self):
        corrupt = b"s" + struct.pack("<I", 2) + b"\xff\xfe"
        with pytest.raises(WireFormatError):
            decode_message(corrupt)

    def test_corrupt_length_overrun_is_rejected(self):
        # a list claiming 1000 items backed by no bytes
        corrupt = b"l" + struct.pack("<I", 1000)
        with pytest.raises(WireFormatError):
            decode_message(corrupt)

    def test_hostile_nesting_is_rejected_not_recursed(self):
        """A tiny frame of deeply nested single-item lists must raise
        WireFormatError, never RecursionError -- on decode and on
        encode alike."""
        from repro.middleware.serialization import MAX_NESTING_DEPTH

        hostile = (b"l" + struct.pack("<I", 1)) * 10_000 + b"N"
        with pytest.raises(WireFormatError):
            decode_message(hostile)
        deep: list = []
        for _ in range(MAX_NESTING_DEPTH + 2):
            deep = [deep]
        with pytest.raises(WireFormatError):
            encode_message(deep)
        # the documented protocol depth is comfortably within the cap
        fine: list = ["x"]
        for _ in range(MAX_NESTING_DEPTH - 2):
            fine = [fine]
        assert decode_message(encode_message(fine)) == fine

    def test_default_limit_is_sane(self):
        assert FRAME_HEADER_BYTES == 4
        assert MAX_FRAME_BYTES >= 2**20


class TestCompressedFrames:
    """Optional zlib compression: bit 31 of the length prefix flags a
    compressed payload; decoding is transparent, bit-exact, and
    bounded (no decompression bombs)."""

    @staticmethod
    def _bulky(value):
        """A message padded to clear the compression threshold."""
        return {"value": value, "pad": "x" * 8192}

    @given(wire_messages)
    @settings(max_examples=100, deadline=None)
    def test_compressed_round_trip_is_bit_exact(self, value):
        """The inflated payload is byte-identical to the raw encoding
        -- floats, NaN payloads, arrays and all -- so the decoded
        message equals the plain-frame decode exactly."""
        message = self._bulky(value)
        plain = encode_frame(message)
        compressed = encode_frame(message, compress_threshold=0)
        assert decode_frame(compressed)[0] == decode_frame(plain)[0]
        size, flag = frame_header_info(compressed[:FRAME_HEADER_BYTES])
        if flag:  # high-entropy payloads may legitimately stay raw
            assert len(compressed) < len(plain)
            inflated = decompress_frame_payload(
                compressed[FRAME_HEADER_BYTES:]
            )
            assert inflated == plain[FRAME_HEADER_BYTES:]

    def test_float_arrays_survive_compression_bit_for_bit(self):
        arr = np.array(
            [0.0, -0.0, 5e-324, float("inf"), float("-inf"), 1 / 3]
            * 600
        )
        frame = encode_frame({"grades": arr}, compress_threshold=1024)
        _, flag = frame_header_info(frame[:FRAME_HEADER_BYTES])
        assert flag  # repetitive floats compress well
        decoded, rest = decode_frame(frame)
        assert rest == b""
        assert decoded["grades"].tobytes() == arr.tobytes()

    def test_threshold_gates_compression(self):
        small = encode_frame({"op": "ping"}, compress_threshold=4096)
        _, flag = frame_header_info(small[:FRAME_HEADER_BYTES])
        assert not flag  # under the threshold: raw
        big = encode_frame(
            {"pad": "y" * 9000}, compress_threshold=4096
        )
        _, flag = frame_header_info(big[:FRAME_HEADER_BYTES])
        assert flag

    def test_incompressible_payload_stays_raw(self):
        import os

        noise = os.urandom(8192)  # already max-entropy
        frame = encode_frame({"blob": noise}, compress_threshold=0)
        _, flag = frame_header_info(frame[:FRAME_HEADER_BYTES])
        assert not flag  # compression would have grown it
        assert decode_frame(frame)[0] == {"blob": noise}

    def test_corrupted_compressed_payload_raises(self):
        frame = bytearray(
            encode_frame({"pad": "z" * 9000}, compress_threshold=0)
        )
        _, flag = frame_header_info(bytes(frame[:FRAME_HEADER_BYTES]))
        assert flag
        for index in (FRAME_HEADER_BYTES + 1, len(frame) // 2,
                      len(frame) - 1):
            corrupt = bytearray(frame)
            corrupt[index] ^= 0xFF
            with pytest.raises(WireFormatError):
                decode_frame(bytes(corrupt))

    def test_truncated_compressed_stream_raises(self):
        frame = encode_frame({"pad": "w" * 9000}, compress_threshold=0)
        size, flag = frame_header_info(frame[:FRAME_HEADER_BYTES])
        assert flag
        clipped = frame[FRAME_HEADER_BYTES : FRAME_HEADER_BYTES + size - 4]
        with pytest.raises(WireFormatError, match="truncated"):
            decompress_frame_payload(clipped)

    def test_trailing_bytes_after_stream_raise(self):
        frame = encode_frame({"pad": "v" * 9000}, compress_threshold=0)
        payload = frame[FRAME_HEADER_BYTES:]
        with pytest.raises(WireFormatError, match="trailing"):
            decompress_frame_payload(payload + b"\x00\x01")

    def test_decompression_bomb_is_bounded(self):
        """A payload inflating past max_frame raises without ever
        materialising the plaintext."""
        import zlib

        bomb = zlib.compress(b"\x00" * (4 * 1024 * 1024))
        assert len(bomb) < 8192  # tiny on the wire
        with pytest.raises(WireFormatError, match="inflates past"):
            decompress_frame_payload(bomb, max_frame=65536)

    def test_compression_cannot_smuggle_oversized_messages(self):
        """The frame cap applies to the message, not the wire bytes:
        an over-limit payload is refused at encode even though its
        compressed form would fit."""
        limit = 1024
        with pytest.raises(WireFormatError):
            encode_frame("a" * 4096, max_frame=limit, compress_threshold=0)

    def test_flag_bit_is_invisible_to_size_parsing(self):
        header = struct.pack("<I", 1000 | FRAME_FLAG_COMPRESSED)
        size, flag = frame_header_info(header)
        assert (size, flag) == (1000, True)
        assert frame_payload_size(header) == 1000
        # an uncompressed announcement over the limit still fails even
        # with the flag set (the size check strips the flag first)
        over = struct.pack("<I", (MAX_FRAME_BYTES + 1) | FRAME_FLAG_COMPRESSED)
        with pytest.raises(WireFormatError):
            frame_header_info(over)

    def test_uncompressed_frames_are_byte_identical_to_before(self):
        """No negotiation, no change: the default path emits exactly
        the legacy wire bytes."""
        message = {"op": "result", "grades": np.arange(4.0)}
        assert encode_frame(message) == (
            struct.pack("<I", len(encode_message(message)))
            + encode_message(message)
        )
