"""Wire protocol: framing, incremental decode, exception round-trips."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    MigrationInProgressError,
    RemoteOpError,
    StaleRouteError,
    VersionConflictError,
)
from repro.runtime.wire import (
    CORRUPTION_STATS,
    HEADER_SIZE,
    FrameCorruptionError,
    FrameError,
    Request,
    Response,
    StreamDecoder,
    corrupt_frame,
    crc32,
    encode_error,
    encode_frame,
    sanitize_exception,
)


class TestFraming:
    def test_round_trip_one_frame(self):
        frame = encode_frame({"hello": [1, 2, 3]})
        decoder = StreamDecoder()
        assert decoder.feed(frame) == [{"hello": [1, 2, 3]}]
        assert decoder.pending_bytes() == 0

    def test_byte_at_a_time_feed(self):
        payload = Request("put", (3, "k", "v"), target=("data", 1))
        frame = encode_frame(payload)
        decoder = StreamDecoder()
        out = []
        for index in range(len(frame)):
            out.extend(decoder.feed(frame[index : index + 1]))
        assert len(out) == 1
        assert out[0] == payload

    def test_many_frames_in_one_feed(self):
        frames = b"".join(encode_frame(i) for i in range(10))
        assert StreamDecoder().feed(frames) == list(range(10))

    def test_partial_tail_is_buffered(self):
        frame = encode_frame("x" * 100)
        decoder = StreamDecoder()
        assert decoder.feed(frame[:-7]) == []
        assert decoder.pending_bytes() == len(frame) - 7
        assert decoder.feed(frame[-7:]) == ["x" * 100]

    def test_oversized_length_is_a_protocol_error(self):
        # a desynchronized stream yields garbage lengths; refuse them
        bad = b"\xff\xff\xff\xff" + b"junk"
        with pytest.raises(FrameError):
            StreamDecoder().feed(bad)

    def test_header_is_length_plus_checksum(self):
        assert HEADER_SIZE == 8
        assert len(encode_frame(None)) == 8 + len(pickle.dumps(None, 5))


class TestChecksums:
    def test_crc32_known_vector(self):
        # the CRC-32/IEEE (ISO-HDLC) check value
        assert crc32(b"123456789") == 0xCBF43926
        assert crc32(b"") == 0

    @given(
        body=st.binary(min_size=1, max_size=4096),
        burst=st.binary(min_size=1, max_size=4).filter(any),
        data=st.data(),
    )
    def test_bit_flips_and_short_bursts_are_always_caught(
        self, body, burst, data
    ):
        # a 32-bit CRC misses no error confined to 32 contiguous bits —
        # which covers every single-bit flip and every <= 4-byte burst
        frame = encode_frame(body)
        offset = data.draw(
            st.integers(HEADER_SIZE, len(frame) - len(burst)), label="offset"
        )
        damaged = bytearray(frame)
        for index, mask in enumerate(burst):
            damaged[offset + index] ^= mask
        with pytest.raises(FrameCorruptionError):
            StreamDecoder().feed(bytes(damaged))

    def test_flipped_payload_bit_raises_frame_corruption_error(self):
        frame = corrupt_frame(encode_frame({"k": "v"}))
        with pytest.raises(FrameCorruptionError):
            StreamDecoder().feed(frame)

    def test_corruption_anywhere_in_payload_is_caught(self):
        frame = encode_frame(list(range(50)))
        for offset in range(HEADER_SIZE, len(frame)):
            damaged = bytearray(frame)
            damaged[offset] ^= 0x01
            with pytest.raises(FrameCorruptionError):
                StreamDecoder().feed(bytes(damaged))

    def test_detection_is_counted_and_frame_is_consumed(self):
        before = CORRUPTION_STATS["frames_detected"]
        decoder = StreamDecoder()
        with pytest.raises(FrameCorruptionError):
            decoder.feed(corrupt_frame(encode_frame("a")) + encode_frame("b"))
        assert CORRUPTION_STATS["frames_detected"] == before + 1
        # the corrupt frame was consumed: the stream stays scannable and
        # the frame behind it decodes on the next feed
        assert decoder.feed(b"") == ["b"]

    def test_corruption_error_survives_the_wire(self):
        exc = sanitize_exception(FrameCorruptionError("bad crc", 1, 2))
        assert isinstance(exc, FrameCorruptionError)
        assert (exc.expected, exc.actual) == (1, 2)

    def test_corrupt_frame_leaves_header_intact(self):
        frame = encode_frame("payload")
        damaged = corrupt_frame(frame)
        assert damaged != frame
        assert damaged[:HEADER_SIZE] == frame[:HEADER_SIZE]
        run = corrupt_frame(frame, run=8)
        assert run[:HEADER_SIZE] == frame[:HEADER_SIZE]
        assert sum(a != b for a, b in zip(run, frame)) == 8


class TestResponses:
    def test_unwrap_value(self):
        assert Response(value=41).unwrap() == 41

    def test_unwrap_raises_the_carried_error(self):
        with pytest.raises(StaleRouteError):
            Response(error=StaleRouteError("stale")).unwrap()

    def test_control_flow_errors_survive_the_wire(self):
        # client-side failover/fencing dispatches on these exact types
        for exc in (
            StaleRouteError("instance 3 moved"),
            MigrationInProgressError("instance 3 mid-cutover", 3),
            VersionConflictError("key moved on", 7),
        ):
            frame = encode_frame(encode_error(exc))
            (response,) = StreamDecoder().feed(frame)
            with pytest.raises(type(exc)):
                response.unwrap()

    def test_unpicklable_exception_degrades_to_remote_op_error(self):
        class Local(Exception):  # not importable remotely
            pass

        try:
            raise Local("boom")
        except Local as exc:
            sanitized = sanitize_exception(exc)
        assert isinstance(sanitized, RemoteOpError)
        assert "Local" in str(sanitized)
        assert "boom" in str(sanitized)
        # the flattened form itself survives the wire
        (response,) = StreamDecoder().feed(
            encode_frame(Response(error=sanitized))
        )
        with pytest.raises(RemoteOpError):
            response.unwrap()

    def test_picklable_exception_keeps_type_and_message(self):
        sanitized = sanitize_exception(ValueError("fine as-is"))
        assert type(sanitized) is ValueError
        assert str(sanitized) == "fine as-is"
