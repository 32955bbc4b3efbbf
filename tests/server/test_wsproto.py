"""RFC 6455 framing: handshake vectors, round trips, length encodings."""

from __future__ import annotations

import asyncio
import io

import pytest

from repro.server import wsproto


def reader_from_bytes(data: bytes):
    stream = io.BytesIO(data)

    def read_exact(count: int) -> bytes:
        chunk = stream.read(count)
        if len(chunk) != count:
            raise wsproto.WebSocketError("short read")
        return chunk

    return read_exact


class TestHandshake:
    def test_rfc6455_accept_vector(self):
        # The worked example from RFC 6455 section 1.3.
        assert (wsproto.accept_key("dGhlIHNhbXBsZSBub25jZQ==")
                == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=")

    def test_accept_key_strips_whitespace(self):
        assert (wsproto.accept_key("  dGhlIHNhbXBsZSBub25jZQ==  ")
                == wsproto.accept_key("dGhlIHNhbXBsZSBub25jZQ=="))


class TestFraming:
    @pytest.mark.parametrize("length", [0, 1, 125, 126, 127, 65535, 65536])
    def test_round_trip_all_length_encodings(self, length):
        payload = bytes(i % 251 for i in range(length))
        encoded = wsproto.encode_frame(payload, wsproto.OP_BINARY)
        opcode, decoded, fin = wsproto.read_frame(
            reader_from_bytes(encoded)
        )
        assert opcode == wsproto.OP_BINARY
        assert decoded == payload
        assert fin

    @pytest.mark.parametrize("length", [0, 5, 126, 70000])
    def test_masked_round_trip(self, length):
        payload = bytes(i % 17 for i in range(length))
        encoded = wsproto.encode_frame(payload, mask=True)
        # Masked wire bytes differ from the payload (for non-trivial
        # payloads the 4-byte XOR key leaves at least one byte changed,
        # unless the key happens to be zero — don't assert on luck).
        opcode, decoded, _fin = wsproto.read_frame(
            reader_from_bytes(encoded)
        )
        assert opcode == wsproto.OP_TEXT
        assert decoded == payload

    def test_text_frame_utf8(self):
        encoded = wsproto.encode_text("progress: 42%")
        opcode, payload, _fin = wsproto.read_frame(
            reader_from_bytes(encoded)
        )
        assert opcode == wsproto.OP_TEXT
        assert payload.decode("utf-8") == "progress: 42%"

    def test_close_frame_carries_code_and_reason(self):
        encoded = wsproto.encode_close(1001, "going away")
        opcode, payload, _fin = wsproto.read_frame(
            reader_from_bytes(encoded)
        )
        assert opcode == wsproto.OP_CLOSE
        assert payload[:2] == b"\x03\xe9"
        assert payload[2:] == b"going away"

    def test_reserved_bits_rejected(self):
        frame = bytearray(wsproto.encode_text("x"))
        frame[0] |= 0x40  # RSV1 without a negotiated extension
        with pytest.raises(wsproto.WebSocketError):
            wsproto.read_frame(reader_from_bytes(bytes(frame)))

    def test_short_read_surfaces(self):
        encoded = wsproto.encode_text("truncated")[:-3]
        with pytest.raises(wsproto.WebSocketError):
            wsproto.read_frame(reader_from_bytes(encoded))


class TestAsyncReader:
    def test_async_reader_matches_sync(self):
        encoded = (wsproto.encode_text("alpha", mask=True)
                   + wsproto.encode_frame(b"beta", wsproto.OP_BINARY)
                   + wsproto.encode_close(1000))
        stream = io.BytesIO(encoded)

        async def read_exactly(count: int) -> bytes:
            chunk = stream.read(count)
            if len(chunk) != count:
                raise wsproto.WebSocketError("short read")
            return chunk

        async def drain():
            frames = []
            for _ in range(3):
                frames.append(
                    await wsproto.read_frame_async(read_exactly)
                )
            return frames

        loop = asyncio.new_event_loop()
        try:
            frames = loop.run_until_complete(drain())
        finally:
            loop.close()
        assert frames[0][:2] == (wsproto.OP_TEXT, b"alpha")
        assert frames[1][:2] == (wsproto.OP_BINARY, b"beta")
        assert frames[2][0] == wsproto.OP_CLOSE


class TestPayloadCap:
    def test_cap_refuses_before_reading_the_key_or_payload(self):
        # Only the 2 + 8 header bytes exist: reading any further would
        # surface as a short read instead of FrameTooLarge.
        header = bytes([0x81, 0x80 | 127]) + (2 ** 63 - 1).to_bytes(8, "big")
        with pytest.raises(wsproto.FrameTooLarge):
            wsproto.read_frame(reader_from_bytes(header),
                               wsproto.MAX_CONTROL_PAYLOAD)

    def test_cap_admits_a_full_control_frame(self):
        encoded = wsproto.encode_frame(b"p" * 125, wsproto.OP_PING, mask=True)
        opcode, payload, _fin = wsproto.read_frame(
            reader_from_bytes(encoded), wsproto.MAX_CONTROL_PAYLOAD,
        )
        assert (opcode, payload) == (wsproto.OP_PING, b"p" * 125)

    def test_uncapped_by_default(self):
        encoded = wsproto.encode_frame(b"x" * 126, wsproto.OP_BINARY)
        assert wsproto.read_frame(reader_from_bytes(encoded))[1] == b"x" * 126
        with pytest.raises(wsproto.FrameTooLarge):
            wsproto.read_frame(reader_from_bytes(encoded),
                               wsproto.MAX_CONTROL_PAYLOAD)
