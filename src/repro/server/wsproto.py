"""Minimal RFC 6455 WebSocket framing over the standard library.

The network tier must run on a bare Python install (CI's stdlib-only matrix
leg), so the server cannot assume ``websockets`` is importable.  This module
is the fallback — and the reference implementation the optional dependency
is tested against: the handshake accept key, frame encode/decode for both
directions (servers send unmasked, clients mask), and the control opcodes
the event stream needs (close, ping/pong).

Framing is transport-agnostic: :func:`encode_frame` returns bytes, and
:func:`read_frame` pulls from any ``read_exact(n) -> bytes`` callable, so
the same parser serves a blocking socket client and the asyncio server (which
wraps ``StreamReader.readexactly``).  The server caps client frames at the
control-frame limit; the client reads the server's frames uncapped.
"""

from __future__ import annotations

import base64
import hashlib
import os
import struct
from typing import Callable, Optional, Tuple

#: the protocol's fixed handshake GUID (RFC 6455 §1.3)
GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA


class WebSocketError(Exception):
    """A malformed frame or a handshake violation."""


def accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's handshake key."""
    digest = hashlib.sha1((client_key.strip() + GUID).encode("ascii"))
    return base64.b64encode(digest.digest()).decode("ascii")


def encode_frame(payload: bytes, opcode: int = OP_TEXT, *,
                 mask: bool = False, fin: bool = True) -> bytes:
    """One complete frame.  ``mask=True`` for client→server traffic."""
    header = bytearray()
    header.append((0x80 if fin else 0) | (opcode & 0x0F))
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if not mask:
        return bytes(header) + payload
    key = os.urandom(4)
    header += key
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + masked


def encode_text(text: str, *, mask: bool = False) -> bytes:
    return encode_frame(text.encode("utf-8"), OP_TEXT, mask=mask)


def encode_close(code: int = 1000, reason: str = "", *,
                 mask: bool = False) -> bytes:
    payload = struct.pack(">H", code) + reason.encode("utf-8")
    return encode_frame(payload, OP_CLOSE, mask=mask)


#: RFC 6455 §5.5: a control frame carries at most 125 payload bytes.  The
#: server only acts on client close and ping frames, so it refuses any
#: client frame declaring more than this.
MAX_CONTROL_PAYLOAD = 125

#: close code for a frame too big to process (RFC 6455 §7.4.1)
CLOSE_TOO_BIG = 1009


class FrameTooLarge(WebSocketError):
    """A frame declared a payload above the reader's cap.

    Raised after the header, before any payload byte is read; the server
    answers it with a :data:`CLOSE_TOO_BIG` close frame.
    """


def _parse_frame(max_payload: Optional[int]):
    """Sans-I/O frame parser behind both readers.

    A generator that yields how many bytes it needs next, must be sent
    exactly that many, and returns ``(opcode, unmasked payload, fin)``.
    """
    first, second = yield 2
    fin = bool(first & 0x80)
    if first & 0x70:
        raise WebSocketError("reserved frame bits set")
    opcode = first & 0x0F
    masked = bool(second & 0x80)
    length = second & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", (yield 2))
    elif length == 127:
        (length,) = struct.unpack(">Q", (yield 8))
    if max_payload is not None and length > max_payload:
        raise FrameTooLarge(
            "frame declares %d payload bytes (limit %d)"
            % (length, max_payload)
        )
    key = (yield 4) if masked else None
    payload = (yield length) if length else b""
    if key is not None:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload, fin


def read_frame(
    read_exact: Callable[[int], bytes],
    max_payload: Optional[int] = None,
) -> Tuple[int, bytes, bool]:
    """Parse one frame: ``(opcode, unmasked payload, fin)``.

    ``read_exact(n)`` must return exactly ``n`` bytes or raise (EOF).
    Fragmented messages surface as ``fin=False`` continuation frames; the
    event stream only ever sends whole frames, so callers may treat a
    fragment as a protocol error.  A frame declaring more than
    ``max_payload`` bytes raises :class:`FrameTooLarge` unread.
    """
    parser = _parse_frame(max_payload)
    try:
        count = next(parser)
        while True:
            count = parser.send(read_exact(count))
    except StopIteration as done:
        return done.value


async def read_frame_async(
    read_exactly, max_payload: Optional[int] = None,
) -> Tuple[int, bytes, bool]:
    """:func:`read_frame` over an awaitable ``read_exactly(n)`` (asyncio)."""
    parser = _parse_frame(max_payload)
    try:
        count = next(parser)
        while True:
            count = parser.send(await read_exactly(count))
    except StopIteration as done:
        return done.value


def reader_from_socket(sock) -> Callable[[int], bytes]:
    """``read_exact`` over a blocking socket (the test/benchmark client)."""

    def read_exact(count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = sock.recv(count - len(chunks))
            if not chunk:
                raise WebSocketError("connection closed mid-frame")
            chunks += chunk
        return bytes(chunks)

    return read_exact
