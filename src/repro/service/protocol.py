"""Length-framed wire protocol of the distributed checking service.

One frame carries a small JSON header plus zero or more binary u64
payloads::

    u32 big-endian  total header length H
    H bytes         UTF-8 JSON object; the reserved key ``"#payloads"``
                    lists the word counts of the payloads that follow
    payloads        count × 8 bytes each, u64 little-endian

The payloads reuse the sharded engine's wire format verbatim: each word
is ``(state << 1) | canonical_bit`` (see
:class:`repro.checker.parallel.ShardEngine`), so a frontier batch that
crossed a multiprocessing pipe in PR 4 crosses a TCP socket here as the
same bits.  Checkpoint visited-set dumps travel the same way (plain
keys, no canonical bit).  Headers are JSON rather than pickle on
purpose: the coordinator must never unpickle data from the network.

Why little-endian on the wire: every word is byteswapped explicitly on
big-endian hosts (``sys.byteorder``), so heterogeneous worker fleets
agree; on the overwhelmingly common little-endian hosts the swap is a
no-op and payloads are zero-copy ``array('Q')`` casts.

Both transports live here: :class:`SyncFrameIO` wraps a blocking socket
(workers, CLI clients) and :func:`read_frame`/:func:`write_frame` the
asyncio streams (coordinator).  Size limits guard both directions — a
malformed or hostile peer cannot make either side allocate unbounded
memory.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import sys
from array import array
from typing import Any, Dict, List, Sequence, Tuple

#: Upper bound on one frame's JSON header (job specs and per-shard
#: statistics are far below this; 16 MiB catches stream corruption).
MAX_HEADER_BYTES = 16 * 1024 * 1024

#: Upper bound on one payload, in u64 words (1 GiB).  Frontier rounds
#: and visited dumps beyond this must be split by the sender.
MAX_PAYLOAD_WORDS = (1024 * 1024 * 1024) // 8

_PAYLOADS_KEY = "#payloads"
_LEN = struct.Struct(">I")


class ProtocolError(Exception):
    """A malformed, oversized, or truncated frame."""


def payload_to_bytes(values: object) -> bytes:
    """Normalize one payload argument to little-endian u64 bytes.

    Accepts ``bytes`` (already wire-order), ``array('Q')``, numpy u64
    arrays (duck-typed, so this module never imports numpy), or any
    iterable of ints — the shapes shard rounds, visited-key dumps and
    checkpoint frontiers naturally produce.
    """
    if isinstance(values, (bytes, bytearray, memoryview)):
        data = bytes(values)
        if len(data) % 8:
            raise ProtocolError(
                f"binary payload length {len(data)} is not a"
                " multiple of 8"
            )
        return data
    if isinstance(values, array) and values.typecode == "Q":
        if sys.byteorder == "big":  # pragma: no cover - BE hosts only
            swapped = array("Q", values)
            swapped.byteswap()
            return swapped.tobytes()
        return values.tobytes()
    astype = getattr(values, "astype", None)
    if astype is not None:  # numpy array: force wire byte order
        converted = astype("<u8", copy=False)
        return bytes(converted.tobytes())
    if isinstance(values, Sequence) or hasattr(values, "__iter__"):
        words = array("Q", values)  # type: ignore[arg-type]
        if sys.byteorder == "big":  # pragma: no cover - BE hosts only
            words.byteswap()
        return words.tobytes()
    raise ProtocolError(f"unsupported payload type {type(values).__name__}")


def bytes_to_payload(data: bytes) -> "array[int]":
    """Wire bytes back to a native-order ``array('Q')``."""
    words = array("Q")
    words.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - BE hosts only
        words.byteswap()
    return words


def encode_frame(
    header: Dict[str, Any], payloads: Sequence[object] = ()
) -> bytes:
    """One wire-ready frame: length + JSON header + u64 payloads."""
    if _PAYLOADS_KEY in header:
        raise ProtocolError(f"header key {_PAYLOADS_KEY!r} is reserved")
    blobs = [payload_to_bytes(payload) for payload in payloads]
    full = dict(header)
    full[_PAYLOADS_KEY] = [len(blob) // 8 for blob in blobs]
    encoded = json.dumps(full, separators=(",", ":")).encode("utf-8")
    if len(encoded) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"header of {len(encoded)} bytes exceeds the"
            f" {MAX_HEADER_BYTES}-byte limit"
        )
    for blob in blobs:
        if len(blob) // 8 > MAX_PAYLOAD_WORDS:
            raise ProtocolError(
                f"payload of {len(blob) // 8} words exceeds the"
                f" {MAX_PAYLOAD_WORDS}-word limit"
            )
    return _LEN.pack(len(encoded)) + encoded + b"".join(blobs)


def decode_header(encoded: bytes) -> Tuple[Dict[str, Any], List[int]]:
    """Parse a frame's JSON header; returns (header, payload word counts)."""
    try:
        parsed = json.loads(encoded.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from None
    if not isinstance(parsed, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(parsed).__name__}"
        )
    counts_raw = parsed.pop(_PAYLOADS_KEY, [])
    if not isinstance(counts_raw, list) or not all(
        isinstance(count, int) and 0 <= count <= MAX_PAYLOAD_WORDS
        for count in counts_raw
    ):
        raise ProtocolError(f"malformed {_PAYLOADS_KEY!r}: {counts_raw!r}")
    return parsed, [int(count) for count in counts_raw]


def _check_header_length(length: int) -> None:
    if length == 0 or length > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header length {length} outside"
            f" (0, {MAX_HEADER_BYTES}]"
        )


Frame = Tuple[Dict[str, Any], List["array[int]"]]


class SyncFrameIO:
    """Blocking frame transport over a connected socket (worker side).

    ``recv`` returns ``(header, payloads)`` with payloads as
    native-order ``array('Q')``; it raises :class:`ConnectionClosed` on
    clean EOF between frames and :class:`ProtocolError` on a mid-frame
    truncation (the difference matters: the former is a peer leaving,
    the latter a corrupted stream).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def _read_exact(self, count: int, *, start_of_frame: bool) -> bytes:
        chunks: List[bytes] = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                if start_of_frame and remaining == count:
                    raise ConnectionClosed("peer closed the connection")
                raise ProtocolError(
                    f"stream truncated {remaining} bytes before the end"
                    " of a frame"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def send(
        self, header: Dict[str, Any], payloads: Sequence[object] = ()
    ) -> None:
        self._sock.sendall(encode_frame(header, payloads))

    def recv(self) -> Frame:
        length = _LEN.unpack(self._read_exact(4, start_of_frame=True))[0]
        _check_header_length(length)
        header, counts = decode_header(
            self._read_exact(length, start_of_frame=False)
        )
        payloads = [
            bytes_to_payload(
                self._read_exact(count * 8, start_of_frame=False)
            )
            for count in counts
        ]
        return header, payloads

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class ConnectionClosed(Exception):
    """The peer closed the connection at a frame boundary."""


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """Read one frame from an asyncio stream (coordinator side)."""
    try:
        prefix = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed("peer closed the connection") from None
        raise ProtocolError("stream truncated inside a length prefix") from None
    length = _LEN.unpack(prefix)[0]
    _check_header_length(length)
    try:
        header, counts = decode_header(await reader.readexactly(length))
        payloads = [
            bytes_to_payload(await reader.readexactly(count * 8))
            for count in counts
        ]
    except asyncio.IncompleteReadError:
        raise ProtocolError(
            "stream truncated inside a frame"
        ) from None
    return header, payloads


async def write_frame(
    writer: asyncio.StreamWriter,
    header: Dict[str, Any],
    payloads: Sequence[object] = (),
) -> None:
    """Write one frame to an asyncio stream and drain the buffer."""
    writer.write(encode_frame(header, payloads))
    await writer.drain()
