"""Framed binary protocol for the coordinator/worker link.

Frame layout: 4-byte little-endian payload length, 1-byte message tag,
payload. Scalars are little-endian 64-bit (floats f8, integers i8); vectors
are length-prefixed. A returns report carries only the returns of the slice
its iteration announced, in index order, so its size is independent of the
parameter dimension.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

import numpy as np

TAG_ITERATION_BEGIN = 1
TAG_RETURNS_REPORT = 2
TAG_UPDATE_BROADCAST = 3
TAG_SHUTDOWN = 4

_HEADER = struct.Struct("<IB")


class WireError(RuntimeError):
    """Malformed frame or unexpected end of stream."""


@dataclass(frozen=True)
class IterationBegin:
    t: int
    indices: range  # the worker's contiguous slice of mutation indices


@dataclass(frozen=True)
class ReturnsReport:
    t: int
    returns: tuple[float, ...]  # one per announced index, in order
    eval_seconds: float


@dataclass(frozen=True)
class UpdateBroadcast:
    t: int
    delta: np.ndarray

    def __eq__(self, other) -> bool:  # arrays need elementwise comparison
        return (
            isinstance(other, UpdateBroadcast)
            and self.t == other.t
            and np.array_equal(self.delta, other.delta)
        )


@dataclass(frozen=True)
class Shutdown:
    pass


Message = IterationBegin | ReturnsReport | UpdateBroadcast | Shutdown


def _pack_vector(values) -> bytes:
    vector = np.ascontiguousarray(values, dtype="<f8")
    return struct.pack("<Q", vector.shape[0]) + vector.tobytes()


def _unpack_vector(payload: bytes, offset: int) -> np.ndarray:
    """The length-prefixed f8 vector at ``offset``; it must end the payload."""
    (length,) = struct.unpack_from("<Q", payload, offset)
    offset += 8
    if len(payload) != offset + 8 * length:
        raise WireError(f"payload is {len(payload)} bytes, expected {offset + 8 * length}")
    return np.frombuffer(payload, dtype="<f8", count=length, offset=offset).astype(np.float64)


def encode_message(message: Message) -> bytes:
    if isinstance(message, IterationBegin):
        indices = message.indices
        payload = struct.pack("<3q", message.t, indices.start, indices.stop)
        tag = TAG_ITERATION_BEGIN
    elif isinstance(message, ReturnsReport):
        payload = struct.pack("<qd", message.t, message.eval_seconds)
        payload += _pack_vector(message.returns)
        tag = TAG_RETURNS_REPORT
    elif isinstance(message, UpdateBroadcast):
        payload = struct.pack("<q", message.t) + _pack_vector(message.delta)
        tag = TAG_UPDATE_BROADCAST
    elif isinstance(message, Shutdown):
        payload = b""
        tag = TAG_SHUTDOWN
    else:
        raise TypeError(f"cannot encode {type(message).__name__}")
    return _HEADER.pack(len(payload), tag) + payload


def decode_payload(tag: int, payload: bytes) -> Message:
    try:
        if tag == TAG_ITERATION_BEGIN:
            t, start, stop = struct.unpack("<3q", payload)
            return IterationBegin(t, range(start, stop))
        if tag == TAG_RETURNS_REPORT:
            t, eval_seconds = struct.unpack_from("<qd", payload)
            return ReturnsReport(t, tuple(_unpack_vector(payload, 16).tolist()), eval_seconds)
        if tag == TAG_UPDATE_BROADCAST:
            (t,) = struct.unpack_from("<q", payload)
            return UpdateBroadcast(t, _unpack_vector(payload, 8))
        if tag == TAG_SHUTDOWN:
            if payload:
                raise WireError("shutdown carries no payload")
            return Shutdown()
    except struct.error as exc:
        raise WireError(f"malformed payload for tag {tag}: {exc}") from exc
    raise WireError(f"unknown message tag {tag}")


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class SocketConnection:
    """One framed endpoint of a coordinator/worker socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        if sock.family in (socket.AF_INET, socket.AF_INET6):  # a socket pair is AF_UNIX
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @classmethod
    def pair(cls) -> tuple[SocketConnection, SocketConnection]:
        """Two connected endpoints within one process."""
        a, b = socket.socketpair()
        return cls(a), cls(b)

    def send(self, message: Message) -> None:
        self._sock.sendall(encode_message(message))

    def recv(self, timeout: float | None = None) -> Message:
        """Next message; raises TimeoutError past the deadline, WireError on EOF."""
        self._sock.settimeout(timeout)
        header = _recv_exact(self._sock, _HEADER.size)
        length, tag = _HEADER.unpack(header)
        payload = _recv_exact(self._sock, length) if length else b""
        return decode_payload(tag, payload)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
