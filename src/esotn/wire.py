"""Framed binary protocol for the coordinator/worker link.

Frame layout: 4-byte little-endian payload length, 1-byte message tag,
payload. Scalars are little-endian 64-bit (floats f8, integers i8); vectors
are length-prefixed. Returns reports carry only (mutation index, return)
pairs, so their size is independent of the parameter dimension.
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
class WorkerAssignment:
    """A contiguous slice of the iteration's mutation indices."""

    worker_id: int
    start: int
    stop: int

    @property
    def indices(self) -> range:
        return range(self.start, self.stop)


@dataclass(frozen=True)
class IterationBegin:
    t: int
    assignment: WorkerAssignment


@dataclass(frozen=True)
class ReturnsReport:
    t: int
    worker_id: int
    returns: tuple[tuple[int, float], ...]
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


def encode_message(message: Message) -> bytes:
    if isinstance(message, IterationBegin):
        a = message.assignment
        payload = struct.pack("<4q", message.t, a.worker_id, a.start, a.stop)
        tag = TAG_ITERATION_BEGIN
    elif isinstance(message, ReturnsReport):
        payload = struct.pack("<2qdQ", message.t, message.worker_id,
                              message.eval_seconds, len(message.returns))
        payload += b"".join(struct.pack("<qd", j, r) for j, r in message.returns)
        tag = TAG_RETURNS_REPORT
    elif isinstance(message, UpdateBroadcast):
        vector = np.ascontiguousarray(message.delta, dtype="<f8")
        payload = struct.pack("<qQ", message.t, vector.shape[0]) + vector.tobytes()
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
            t, worker_id, start, stop = struct.unpack("<4q", payload)
            return IterationBegin(t, WorkerAssignment(worker_id, start, stop))
        if tag == TAG_RETURNS_REPORT:
            t, worker_id, eval_seconds, count = struct.unpack_from("<2qdQ", payload)
            offset = struct.calcsize("<2qdQ")
            expected = offset + count * struct.calcsize("<qd")
            if len(payload) != expected:
                raise WireError(f"returns report payload is {len(payload)} bytes, expected {expected}")
            pairs = tuple(
                (int(j), float(r))
                for j, r in struct.iter_unpack("<qd", payload[offset:])
            )
            return ReturnsReport(t, worker_id, pairs, eval_seconds)
        if tag == TAG_UPDATE_BROADCAST:
            t, length = struct.unpack_from("<qQ", payload)
            offset = struct.calcsize("<qQ")
            if len(payload) != offset + 8 * length:
                raise WireError("update broadcast payload length mismatch")
            delta = np.frombuffer(payload, dtype="<f8", count=length, offset=offset).astype(np.float64)
            return UpdateBroadcast(t, delta)
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
