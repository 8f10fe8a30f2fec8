import math
import socket
import threading

import numpy as np
import pytest

from esotn.wire import (
    IterationBegin,
    ReturnsReport,
    Shutdown,
    SocketConnection,
    UpdateBroadcast,
    WireError,
    WorkerAssignment,
    decode_payload,
    encode_message,
)

_HEADER_BYTES = 5


def codec_round_trip(message):
    frame = encode_message(message)
    length = int.from_bytes(frame[:4], "little")
    tag = frame[4]
    assert len(frame) == _HEADER_BYTES + length
    return decode_payload(tag, frame[_HEADER_BYTES:])


def socket_pair_round_trip(message):
    sender, receiver = SocketConnection.pair()
    try:
        sender.send(message)
        return receiver.recv(timeout=5.0)
    finally:
        sender.close()
        receiver.close()


@pytest.fixture(params=[codec_round_trip, socket_pair_round_trip], ids=["codec", "socket_pair"])
def round_trip(request):
    return request.param


def loopback_tcp_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname())
    accepted, _ = server.accept()
    server.close()
    return SocketConnection(client), SocketConnection(accepted)


@pytest.fixture(params=[loopback_tcp_pair, SocketConnection.pair], ids=["tcp", "socket_pair"])
def connection_pair(request):
    """Two connected endpoints, both closed after the test."""
    ends = request.param()
    yield ends
    for end in ends:
        end.close()


class TestFraming:
    def test_iteration_begin(self, round_trip):
        msg = IterationBegin(t=3, assignment=WorkerAssignment(2, 8, 16))
        assert round_trip(msg) == msg
        assert len(encode_message(msg)) == _HEADER_BYTES + 4 * 8  # t and the assignment

    def test_returns_report(self, round_trip):
        msg = ReturnsReport(
            t=5, worker_id=1, returns=((3, 1.25), (4, -2.5)), eval_seconds=0.125
        )
        assert round_trip(msg) == msg

    def test_returns_report_nan_survives(self, round_trip):
        msg = ReturnsReport(t=0, worker_id=2, returns=((0, math.nan),), eval_seconds=0.0)
        decoded = round_trip(msg)
        assert math.isnan(decoded.returns[0][1])

    def test_update_broadcast(self, round_trip):
        delta = np.linspace(-1, 1, 37)
        decoded = round_trip(UpdateBroadcast(t=9, delta=delta))
        assert decoded.t == 9
        assert np.array_equal(decoded.delta, delta)

    def test_update_broadcast_exact_bits(self, round_trip):
        delta = np.array([0.1, -1e300, 3.7e-200])
        decoded = round_trip(UpdateBroadcast(t=0, delta=delta))
        assert decoded.delta.tobytes() == delta.tobytes()

    def test_shutdown(self, round_trip):
        assert round_trip(Shutdown()) == Shutdown()

    def test_unknown_tag(self):
        with pytest.raises(WireError, match="unknown message tag"):
            decode_payload(99, b"")

    def test_malformed_payload(self):
        with pytest.raises(WireError):
            decode_payload(1, b"\x00\x01")

    def test_returns_report_length_mismatch(self):
        msg = ReturnsReport(t=0, worker_id=0, returns=((0, 1.0),), eval_seconds=0.0)
        frame = encode_message(msg)
        with pytest.raises(WireError):
            decode_payload(frame[4], frame[_HEADER_BYTES:-4])


class TestReportSizeIndependentOfParamDim:
    def test_payload_scales_with_assignment_not_theta(self):
        # The report for k_i mutations has a fixed size no matter how large
        # the parameter vector is; only the update broadcast scales with it.
        small = ReturnsReport(
            t=0, worker_id=0, returns=tuple((j, 0.5) for j in range(8)), eval_seconds=0.1
        )
        # identical k_i, conceptually a policy 1000x larger
        large = ReturnsReport(
            t=0, worker_id=0, returns=tuple((j, 1.5e6) for j in range(8)), eval_seconds=9.9
        )
        assert len(encode_message(small)) == len(encode_message(large))

    def test_payload_linear_in_assignment_size(self):
        def size(count):
            report = ReturnsReport(
                t=0, worker_id=0, returns=tuple((j, 1.0) for j in range(count)),
                eval_seconds=0.0,
            )
            return len(encode_message(report))

        per_entry = size(10) - size(9)
        assert size(20) == size(10) + 10 * per_entry


class TestSocketConnection:
    def test_send_recv_over_localhost(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]
        received = []

        def serve():
            sock, _ = server.accept()
            conn = SocketConnection(sock)
            received.append(conn.recv(timeout=5.0))
            conn.send(UpdateBroadcast(t=0, delta=np.array([1.0, 2.0])))
            conn.close()

        thread = threading.Thread(target=serve)
        thread.start()
        client = SocketConnection(socket.create_connection(("127.0.0.1", port)))
        sent = ReturnsReport(t=0, worker_id=1, returns=((0, 3.5),), eval_seconds=0.0)
        client.send(sent)
        reply = client.recv(timeout=5.0)
        thread.join()
        server.close()
        client.close()
        assert received[0] == sent
        assert np.array_equal(reply.delta, np.array([1.0, 2.0]))

    def test_recv_timeout(self, connection_pair):
        conn, _silent = connection_pair
        with pytest.raises(TimeoutError):
            conn.recv(timeout=0.05)

    def test_eof_raises_wire_error(self, connection_pair):
        conn, peer = connection_pair
        peer.close()
        with pytest.raises(WireError, match="closed"):
            conn.recv(timeout=1.0)
