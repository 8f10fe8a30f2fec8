"""Coordinator/worker execution fabric for lock-step training.

The coordinator doubles as worker 0: it evaluates its own mutation slice,
gathers the other workers' returns, computes the parameter update, and
broadcasts the delta. Workers re-derive their perturbations from the shared
seed scheme, so only the returns of each announced slice, in index order,
and the update vector ever cross the wire. Every message goes through the
framed socket codec of ``wire``: in-process workers are threads on socket
pairs, multi-process workers dial the coordinator over loopback TCP.
"""

from __future__ import annotations

import logging
import socket
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .es import (
    ESConfig,
    Evaluator,
    IterationStats,
    ProtocolError,
    evaluate_assignment,
    resolve_failures,
    shape_fitness,
    compute_update,
)
from .policy import PolicyParams
from .wire import (
    IterationBegin,
    ReturnsReport,
    Shutdown,
    SocketConnection,
    UpdateBroadcast,
    WireError,
)

log = logging.getLogger(__name__)

DEFAULT_ITER_TIMEOUT = 300.0


class ConfigurationError(ValueError):
    """Invalid worker/mutation layout or coordinator endpoint."""


class WorkerTimeoutError(RuntimeError):
    """A worker failed to report within the iteration deadline."""


def partition_mutations(k: int, n: int, mirrored: bool = False) -> list[range]:
    """Balanced contiguous partition of mutation indices 0..k-1 over n workers.

    Mirrored runs partition whole pairs so every worker's slice is
    pair-aligned (sizes then differ by at most one pair).
    """
    if n < 1:
        raise ConfigurationError(f"worker count must be positive, got {n}")
    if n > k:
        raise ConfigurationError(f"{n} workers cannot share {k} mutations")
    unit = 2 if mirrored else 1
    slots = k // unit
    if mirrored:
        if k % 2:
            raise ConfigurationError(f"mirrored mutation count must be even, got {k}")
        if n > slots:
            raise ConfigurationError(f"{n} workers cannot share {slots} mirrored pairs")
    base, extra = divmod(slots, n)  # the first ``extra`` workers take one more unit
    bounds = [unit * (i * base + min(i, extra)) for i in range(n + 1)]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class TrainingSetup:
    """Everything a participant needs to run its side of the protocol."""

    es: ESConfig
    evaluator: Evaluator
    iter_timeout: float = DEFAULT_ITER_TIMEOUT


def wall_time_breakdown(stats: Sequence[IterationStats]) -> tuple[float, float, float]:
    """(eval, update, comm) fractions of total accounted run time.

    Evaluation time per iteration is the max over workers, so it reflects
    the barrier the coordinator actually waits on; comm is the residual of
    the iteration wall time.
    """
    eval_total = sum(it.eval_seconds for it in stats)
    update_total = sum(it.update_seconds for it in stats)
    comm_total = sum(
        max(0.0, it.wall_seconds - it.eval_seconds - it.update_seconds) for it in stats
    )
    total = eval_total + update_total + comm_total
    if total <= 0.0:
        return 1.0, 0.0, 0.0
    return eval_total / total, update_total / total, comm_total / total


def run_coordinator(
    setup: TrainingSetup,
    theta0: PolicyParams,
    connections: Sequence,
    on_iteration: Callable[[IterationStats, PolicyParams], None] | None = None,
) -> tuple[PolicyParams, list[IterationStats]]:
    """Drive T lock-step iterations as worker 0 plus aggregator.

    ``connections`` carry workers 1..n-1 (empty for a single-worker run).
    Every iteration is a barrier: no update is computed until every worker
    reported its announced slice's returns, which fill that slice of the
    iteration's fitness vector.
    """
    es = setup.es
    n = len(connections) + 1
    theta = theta0
    stats: list[IterationStats] = []
    try:
        slices = partition_mutations(es.num_mutations, n, es.mirrored)
        for t in range(es.iterations):
            wall_start = time.perf_counter()
            for worker_id in range(1, n):
                connections[worker_id - 1].send(IterationBegin(t, slices[worker_id]))

            own_start = time.perf_counter()
            own = slices[0]
            raw = np.full(es.num_mutations, np.nan)
            raw[own.start:own.stop] = evaluate_assignment(theta, es, t, own, setup.evaluator)
            eval_times = [time.perf_counter() - own_start]

            deadline = time.monotonic() + setup.iter_timeout
            for worker_id in range(1, n):
                report = _await_report(connections[worker_id - 1], worker_id, t, deadline)
                s = slices[worker_id]
                if report.t != t or len(report.returns) != len(s):
                    raise ProtocolError(
                        f"worker {worker_id} reported {len(report.returns)} returns for "
                        f"iteration {report.t}; iteration {t} assigned it {len(s)}"
                    )
                eval_times.append(report.eval_seconds)
                raw[s.start:s.stop] = report.returns

            update_start = time.perf_counter()
            returns = resolve_failures(raw, es)
            utilities = shape_fitness(returns, es.shaping)
            delta = compute_update(utilities, es, t, theta.manifest)
            for conn in connections:
                conn.send(UpdateBroadcast(t, delta))
            theta = PolicyParams(manifest=theta.manifest, values=theta.values + delta)
            update_seconds = time.perf_counter() - update_start

            iteration = IterationStats(
                t=t,
                best_return=float(returns.max()),
                mean_return=float(returns.mean()),
                worst_return=float(returns.min()),
                eval_seconds=max(eval_times),
                update_seconds=update_seconds,
                wall_seconds=time.perf_counter() - wall_start,
                theta_l2_norm=float(np.linalg.norm(theta.values)),
            )
            stats.append(iteration)
            if on_iteration is not None:
                on_iteration(iteration, theta)
        for conn in connections:
            conn.send(Shutdown())
    finally:
        for conn in connections:
            conn.close()
    return theta, stats


def _await_report(connection, worker_id: int, t: int, deadline: float) -> ReturnsReport:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerTimeoutError(f"worker {worker_id} missed iteration {t} deadline")
    try:
        message = connection.recv(timeout=remaining)
    except TimeoutError:
        raise WorkerTimeoutError(
            f"worker {worker_id} sent no returns for iteration {t} "
            f"within the iteration timeout"
        ) from None
    except (WireError, OSError) as exc:
        raise WorkerTimeoutError(f"worker {worker_id} died during iteration {t}: {exc}") from exc
    if not isinstance(message, ReturnsReport):
        raise ProtocolError(
            f"expected returns from worker {worker_id} for iteration {t}, "
            f"got {type(message).__name__}"
        )
    return message


def run_worker(setup: TrainingSetup, theta0: PolicyParams, connection) -> int:
    """Worker loop: evaluate the announced slice, report its returns in
    index order, apply the broadcast update.

    Returns 0 on a clean shutdown. The lock-step protocol announces
    iterations in order, one per applied update, so any other ``t`` is fatal.
    """
    es = setup.es
    theta = theta0
    t = 0  # updates applied so far
    while True:
        message = connection.recv(timeout=None)
        if isinstance(message, Shutdown):
            return 0
        if not isinstance(message, IterationBegin):
            raise ProtocolError(f"unexpected {type(message).__name__} while idle")
        if message.t != t:
            raise ProtocolError(f"coordinator announced iteration {message.t}, expected {t}")
        eval_start = time.perf_counter()
        raws = evaluate_assignment(theta, es, t, message.indices, setup.evaluator)
        eval_seconds = time.perf_counter() - eval_start
        connection.send(ReturnsReport(t, tuple(raws), eval_seconds))
        update = connection.recv(timeout=None)
        if not isinstance(update, UpdateBroadcast) or update.t != t:
            raise ProtocolError(f"expected update for iteration {t}, got {update!r}")
        theta = PolicyParams(manifest=theta.manifest, values=theta.values + update.delta)
        t += 1


def run_inproc(
    setup: TrainingSetup,
    theta0: PolicyParams,
    n: int,
    on_iteration: Callable[[IterationStats, PolicyParams], None] | None = None,
) -> tuple[PolicyParams, list[IterationStats]]:
    """Coordinator plus n-1 worker threads over socket pairs.

    Either side's exit closes its end, so an error on one side wakes the
    other with EOF instead of leaving it blocked in ``recv``.
    """
    coordinator_ends: list[SocketConnection] = []
    threads: list[threading.Thread] = []
    worker_errors: list[BaseException] = []

    def worker_main(conn: SocketConnection) -> None:
        try:
            run_worker(setup, theta0, conn)
        except BaseException as exc:  # surfaced after join
            worker_errors.append(exc)
        finally:
            conn.close()

    for _ in range(n - 1):
        coord_end, worker_end = SocketConnection.pair()
        coordinator_ends.append(coord_end)
        thread = threading.Thread(target=worker_main, args=(worker_end,), daemon=True)
        thread.start()
        threads.append(thread)
    try:
        result = run_coordinator(setup, theta0, coordinator_ends, on_iteration)
    except WorkerTimeoutError as exc:
        # A worker's exit closes its end only after it records its error.
        if worker_errors:
            raise exc from worker_errors[0]
        raise
    finally:
        for thread in threads:
            thread.join(timeout=10.0)
    if worker_errors:
        raise worker_errors[0]
    return result


def serve_workers(
    n: int,
    spawn: Callable[[str], subprocess.Popen],
    bind_host: str = "127.0.0.1",
    bind_port: int = 0,
    accept_timeout: float = 60.0,
) -> tuple[list[SocketConnection], list[subprocess.Popen], socket.socket]:
    """Listen, launch n-1 worker processes, and accept their connections.

    ``spawn`` receives the ``host:port`` endpoint and must start one worker
    process, returning its handle.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    processes: list[subprocess.Popen] = []
    connections: list[SocketConnection] = []
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((bind_host, bind_port))
        listener.listen(max(n - 1, 1))
        host, port = listener.getsockname()
        for _ in range(n - 1):
            processes.append(spawn(f"{host}:{port}"))
        listener.settimeout(accept_timeout)
        for _ in range(n - 1):
            sock, _ = listener.accept()
            connections.append(SocketConnection(sock))
    except BaseException as exc:
        listener.close()
        for conn in connections:
            conn.close()
        for process in processes:
            process.kill()
            process.wait()
        if not isinstance(exc, TimeoutError):
            raise
        raise WorkerTimeoutError(
            f"only {len(connections)} of {n - 1} workers connected within {accept_timeout}s"
        ) from None
    return connections, processes, listener


def run_proc(
    setup: TrainingSetup,
    theta0: PolicyParams,
    n: int,
    spawn: Callable[[str], subprocess.Popen],
    on_iteration: Callable[[IterationStats, PolicyParams], None] | None = None,
    bind_host: str = "127.0.0.1",
    bind_port: int = 0,
) -> tuple[PolicyParams, list[IterationStats]]:
    """Coordinator plus n-1 worker processes over local sockets; a
    single-worker run binds no listener and spawns nothing."""
    if n == 1:
        return run_coordinator(setup, theta0, [], on_iteration)
    connections, processes, listener = serve_workers(n, spawn, bind_host, bind_port)
    try:
        result = run_coordinator(setup, theta0, connections, on_iteration)
    finally:
        listener.close()
        for process in processes:
            try:
                code = process.wait(timeout=30.0)
                if code != 0:
                    log.warning("worker process exited with status %s", code)
            except Exception:
                process.kill()
                process.wait()
    return result


def connect_worker(endpoint: str, timeout: float = 60.0) -> SocketConnection:
    """Dial the coordinator at ``host:port``."""
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ConfigurationError(f"--connect expects HOST:PORT, got {endpoint!r}")
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    sock.settimeout(None)
    return SocketConnection(sock)
