import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esotn.es import (
    ProtocolError,
    compute_update,
    evaluate_assignment,
    resolve_failures,
    shape_fitness,
    toy_config,
)
from esotn.policy import ParamManifest, PolicyParams
from esotn.runtime import (
    ConfigurationError,
    TrainingSetup,
    WorkerTimeoutError,
    partition_mutations,
    run_coordinator,
    run_inproc,
    run_worker,
    serve_workers,
    wall_time_breakdown,
)
from esotn.seeds import derive_key, rng_from_key
from esotn.wire import (
    IterationBegin,
    ReturnsReport,
    Shutdown,
    SocketConnection,
    UpdateBroadcast,
)


def vector_params(values):
    values = np.asarray(values, dtype=np.float64)
    return PolicyParams(
        manifest=ParamManifest(tensors=(("theta", (values.size,)),)), values=values
    )


@pytest.fixture
def connection_pair():
    """Makes in-process socket pairs and closes both ends of each afterwards."""
    ends = []

    def make():
        pair = SocketConnection.pair()
        ends.extend(pair)
        return pair

    yield make
    for end in ends:
        end.close()


def count_sends(conn):
    """Count ``conn``'s sends in ``conn.sent``."""
    send = conn.send
    conn.sent = 0

    def counting_send(message):
        conn.sent += 1
        send(message)

    conn.send = counting_send
    return conn


def quadratic_setup(dim=6, **config_overrides):
    rng = rng_from_key(derive_key(1234))
    target = rng.normal(size=dim)
    config = toy_config(num_mutations=8, iterations=5, **config_overrides)
    setup = TrainingSetup(
        es=config,
        evaluator=lambda p, s: -float(np.sum((p.values - target) ** 2)),
        iter_timeout=30.0,
    )
    return setup, vector_params(np.zeros(dim))


class TestPartition:
    def test_balanced_non_mirrored(self):
        sizes = [len(s) for s in partition_mutations(10, 4)]
        assert sizes == [3, 3, 2, 2]

    def test_contiguous_cover(self):
        covered = [j for s in partition_mutations(10, 4) for j in s]
        assert covered == list(range(10))

    def test_mirrored_pair_aligned(self):
        slices = partition_mutations(8, 2, mirrored=True)
        assert [len(s) for s in slices] == [4, 4]
        for s in slices:
            assert s.start % 2 == 0 and len(s) % 2 == 0

    def test_single_worker(self):
        (only,) = partition_mutations(7, 1)
        assert (only.start, only.stop) == (0, 7)

    def test_more_workers_than_mutations_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot share"):
            partition_mutations(3, 4)

    def test_more_workers_than_pairs_rejected(self):
        with pytest.raises(ConfigurationError, match="pairs"):
            partition_mutations(4, 3, mirrored=True)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 32), st.booleans())
    def test_properties(self, k, n, mirrored):
        if mirrored:
            k *= 2
            if n > k // 2:
                n = k // 2
        elif n > k:
            n = k
        slices = partition_mutations(k, n, mirrored)
        assert len(slices) == n
        covered = [j for s in slices for j in s]
        assert covered == list(range(k)), "disjoint and covering, in order"
        sizes = [len(s) for s in slices]
        assert max(sizes) - min(sizes) <= (2 if mirrored else 1)
        if mirrored:
            assert all(size % 2 == 0 for size in sizes)


class TestCoordinatorSingle:
    def test_matches_sequential_composition(self):
        setup, theta0 = quadratic_setup()
        final, stats = run_coordinator(setup, theta0, [])
        es, theta = setup.es, theta0
        for t in range(es.iterations):
            raws = evaluate_assignment(theta, es, t, range(es.num_mutations), setup.evaluator)
            returns = resolve_failures(np.array(raws), es)
            delta = compute_update(shape_fitness(returns, es.shaping), es, t, theta0.manifest)
            theta = PolicyParams(manifest=theta0.manifest, values=theta.values + delta)
        assert np.array_equal(final.values, theta.values)
        assert len(stats) == setup.es.iterations

    def test_deterministic(self):
        setup, theta0 = quadratic_setup()
        a, _ = run_coordinator(setup, theta0, [])
        b, _ = run_coordinator(setup, theta0, [])
        assert np.array_equal(a.values, b.values)


class TestInproc:
    def test_single_worker_is_the_coordinator_alone(self):
        setup, theta0 = quadratic_setup()
        solo, solo_stats = run_coordinator(setup, theta0, [])
        inproc, inproc_stats = run_inproc(setup, theta0, 1)
        assert np.array_equal(solo.values, inproc.values)
        assert [it.mean_return for it in inproc_stats] == [it.mean_return for it in solo_stats]

    @pytest.mark.parametrize("n", [2, 4])
    def test_worker_count_invariance(self, n):
        setup, theta0 = quadratic_setup()
        solo, _ = run_coordinator(setup, theta0, [])
        multi, _ = run_inproc(setup, theta0, n)
        assert np.array_equal(solo.values, multi.values)

    def test_message_economy(self, connection_pair):
        # Per iteration exactly n-1 reports and n-1 broadcasts cross the
        # connections; nothing else.
        setup, theta0 = quadratic_setup()
        n = 3
        coordinator_ends = []
        threads = []
        for _ in range(n - 1):
            coord_end, worker_end = connection_pair()
            coordinator_ends.append(count_sends(coord_end))
            thread = threading.Thread(
                target=run_worker, args=(setup, theta0, worker_end), daemon=True
            )
            thread.start()
            threads.append(thread)
        run_coordinator(setup, theta0, coordinator_ends)
        for thread in threads:
            thread.join(timeout=10.0)
        T = setup.es.iterations
        for coord_end in coordinator_ends:
            # coordinator sent: T begins + T broadcasts + 1 shutdown
            assert coord_end.sent == 2 * T + 1


class _WorkerThreadDeath(BaseException):
    """Escapes evaluate_assignment's ``except Exception`` and kills the thread."""


class TestInprocErrorPaths:
    """An error on one side must not leave the other blocked in ``recv``."""

    @staticmethod
    def new_threads(before):
        return [t for t in threading.enumerate() if t not in before and t.is_alive()]

    def test_coordinator_error_releases_workers(self):
        setup, theta0 = quadratic_setup()
        before = set(threading.enumerate())

        def on_iteration(stats, theta):
            raise OSError("disk full")

        start = time.monotonic()
        with pytest.raises(OSError, match="disk full"):
            run_inproc(setup, theta0, 3, on_iteration=on_iteration)
        assert time.monotonic() - start < 2.0
        assert self.new_threads(before) == []

    def test_bad_layout_releases_workers(self):
        setup, theta0 = quadratic_setup()
        before = set(threading.enumerate())
        start = time.monotonic()
        with pytest.raises(ConfigurationError, match="10 workers cannot share 8"):
            run_inproc(setup, theta0, 10)
        assert time.monotonic() - start < 2.0
        assert self.new_threads(before) == []

    def test_worker_death_wakes_coordinator(self):
        setup, theta0 = quadratic_setup()
        target = setup.evaluator

        def dies_off_the_main_thread(params, seeds):
            if threading.current_thread() is not threading.main_thread():
                raise _WorkerThreadDeath()
            return target(params, seeds)

        slow_deadline = TrainingSetup(
            es=setup.es, evaluator=dies_off_the_main_thread,
            iter_timeout=60.0,
        )
        before = set(threading.enumerate())
        start = time.monotonic()
        with pytest.raises(WorkerTimeoutError, match="worker 1 died during iteration 0") as info:
            run_inproc(slow_deadline, theta0, 3)
        assert time.monotonic() - start < 2.0
        assert isinstance(info.value.__cause__, _WorkerThreadDeath)
        assert self.new_threads(before) == []


class TestWorkerProtocol:
    def test_shutdown_first_clean_exit(self, connection_pair):
        setup, theta0 = quadratic_setup()
        coord_end, worker_end = connection_pair()
        coord_end.send(Shutdown())
        assert run_worker(setup, theta0, worker_end) == 0

    def test_out_of_order_iteration_fatal(self, connection_pair):
        setup, theta0 = quadratic_setup()
        coord_end, worker_end = connection_pair()
        coord_end.send(IterationBegin(t=3, indices=range(0, 2)))
        with pytest.raises(ProtocolError, match="announced iteration 3, expected 0"):
            run_worker(setup, theta0, worker_end)

    def test_report_covers_assignment_and_update_applied(self, connection_pair):
        setup, theta0 = quadratic_setup()
        coord_end, worker_end = connection_pair()
        indices = range(2, 6)
        results = {}

        def drive():
            coord_end.send(IterationBegin(t=0, indices=indices))
            report = coord_end.recv(timeout=10.0)
            results["report"] = report
            delta = np.full(6, 0.25)
            coord_end.send(UpdateBroadcast(t=0, delta=delta))
            coord_end.send(IterationBegin(t=1, indices=indices))
            results["second"] = coord_end.recv(timeout=10.0)
            coord_end.send(UpdateBroadcast(t=1, delta=np.zeros(6)))
            coord_end.send(Shutdown())

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        assert run_worker(setup, theta0, worker_end) == 0
        thread.join(timeout=10.0)
        report = results["report"]
        assert isinstance(report, ReturnsReport)
        expected = evaluate_assignment(theta0, setup.es, 0, indices, setup.evaluator)
        assert list(report.returns) == expected
        # second iteration evaluated theta0 + 0.25: different returns
        assert results["second"].returns != report.returns

    def test_worker_epsilon_matches_coordinator_rederivation(self, connection_pair):
        # The worker derives perturbations locally; the coordinator's
        # update-side re-derivation must agree bit for bit. Exercised by
        # echoing the evaluated parameter vector through the fitness.
        from esotn.es import derive_perturbation, mutation_seed_sign

        setup, theta0 = quadratic_setup()
        es = setup.es
        seen = {}

        def capture(params, seeds):
            key = tuple(params.values.round(12))
            seen[len(seen)] = params.values.copy()
            return 0.0

        capture_setup = TrainingSetup(
            es=toy_config(num_mutations=4, iterations=1),
            evaluator=capture,
        )
        coord_end, worker_end = connection_pair()
        coord_end.send(IterationBegin(t=0, indices=range(0, 4)))

        def finish():
            coord_end.recv(timeout=10.0)
            coord_end.send(UpdateBroadcast(t=0, delta=np.zeros(6)))
            coord_end.send(Shutdown())

        thread = threading.Thread(target=finish, daemon=True)
        thread.start()
        run_worker(capture_setup, theta0, worker_end)
        thread.join(timeout=10.0)
        for j in range(4):
            seed, sign = mutation_seed_sign(capture_setup.es, 0, j)
            epsilon = derive_perturbation(theta0.manifest, seed, sign)
            expected = theta0.values + capture_setup.es.sigma * epsilon
            assert np.array_equal(seen[j], expected)


class TestTimeouts:
    def test_dead_socket_worker_aborts_with_name(self):
        # A worker whose connection drops mid-iteration must surface as a
        # diagnostic naming that worker and iteration.
        import socket as socket_module

        from esotn.runtime import _await_report
        from esotn.wire import SocketConnection

        listener = socket_module.socket(socket_module.AF_INET, socket_module.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        client = socket_module.create_connection(("127.0.0.1", port))
        server_side, _ = listener.accept()
        server_side.close()  # the "worker" dies
        conn = SocketConnection(client)
        with pytest.raises(WorkerTimeoutError, match="worker 1 died during iteration 0"):
            _await_report(conn, worker_id=1, t=0, deadline=time.monotonic() + 5.0)
        conn.close()
        listener.close()

    def test_silent_worker_times_out_with_name(self, connection_pair):
        setup, theta0 = quadratic_setup()
        fast = TrainingSetup(
            es=setup.es, evaluator=setup.evaluator, iter_timeout=0.3,
        )
        # The silent end stays open until the fixture closes it: a closed end
        # would be a dead worker, not a silent one.
        dead_end, _silent = connection_pair()
        with pytest.raises(WorkerTimeoutError, match="worker 1 sent no returns for iteration 0"):
            run_coordinator(fast, theta0, [dead_end])

    @staticmethod
    def run_against_rogue(connection_pair, make_report):
        """Run a coordinator whose one worker answers the first
        IterationBegin with ``make_report(message)``."""
        setup, theta0 = quadratic_setup()
        coord_end, worker_end = connection_pair()

        def rogue():
            worker_end.send(make_report(worker_end.recv(timeout=10.0)))

        thread = threading.Thread(target=rogue, daemon=True)
        thread.start()
        try:
            run_coordinator(setup, theta0, [coord_end])
        finally:
            thread.join(timeout=10.0)

    def test_wrong_length_report_rejected(self, connection_pair):
        def one_return_short(msg):
            return ReturnsReport(msg.t, (1.0,) * (len(msg.indices) - 1), 0.0)

        message = "worker 1 reported 3 returns for iteration 0; iteration 0 assigned it 4"
        with pytest.raises(ProtocolError, match=message):
            self.run_against_rogue(connection_pair, one_return_short)

    def test_wrong_iteration_report_rejected(self, connection_pair):
        def next_iteration(msg):
            return ReturnsReport(msg.t + 1, (1.0,) * len(msg.indices), 0.0)

        message = "worker 1 reported 4 returns for iteration 1; iteration 0 assigned it 4"
        with pytest.raises(ProtocolError, match=message):
            self.run_against_rogue(connection_pair, next_iteration)


class TestServeWorkers:
    def test_accept_timeout_reaps_spawned_workers(self):
        spawned = []

        def spawn(endpoint):  # a worker that never connects
            process = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(20)"])
            spawned.append(process)
            return process

        start = time.monotonic()
        try:
            with pytest.raises(WorkerTimeoutError, match="only 0 of 1 workers connected"):
                serve_workers(2, spawn, accept_timeout=0.5)
            assert time.monotonic() - start < 5.0
            assert spawned[0].poll() is not None
        finally:
            for process in spawned:
                if process.poll() is None:
                    process.kill()
                    process.wait()

    def test_spawn_failure_reaps_started_workers_and_propagates(self):
        spawned = []

        def spawn(endpoint):  # the first worker starts, the second cannot
            if spawned:
                raise OSError("cannot start worker")
            process = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(20)"])
            spawned.append(process)
            return process

        try:
            with pytest.raises(OSError, match="cannot start worker"):
                serve_workers(3, spawn, accept_timeout=5.0)
            assert spawned[0].poll() is not None
        finally:
            for process in spawned:
                if process.poll() is None:
                    process.kill()
                    process.wait()


class TestWallTimeBreakdown:
    def test_fractions_sum_to_one(self):
        setup, theta0 = quadratic_setup()
        _, stats = run_coordinator(setup, theta0, [])
        fractions = wall_time_breakdown(stats)
        assert abs(sum(fractions) - 1.0) <= 1e-6
        assert all(f >= 0 for f in fractions)

    def test_sleepy_evaluator_dominates(self):
        config = toy_config(num_mutations=2, iterations=1)

        def sleepy(params, seeds):
            time.sleep(0.3)
            return 1.0

        setup = TrainingSetup(es=config, evaluator=sleepy)
        _, stats = run_coordinator(setup, vector_params(np.zeros(3)), [])
        eval_fraction, _, _ = wall_time_breakdown(stats)
        assert eval_fraction > 0.95
