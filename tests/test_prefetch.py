"""The helper-thread perturbation path and the one-thread BLAS default.

From ``es.PREFETCH_MIN_DIM`` parameters up, ``evaluate_assignment`` and
``compute_update`` draw the next perturbations on helper threads. These
tests force that path at small sizes and check that it gives the inline
path's bytes and leaves no thread behind on any exit. The last ones run
fresh interpreters: the BLAS thread count must not change a trajectory,
and importing esotn holds OpenBLAS to one thread unless the environment
already says otherwise.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import toy_config
from esotn.config import build_training_setup, load_run_config
from esotn.es import (
    _perturbations,
    compute_update,
    derive_perturbation,
    evaluate_assignment,
    mutation_seed_sign,
    shape_fitness,
)
from esotn.policy import ParamManifest, PolicyParams
from esotn.runtime import run_inproc

REPO = Path(__file__).resolve().parent.parent
DIM = 257


@pytest.fixture
def helper(monkeypatch):
    """Turn the helper path on at every size, and record the thread of
    every draw."""
    monkeypatch.setattr("esotn.es.PREFETCH_MIN_DIM", 0)
    threads = []

    def recording(manifest, seed, sign, out=None):
        threads.append(threading.current_thread())
        return derive_perturbation(manifest, seed, sign, out=out)

    monkeypatch.setattr("esotn.es.derive_perturbation", recording)
    return threads


def theta_of():
    values = np.linspace(-1.0, 1.0, DIM)
    return PolicyParams(manifest=ParamManifest(tensors=(("theta", (DIM,)),)), values=values)


def linear(params, seeds):
    return float(params.values @ np.arange(params.values.size, dtype=np.float64))


def evaluate_and_update(config, indices):
    theta = theta_of()
    raws = evaluate_assignment(theta, config, 5, indices, linear)
    utilities = shape_fitness(np.arange(config.num_mutations, dtype=np.float64) ** 2 % 7)
    delta = compute_update(utilities, config, 5, theta.manifest)
    return np.array(raws).tobytes(), delta.tobytes()


@pytest.mark.parametrize("mirrored, indices", [
    (True, range(8)),
    (True, range(1, 7)),  # starts and ends inside a pair
    (False, range(8)),
    (False, range(3, 5)),
])
def test_helper_gives_the_inline_bytes(monkeypatch, mirrored, indices):
    config = toy_config(num_mutations=8, mirrored=mirrored)
    inline = evaluate_and_update(config, indices)
    monkeypatch.setattr("esotn.es.PREFETCH_MIN_DIM", 0)
    assert evaluate_and_update(config, indices) == inline


def test_helper_draws_off_the_calling_thread(helper):
    config = toy_config(num_mutations=8)
    evaluate_and_update(config, range(8))
    assert len(helper) == 4 + 4  # one draw per mirrored pair, in each call
    assert threading.current_thread() not in helper


def test_inline_below_the_threshold(monkeypatch):
    threads = []

    def recording(manifest, seed, sign):
        threads.append(threading.current_thread())
        return derive_perturbation(manifest, seed, sign)

    monkeypatch.setattr("esotn.es.derive_perturbation", recording)
    evaluate_and_update(toy_config(num_mutations=8), range(8))
    assert threads == [threading.current_thread()] * 8


@pytest.mark.parametrize("n", [1, 2])
def test_training_run_same_theta_with_helper_on_and_off(monkeypatch, n):
    config = load_run_config(None, {
        "policy.hidden_dim": "4",
        "policy.message_passing_steps": "1",
        "es.mutations": "8",
        "es.episodes_per_eval": "1",
        "es.iterations": "3",
        "env.max_episode_steps": "20",
    })

    def final_theta():
        setup, theta0 = build_training_setup(config)
        theta, _ = run_inproc(setup, theta0, n)
        return theta.values.tobytes()

    inline = final_theta()
    monkeypatch.setattr("esotn.es.PREFETCH_MIN_DIM", 0)
    assert final_theta() == inline


class Stop(BaseException):
    pass


def failing(exc_type):
    def evaluator(params, seeds):
        raise exc_type("boom")

    return evaluator


class TestNoThreadOutlivesACall:
    def test_normal_end(self, helper):
        start = threading.active_count()
        evaluate_and_update(toy_config(num_mutations=8), range(8))
        assert threading.active_count() == start

    def test_evaluator_raising_on_every_mutation(self, helper):
        start = threading.active_count()
        raws = evaluate_assignment(theta_of(), toy_config(num_mutations=8), 0, range(8),
                                   failing(RuntimeError))
        assert all(np.isnan(raws))
        assert threading.active_count() == start

    def test_base_exception_propagates(self, helper):
        start = threading.active_count()
        with pytest.raises(Stop):
            evaluate_assignment(theta_of(), toy_config(num_mutations=8), 0, range(8),
                                failing(Stop))
        assert threading.active_count() == start

    def test_consumer_that_stops_early(self, helper):
        start = threading.active_count()
        config = toy_config(num_mutations=16, mirrored=False)
        seed_signs = [mutation_seed_sign(config, 0, j) for j in range(16)]
        vectors = _perturbations(theta_of().manifest, seed_signs, helpers=2)
        next(vectors)
        assert threading.active_count() > start
        vectors.close()
        assert threading.active_count() == start


def run_child(code, blas_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-3000:]
    return result.stdout.split()


# 133,377 parameters: the helper path and gemms big enough for OpenBLAS to
# split across threads.
WIDE_RUN = """
import hashlib
from esotn.config import build_training_setup, load_run_config
from esotn.runtime import run_coordinator
config = load_run_config(None, {
    "policy.hidden_dim": "256", "policy.message_passing_steps": "2",
    "es.mutations": "8", "es.episodes_per_eval": "1", "es.iterations": "2",
    "env.max_episode_steps": "1",
})
setup, theta0 = build_training_setup(config)
theta, _ = run_coordinator(setup, theta0, [])
print(hashlib.sha256(theta.values.tobytes()).hexdigest())
"""


def test_blas_thread_count_changes_no_bit():
    assert run_child(WIDE_RUN, "1") == run_child(WIDE_RUN, "2")


IMPORT_ES = """
import os
import esotn.es
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_import_holds_openblas_to_one_thread():
    assert run_child(IMPORT_ES, None) == ["1", "1"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_the_environments_blas_setting_wins():
    assert run_child(IMPORT_ES, "2")[1] == "2"
