"""The names an outside tracer replaces, and the lookups that make it see calls.

perfbench times layers by replacing module attributes where esotn's callers
resolve them (``esotn.policy.forward``, ``esotn.env.feasible_actions`` and
so on) and counts env steps through ``OtnEnv.step``. A renamed attribute,
a changed positional signature or a caller that binds a local alias would
make those spans read 0 without any error, so this file pins all three.
"""

import inspect
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import toy_config
import esotn.config
import esotn.env
import esotn.es
import esotn.policy
import esotn.runtime
import esotn.seeds
import esotn.wire
from esotn.cli import main
from esotn.config import build_env_configs, load_run_config
from esotn.env import DemandStream, EnvConfig
from esotn.es import (
    PREFETCH_MIN_DIM,
    compute_update,
    derive_perturbation,
    episode_seeds,
    evaluate_assignment,
    make_fitness_evaluator,
    make_rollout,
    mutate,
    mutation_seed_sign,
)
from esotn.policy import (
    ParamManifest,
    PolicyConfig,
    PolicyContext,
    PolicyParams,
    init_params,
    make_agent,
)
from esotn.runtime import TrainingSetup, run_inproc
from esotn.topology import compute_candidate_paths, load_bundled_topology

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.spans import COUNT_TARGETS, SPAN_TARGETS  # noqa: E402

# perfbench's own span and count targets, plus the names its recorder and
# harness replace outside those tables.
PATCHED = list(dict.fromkeys(
    [(owner, name) for owner, name, _ in SPAN_TARGETS + COUNT_TARGETS]
    + [(esotn.runtime, "run_coordinator"), (esotn.runtime, "run_proc")]
))


@pytest.mark.parametrize(
    "owner, name", PATCHED, ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in PATCHED]
)
def test_patched_name_exists_and_is_callable(owner, name):
    assert callable(getattr(owner, name))


@pytest.mark.parametrize(
    "fn, params",
    [
        (esotn.runtime.evaluate_assignment, ["theta", "config", "t", "indices", "evaluator"]),
        (esotn.runtime.resolve_failures, ["raw_returns", "config"]),
    ],
    ids=["evaluate_assignment", "resolve_failures"],
)
def test_positional_signature(fn, params):
    signature = inspect.signature(fn).parameters.values()
    assert [p.name for p in signature] == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in signature)


@pytest.mark.parametrize("masking", [False, True], ids=["unmasked", "masked"])
def test_rollout_resolves_step_functions_through_module_globals(monkeypatch, masking):
    calls = {"step": 0, "allocated": 0, "forward": 0, "env.feasible": 0, "policy.feasible": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    original_step = esotn.env.OtnEnv.step

    def step(self, state, action):
        result = original_step(self, state, action)
        calls["step"] += 1
        calls["allocated"] += result[1] > 0.0  # feasibility is checked after an allocation
        return result

    monkeypatch.setattr(esotn.env.OtnEnv, "step", step)
    monkeypatch.setattr(esotn.policy, "forward", counted("forward", esotn.policy.forward))
    monkeypatch.setattr(
        esotn.env, "feasible_actions", counted("env.feasible", esotn.env.feasible_actions)
    )
    monkeypatch.setattr(
        esotn.policy, "feasible_actions", counted("policy.feasible", esotn.policy.feasible_actions)
    )

    topo = load_bundled_topology("geant2")
    env_config = EnvConfig(topology=topo, paths=compute_candidate_paths(topo, 4))
    # epsilon 0.5 picks infeasible paths often enough that some episodes end
    # on a zero-reward step, which skips the env's feasibility check.
    config = PolicyConfig(
        hidden_dim=4, message_passing_steps=1, action_noise_epsilon=0.5,
        feasibility_masking=masking,
    )
    evaluate = make_fitness_evaluator([env_config], config)
    evaluate(init_params(config, 0), list(range(6)))

    assert calls["step"] > 20
    assert calls["forward"] == calls["step"]
    assert calls["env.feasible"] == calls["allocated"]
    assert calls["policy.feasible"] == (calls["step"] if masking else 0)


def test_env_configs_find_paths_through_config_globals(monkeypatch):
    calls = []
    compute = esotn.config.compute_candidate_paths

    def counted(topo, k):
        calls.append(topo.name)
        return compute(topo, k)

    monkeypatch.setattr(esotn.config, "compute_candidate_paths", counted)
    build_env_configs(load_run_config(None, {"topology.files": "nsfnet,geant2"}))
    assert calls == ["nsfnet", "geant2"]


def test_memo_free_demand_draw_builds_one_generator(monkeypatch):
    topo = load_bundled_topology("nsfnet")
    env_config = EnvConfig(topology=topo, paths=compute_candidate_paths(topo, 4))
    calls = []
    rng_from_key = esotn.env.rng_from_key

    def counted(key):
        calls.append(key)
        return rng_from_key(key)

    monkeypatch.setattr(esotn.env, "rng_from_key", counted)
    stream = DemandStream(env_config, 7)
    for _ in range(5):
        stream.sample()
    assert len(calls) == 5


def test_eval_resolves_agent_and_forward_through_module_globals(monkeypatch, capsys):
    # ``esotn eval`` rolls out through the same module globals as the
    # training fitness: one ``esotn.es.make_agent`` per episode and one
    # ``esotn.policy.forward`` per ``OtnEnv.step``.
    calls = {"make_agent": 0, "forward": 0, "step": 0}
    make_agent, forward, original_step = (
        esotn.es.make_agent, esotn.policy.forward, esotn.env.OtnEnv.step
    )

    def counted_make_agent(*args, **kwargs):
        calls["make_agent"] += 1
        return make_agent(*args, **kwargs)

    def counted_forward(*args, **kwargs):
        calls["forward"] += 1
        return forward(*args, **kwargs)

    def step(self, state, action):
        calls["step"] += 1
        return original_step(self, state, action)

    monkeypatch.setattr(esotn.es, "make_agent", counted_make_agent)
    monkeypatch.setattr(esotn.policy, "forward", counted_forward)
    monkeypatch.setattr(esotn.env.OtnEnv, "step", step)
    argv = ["eval", "--episodes", "3", "--set", "topology.files=nsfnet,geant2",
            "--set", "policy.hidden_dim=4", "--set", "policy.message_passing_steps=1"]
    assert main(argv) == 0
    assert "evaluated 3 episodes" in capsys.readouterr().out
    assert calls["make_agent"] == 3
    assert calls["step"] > 20
    assert calls["forward"] == calls["step"]


def test_resolve_failures_sees_each_iterations_returns_once(monkeypatch):
    # perfbench counts attempted and failed mutations from the argument of
    # ``esotn.runtime.resolve_failures``: one call per iteration, with all k
    # raw returns by mutation index and NaN exactly where a mutation failed.
    es = toy_config(num_mutations=8, iterations=3)
    failing = {1, 4, 6}  # in both workers' slices
    theta0 = PolicyParams(manifest=ParamManifest(tensors=(("theta", (4,)),)), values=np.zeros(4))
    thetas = [theta0]
    iteration_of = {tuple(episode_seeds(es, t)): t for t in range(es.iterations)}

    def evaluator(params, seeds):
        t = iteration_of[tuple(seeds)]
        for j in failing:
            epsilon = derive_perturbation(params.manifest, *mutation_seed_sign(es, t, j))
            if np.array_equal(params.values, mutate(thetas[t], epsilon, es.sigma).values):
                raise RuntimeError(f"mutation {j} fails")
        return -float(np.sum(params.values**2))

    calls = []
    resolve_failures = esotn.runtime.resolve_failures

    def recording(raw_returns, config):
        calls.append([math.isnan(r) for r in raw_returns])
        return resolve_failures(raw_returns, config)

    monkeypatch.setattr(esotn.runtime, "resolve_failures", recording)
    setup = TrainingSetup(es=es, evaluator=evaluator)
    run_inproc(setup, theta0, 2, lambda it, theta: thetas.append(theta))

    assert len(calls) == es.iterations
    for failed in calls:
        assert len(failed) == es.num_mutations
        assert {j for j, nan in enumerate(failed) if nan} == failing


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that records each call's thread."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(threading.current_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_one_reset_per_episode(monkeypatch):
    # perfbench counts episodes (env.episodes) by ``OtnEnv.reset``.
    envs = [bundled_env(name) for name in ("nsfnet", "geant2")]
    config = PolicyConfig(hidden_dim=4, message_passing_steps=1)
    params = init_params(config, 0)
    resets = counting(monkeypatch, esotn.env.OtnEnv, "reset")
    make_fitness_evaluator(envs, config)(params, list(range(5)))
    assert len(resets) == 5
    make_rollout(envs, config)(params, list(range(3)))
    assert len(resets) == 8


@pytest.mark.parametrize("deterministic", [False, True], ids=["stochastic", "deterministic"])
def test_one_action_generator_per_stochastic_agent(monkeypatch, deterministic):
    env_config = bundled_env("nsfnet")
    config = PolicyConfig(hidden_dim=4, message_passing_steps=1, deterministic_eval=deterministic)
    params = init_params(config, 0)  # its own generator, before the count starts
    ctx = PolicyContext.for_env(env_config)
    generators = counting(monkeypatch, esotn.policy, "rng_from_key")
    for seed in range(4):
        make_agent(params, config, env_config, seed, ctx)
    assert len(generators) == (0 if deterministic else 4)
    make_rollout([env_config], config)(params, list(range(3)))
    assert len(generators) == (0 if deterministic else 7)


@pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored", "plain"])
def test_one_seeds_generator_per_perturbation_seed(monkeypatch, mirrored):
    # Below PREFETCH_MIN_DIM each seed's vector is drawn once, on the
    # caller's thread; a mirrored pair shares one seed.
    es = toy_config(num_mutations=8, iterations=1, mirrored=mirrored)
    manifest = ParamManifest(tensors=(("theta", (16,)),))
    assert manifest.total_dim < PREFETCH_MIN_DIM
    theta = PolicyParams(manifest=manifest, values=np.zeros(16))
    seeds = len({mutation_seed_sign(es, 0, j)[0] for j in range(es.num_mutations)})
    assert seeds == (4 if mirrored else 8)
    generators = counting(monkeypatch, esotn.seeds, "rng_from_key")
    evaluate_assignment(theta, es, 0, range(es.num_mutations), lambda p, s: 0.0)
    assert len(generators) == seeds
    compute_update(np.zeros(es.num_mutations), es, 0, manifest)
    assert len(generators) == 2 * seeds
    assert set(generators) == {threading.current_thread()}


def test_worker_connection_decodes_two_messages_per_iteration_plus_shutdown(monkeypatch):
    # In a 2-worker in-process run the worker thread's connection decodes
    # T begins, T updates and one shutdown; the coordinator's decodes T
    # reports.
    es = toy_config(num_mutations=8, iterations=3)
    theta0 = PolicyParams(manifest=ParamManifest(tensors=(("theta", (4,)),)), values=np.zeros(4))
    setup = TrainingSetup(es=es, evaluator=lambda p, s: -float(np.sum(p.values**2)))
    decodes = counting(monkeypatch, esotn.wire, "decode_payload")
    run_inproc(setup, theta0, 2)
    coordinator = threading.current_thread()
    T = es.iterations
    assert sum(thread is not coordinator for thread in decodes) == 2 * T + 1
    assert sum(thread is coordinator for thread in decodes) == T


def bundled_env(name):
    topo = load_bundled_topology(name)
    return EnvConfig(topology=topo, paths=compute_candidate_paths(topo, 4))
