"""The names an outside tracer replaces, and the lookups that make it see calls.

perfbench times layers by replacing module attributes where esotn's callers
resolve them (``esotn.policy.forward``, ``esotn.env.feasible_actions`` and
so on) and counts env steps through ``OtnEnv.step``. A renamed attribute,
a changed positional signature or a caller that binds a local alias would
make those spans read 0 without any error, so this file pins all three.
"""

import inspect
import math

import numpy as np
import pytest

import esotn.env
import esotn.es
import esotn.policy
import esotn.runtime
import esotn.wire
from esotn.cli import main
from esotn.env import EnvConfig
from esotn.es import (
    derive_perturbation,
    episode_seeds,
    make_fitness_evaluator,
    mutate,
    mutation_seed_sign,
    toy_config,
)
from esotn.policy import ParamManifest, PolicyConfig, PolicyParams, init_params
from esotn.runtime import TrainingSetup, run_inproc
from esotn.topology import compute_candidate_paths, load_bundled_topology

PATCHED = [
    (esotn.runtime, "evaluate_assignment"),
    (esotn.runtime, "resolve_failures"),
    (esotn.runtime, "run_coordinator"),
    (esotn.runtime, "run_proc"),
    (esotn.runtime, "serve_workers"),
    (esotn.runtime, "shape_fitness"),
    (esotn.runtime, "compute_update"),
    (esotn.es, "derive_perturbation"),
    (esotn.es, "mutate"),
    (esotn.es, "make_agent"),
    (esotn.policy, "forward"),
    (esotn.policy, "feasible_actions"),
    (esotn.env, "feasible_actions"),
    (esotn.env.OtnEnv, "step"),
    (esotn.env.DemandStream, "sample"),
    (esotn.wire, "encode_message"),
]


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
