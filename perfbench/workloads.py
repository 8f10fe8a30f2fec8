"""The benchmark's workloads: each is a generated esotn run configuration.

A workload is a closed loop with one coordinator: iteration t+1 starts only
after the update of iteration t. The seed given to the benchmark becomes
``es.seed``, which fixes the whole trajectory; nothing else reaches the
program but the config file. ``es.iterations`` is set out of reach and the
benchmark ends each pass itself, by time or after ``iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The loop never gets here: the benchmark stops every pass before.
ITERATION_CAP = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict[str, str]
    # Fixed trajectory length: traced passes run exactly this many
    # iterations, the timed pass at least this many, and the deterministic
    # return is measured on the parameters after it.
    iterations: int
    # Held-out deterministic episodes rolled out for det_return.
    eval_episodes: int
    tiny_overrides: dict[str, str] = field(default_factory=dict)


# Periodic checkpoints inside the loop, saved as `esotn train` saves them
# but every 5 iterations instead of the program's default 50, so that some
# saves fall inside every timed pass.
COMMON = {"run.checkpoint_interval": "5", "es.iterations": str(ITERATION_CAP)}

# Smallest sizes that still run every code path of a workload (tests only).
TINY = {
    "policy.hidden_dim": "4",
    "policy.message_passing_steps": "1",
    "es.mutations": "4",
    "es.episodes_per_eval": "1",
    "env.max_episode_steps": "4",
}
TINY_ITERATIONS = 2
TINY_EVAL_EPISODES = 3

WORKLOADS = {
    w.name: w
    for w in (
        # The default config (nsfnet, k=4, h=16, 4 message-passing steps, 64
        # mirrored mutations, 3 episodes each) in one process: the paper's
        # training hot path, bound by policy.forward and OtnEnv.step. Not in
        # BENCHMARK.json: three workloads leave too short a run each for a
        # steady median on a shared 2-core machine, and geant2-proc2 loads
        # the same layers. Run it by name.
        Workload(name="nsfnet-es", overrides={}, iterations=11, eval_episodes=200),
        # 24-node geant2 over 2 processes and 1 socket (fits a 2-core box):
        # the runtime barrier, the wire protocol and worker spawn in set-up,
        # and a forward pass over 37 links instead of 21.
        Workload(
            name="geant2-proc2",
            overrides={"topology.files": "geant2", "run.mode": "proc", "run.workers": "2"},
            iterations=16,
            eval_episodes=100,
        ),
        # h=256 with 2 message-passing steps (133,377 parameters), 256
        # mutations and 1-step episodes: bound by the es module (perturbation
        # derivation, mutate, compute_update). Rollout optimisations should
        # leave it unchanged, and it shows what they cost in memory.
        Workload(
            name="wide-1step",
            overrides={
                "policy.hidden_dim": "256",
                "policy.message_passing_steps": "2",
                "es.mutations": "256",
                "es.episodes_per_eval": "1",
                "env.max_episode_steps": "1",
            },
            iterations=10,
            eval_episodes=1000,
            tiny_overrides={"env.max_episode_steps": "1"},
        ),
    )
}


def config_items(workload: Workload, seed: int, tiny: bool = False) -> dict[str, str]:
    """The generated configuration of one run, as config-file key/values."""
    items = {**COMMON, **workload.overrides}
    if tiny:
        items.update(TINY)
        items.update(workload.tiny_overrides)
    items["es.seed"] = str(seed)
    return items


def config_text(items: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())
