"""Sequential traffic-demand allocation environment.

Each episode draws a stream of {src, dst, bandwidth} demands. The agent
routes every demand over one of its candidate paths, permanently consuming
link capacity; the episode ends as soon as the pending demand fits on none
of its candidate paths (or an infeasible path is chosen), so the return
measures the total traffic volume the policy managed to place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .seeds import TAG_DEMAND, derive_key, rng_from_key
from .topology import CandidatePathTable, Topology


@dataclass(frozen=True)
class Demand:
    """One routing request; bandwidth is consumed for the whole episode."""

    src: int
    dst: int
    bandwidth: float


@dataclass
class EnvState:
    """Mutable per-episode state, owned by a single episode loop."""

    residual: np.ndarray
    pending: Demand
    allocated_total: float = 0.0
    step_count: int = 0


@dataclass(frozen=True)
class EnvConfig:
    topology: Topology
    paths: CandidatePathTable
    demand_bandwidths: tuple[float, ...] = (8.0, 32.0, 64.0)
    max_episode_steps: int = 1000

    def __post_init__(self) -> None:
        if not self.demand_bandwidths:
            raise ValueError("demand_bandwidths must be nonempty")
        if min(self.demand_bandwidths) <= 0:
            raise ValueError(f"demand bandwidths must be positive: {self.demand_bandwidths}")
        min_cap = float(self.topology.capacities.min())
        if max(self.demand_bandwidths) > min_cap:
            raise ValueError(
                f"largest demand bandwidth {max(self.demand_bandwidths)} exceeds "
                f"smallest link capacity {min_cap}"
            )
        if self.max_episode_steps < 1:
            raise ValueError(f"max_episode_steps must be positive, got {self.max_episode_steps}")

    @property
    def max_bandwidth(self) -> float:
        return max(self.demand_bandwidths)


class DemandStream:
    """Deterministic demand sequence for one episode.

    Draw i is a pure function of (episode_seed, i): each
    draw uses its own counter-based generator, so streams are bit-identical
    across platforms and independent of how episodes are scheduled.

    ``memo``, when given, maps draw index -> Demand for this config and
    episode seed, and may be shared by every stream of that pair: a draw is
    computed only when missing and stored with ``setdefault``, so streams
    on concurrent threads can only store the same value twice. The memo
    grows by one entry per draw index reached; its owner bounds it.
    """

    def __init__(
        self, config: EnvConfig, episode_seed: int, memo: dict[int, Demand] | None = None
    ) -> None:
        self._node_count = config.topology.node_count
        self._bandwidths = config.demand_bandwidths
        self._episode_seed = episode_seed
        self._draw_index = 0
        self._memo = {} if memo is None else memo

    def sample(self) -> Demand:
        """Draw the next demand, uniform over ordered pairs and bandwidths."""
        i = self._draw_index
        self._draw_index += 1
        demand = self._memo.get(i)
        if demand is not None:
            return demand
        # 0 was the only value of the removed demand base seed; it keeps every stream.
        rng = rng_from_key(derive_key(TAG_DEMAND, 0, self._episode_seed, i))
        n = self._node_count
        pair = int(rng.integers(n * (n - 1)))
        bw = self._bandwidths[int(rng.integers(len(self._bandwidths)))]
        src, rem = divmod(pair, n - 1)
        dst = rem + 1 if rem >= src else rem
        return self._memo.setdefault(i, Demand(src=src, dst=dst, bandwidth=bw))


def feasible_actions(state: EnvState, paths: CandidatePathTable) -> np.ndarray:
    """Boolean mask over the pending demand's candidate paths.

    mask[i] is true iff every link on path i still has residual capacity for
    the pending bandwidth.
    """
    demand = state.pending
    links, starts = paths.link_index(demand.src, demand.dst)
    return np.minimum.reduceat(state.residual[links], starts) >= demand.bandwidth


class OtnEnv:
    """Allocation MDP over one topology.

    One instance per episode loop; instances share nothing mutable but an
    optional demand memo, whose entries never change, so any number may run
    concurrently.
    """

    def __init__(self, config: EnvConfig) -> None:
        self.config = config
        self._capacities = config.topology.capacities
        self._paths = config.paths
        self._max_bandwidth = config.max_bandwidth
        self._max_steps = config.max_episode_steps
        self._stream: DemandStream | None = None

    def reset(self, episode_seed: int, demand_memo: dict[int, Demand] | None = None) -> EnvState:
        """Restore full capacity and draw the first pending demand
        (``demand_memo``: see ``DemandStream``)."""
        self._stream = DemandStream(self.config, episode_seed, demand_memo)
        return EnvState(
            residual=self._capacities.copy(),
            pending=self._stream.sample(),
        )

    def step(self, state: EnvState, action: int) -> tuple[EnvState, float, bool]:
        """Route the pending demand over candidate path ``action``.

        Choosing an infeasible path ends the episode with zero reward and
        leaves capacities untouched. A successful allocation earns
        bandwidth / max(demand_bandwidths) and draws the next demand; the
        episode is over when that new demand fits nowhere or the step bound
        is reached.
        """
        if self._stream is None:
            raise RuntimeError("step() before reset()")
        demand = state.pending
        candidates = self._paths.path_arrays(demand.src, demand.dst)
        if not 0 <= action < len(candidates):
            raise IndexError(
                f"action {action} out of range for pair ({demand.src}, {demand.dst}) "
                f"with {len(candidates)} candidate paths"
            )
        state.step_count += 1
        links = candidates[action]
        if state.residual[links].min() < demand.bandwidth:
            return state, 0.0, True
        state.residual[links] -= demand.bandwidth
        state.allocated_total += demand.bandwidth
        state.pending = self._stream.sample()
        done = not feasible_actions(state, self._paths).any()
        done = done or state.step_count >= self._max_steps
        return state, demand.bandwidth / self._max_bandwidth, done


TRACE_COLUMNS = ("step", "src", "dst", "bandwidth", "action", "reward", "done")


def run_episode(
    policy: Callable[[EnvState], int],
    config: EnvConfig,
    episode_seed: int,
    trace: list[tuple] | None = None,
    demand_memo: dict[int, Demand] | None = None,
) -> tuple[float, EnvState]:
    """Roll one episode to termination; returns (undiscounted reward sum, final state)."""
    env = OtnEnv(config)
    state = env.reset(episode_seed, demand_memo)
    total = 0.0
    done = False
    while not done:
        demand = state.pending
        action = policy(state)
        state, reward, done = env.step(state, action)
        total += reward
        if trace is not None:
            trace.append(
                (state.step_count, demand.src, demand.dst, demand.bandwidth, action, reward, done)
            )
    return total, state


def write_episode_trace(path, rows: Sequence[tuple]) -> None:
    """Dump trace rows collected by run_episode as CSV (debug aid)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)
