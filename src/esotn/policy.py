"""Forward-only message-passing policy scoring candidate paths.

Links are the entities: each link embeds [residual/capacity,
capacity/max_capacity, on-path indicator], exchanges messages with links it
shares an endpoint with, and a per-path readout (path-link sum plus a demand
embedding) produces one score per candidate. All weights are shared across
links, so a single parameter vector drives topologies of any size.

No autodiff anywhere: the evolution-strategies trainer only ever calls this
forward pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .env import EnvConfig, EnvState, feasible_actions
from .seeds import TAG_ACTION, TAG_INIT, derive_key, rng_from_key
from .topology import CandidatePathTable

LINK_FEATURES = 3


class EvaluationError(RuntimeError):
    """A policy evaluation produced a non-finite value, or every mutation of
    an iteration failed, so there is nothing to rank."""


@dataclass(frozen=True)
class ParamManifest:
    """Fixed (name, shape) layout of the flat parameter vector."""

    tensors: tuple[tuple[str, tuple[int, ...]], ...]

    @cached_property
    def total_dim(self) -> int:
        return sum(math.prod(shape) for _, shape in self.tensors)

    @cached_property
    def slots(self) -> dict[str, tuple[int, int, tuple[int, ...]]]:
        out: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in self.tensors:
            size = math.prod(shape)
            out[name] = (offset, offset + size, shape)
            offset += size
        return out

    @cached_property
    def message_steps(self) -> int:
        return sum(1 for name, _ in self.tensors if name.startswith("message.") and name.endswith(".w"))


@dataclass(frozen=True)
class PolicyParams:
    """A manifest plus the flat value vector it describes.

    ``values`` must not change after construction: the forward pass's
    terms derived from it are built on first use and kept here, in float32
    from ``views``. Each keyed cache is filled with ``setdefault``, so
    threads sharing a parameter object can only store the same value twice.
    The terms live and die with the parameter object, so a mutation's
    copies go when it does.
    """

    manifest: ParamManifest
    values: np.ndarray
    _layers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _demand: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _links: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.values.shape != (self.manifest.total_dim,):
            raise ValueError(
                f"parameter vector has length {self.values.shape}, "
                f"manifest requires ({self.manifest.total_dim},)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter vector contains non-finite values")

    @cached_property
    def views(self) -> dict[str, np.ndarray]:
        """Every tensor by name as a view into one float32 copy of
        ``values``, built once: ``forward``'s operands. A value beyond
        float32's range becomes inf there, and so a non-finite score."""
        values = self.values.astype(np.float32)
        return {
            name: values[start:stop].reshape(shape)
            for name, (start, stop, shape) in self.manifest.slots.items()
        }

    def message_layers(self, rows: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(weight, bias as ``rows`` rows) per message step."""
        layers = self._layers.get(rows)
        if layers is None:
            views = self.views
            layers = self._layers.setdefault(rows, tuple(
                (views[f"message.{step}.w"], _tiled(views[f"message.{step}.b"], (rows, -1)))
                for step in range(self.manifest.message_steps)
            ))
        return layers

    def demand_embedding(self, load: float) -> np.ndarray:
        """tanh(load * demand_embed.w + demand_embed.b), per load."""
        embedding = self._demand.get(load)
        if embedding is None:
            views = self.views
            embedding = self._demand.setdefault(load, np.tanh(
                np.float32(load) * views["demand_embed.w"][0] + views["demand_embed.b"]
            ))
        return embedding

    def link_terms(self, ctx: "PolicyContext") -> tuple[np.ndarray, ...]:
        """The link embedding's per-topology terms for ``ctx``, keyed by the
        context itself: (residual weight row, capacity term, bias as one row
        per link, on-path term for off- and on-path links as [2, L, h])."""
        terms = self._links.get(ctx)
        if terms is None:
            w_in = self.views["link_embed.w"]
            n_links = ctx.capacities.shape[0]
            terms = self._links.setdefault(ctx, (
                w_in[0],
                (ctx.capacities / ctx.max_capacity).astype(np.float32)[:, None] * w_in[1],
                _tiled(self.views["link_embed.b"], (n_links, -1)),
                _tiled(np.float32([0.0, 1.0])[:, None, None] * w_in[2], (2, n_links, -1)),
            ))
        return terms


def _tiled(term: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``term`` as a contiguous array of ``shape`` (-1 keeps its last axis)
    while that stays within 32 KiB: adding it is then one contiguous loop
    instead of a broadcast one with a short inner loop, with the same
    elementwise adds and so the same bits. Above that ``term`` itself, to
    broadcast: building the copy would cost more than it saves."""
    shape = shape[:-1] + term.shape[-1:]
    if math.prod(shape) * term.itemsize > 32 * 1024:
        return term
    return np.broadcast_to(term, shape).copy()


@dataclass(frozen=True)
class PolicyConfig:
    """Agent settings for the action rule of ``make_agent``: the argmax for
    a deterministic agent (evaluation), epsilon-greedy on it with epsilon
    ``action_noise_epsilon`` for a stochastic one (training rollouts)."""

    hidden_dim: int = 16
    message_passing_steps: int = 4
    action_noise_epsilon: float = 0.05
    deterministic_eval: bool = True
    feasibility_masking: bool = False

    def __post_init__(self) -> None:
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.message_passing_steps < 0:
            raise ValueError("message_passing_steps must be nonnegative")
        if not 0.0 <= self.action_noise_epsilon < 1.0:
            raise ValueError(
                f"action_noise_epsilon must be in [0, 1), got {self.action_noise_epsilon}"
            )


def build_manifest(config: PolicyConfig) -> ParamManifest:
    h = config.hidden_dim
    tensors: list[tuple[str, tuple[int, ...]]] = [
        ("link_embed.w", (LINK_FEATURES, h)),
        ("link_embed.b", (h,)),
    ]
    for step in range(config.message_passing_steps):
        tensors.append((f"message.{step}.w", (h, h)))
        tensors.append((f"message.{step}.b", (h,)))
    tensors += [
        ("demand_embed.w", (1, h)),
        ("demand_embed.b", (h,)),
        ("readout.w", (h, 1)),
        ("readout.b", (1,)),
    ]
    return ParamManifest(tensors=tuple(tensors))


def init_params(config: PolicyConfig, init_seed: int) -> PolicyParams:
    """Fan-scaled uniform weights, zero biases, deterministic in the seed."""
    manifest = build_manifest(config)
    rng = rng_from_key(derive_key(TAG_INIT, init_seed))
    values = np.zeros(manifest.total_dim, dtype=np.float64)
    for name, (start, stop, shape) in manifest.slots.items():
        if len(shape) != 2:
            continue  # biases stay zero
        fan_in, fan_out = shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        values[start:stop] = rng.uniform(-limit, limit, size=stop - start)
    return PolicyParams(manifest=manifest, values=values)


def flatten(params: PolicyParams) -> np.ndarray:
    return params.values.copy()


def unflatten(manifest: ParamManifest, vector: np.ndarray) -> PolicyParams:
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (manifest.total_dim,):
        raise ValueError(
            f"vector of length {vector.shape} does not match manifest "
            f"dimension {manifest.total_dim}"
        )
    return PolicyParams(manifest=manifest, values=vector)


@dataclass(frozen=True, eq=False)
class PolicyContext:
    """Per-topology constants the forward pass needs, plus the topology's
    candidate path table, whose on-path layouts ``forward`` reads.
    Compared and hashed by identity: parameter objects key their per-topology
    terms by the context itself."""

    capacities: np.ndarray
    link_adjacency: np.ndarray
    max_capacity: float
    max_bandwidth: float
    paths: CandidatePathTable

    @staticmethod
    def for_env(config: EnvConfig) -> "PolicyContext":
        topology = config.topology
        caps = topology.capacities
        n_links = len(topology.links)
        adj = np.zeros((n_links, n_links), dtype=np.float32)
        for incident in topology.adjacency:  # links sharing a node are adjacent
            ids = [link_id for link_id, _ in incident]
            adj[np.ix_(ids, ids)] = 1.0
        np.fill_diagonal(adj, 0.0)
        adj.setflags(write=False)
        return PolicyContext(
            capacities=caps,
            link_adjacency=adj,
            max_capacity=float(caps.max()),
            max_bandwidth=config.max_bandwidth,
            paths=config.paths,
        )


def forward(
    params: PolicyParams,
    ctx: PolicyContext,
    state: EnvState,
    candidates: Sequence[np.ndarray],
) -> np.ndarray:
    """Probability vector over the candidate paths of the pending demand.

    Computed in float32 up to the candidates' scores, from float32 copies of
    the parameters and of the features (each feature ratio is computed in
    float64, then cast); the scores' finite check and softmax run in
    float64."""
    if not candidates:
        raise ValueError("forward() needs at least one candidate path")
    n_cand = len(candidates)
    n_links = ctx.capacities.shape[0]
    demand = state.pending
    on_path, rows = ctx.paths.on_path(demand.src, demand.dst, candidates)
    # Non-finite intermediates are caught below; silence numpy's overflow
    # chatter (a parameter cast past float32's range among it) so failed
    # mutations degrade quietly to their failure fitness.
    with np.errstate(over="ignore", invalid="ignore"):
        w_residual, capacity_term, embed_bias, on_off = params.link_terms(ctx)
        hidden_dim = w_residual.shape[0]
        # Shared features (residual and capacity columns) embed once:
        # (residual term + capacity term) + bias, in that order. A link's
        # on-path column is 0 or 1, so its embedding takes one of two values
        # per link; both are squashed once and gathered into the
        # [link, candidate, h] hidden states (C-ordered, so both reshapes
        # below are views), with the bits of embedding every copy.
        base = np.multiply(
            (state.residual / ctx.capacities)[:, None], w_residual, dtype=np.float32
        )
        base += capacity_term
        base += embed_bias
        stacked = np.add(base, on_off)
        np.tanh(stacked, out=stacked)
        by_row = stacked.reshape(2 * n_links, hidden_dim).take(rows, axis=0)
        # Per message step one gemm aggregates the neighbours of every
        # candidate's copy of a link ([L, L] @ [L, c*h]; with 0/1 adjacency
        # bitwise equal to einsum's per-candidate sum) and one applies the
        # message weights to every (link, candidate) row ([L*c, h] @ [h, h]),
        # each writing into a fixed buffer.
        by_link = by_row.reshape(n_links, n_cand * hidden_dim)
        agg = np.empty_like(by_link)
        agg_rows = agg.reshape(n_links * n_cand, hidden_dim)
        for weight, bias in params.message_layers(n_links * n_cand):
            np.dot(ctx.link_adjacency, by_link, out=agg)
            np.dot(agg_rows, weight, out=by_row)
            by_row += bias
            np.tanh(by_row, out=by_row)

        path_repr = np.einsum("lc,lch->ch", on_path, by_row.reshape(n_links, n_cand, hidden_dim))
        # tanh on the readout pre-activation lets the (shared) demand
        # embedding interact with each path sum; a linear readout would
        # cancel it in the softmax.
        path_repr += params.demand_embedding(demand.bandwidth / ctx.max_bandwidth)
        np.tanh(path_repr, out=path_repr)
        readout = params.views
        scores = path_repr @ readout["readout.w"][:, 0]
        scores += readout["readout.b"][0]
    scores = scores.astype(np.float64)
    values = scores.tolist()
    if not all(map(math.isfinite, values)):
        raise EvaluationError(f"non-finite candidate scores: {scores}")
    scores -= max(values)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores)
    return scores


def epsilon_greedy(greedy: int, n: int, eps: float, rng: np.random.Generator) -> int:
    """One draw from (1 - eps) * onehot(greedy) + eps * uniform over n
    candidates, consuming exactly one ``rng.random()``."""
    share = eps / n
    # Summed in index order from Python floats: the bits of numpy's cumsum.
    cdf = []
    total = 0.0
    for i in range(n):
        total += share + (1.0 - eps) if i == greedy else share
        cdf.append(total)
    draw = rng.random() * total
    return min(bisect_right(cdf, draw), n - 1)


def make_agent(
    params: PolicyParams,
    config: PolicyConfig,
    env_config: EnvConfig,
    episode_seed: int,
    ctx: PolicyContext,
) -> Callable[[EnvState], int]:
    """An EnvState -> action callable for one episode on ``env_config``.

    The one action rule: the argmax of ``forward`` (lowest index on ties),
    over the feasible candidates when ``feasibility_masking`` is on and any
    is feasible. A deterministic agent returns it; a stochastic one is
    epsilon-greedy on it, drawing from a stream keyed by the episode seed.
    """
    rng = None if config.deterministic_eval else rng_from_key(derive_key(TAG_ACTION, episode_seed))
    paths = env_config.paths

    def act(state: EnvState) -> int:
        candidates = paths.path_arrays(state.pending.src, state.pending.dst)
        probs = forward(params, ctx, state, candidates)
        if config.feasibility_masking:
            mask = feasible_actions(state, paths)
            if mask.any():
                probs = np.where(mask, probs, 0.0)
        greedy = int(probs.argmax())
        if rng is None:
            return greedy
        return epsilon_greedy(greedy, len(candidates), config.action_noise_epsilon, rng)

    return act
