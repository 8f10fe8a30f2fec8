"""Evolution-strategies core: seed-derived Gaussian perturbations with
mirrored sampling, rank-based fitness shaping, the natural-gradient-style
parameter update, and ``make_rollout``, the one rollout loop that scores a
policy for both the training fitness and ``esotn eval``.

An iteration's fitness is one float64 vector of length k, indexed by
mutation. Perturbations are never stored or transmitted: every consumer
re-derives mutation j's from (seed, sign) = ``mutation_seed_sign(config,
t, j)``, one vector at a time, so memory stays O(total_dim) no matter how
many mutations an iteration uses.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .env import EnvConfig, run_episode
from .policy import (
    ParamManifest,
    PolicyConfig,
    PolicyContext,
    PolicyParams,
    make_agent,
)
from .seeds import TAG_EPISODE, TAG_PERTURBATION, derive_key, standard_normal

log = logging.getLogger(__name__)

# Evaluator contract: (candidate params, episode seeds) -> raw return.
Evaluator = Callable[[PolicyParams, Sequence[int]], float]


class ProtocolError(RuntimeError):
    """A worker's report or an iteration's fitness vector is incomplete or
    inconsistent."""


class EvaluationError(RuntimeError):
    """Every mutation of an iteration failed, so there is nothing to rank."""


@dataclass(frozen=True)
class ESConfig:
    alpha: float = 0.25
    sigma: float = 0.05
    num_mutations: int = 64
    mirrored: bool = True
    episodes_per_eval: int = 3
    iterations: int = 300
    global_seed: int = 0
    failure_fitness: float | None = None  # None: worst finite return minus one
    shaping: str = "rank"  # "centered" is a diagnostic mode for estimator tests

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.sigma <= 0:
            raise ValueError("alpha and sigma must be positive")
        if self.num_mutations < 2:
            raise ValueError(
                f"fitness shaping needs at least two mutations, got {self.num_mutations}"
            )
        if self.mirrored and self.num_mutations % 2:
            raise ValueError(
                f"mirrored sampling needs an even mutation count, got {self.num_mutations}"
            )
        if self.episodes_per_eval < 1 or self.iterations < 1:
            raise ValueError("episodes_per_eval and iterations must be positive")
        if self.shaping not in ("rank", "centered"):
            raise ValueError(f"unknown shaping mode {self.shaping!r}")


def mutation_seed_sign(config: ESConfig, t: int, j: int) -> tuple[int, int]:
    """Mirrored partners share a seed and differ only in sign."""
    pair = j // 2 if config.mirrored else j
    seed = derive_key(TAG_PERTURBATION, config.global_seed, t, pair)
    sign = -1 if config.mirrored and j % 2 else 1
    return seed, sign


def episode_seeds(config: ESConfig, t: int) -> list[int]:
    """Common evaluation seeds shared by every mutation of iteration t."""
    return [
        derive_key(TAG_EPISODE, config.global_seed, t, e)
        for e in range(config.episodes_per_eval)
    ]


def derive_perturbation(manifest: ParamManifest, seed: int, sign: int) -> np.ndarray:
    """sign * (total_dim i.i.d. standard normals keyed by seed)."""
    values = standard_normal(seed, manifest.total_dim)
    return values if sign >= 0 else -values


def _perturbations(
    manifest: ParamManifest, seed_signs: Iterable[tuple[int, int]]
) -> Iterator[np.ndarray]:
    """The perturbation of each (seed, sign) in turn. Mirrored partners are
    adjacent in index order and share a seed, so a one-element cache derives
    each pair's vector once and negates it for the partner."""
    cached_seed: int | None = None
    base: np.ndarray | None = None
    for seed, sign in seed_signs:
        if seed != cached_seed:
            base = derive_perturbation(manifest, seed, 1)
            cached_seed = seed
        yield base if sign >= 0 else -base


def mutate(theta: PolicyParams, epsilon: np.ndarray, sigma: float) -> PolicyParams:
    """theta + sigma * epsilon as a new parameter object; input untouched."""
    if epsilon.shape != theta.values.shape:
        raise ValueError(
            f"perturbation shape {epsilon.shape} does not match parameters {theta.values.shape}"
        )
    return PolicyParams(manifest=theta.manifest, values=theta.values + sigma * epsilon)


def make_rollout(env_configs: Sequence[EnvConfig], policy_config: PolicyConfig) -> Callable:
    """The one rollout loop, for the training fitness and ``esotn eval``:
    ``rollout(params, seeds, draws=None, trace=None)`` plays seed i on env i
    modulo the env count, round-robin, and gives one (return, final state)
    per seed. ``draws`` memoises demand draws per (env index, seed); ``trace``
    collects the first episode's steps. Each env's context is built once,
    here; ``make_agent`` and ``run_episode`` resolve through this module's
    globals, so a tracer that replaces them here sees either user."""
    contexts = [PolicyContext.for_env(cfg) for cfg in env_configs]

    def rollout(params: PolicyParams, seeds: Sequence[int], draws=None, trace=None) -> list:
        results = []
        for i, seed in enumerate(seeds):
            e = i % len(env_configs)
            agent = make_agent(params, policy_config, env_configs[e], seed, contexts[e])
            memo = None if draws is None else draws.setdefault((e, seed), {})
            results.append(
                run_episode(agent, env_configs[e], seed, trace if i == 0 else None, memo)
            )
        return results

    return rollout


def make_fitness_evaluator(
    env_configs: Sequence[EnvConfig], policy_config: PolicyConfig
) -> Evaluator:
    """Fitness function for training: the mean return of ``make_rollout``'s
    episodes with a stochastic agent (``deterministic_eval`` forced off), so
    that ES improves the argmax policy that evaluation scores. Errors
    propagate to ``evaluate_assignment``, which scores the mutation NaN.

    Every mutation of an iteration replays the same demand streams, so the
    closure memoises demand draws by (env index, episode seed, draw index).
    The memo is replaced whenever a call's seeds differ from the previous
    call's, so it holds one iteration's draws: at most episodes_per_eval x
    (longest episode + 1) entries, where ``max_episode_steps`` bounds the
    episode. Threads sharing the evaluator store each draw with
    ``setdefault`` (see ``DemandStream``), and every value is a pure
    function of its key, so a race can cost a redundant draw but never
    change a return."""
    rollout = make_rollout(env_configs, replace(policy_config, deterministic_eval=False))
    memo: tuple[tuple[int, ...], dict] = ((), {})

    def evaluate(params: PolicyParams, seeds: Sequence[int]) -> float:
        nonlocal memo
        seeds = tuple(seeds)
        seen, draws = memo
        if seen != seeds:
            draws = {}
            memo = (seeds, draws)
        total = 0.0
        for episode_return, _ in rollout(params, seeds, draws):
            total += episode_return
        return total / len(seeds)

    return evaluate


def evaluate_assignment(
    theta: PolicyParams,
    config: ESConfig,
    t: int,
    indices: Sequence[int],
    evaluator: Evaluator,
) -> list[float]:
    """The raw returns of iteration t's mutations ``indices``, in that
    order: NaN where the evaluator raised or gave a non-finite value."""
    seeds = episode_seeds(config, t)
    raws: list[float] = []
    epsilons = _perturbations(theta.manifest, [mutation_seed_sign(config, t, j) for j in indices])
    for j, epsilon in zip(indices, epsilons):
        candidate = mutate(theta, epsilon, config.sigma)
        try:
            raw = float(evaluator(candidate, seeds))
        except Exception:
            log.exception("evaluator raised for mutation %d of iteration %d", j, t)
            raw = math.nan
        raws.append(raw if math.isfinite(raw) else math.nan)
    return raws


def resolve_failures(raw_returns: np.ndarray, config: ESConfig) -> np.ndarray:
    """Replace NaN failure sentinels with the configured failure fitness.

    The default ranks failed mutations strictly last (worst finite return
    minus one) without distorting the utilities of the survivors. If every
    mutation failed, any update would depend only on the mutation indices,
    so this raises ``EvaluationError`` instead.
    """
    out = np.asarray(raw_returns, dtype=np.float64).copy()
    failed = np.isnan(out)
    if not failed.any():
        return out
    if failed.all():
        raise EvaluationError(f"all {out.size} mutations failed; see the evaluator errors logged")
    if config.failure_fitness is not None:
        out[failed] = config.failure_fitness
    else:
        out[failed] = out[~failed].min() - 1.0
    return out


def shape_fitness(raw_returns: np.ndarray, method: str = "rank") -> np.ndarray:
    """Zero-sum utilities from raw returns, one per mutation index.

    "rank": log-rank utilities that depend only on the return ordering
    (rank 1 is the best return; ties broken by mutation index).
    "centered": mean-centered raw returns, used only to check the update
    against the smoothed-gradient identity.
    """
    returns = np.asarray(raw_returns, dtype=np.float64)
    k = returns.shape[0]
    if k < 2:
        raise ValueError("fitness shaping needs at least two returns")
    if not np.all(np.isfinite(returns)):
        raise ValueError("shape_fitness expects finite returns; resolve failures first")
    if method == "centered":
        return returns - returns.mean()
    if method != "rank":
        raise ValueError(f"unknown shaping method {method!r}")
    order = np.lexsort((np.arange(k), -returns))  # best first, ties by index
    ranks = np.empty(k, dtype=np.float64)
    ranks[order] = np.arange(1, k + 1)
    u = np.maximum(0.0, np.log(k / 2 + 1) - np.log(ranks))
    return u / u.sum() - 1.0 / k


def compute_update(
    utilities: np.ndarray, config: ESConfig, t: int, manifest: ParamManifest
) -> np.ndarray:
    """alpha / (k * sigma) * sum_j utilities[j] * epsilon_j for iteration t.

    Each epsilon_j is re-derived from ``mutation_seed_sign(config, t, j)``
    and consumed in index order, one at a time, a mirrored pair's vector
    derived once.
    """
    k = config.num_mutations
    if utilities.shape != (k,):
        raise ProtocolError(f"iteration needs {k} utilities, got shape {utilities.shape}")
    acc = np.zeros(manifest.total_dim, dtype=np.float64)
    epsilons = _perturbations(manifest, (mutation_seed_sign(config, t, j) for j in range(k)))
    for j, epsilon in enumerate(epsilons):
        acc += utilities[j] * epsilon
    return (config.alpha / (k * config.sigma)) * acc


@dataclass
class IterationStats:
    t: int
    best_return: float
    mean_return: float
    worst_return: float
    eval_seconds: float
    update_seconds: float
    wall_seconds: float
    theta_l2_norm: float


def toy_config(**overrides) -> ESConfig:
    """Small defaults for synthetic-fitness experiments and tests."""
    base = ESConfig(alpha=0.05, sigma=0.1, num_mutations=32, mirrored=True,
                    episodes_per_eval=1, iterations=500)
    return replace(base, **overrides)
