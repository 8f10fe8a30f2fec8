"""Run configuration: flat key-value files, CLI overrides, echo for provenance.

Format: ``key = value`` per line, ``#`` comments, dotted prefixes as
sections. Parsing fails closed: unknown keys and uncastable values are
errors that name the offending key. The effective configuration is echoed
into the run directory in the same format, and that echo is what worker
processes load, so every participant reconstructs identical state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .es import ESConfig, make_fitness_evaluator
from .env import EnvConfig
from .policy import PolicyConfig, PolicyParams, init_params
from .runtime import DEFAULT_ITER_TIMEOUT, TrainingSetup, partition_mutations
from .topology import (
    Topology,
    bundled_topology_names,
    compute_candidate_paths,
    load_bundled_topology,
    load_topology,
)


class ConfigError(ValueError):
    """Bad configuration file or override."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in raw.split(",") if part.strip())


def _parse_str_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


# key -> (section of RunConfig, or None for RunConfig itself; field; caster).
# Defaults are the dataclasses' own field defaults.
_SCHEMA: dict[str, tuple[str | None, str, Callable[[str], object]]] = {
    "topology.files": (None, "topology_files", _parse_str_list),
    "topology.k_paths": (None, "k_paths", int),
    "env.demand_bandwidths": (None, "demand_bandwidths", _parse_float_list),
    "env.max_episode_steps": (None, "max_episode_steps", int),
    "policy.hidden_dim": ("policy", "hidden_dim", int),
    "policy.message_passing_steps": ("policy", "message_passing_steps", int),
    "policy.action_noise": ("policy", "action_noise_epsilon", _parse_float),
    "policy.feasibility_masking": ("policy", "feasibility_masking", _parse_bool),
    "es.alpha": ("es", "alpha", _parse_float),
    "es.sigma": ("es", "sigma", _parse_float),
    "es.mutations": ("es", "num_mutations", int),
    "es.mirrored": ("es", "mirrored", _parse_bool),
    "es.episodes_per_eval": ("es", "episodes_per_eval", int),
    "es.iterations": ("es", "iterations", int),
    "es.seed": ("es", "global_seed", int),
    "run.mode": (None, "mode", str),
    "run.workers": (None, "workers", int),
    "run.out": (None, "out_dir", str),
    "run.checkpoint_interval": (None, "checkpoint_interval", int),
    "run.iter_timeout_secs": (None, "iter_timeout_secs", _parse_float),
}


@dataclass(frozen=True)
class RunConfig:
    topology_files: tuple[str, ...] = ("nsfnet",)
    k_paths: int = 4
    demand_bandwidths: tuple[float, ...] = (8.0, 32.0, 64.0)
    max_episode_steps: int = 1000
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    es: ESConfig = field(default_factory=ESConfig)
    mode: str = "inproc"
    workers: int = 1
    out_dir: str = "runs/default"
    checkpoint_interval: int = 50
    iter_timeout_secs: float = DEFAULT_ITER_TIMEOUT

    def __post_init__(self) -> None:
        if self.mode not in ("inproc", "proc"):
            raise ConfigError(f"run.mode must be 'inproc' or 'proc', got {self.mode!r}")
        try:  # every worker needs a mutation slice; no worker starts before this
            partition_mutations(self.es.num_mutations, self.workers, self.es.mirrored)
        except ValueError as exc:
            raise ConfigError(f"run.workers = {self.workers}: {exc}") from None
        if not self.topology_files:
            raise ConfigError("topology.files must list at least one topology")
        if self.k_paths < 1:
            raise ConfigError(f"topology.k_paths must be >= 1, got {self.k_paths}")
        if self.max_episode_steps < 1:
            raise ConfigError(f"env.max_episode_steps must be >= 1, got {self.max_episode_steps}")
        if self.iter_timeout_secs <= 0:
            raise ConfigError(f"run.iter_timeout_secs must be > 0, got {self.iter_timeout_secs}")

    def as_items(self) -> list[tuple[str, str]]:
        """The effective configuration as echo-format key/value text pairs."""
        return [
            (key, _fmt(getattr(self if section is None else getattr(self, section), name)))
            for key, (section, name, _) in _SCHEMA.items()
        ]


def parse_config_text(text: str, origin: str = "config") -> dict[str, str]:
    """Raw key -> value text, rejecting malformed lines and unknown keys."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{origin} line {lineno}: expected 'key = value', got {stripped!r}")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{origin} line {lineno}: unknown key {key!r}")
        raw[key] = value.split("#", 1)[0].strip()
    return raw


def load_run_config(
    path: str | Path | None, overrides: dict[str, str] | None = None
) -> RunConfig:
    """Merge file values over defaults, then CLI overrides over both."""
    merged = dict(RunConfig().as_items())
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        merged.update(parse_config_text(text, origin=str(path)))
    for key, value in (overrides or {}).items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown override key {key!r}")
        merged[key] = value

    by_section: dict[str | None, dict[str, object]] = {None: {}, "policy": {}, "es": {}}
    for key, raw in merged.items():
        section, name, caster = _SCHEMA[key]
        try:
            by_section[section][name] = caster(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"key {key}: cannot parse {raw!r}: {exc}") from None
    try:
        return RunConfig(
            policy=PolicyConfig(**by_section["policy"]),
            es=ESConfig(**by_section["es"]),
            **by_section[None],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def write_config_echo(config: RunConfig, path: str | Path) -> None:
    lines = ["# effective configuration"]
    lines += [f"{key} = {value}" for key, value in config.as_items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def resolve_topology(entry: str) -> Topology:
    """A config topology entry is either a file path or a bundled name (a
    directory of that name, such as an earlier run's output, is neither)."""
    path = Path(entry)
    if path.is_file():
        return load_topology(path.read_text(encoding="utf-8"), name=path.stem)
    if entry in bundled_topology_names():
        return load_bundled_topology(entry)
    raise ConfigError(
        f"topology {entry!r} is neither a file nor a bundled name "
        f"({', '.join(bundled_topology_names())})"
    )


def build_env_configs(config: RunConfig) -> list[EnvConfig]:
    envs = []
    for entry in config.topology_files:
        topo = resolve_topology(entry)
        paths = compute_candidate_paths(topo, config.k_paths)
        try:
            env = EnvConfig(
                topology=topo,
                paths=paths,
                demand_bandwidths=config.demand_bandwidths,
                max_episode_steps=config.max_episode_steps,
            )
        except ValueError as exc:  # bandwidths against this topology's capacities
            raise ConfigError(f"env.demand_bandwidths: {exc}") from None
        envs.append(env)
    return envs


def build_training_setup(config: RunConfig) -> tuple[TrainingSetup, PolicyParams]:
    """Construct the runtime bundle plus the seed-derived initial parameters.

    Workers rebuild this from the config echo, so nothing but seeds has to
    be shared for all parties to agree on the starting point.
    """
    env_configs = build_env_configs(config)
    setup = TrainingSetup(
        es=config.es,
        evaluator=make_fitness_evaluator(env_configs, config.policy),
        iter_timeout=config.iter_timeout_secs,
    )
    theta0 = init_params(config.policy, config.es.global_seed)
    return setup, theta0
