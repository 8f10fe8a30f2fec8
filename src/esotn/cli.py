"""Command-line entry points: train, eval, bench, worker.

Outputs are file-based contracts: per-iteration stats CSV, binary parameter
checkpoints with text sidecars, a config echo for provenance, and the bench
scaling CSV. Exit status is 0 on success, nonzero with a one-line
diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import csv
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (
    ConfigError,
    RunConfig,
    build_env_configs,
    build_training_setup,
    load_run_config,
    write_config_echo,
)
from .env import write_episode_trace
from .es import EvaluationError, IterationStats, ProtocolError, make_rollout
from .policy import PolicyParams, build_manifest
from .runtime import (
    ConfigurationError,
    TrainingSetup,
    WorkerTimeoutError,
    connect_worker,
    run_inproc,
    run_proc,
    run_worker,
    wall_time_breakdown,
)
from .seeds import TAG_EVAL, derive_key
from .topology import TopologyError
from .wire import WireError

STATS_COLUMNS = (
    "t",
    "best_return",
    "mean_return",
    "worst_return",
    "eval_seconds",
    "update_seconds",
    "theta_l2_norm",
)

_KNOWN_ERRORS = (
    ConfigError,
    ConfigurationError,
    CheckpointError,
    EvaluationError,
    ProtocolError,
    TopologyError,
    WorkerTimeoutError,
    WireError,
    OSError,
)


# Flag -> config key. Each flag is shorthand for ``--set KEY=VALUE``, so the
# config schema alone parses its text, and the last occurrence of a key wins.
_SHARED_FLAGS = {
    "--seed": "es.seed",
    "--sigma": "es.sigma",
    "--alpha": "es.alpha",
    "--mutations": "es.mutations",
    "--iterations": "es.iterations",
    "--out": "run.out",
    "--iter-timeout-secs": "run.iter_timeout_secs",
}
_TRAIN_FLAGS = {**_SHARED_FLAGS, "--workers": "run.workers", "--mode": "run.mode"}


def _config_args(parser: argparse.ArgumentParser, flags: dict[str, str]) -> None:
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    for flag, key in flags.items():
        parser.add_argument(
            flag,
            dest="set",
            action="append",
            type=lambda value, key=key: f"{key}={value}",
            metavar="VALUE",
            help=f"same as --set {key}=VALUE",
        )


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def _spawn_worker_command(echo_path: Path) -> Callable[[str], subprocess.Popen]:
    def spawn(endpoint: str) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "esotn",
                "worker",
                "--connect",
                endpoint,
                "--config",
                str(echo_path),
            ]
        )

    return spawn


def _run_training(
    config: RunConfig,
    setup: TrainingSetup,
    theta0: PolicyParams,
    echo_path: Path,
    on_iteration,
) -> tuple[PolicyParams, list[IterationStats]]:
    n = config.workers
    if config.mode == "inproc":
        return run_inproc(setup, theta0, n, on_iteration)
    return run_proc(setup, theta0, n, _spawn_worker_command(echo_path), on_iteration)


def _numpy_provenance() -> dict[str, str]:
    """numpy's version and its enabled SIMD dispatch targets: rollouts'
    float32 ``tanh`` and ``exp`` bits, and so a trajectory, depend on both."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    enabled = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return {"numpy_version": np.__version__, "numpy_simd_dispatch": " ".join(enabled) or "none"}


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, _collect_overrides(args))
    setup, theta0 = build_training_setup(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo_path = out / "config.echo.cfg"
    write_config_echo(config, echo_path)

    sidecar = {**dict(config.as_items()), **_numpy_provenance()}
    start = time.perf_counter()
    with open(out / "stats.csv", "w", newline="", encoding="utf-8") as stats_file:
        writer = csv.writer(stats_file)
        writer.writerow(STATS_COLUMNS)

        def on_iteration(it, theta):
            writer.writerow(
                [
                    it.t,
                    f"{it.best_return:.10g}",
                    f"{it.mean_return:.10g}",
                    f"{it.worst_return:.10g}",
                    f"{it.eval_seconds:.6f}",
                    f"{it.update_seconds:.6f}",
                    f"{it.theta_l2_norm:.10g}",
                ]
            )
            stats_file.flush()
            done = it.t + 1
            if config.checkpoint_interval > 0 and done % config.checkpoint_interval == 0:
                save_checkpoint(
                    out / f"ckpt_{done:06d}.esotn",
                    theta,
                    {**sidecar, "iterations_completed": done},
                )

        theta, stats = _run_training(config, setup, theta0, echo_path, on_iteration)

    wall = time.perf_counter() - start
    save_checkpoint(
        out / "ckpt_final.esotn",
        theta,
        {**sidecar, "iterations_completed": config.es.iterations},
    )
    eval_fraction = wall_time_breakdown(stats)[0]
    print(
        f"trained {config.es.iterations} iterations: "
        f"final mean return {stats[-1].mean_return:.4f}, "
        f"wall {wall:.1f}s, eval fraction {eval_fraction:.3f}"
    )
    print(f"outputs in {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be >= 1, got {args.episodes}")
    config = load_run_config(args.config, _collect_overrides(args))
    env_configs = build_env_configs(config)
    manifest = build_manifest(config.policy)
    if args.checkpoint is not None:
        params = load_checkpoint(args.checkpoint)
        if params.manifest != manifest:
            raise CheckpointError(
                f"{args.checkpoint}: checkpoint manifest does not match the "
                f"configured policy (hidden_dim/message_passing_steps)"
            )
    else:
        params = PolicyParams(manifest=manifest, values=np.zeros(manifest.total_dim))

    seeds = [derive_key(TAG_EVAL, config.es.global_seed, i) for i in range(args.episodes)]
    trace: list | None = [] if args.trace else None
    rollout = make_rollout(env_configs, replace(config.policy, deterministic_eval=True))
    episodes = rollout(params, seeds, trace=trace)
    if trace is not None:
        write_episode_trace(args.trace, trace)
    returns = np.array([total for total, _ in episodes])
    volumes = np.array([final_state.allocated_total for _, final_state in episodes])

    source = args.checkpoint if args.checkpoint is not None else "zero-parameter baseline"
    print(f"evaluated {args.episodes} episodes of {source} (seed base {config.es.global_seed})")
    for label, data in (("return", returns), ("allocated_volume", volumes)):
        print(
            f"{label}: mean {data.mean():.6f} std {data.std():.6f} "
            f"min {data.min():.6f} max {data.max():.6f}"
        )
    if args.report:
        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "seed", "return", "allocated_volume"])
            for i, seed in enumerate(seeds):
                writer.writerow([i, seed, f"{returns[i]:.10g}", f"{volumes[i]:.10g}"])
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        worker_counts = [int(part) for part in args.workers.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--workers: cannot parse {args.workers!r}: {exc}") from None
    if not worker_counts:
        raise ConfigError("bench needs at least one worker count")
    # Bench measures wall-clock scaling, which needs real processes; the
    # mode flag still allows inproc for protocol checks. The counts replace
    # the file's run.workers, and each is checked before the first run starts.
    overrides = {"run.workers": str(worker_counts[0]), "run.mode": args.mode}
    config = load_run_config(args.config, {**_collect_overrides(args), **overrides})
    run_configs = [replace(config, workers=n) for n in worker_counts]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for n, run_config in zip(worker_counts, run_configs):
        echo_path = out / f"config.echo.n{n}.cfg"
        write_config_echo(run_config, echo_path)
        setup, theta0 = build_training_setup(run_config)
        _, stats = _run_training(run_config, setup, theta0, echo_path, None)
        eval_per_iter = float(np.mean([it.eval_seconds for it in stats]))
        eval_fraction = wall_time_breakdown(stats)[0]
        rows.append((n, eval_per_iter, eval_fraction))
        print(
            f"n={n}: eval {eval_per_iter:.4f}s/iter, eval fraction {eval_fraction:.3f}"
        )

    base = next((r[1] for r in rows if r[0] == 1), None)
    bench_path = out / "bench.csv"
    with open(bench_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "eval_seconds_per_iter", "eval_fraction", "speedup_vs_n1"])
        for n, eval_per_iter, eval_fraction in rows:
            speedup = base / eval_per_iter if base is not None else float("nan")
            writer.writerow([n, f"{eval_per_iter:.6f}", f"{eval_fraction:.6f}", f"{speedup:.4f}"])
    ordered = sorted(rows)
    monotonic = all(a[1] > b[1] for a, b in zip(ordered, ordered[1:]))
    print(f"monotonic_eval_seconds: {'true' if monotonic else 'false'}")
    print(f"bench results in {bench_path}")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, {})
    setup, theta0 = build_training_setup(config)
    connection = connect_worker(args.connect)
    try:
        return run_worker(setup, theta0, connection)
    finally:
        connection.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esotn",
        description="Evolution-strategies training for transport-network routing policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a training loop and write checkpoints")
    _config_args(train, _TRAIN_FLAGS)
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("eval", help="deterministic rollouts of a checkpoint")
    _config_args(evaluate, {"--seed": "es.seed"})
    evaluate.add_argument(
        "--checkpoint", help="checkpoint file; omit for the zero-parameter baseline"
    )
    evaluate.add_argument("--episodes", type=int, default=100)
    evaluate.add_argument("--report", help="write per-episode CSV here")
    evaluate.add_argument("--trace", help="write the first episode's step trace here")
    evaluate.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="worker-scaling benchmark over a list of worker counts")
    _config_args(bench, _SHARED_FLAGS)
    bench.add_argument(
        "--workers", default="1,2,4,8", help="comma-separated worker counts (default 1,2,4,8)"
    )
    bench.add_argument(
        "--mode",
        default="proc",
        help="run.mode of every run (default proc; threads cannot show wall-clock scaling)",
    )
    bench.set_defaults(func=cmd_bench)

    worker = sub.add_parser("worker", help="join a multi-process run as a worker")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT")
    worker.add_argument("--config", required=True, help="config echo written by the coordinator")
    worker.set_defaults(func=cmd_worker)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
