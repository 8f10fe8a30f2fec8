"""One benchmark run of one workload: set-up samples, training passes,
output checks and end-to-end metrics.

A *pass* is one training run of the workload from config load on. The
benchmark ends each pass itself from ``on_iteration``: it sends
``Shutdown`` to the workers and unwinds the loop. An untraced run makes
one timed pass that lasts until ``seconds`` have gone by (and at least the
workload's trajectory length), then repeats the first iterations to check
that the parameters come out bit-identical. A traced run makes an untraced,
a traced and another untraced pass of the trajectory length; the traced
pass's excess time over the untraced ones is the cost of tracing, and the
parameters of all three must agree at every iteration.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import esotn.checkpoint
import esotn.config
import esotn.runtime
from esotn.env import run_episode
from esotn.policy import PolicyContext, make_agent
from esotn.seeds import TAG_EVAL, derive_key
from esotn.wire import Shutdown

from perfbench.layers import layer_metrics
from perfbench.spans import Recorder, patched
from perfbench.workloads import (
    TINY_EVAL_EPISODES,
    TINY_ITERATIONS,
    WORKLOADS,
    config_items,
    config_text,
)

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RUNS_DIR = ROOT / ".perfbench_runs"

# Set-up-only samples of an untraced run (every pass adds one more).
SETUP_SAMPLES = {"inproc": 10, "proc": 4}
TRACED_SETUP_SAMPLES = 3
# Iterations the untraced run repeats to compare parameters.
REPEAT_ITERATIONS = 2
TAIL_BEYOND = 10


class _StopPass(Exception):
    """Raised from on_iteration to end a pass after its last iteration."""


@dataclass
class PassResult:
    setup_s: float
    iter_s: list[float]
    stats: list  # esotn.es.IterationStats, one per iteration
    theta_sha256: list[str]  # parameters after each iteration
    theta: object  # esotn.policy.PolicyParams after the trajectory length
    steps: int
    mutations: int
    failed: int
    worker_rss_kb: int
    dumps: list[dict]  # coordinator first, then one per worker process

    @property
    def loop_s(self) -> float:
        return sum(self.iter_s)


@dataclass
class RunContext:
    """The generated config and scratch files of one run, inside the checkout."""

    workload: str
    seed: int
    tiny: bool
    directory: Path
    config_path: Path
    items: dict[str, str]
    processes: list[subprocess.Popen] = field(default_factory=list)

    @staticmethod
    def create(workload: str, seed: int, tiny: bool) -> "RunContext":
        items = config_items(WORKLOADS[workload], seed, tiny)
        directory = RUNS_DIR / f"{workload}-{seed}-{time.time_ns()}"
        directory.mkdir(parents=True)
        config_path = directory / "workload.cfg"
        config_path.write_text(config_text(items), encoding="utf-8")
        return RunContext(workload, seed, tiny, directory, config_path, items)

    @property
    def iterations(self) -> int:
        return TINY_ITERATIONS if self.tiny else WORKLOADS[self.workload].iterations

    @property
    def multi_process(self) -> bool:
        return self.items.get("run.mode") == "proc" and int(self.items.get("run.workers", 1)) > 1

    def spawn(self, traced: bool, dumps: list[Path]) -> Callable[[str], subprocess.Popen]:
        """A ``run_proc`` spawn callable starting the benchmark's worker."""

        def spawn(endpoint: str) -> subprocess.Popen:
            dump = self.directory / f"worker-{len(self.processes)}.json"
            dumps.append(dump)
            process = subprocess.Popen(
                [sys.executable, str(WORKER), "--connect", endpoint,
                 "--config", str(self.config_path), "--trace", "1" if traced else "0",
                 "--dump", str(dump)],
                cwd=ROOT,
            )
            self.processes.append(process)
            return process

        return spawn

    def close(self) -> None:
        """Stop any worker still running, wait for all, remove the files."""
        for process in self.processes:
            if process.poll() is None:
                process.kill()
            process.wait()
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass


def theta_sha256(theta) -> str:
    return hashlib.sha256(np.ascontiguousarray(theta.values, dtype="<f8").tobytes()).hexdigest()


@contextmanager
def _capture_connections(sink: list):
    """Collect the coordinator's worker connections as run_proc opens them."""
    original = esotn.runtime.serve_workers

    def capture(*args, **kwargs):
        served = original(*args, **kwargs)
        sink.extend(served[0])
        return served

    esotn.runtime.serve_workers = capture
    try:
        yield
    finally:
        esotn.runtime.serve_workers = original


def setup_sample(ctx: RunContext, traced: bool = False) -> tuple[float, dict]:
    """Seconds from config load until every worker is connected, and the
    coordinator's spans; the workers are then shut down."""
    recorder = Recorder(traced)
    with patched(recorder):
        start = time.perf_counter()
        config = esotn.config.load_run_config(ctx.config_path)
        esotn.config.build_training_setup(config)
        if not ctx.multi_process:
            return time.perf_counter() - start, recorder.dump()
        connections, processes, listener = esotn.runtime.serve_workers(
            config.workers, ctx.spawn(traced, [])
        )
        elapsed = time.perf_counter() - start
    for conn in connections:
        conn.send(Shutdown())
        conn.close()
    listener.close()
    for process in processes:
        process.wait(timeout=60)
    return elapsed, recorder.dump()


def training_pass(
    ctx: RunContext,
    traced: bool,
    iterations: int,
    deadline: float | None = None,
    evaluator_hook: Callable | None = None,
) -> PassResult:
    """Train for ``iterations`` iterations, or until ``deadline`` (a
    ``perf_counter`` value) when one is given and later."""
    recorder = Recorder(traced)
    dumps: list[Path] = []
    connections: list = []
    stamps: list[float] = []
    stats: list = []
    hashes: list[str] = []
    kept: dict = {}
    with patched(recorder), _capture_connections(connections):
        start = time.perf_counter()
        config = esotn.config.load_run_config(ctx.config_path)
        setup, theta0 = esotn.config.build_training_setup(config)
        if evaluator_hook is not None:
            setup = replace(setup, evaluator=evaluator_hook(setup.evaluator))

        def on_iteration(iteration, theta) -> None:
            now = time.perf_counter()
            stamps.append(now)
            stats.append(iteration)
            hashes.append(theta_sha256(theta))
            done = iteration.t + 1
            if done == iterations:
                kept["theta"] = theta
            if config.checkpoint_interval > 0 and done % config.checkpoint_interval == 0:
                esotn.checkpoint.save_checkpoint(ctx.directory / f"ckpt_{done:06d}.esotn", theta)
            if done >= iterations and (deadline is None or now >= deadline):
                for conn in connections:
                    conn.send(Shutdown())
                raise _StopPass

        try:
            if ctx.multi_process:
                esotn.runtime.run_proc(
                    setup, theta0, config.workers, ctx.spawn(traced, dumps), on_iteration
                )
            else:
                esotn.runtime.run_coordinator(setup, theta0, [], on_iteration)
        except _StopPass:
            pass
        else:
            raise RuntimeError(f"training ended after {len(stats)} iterations, before the "
                               f"benchmark stopped it")

    loop_start = recorder.loop_entries[0]
    edges = [loop_start] + stamps
    worker_dumps = [json.loads(path.read_text(encoding="utf-8")) for path in dumps]
    all_dumps = [recorder.dump()] + worker_dumps
    return PassResult(
        setup_s=loop_start - start,
        iter_s=[b - a for a, b in zip(edges, edges[1:])],
        stats=stats,
        theta_sha256=hashes,
        theta=kept["theta"],
        steps=sum(d["counts"].get("env.steps", 0) for d in all_dumps),
        mutations=recorder.counts["es.mutations"],
        failed=recorder.counts["es.failed_mutations"],
        worker_rss_kb=sum(d["maxrss_kb"] for d in worker_dumps),
        dumps=all_dumps,
    )


def deterministic_return(ctx: RunContext, theta, episodes: int) -> float:
    """Mean argmax-action return of theta on held-out eval seeds.

    The seeds are those `esotn eval` uses for the same ``es.seed``, so the
    figure can be reproduced from a checkpoint.
    """
    config = esotn.config.load_run_config(ctx.config_path)
    env_configs = esotn.config.build_env_configs(config)
    policy = replace(config.policy, deterministic_eval=True)
    contexts = [PolicyContext.for_env(cfg) for cfg in env_configs]
    total = 0.0
    for i in range(episodes):
        seed = derive_key(TAG_EVAL, config.es.global_seed, i)
        env_config = env_configs[i % len(env_configs)]
        agent = make_agent(theta, policy, env_config, seed, contexts[i % len(contexts)])
        total += run_episode(agent, env_config, seed)[0]
    return total / episodes


def checkpoint_round_trip(ctx: RunContext, theta) -> bool:
    path = ctx.directory / "final.esotn"
    esotn.checkpoint.save_checkpoint(path, theta)
    loaded = esotn.checkpoint.load_checkpoint(path)
    return loaded.manifest == theta.manifest and theta_sha256(loaded) == theta_sha256(theta)


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` samples above it; the median when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50
    return ordered[n - TAIL_BEYOND - 1], math.floor(100 * (n - TAIL_BEYOND) / n)


def peak_rss_kb(passes: list[PassResult]) -> int:
    """Coordinator peak plus the largest per-pass sum of worker peaks."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + max(p.worker_rss_kb for p in passes)


def check_outputs(result: dict) -> list[str]:
    """Every failed output check, as one line each; empty when all hold."""
    errors = []
    if result["failed"]:
        errors.append(f"{result['failed']} of {result['attempted']} mutation returns were NaN")
    runs = result["theta_sha256"]
    if len(runs) < 2 or not all(runs):
        errors.append("fewer than two passes: nothing to compare theta against")
    for other in runs[1:]:
        common = min(len(runs[0]), len(other))
        diverged = [t for t in range(common) if runs[0][t] != other[t]]
        if diverged:
            errors.append(f"theta differs between passes from iteration {diverged[0]} on")
    if not result["checkpoint_round_trip"]:
        errors.append("theta changed through save_checkpoint/load_checkpoint")
    if "det_return" in result and not math.isfinite(result["det_return"]):
        errors.append("det_return is not finite")
    return errors


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    evaluator_hook: Callable | None = None,
) -> dict:
    """Run one workload and return its result record (metrics and checks)."""
    ctx = RunContext.create(workload, seed, tiny)
    try:
        if trace:
            return _traced_run(ctx, evaluator_hook)
        return _untraced_run(ctx, seconds, evaluator_hook)
    finally:
        ctx.close()


def _record(ctx: RunContext, passes: list[PassResult], traced: list[bool]) -> dict:
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "tiny": ctx.tiny,
        "config": ctx.items,
        "attempted": sum(p.mutations for p in passes),
        "failed": sum(p.failed for p in passes),
        "theta_sha256": [p.theta_sha256 for p in passes],
        "checkpoint_round_trip": checkpoint_round_trip(ctx, passes[0].theta),
        "passes": [
            {"traced": flag, "setup_s": p.setup_s, "iter_s": p.iter_s, "steps": p.steps}
            for p, flag in zip(passes, traced)
        ],
    }


def _untraced_run(ctx: RunContext, seconds: float, evaluator_hook) -> dict:
    start = time.perf_counter()
    # Half the set-up samples before the timed pass and half after, so
    # their median does not hang on one moment of a shared machine.
    count = SETUP_SAMPLES["proc" if ctx.multi_process else "inproc"]
    setups = [setup_sample(ctx)[0] for _ in range(count // 2)]
    timed = training_pass(ctx, False, ctx.iterations, start + seconds, evaluator_hook)
    setups += [setup_sample(ctx)[0] for _ in range(count - count // 2)]
    repeat = training_pass(ctx, False, min(REPEAT_ITERATIONS, ctx.iterations),
                           evaluator_hook=evaluator_hook)
    passes = [timed, repeat]
    record = _record(ctx, passes, [False, False])
    episodes = TINY_EVAL_EPISODES if ctx.tiny else WORKLOADS[ctx.workload].eval_episodes
    record["det_return"] = deterministic_return(ctx, timed.theta, episodes)
    record["det_iterations"] = ctx.iterations
    record["det_theta_sha256"] = timed.theta_sha256[ctx.iterations - 1]
    record["failed_mutation_frac"] = record["failed"] / record["attempted"]
    tail_s, tail_pct = tail(timed.iter_s)
    record["iter_samples"] = len(timed.iter_s)
    record["iter_tail_percentile"] = tail_pct
    record["metrics"] = {
        "setup_s": (statistics.median(setups + [p.setup_s for p in passes]), "s"),
        "iter_s_p50": (statistics.median(timed.iter_s), "s"),
        "iter_s_tail": (tail_s, "s"),
        "env_steps_per_s": (timed.steps / timed.loop_s, "1/s"),
        "peak_rss_mb": (peak_rss_kb(passes) / 1024.0, "MB"),
    }
    return record


def _traced_run(ctx: RunContext, evaluator_hook) -> dict:
    setup_dumps = [setup_sample(ctx, traced=True)[1] for _ in range(TRACED_SETUP_SAMPLES)]
    # Untraced passes on both sides of the traced one, so that a drift in
    # machine speed does not read as tracing overhead.
    flags = [False, True, False]
    passes = [training_pass(ctx, flag, ctx.iterations, evaluator_hook=evaluator_hook)
              for flag in flags]
    record = _record(ctx, passes, flags)
    record["metrics"] = layer_metrics(passes[1], [passes[0], passes[2]], setup_dumps)
    return record
