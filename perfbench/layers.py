"""Per-layer metrics from the spans of one traced pass.

Spans from the coordinator and its workers are merged by iteration ``t``.
A span's self time is its duration minus the durations of its child spans.
Shares are taken over process time: the loop's wall time multiplied by the
number of processes evaluating mutations, so they stay at most one when
workers run in parallel. Layers a workload does not use (the wire in a
single process, say) read zero.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

ES_SPANS = (
    "es.derive_perturbation",
    "es.mutate",
    "es.compute_update",
    "es.shape_fitness",
    "es.resolve_failures",
)


class SpanIndex:
    """Durations, self times and per-iteration spans of merged processes."""

    def __init__(self, dumps: list[dict]) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        # (process, name, t) -> [(start, end)]
        self.by_iteration: dict[tuple[int, str, int], list[tuple[float, float]]] = defaultdict(list)
        self.setup: dict[str, list[float]] = defaultdict(list)
        for process, dump in enumerate(dumps):
            spans = dump["spans"]
            children = [0.0] * len(spans)
            for span in spans:
                if span is not None and span[4] >= 0:
                    children[span[4]] += span[3] - span[2]
            for index, span in enumerate(spans):
                if span is None:
                    continue
                name, t, start, end, _ = span
                if t < 0:
                    self.setup[name].append(end - start)
                    continue
                self.durations[name].append(end - start)
                self.self_times[name].append(end - start - children[index])
                self.by_iteration[(process, name, t)].append((start, end))

    def median(self, name: str, scale: float = 1.0) -> float:
        values = self.durations.get(name)
        return statistics.median(values) * scale if values else 0.0

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(traced, untraced: list, setup_dumps: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark as name -> (value, unit).

    ``untraced`` are passes of the same trajectory without spans, the
    reference for the tracing overhead."""
    index = SpanIndex(traced.dumps)
    # Set-up spans of the coordinator only: workers build their own setup
    # while the coordinator waits in serve_workers.
    setup = SpanIndex(setup_dumps + [traced.dumps[0]]).setup
    iterations = len(traced.iter_s)
    processes = len(traced.dumps)
    process_s = traced.loop_s * processes
    counts: dict[str, int] = defaultdict(int)
    for dump in traced.dumps:
        for name, value in dump["counts"].items():
            counts[name] += value

    ts = sorted({it.t for it in traced.stats})
    eval_s = {
        t: [end - start for p in range(processes)
            for start, end in index.by_iteration.get((p, "es.evaluate_assignment", t), ())]
        for t in ts
    }
    barrier = []
    for t in ts:
        own_eval = index.by_iteration.get((0, "es.evaluate_assignment", t))
        resolve = index.by_iteration.get((0, "es.resolve_failures", t))
        if own_eval and resolve:
            barrier.append(resolve[0][0] - own_eval[-1][1])
    wall = sum(it.wall_seconds for it in traced.stats)
    p50_traced = statistics.median(traced.iter_s)
    p50_untraced = statistics.median([s for p in untraced for s in p.iter_s])
    steps = counts["env.steps"]

    return {
        "config.build_training_setup_s": (_median_or_zero(setup["config.build_training_setup"]), "s"),
        "topology.compute_candidate_paths_s": (
            _median_or_zero(setup["topology.compute_candidate_paths"]), "s"),
        "runtime.worker_connect_s": (_median_or_zero(setup["runtime.serve_workers"]), "s"),
        "policy.forward_us": (index.median("policy.forward", 1e6), "us"),
        "policy.forward_calls_per_iter": (index.calls("policy.forward") / iterations, "calls/iter"),
        "policy.forward_share": (index.total("policy.forward") / process_s, "frac"),
        "policy.make_agent_us": (index.median("policy.make_agent", 1e6), "us"),
        "env.step_self_us": (_median_or_zero(index.self_times["env.step"]) * 1e6, "us"),
        "env.feasible_actions_us": (index.median("env.feasible_actions", 1e6), "us"),
        "env.demand_sample_us": (index.median("env.demand_sample", 1e6), "us"),
        "env.steps_per_iter": (steps / iterations, "steps/iter"),
        "env.episode_len_mean": (steps / max(counts["env.episodes"], 1), "steps"),
        "seeds.generators_per_iter": (counts["seeds.generators"] / iterations, "gens/iter"),
        "es.derive_perturbation_us": (index.median("es.derive_perturbation", 1e6), "us"),
        "es.derivations_per_iter": (index.calls("es.derive_perturbation") / iterations, "calls/iter"),
        "es.mutate_us": (index.median("es.mutate", 1e6), "us"),
        "es.compute_update_ms": (index.median("es.compute_update", 1e3), "ms"),
        "es.shape_fitness_us": (index.median("es.shape_fitness", 1e6), "us"),
        "es.failed_mutations": (traced.failed, "count"),
        "es.share": (sum(sum(index.self_times.get(n, ())) for n in ES_SPANS) / process_s, "frac"),
        "runtime.barrier_wait_s": (_median_or_zero(barrier), "s"),
        "runtime.worker_eval_s_max": (_median_or_zero(max(v) for v in eval_s.values() if v), "s"),
        "runtime.worker_eval_s_min": (_median_or_zero(min(v) for v in eval_s.values() if v), "s"),
        "runtime.comm_s": (_median_or_zero(
            max(0.0, it.wall_seconds - it.eval_seconds - it.update_seconds)
            for it in traced.stats), "s"),
        "runtime.update_share": (sum(it.update_seconds for it in traced.stats) / wall, "frac"),
        "wire.bytes_per_iter": (counts["wire.bytes"] / iterations, "B/iter"),
        "wire.messages_per_iter": (counts["wire.messages"] / iterations, "msgs/iter"),
        "wire.encode_us": (index.median("wire.encode", 1e6), "us"),
        "wire.decode_us": (index.median("wire.decode", 1e6), "us"),
        "checkpoint.save_ms": (index.median("checkpoint.save", 1e3), "ms"),
        "trace.overhead_frac": ((p50_traced - p50_untraced) / p50_untraced, "frac"),
    }
