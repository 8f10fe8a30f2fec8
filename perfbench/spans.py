"""Spans and counters recorded from outside the program.

Nothing in ``esotn`` knows about tracing. A :class:`Recorder` replaces public
functions in the namespace where their caller looks them up (for example
``esotn.runtime.compute_update``, which ``run_coordinator`` resolves through
its module globals) with wrappers, and :func:`patched` puts the originals
back on exit. Spans carry the ES iteration ``t`` as their shared identifier:
the wrapper around ``evaluate_assignment`` sets it at the start of every
iteration, in the coordinator and in each worker alike. Before the first
iteration ``t`` is -1, which tells set-up spans from loop spans.

An untraced recorder installs only counters: env steps, NaN returns going
into ``resolve_failures``, and one timestamp where the iteration loop
starts. Each costs one increment per call, against hundreds of
microseconds per env step. A traced recorder adds a span at every layer
boundary listed in ``SPAN_TARGETS``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

import esotn.checkpoint
import esotn.config
import esotn.env
import esotn.es
import esotn.policy
import esotn.runtime
import esotn.seeds
import esotn.wire

# (owner, attribute, span name). Each attribute is replaced where its caller
# resolves it, so every call site inside esotn passes through the span.
SPAN_TARGETS = (
    (esotn.config, "build_training_setup", "config.build_training_setup"),
    (esotn.config, "compute_candidate_paths", "topology.compute_candidate_paths"),
    (esotn.runtime, "serve_workers", "runtime.serve_workers"),
    (esotn.runtime, "evaluate_assignment", "es.evaluate_assignment"),
    (esotn.runtime, "resolve_failures", "es.resolve_failures"),
    (esotn.runtime, "shape_fitness", "es.shape_fitness"),
    (esotn.runtime, "compute_update", "es.compute_update"),
    (esotn.es, "derive_perturbation", "es.derive_perturbation"),
    (esotn.es, "mutate", "es.mutate"),
    (esotn.es, "make_agent", "policy.make_agent"),
    (esotn.policy, "forward", "policy.forward"),
    (esotn.env.OtnEnv, "step", "env.step"),
    (esotn.env, "feasible_actions", "env.feasible_actions"),
    (esotn.policy, "feasible_actions", "env.feasible_actions"),
    (esotn.env.DemandStream, "sample", "env.demand_sample"),
    (esotn.wire, "encode_message", "wire.encode"),
    (esotn.wire, "decode_payload", "wire.decode"),
    (esotn.checkpoint, "save_checkpoint", "checkpoint.save"),
)

# Counted inside the loop without timestamps: too small and too many to time.
COUNT_TARGETS = (
    (esotn.env.OtnEnv, "reset", "env.episodes"),
    (esotn.env, "rng_from_key", "seeds.generators"),
    (esotn.policy, "rng_from_key", "seeds.generators"),
    (esotn.seeds, "rng_from_key", "seeds.generators"),
)


class Recorder:
    """In-memory spans and counts of one process for one training pass.

    A span is ``(name, t, start, end, parent)``, where ``parent`` is the
    index of the enclosing span or -1. Counts other than wire traffic cover
    only calls made inside the iteration loop (``t >= 0``).
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.t = -1
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.loop_entries: list[float] = []

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # t is read at the end: evaluate_assignment sets it mid-call.
                spans[index] = (name, self.t, start, end, parent)

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.t >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set_iteration(self, fn: Callable) -> Callable:
        def wrapper(theta, config, t, indices, evaluator):
            self.t = t
            return fn(theta, config, t, indices, evaluator)

        return wrapper

    def _count_failures(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(raw_returns, config):
            counts["es.mutations"] += len(raw_returns)
            counts["es.failed_mutations"] += sum(1 for r in raw_returns if math.isnan(r))
            return fn(raw_returns, config)

        return wrapper

    def _mark_loop_entry(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.loop_entries.append(time.perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    def _count_bytes(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(message):
            frame = fn(message)
            counts["wire.bytes"] += len(frame)
            counts["wire.messages"] += 1
            return frame

        return wrapper

    def replacements(self) -> list[tuple[object, str, Callable]]:
        """(owner, attribute, wrapper) for every attribute to patch."""
        runtime, env = esotn.runtime, esotn.env
        wrappers: dict[tuple[object, str], Callable] = {
            (runtime, "evaluate_assignment"): self._set_iteration(runtime.evaluate_assignment),
            (runtime, "resolve_failures"): self._count_failures(runtime.resolve_failures),
            (runtime, "run_coordinator"): self._mark_loop_entry(runtime.run_coordinator),
            (env.OtnEnv, "step"): self._count("env.steps", env.OtnEnv.step),
        }
        if self.traced:
            for owner, attr, name in COUNT_TARGETS:
                wrappers[(owner, attr)] = self._count(name, getattr(owner, attr))
            wrappers[(esotn.wire, "encode_message")] = self._count_bytes(
                esotn.wire.encode_message
            )
            for owner, attr, name in SPAN_TARGETS:
                inner = wrappers.get((owner, attr)) or getattr(owner, attr)
                wrappers[(owner, attr)] = self._span(name, inner)
        return [(owner, attr, fn) for (owner, attr), fn in wrappers.items()]

    def dump(self) -> dict:
        """JSON-ready spans and counts, for merging across processes.

        Spans keep their positions (an unfinished one is None) so that
        parent indices stay valid.
        """
        return {
            "spans": [None if span is None else list(span) for span in self.spans],
            "counts": dict(self.counts),
        }


@contextmanager
def patched(recorder: Recorder):
    """Install the recorder's wrappers; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, wrapper in recorder.replacements():
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
