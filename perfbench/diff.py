"""Compare two benchmark result files, per workload and metric.

    python3 perfbench/diff.py BASE.jsonl NEW.jsonl

A result file holds one JSON record per run, as ``run.py --out`` appends
them. For every workload in both files and every metric the tool prints
each side's median and quartiles and the ratio new/base with its base.
End-to-end metrics get a verdict against their bound in BENCHMARK.json:

- ``regression``: the new median is worse than the base median by more
  than the bound;
- ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side exceeds the bound, unless every new run is better than
  every base run;
- ``ok`` otherwise.

Per-layer metrics, from traced runs, have no bound and no verdict. For
seeds run on both sides, the parameter hash and det_return after the
workload's trajectory length are compared exactly, which shows whether a
change altered the training trajectory. The exit status is
1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str | Path) -> tuple[dict, dict, dict]:
    """For each (workload, trace): metric -> values over runs, the set of
    (git rev, config hash) the runs came from, and seed -> (theta hash,
    det_return) after the workload's trajectory length."""
    values: dict = defaultdict(lambda: defaultdict(list))
    sources: dict = defaultdict(set)
    thetas: dict = defaultdict(dict)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        key = (record["workload"], int(record["trace"]))
        for name, (value, _unit) in record["metrics"].items():
            values[key][name].append(float(value))
        prov = record.get("provenance", {})
        sources[key].add((prov.get("git_rev", "unknown"), prov.get("config_sha256", "unknown")))
        if "det_theta_sha256" in record:
            thetas[key][record["seed"]] = (record["det_theta_sha256"], record["det_return"])
    return values, sources, thetas


def summary(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "ok (every run better)"
        return "unresolved"
    base_median, new_median = summary(base)[1], summary(new)[1]
    worse = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    return "regression" if worse > bound else "ok"


def compare(base_path, new_path, benchmark: dict) -> tuple[list[str], bool]:
    """Report lines and whether any end-to-end metric regressed."""
    base, base_sources, base_thetas = load_runs(base_path)
    new, new_sources, new_thetas = load_runs(new_path)
    specs = {0: {m["name"]: m for m in benchmark["end_to_end"]},
             1: {m["name"]: m for m in benchmark["per_layer"]}}
    lines, regressed = [], False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        lines.append(f"== {workload} ({'traced, per-layer' if trace else 'end-to-end'}; "
                     f"runs: base {_runs(base[key])}, new {_runs(new[key])})")
        revs = [sorted({rev[:12] for rev, _ in side[key]}) for side in (base_sources, new_sources)]
        lines.append(f"   git rev: base {', '.join(revs[0])}; new {', '.join(revs[1])}")
        if {c for _, c in base_sources[key]} != {c for _, c in new_sources[key]}:
            lines.append("   warning: the two sides ran different workload configs")
        seeds = sorted(set(base_thetas[key]) & set(new_thetas[key]))
        changed = [s for s in seeds if base_thetas[key][s] != new_thetas[key][s]]
        if seeds:
            lines.append(f"   theta and det_return identical on {len(seeds) - len(changed)} of "
                         f"{len(seeds)} common seeds"
                         + (f"; trajectory CHANGED on seeds {changed}" if changed else ""))
        for name, spec in specs[trace].items():
            if name not in base[key] or name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            bq1, bmed, bq3 = summary(b)
            nq1, nmed, nq3 = summary(n)
            ratio = f"{nmed / bmed:.4f}x of base {bmed:.6g}" if bmed else "base is 0"
            line = (f"  {name:34s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                    f"new {nmed:.6g} [{nq1:.6g}, {nq3:.6g}] {spec['unit']}  {ratio}")
            if "bound" in spec:
                result = verdict(b, n, spec["bound"], spec["better"])
                regressed |= result == "regression"
                line += f"  {result} (bound {spec['bound']:g}, {spec['better']} is better)"
            lines.append(line)
    return lines, regressed


def _runs(metrics: dict[str, list[float]]) -> int:
    return max((len(v) for v in metrics.values()), default=0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    lines, regressed = compare(args.base, args.new, benchmark)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
