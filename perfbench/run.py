"""Benchmark command: one run of one workload, its metrics and output checks.

    python3 perfbench/run.py --workload nsfnet-es --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are for people. The exit status is 0 only
when every output check held. ``--out FILE`` appends the full result record
(metrics, raw samples, checks, provenance) as one JSON line, the input of
``perfbench/diff.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _import_program():
    """The esotn package of this checkout, or None when it is absent."""
    try:
        import esotn
    except ImportError:
        return None
    if not Path(esotn.__file__).resolve().is_relative_to(ROOT / "src"):
        return None
    return esotn


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(config_items: dict[str, str]) -> dict:
    import numpy
    from esotn.config import load_run_config

    # The workload's effective config without the seed, so that runs of
    # one workload under different seeds share the hash.
    effective = load_run_config(None, config_items).as_items()
    echo = "".join(f"{key} = {value}\n" for key, value in effective if key != "es.seed")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "config_sha256": hashlib.sha256(echo.encode("utf-8")).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSONL file")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest model and population (harness tests only)")
    args = parser.parse_args(argv)

    if _import_program() is None:
        print(f"error: no esotn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2

    record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    record["trace"] = args.trace
    record["provenance"] = provenance(record["config"])
    errors = bench.check_outputs(record)
    record["errors"] = errors

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(record['passes'])} passes, config {record['provenance']['config_sha256'][:12]}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:36s} {value:16.6g} {unit}")
    if not args.trace:
        print(f"  {'det_return':36s} {record['det_return']:16.6g} reward")
        print(f"  {'failed_mutation_frac':36s} {record['failed_mutation_frac']:16.6g} frac "
              f"({record['failed']} of {record['attempted']})")
        print(f"iter_s_tail is p{record['iter_tail_percentile']} of "
              f"{record['iter_samples']} iteration samples; det_return is measured on theta "
              f"after {record['det_iterations']} iterations "
              f"(sha256 {record['det_theta_sha256'][:16]})")
    for error in errors:
        print(f"CHECK FAILED: {error}")

    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": not errors,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
