"""Benchmark worker process for proc-mode workloads.

Started by the coordinator's spawn callable in place of ``esotn worker``.
It installs the same wrappers as the coordinator, runs ``run_worker`` until
``Shutdown``, then writes its spans, counts and peak memory to ``--dump``.

    python3 perfbench/worker.py --connect HOST:PORT --config FILE --trace 0|1 --dump FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import esotn.config  # noqa: E402
import esotn.runtime  # noqa: E402

from perfbench.spans import Recorder, patched  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args(argv)

    recorder = Recorder(traced=bool(args.trace))
    with patched(recorder):
        config = esotn.config.load_run_config(args.config)
        setup, theta0 = esotn.config.build_training_setup(config)
        connection = esotn.runtime.connect_worker(args.connect)
        try:
            code = esotn.runtime.run_worker(setup, theta0, connection)
        finally:
            connection.close()
    dump = recorder.dump()
    dump["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.dump).write_text(json.dumps(dump), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
