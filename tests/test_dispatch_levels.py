"""Bit-identity of ``forward`` with its einsum reference at each numpy SIMD
dispatch level.

numpy picks a SIMD kernel per process: the best level the CPU supports,
unless ``NPY_DISABLE_CPU_FEATURES`` turns the higher ones off. ``tanh`` and
``exp`` give different last bits at different levels, so the forward pass's
outputs (and a run's trajectory) compare only within one level. What must
hold at every level is that ``forward``, with its caches and op choices,
gives the reference's bytes. Each level runs
``TestForwardMatchesEinsumReference`` in its own interpreter; a level this
CPU or numpy build does not dispatch is skipped.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import (
        __cpu_baseline__,
        __cpu_dispatch__,
        __cpu_features__,
    )
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import (
        __cpu_baseline__,
        __cpu_dispatch__,
        __cpu_features__,
    )

REPO = Path(__file__).resolve().parent.parent
NODE = "tests/test_policy.py::TestForwardMatchesEinsumReference"

# Run in the child: confirm that the disabled targets are off, then run the
# reference comparison there.
CHILD = """
import sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
still_on = [name for name in sys.argv[2:] if __cpu_features__.get(name)]
if still_on:
    sys.exit(f"dispatch targets still enabled: {still_on}")
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


def targets_above(level: str) -> list[str] | None:
    """The found dispatch targets above ``level``, or None when this CPU
    and numpy build do not dispatch at ``level``."""
    dispatch = list(__cpu_dispatch__)
    if level == "default":
        above = []
    elif level in __cpu_baseline__:
        above = dispatch
    elif level in dispatch and __cpu_features__.get(level):
        above = dispatch[dispatch.index(level) + 1:]
    else:
        return None
    return [name for name in above if __cpu_features__.get(name)]


@pytest.mark.parametrize("level", ["default", "X86_V3", "X86_V2"])
def test_forward_matches_reference_at_dispatch_level(level):
    disabled = targets_above(level)
    if disabled is None:
        pytest.skip(f"numpy does not dispatch at {level} on this CPU")
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    src = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, NODE, *disabled],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert " passed" in result.stdout
