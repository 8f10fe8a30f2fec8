"""Evolution-strategies training of a routing policy for capacity-limited
transport networks, with a coordinator/worker runtime for parallel fitness
evaluation."""

import os

# Runs before numpy loads wherever esotn is imported first. At h = 256 a
# second OpenBLAS thread spins on the spare core after every gemm: it
# doubles an evaluation's CPU time for no wall time, on the core that the
# perturbation helpers (es.PREFETCH_MIN_DIM) draw on. A value already set in
# the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
