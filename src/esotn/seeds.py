"""Deterministic seed derivation and counter-based random streams.

Every stochastic quantity in a run (demand arrivals, action noise, weight
initialization, parameter perturbations) is drawn from a Philox counter-based
generator whose key is a 64-bit hash of an integer context tuple. Identical
context tuples yield bit-identical streams regardless of platform, worker
count, or evaluation order, which is what makes whole training trajectories
reproducible from a single global seed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Domain tags keep unrelated streams from ever sharing a key.
TAG_INIT = 1
TAG_PERTURBATION = 2
TAG_EPISODE = 3
TAG_DEMAND = 4
TAG_ACTION = 5
TAG_EVAL = 6


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_key(*parts: int) -> int:
    """Mix integer context parts into a 64-bit generator key.

    Pure function of the part sequence; negative parts are folded into the
    64-bit ring, so any Python ints are accepted.
    """
    state = 0xD1B54A32D192ED03
    for part in parts:
        state = _splitmix64(state ^ (part & _MASK64))
    return state


def rng_from_key(key: int) -> np.random.Generator:
    """A fresh Philox generator for the given key."""
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal(key: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """n i.i.d. N(0, 1) float64 values as a pure function of the key,
    written into ``out`` when it is given."""
    return rng_from_key(key).standard_normal(n, dtype=np.float64, out=out)
