from dataclasses import replace

import numpy as np
import pytest

from esotn.env import EnvConfig
from esotn.es import ESConfig
from esotn.topology import Topology, compute_candidate_paths, validate_topology

TRIANGLE_TEXT = """\
# smallest connected cycle
nodes 3
link 0 1 10
link 1 2 10
link 0 2 10
"""


def toy_config(**overrides) -> ESConfig:
    """Small defaults for synthetic-fitness experiments and tests."""
    base = ESConfig(alpha=0.05, sigma=0.1, num_mutations=32, mirrored=True,
                    episodes_per_eval=1, iterations=500)
    return replace(base, **overrides)


def make_topology(node_count, links, name="test"):
    return validate_topology(
        Topology(name=name, node_count=node_count, links=tuple(links))
    )


@pytest.fixture
def triangle():
    return make_topology(3, [(0, 1, 10.0), (1, 2, 10.0), (0, 2, 10.0)], name="triangle")


@pytest.fixture
def triangle_env(triangle):
    paths = compute_candidate_paths(triangle, 2)
    return EnvConfig(
        topology=triangle,
        paths=paths,
        demand_bandwidths=(4.0,),
    )


@pytest.fixture
def diamond():
    # 4-node square: swapping nodes 1 and 2 is an automorphism fixing 0 and 3.
    return make_topology(4, [(0, 1, 10.0), (0, 2, 10.0), (1, 3, 10.0), (2, 3, 10.0)], name="diamond")


def assert_prob_vector(probs):
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) <= 1e-6
