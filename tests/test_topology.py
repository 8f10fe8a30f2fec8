import heapq
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TRIANGLE_TEXT, make_topology
from esotn.topology import (
    TopologyParseError,
    TopologyValidationError,
    compute_candidate_paths,
    load_bundled_topology,
    load_topology,
)


def to_networkx(topo):
    graph = nx.Graph()
    graph.add_nodes_from(range(topo.node_count))
    for link_id, (a, b, _) in enumerate(topo.links):
        graph.add_edge(a, b, link=link_id)
    return graph


def links_to_nodes(topo, src, links):
    """Walk a link-id sequence from src, returning the visited nodes."""
    nodes = [src]
    for link_id in links:
        a, b = topo.links[link_id][:2]
        assert nodes[-1] in (a, b), "link does not touch the walk head"
        nodes.append(b if nodes[-1] == a else a)
    return nodes


def bundled_or_pendant(name):
    if name.endswith("+pendant"):
        return bundled_with_pendant(name.removesuffix("+pendant"))
    return load_bundled_topology(name)


def bundled_with_pendant(name, attach=0):
    """A bundled topology plus one degree-1 node joined to ``attach``."""
    topo = load_bundled_topology(name)
    links = list(topo.links) + [(attach, topo.node_count, 1.0)]
    return make_topology(topo.node_count + 1, links, name=f"{name}+pendant")


class TestLoadTopology:
    def test_triangle(self):
        topo = load_topology(TRIANGLE_TEXT, name="triangle")
        assert topo.node_count == 3
        assert len(topo.links) == 3
        assert topo.capacities.tolist() == [10.0, 10.0, 10.0]

    def test_zero_capacity_rejected(self):
        text = "nodes 2\nlink 0 1 0\n"
        with pytest.raises(TopologyValidationError, match="link 0.*capacity"):
            load_topology(text)

    @pytest.mark.parametrize("cap", ["nan", "inf", "-inf"])
    def test_non_finite_capacity_rejected(self, cap):
        text = f"nodes 3\nlink 0 1 5\nlink 1 2 {cap}\n"
        with pytest.raises(TopologyValidationError, match="link 1 .*capacity.*finite"):
            load_topology(text)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_nodes_rejected(self, count):
        with pytest.raises(TopologyValidationError, match=f"at least 2, got {count}"):
            load_topology(f"nodes {count}\n")

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyValidationError, match="self-loop"):
            load_topology("nodes 2\nlink 1 1 5\n")

    def test_duplicate_link_rejected(self):
        with pytest.raises(TopologyValidationError, match="link 1.*duplicates link 0"):
            load_topology("nodes 2\nlink 0 1 5\nlink 1 0 5\n")

    def test_out_of_range_node_rejected(self):
        with pytest.raises(TopologyValidationError, match="node 5"):
            load_topology("nodes 3\nlink 0 5 5\n")

    def test_disconnected_rejected(self):
        text = "nodes 4\nlink 0 1 5\nlink 2 3 5\n"
        with pytest.raises(TopologyValidationError, match="disconnected.*node 2"):
            load_topology(text)

    def test_malformed_first_line(self):
        with pytest.raises(TopologyParseError, match="line 1"):
            load_topology("link 0 1 5\n")

    def test_unknown_directive(self):
        with pytest.raises(TopologyParseError, match="unknown directive"):
            load_topology("nodes 2\nedge 0 1 5\n")

    def test_bad_field_types(self):
        with pytest.raises(TopologyParseError, match="bad link fields"):
            load_topology("nodes 2\nlink 0 one 5\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nnodes 2\n# mid\nlink 0 1 3\n"
        assert len(load_topology(text).links) == 1

    def test_bundled_nsfnet(self):
        topo = load_bundled_topology("nsfnet")
        assert topo.node_count == 14
        assert len(topo.links) == 21

    def test_bundled_geant2(self):
        topo = load_bundled_topology("geant2")
        assert topo.node_count == 24
        assert len(topo.links) == 37


class TestCandidatePaths:
    def test_triangle_pair(self, triangle):
        table = compute_candidate_paths(triangle, 2)
        # direct link first (1 hop), then the two-hop alternative
        direct = next(i for i, (a, b, _) in enumerate(triangle.links) if {a, b} == {0, 2})
        paths = table.entries[(0, 2)]
        assert paths[0] == (direct,)
        assert len(paths) == 2
        assert len(paths[1]) == 2

    def test_path_graph_single_route(self):
        topo = make_topology(3, [(0, 1, 5.0), (1, 2, 5.0)])
        table = compute_candidate_paths(topo, 4)
        assert table.entries[(0, 2)] == ((0, 1),)

    def test_nsfnet_every_pair_has_k_paths(self):
        topo = load_bundled_topology("nsfnet")
        table = compute_candidate_paths(topo, 4)
        assert len(table.entries) == 14 * 13
        assert all(len(paths) == 4 for paths in table.entries.values())

    def test_matches_exhaustive_enumeration_on_triangle(self, triangle):
        # Oracle: enumerate all simple paths with networkx, order by
        # (hops, link sequence), truncate to k.
        graph = to_networkx(triangle)
        table = compute_candidate_paths(triangle, 3)
        for (src, dst), got in table.entries.items():
            expected = []
            for node_path in nx.all_simple_paths(graph, src, dst):
                links = tuple(
                    graph[u][v]["link"] for u, v in zip(node_path, node_path[1:])
                )
                expected.append(links)
            expected.sort(key=lambda links: (len(links), links))
            assert list(got) == expected[:3]

    @pytest.mark.parametrize("k", [1, 4, 8])
    @pytest.mark.parametrize("name", ["nsfnet", "geant2", "geant2+pendant"])
    def test_matches_exhaustive_enumeration_on_bundled_topologies(self, name, k):
        # Oracle per ordered pair: every simple path no longer than the row's
        # last path (all of them when the row is short of k), ordered by
        # (hops, link sequence), truncated to k. The pendant node's rows to
        # and from its neighbour hold a single path.
        topo = bundled_or_pendant(name)
        graph = to_networkx(topo)
        table = compute_candidate_paths(topo, k)
        assert len(table.entries) == topo.node_count * (topo.node_count - 1)
        for (src, dst), got in table.entries.items():
            cutoff = len(got[-1]) if len(got) == k else None
            expected = []
            for node_path in nx.all_simple_paths(graph, src, dst, cutoff=cutoff):
                links = tuple(
                    graph[u][v]["link"] for u, v in zip(node_path, node_path[1:])
                )
                expected.append(links)
            expected.sort(key=lambda links: (len(links), links))
            assert list(got) == expected[:k], (src, dst)

    def test_degree_one_node_adds_little_search(self, monkeypatch):
        # Rows to and from a degree-1 node's neighbour never reach k paths;
        # the search must not then walk every simple path out of the source.
        pops = []

        def counting_pop(heap):
            pops.append(None)
            return heapq.heappop(heap)

        monkeypatch.setattr(
            "esotn.topology.heapq", SimpleNamespace(heappush=heapq.heappush, heappop=counting_pop)
        )
        compute_candidate_paths(load_bundled_topology("geant2"), 4)
        plain = len(pops)
        pops.clear()
        compute_candidate_paths(bundled_with_pendant("geant2"), 4)
        assert len(pops) < 2 * plain

    def test_reconstruction_walks_src_to_dst(self):
        topo = load_bundled_topology("nsfnet")
        table = compute_candidate_paths(topo, 4)
        for (src, dst), paths in table.entries.items():
            for links in paths:
                nodes = links_to_nodes(topo, src, links)
                assert nodes[-1] == dst
                assert len(set(nodes)) == len(nodes), "path revisits a node"

    def test_first_path_is_bfs_shortest(self):
        topo = load_bundled_topology("geant2")
        graph = to_networkx(topo)
        table = compute_candidate_paths(topo, 2)
        for (src, dst), paths in table.entries.items():
            assert len(paths[0]) == nx.shortest_path_length(graph, src, dst)

    def test_deterministic(self):
        topo = load_bundled_topology("nsfnet")
        a = compute_candidate_paths(topo, 4)
        b = compute_candidate_paths(topo, 4)
        assert a == b
        assert list(a.entries) == list(b.entries)

    def test_no_duplicate_paths_per_pair(self):
        topo = load_bundled_topology("nsfnet")
        table = compute_candidate_paths(topo, 4)
        for paths in table.entries.values():
            assert len(set(paths)) == len(paths)

    def test_k_below_one_rejected(self, triangle):
        with pytest.raises(ValueError, match="k must be"):
            compute_candidate_paths(triangle, 0)

    def test_path_arrays_mirror_entries(self, triangle):
        table = compute_candidate_paths(triangle, 2)
        for (src, dst), paths in table.entries.items():
            arrays = table.path_arrays(src, dst)
            assert [tuple(a.tolist()) for a in arrays] == list(paths)

    def test_link_index_mirrors_entries(self):
        table = compute_candidate_paths(load_bundled_topology("nsfnet"), 4)
        for (src, dst), paths in table.entries.items():
            links, starts = table.link_index(src, dst)
            ends = list(starts[1:]) + [len(links)]
            assert [tuple(links[a:b].tolist()) for a, b in zip(starts, ends)] == list(paths)


def reference_link_index(paths):
    # One pair at a time, as a reference for the table's one-pass build,
    # which hands the index out read-only.
    links = np.array([link for path in paths for link in path], dtype=np.intp)
    lengths = np.array([len(path) for path in paths], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    for array in (links, starts):
        array.setflags(write=False)
    return links, starts


def reference_on_path_layout(paths, n_links):
    on_path = np.zeros((n_links, len(paths)), dtype=np.float32)
    for i, links in enumerate(paths):
        on_path[links, i] = 1.0
    rows = (np.arange(n_links)[:, None] + n_links * on_path.astype(np.intp)).ravel()
    rows = rows.astype(np.min_scalar_type(2 * n_links - 1))
    on_path.setflags(write=False)
    rows.setflags(write=False)
    return on_path, rows


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.flags.c_contiguous == b.flags.c_contiguous
        assert a.flags.writeable == b.flags.writeable
        assert a.tobytes() == b.tobytes()


class TestPathLayouts:
    """The table builds every pair's path arrays, link index and on-path
    layout in one pass on first use; each must equal the per-pair build."""

    @pytest.mark.parametrize("k", [1, 4, 8])
    @pytest.mark.parametrize("name", ["nsfnet", "geant2", "geant2+pendant"])
    def test_every_pair_matches_per_pair_build(self, name, k):
        topo = bundled_or_pendant(name)
        n_links = len(topo.links)
        table = compute_candidate_paths(topo, k)
        assert table.n_links == n_links
        for (src, dst), paths in table.entries.items():
            arrays = table.path_arrays(src, dst)
            expected = [np.array(path, dtype=np.intp) for path in paths]
            for array in expected:
                array.setflags(write=False)
            assert_same_arrays(arrays, expected)
            assert_same_arrays(table.link_index(src, dst), reference_link_index(paths))
            assert_same_arrays(
                table.on_path(src, dst, arrays), reference_on_path_layout(arrays, n_links)
            )

    def test_reordered_candidates_get_their_own_layout(self):
        table = compute_candidate_paths(bundled_with_pendant("geant2"), 4)
        for src, dst in table.entries:
            own = table.path_arrays(src, dst)
            assert table.on_path(src, dst, own) is table.on_path(src, dst, own)
            for candidates in (own[::-1], list(own), tuple(a.copy() for a in own)):
                assert_same_arrays(
                    table.on_path(src, dst, candidates),
                    reference_on_path_layout(candidates, table.n_links),
                )

    def test_path_arrays_are_read_only(self):
        table = compute_candidate_paths(load_bundled_topology("nsfnet"), 4)
        path = table.path_arrays(0, 5)[0]
        with pytest.raises(ValueError, match="read-only"):
            path[0] = 0
        links, starts = table.link_index(0, 5)
        with pytest.raises(ValueError, match="read-only"):
            links[:] = 0
        assert table.path_arrays(0, 5)[0].tolist() == list(table.entries[(0, 5)][0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=13), st.integers(min_value=0, max_value=13),
       st.integers(min_value=1, max_value=6))
def test_k_shortest_sorted_by_hops_then_lex(src, dst, k):
    topo = load_bundled_topology("nsfnet")
    if src == dst:
        return
    paths = compute_candidate_paths(topo, k).entries[(src, dst)]
    keys = [(len(p), p) for p in paths]
    assert keys == sorted(keys)
