"""Network topologies and precomputed candidate routing paths.

A topology is an undirected graph of nodes 0..N-1 whose links each carry a
single shared bandwidth pool. The candidate path table holds, for every
ordered (src, dst) pair, up to k loop-free paths ordered by hop count (ties
broken by the lexicographic link-id sequence); those paths are the discrete
action space of the allocation environment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import chain
from typing import Sequence

import numpy as np


class TopologyError(ValueError):
    """Base class for topology file and validation failures."""


class TopologyParseError(TopologyError):
    """Raised when a topology file is malformed."""


class TopologyValidationError(TopologyError):
    """Raised when a parsed topology violates a structural invariant."""


@dataclass(frozen=True)
class Topology:
    """Immutable undirected graph with per-link capacities.

    Links are identified by their position in ``links``; paths elsewhere in
    the package are sequences of these link ids.
    """

    name: str
    node_count: int
    links: tuple[tuple[int, int, float], ...]

    @cached_property
    def capacities(self) -> np.ndarray:
        caps = np.array([c for _, _, c in self.links], dtype=np.float64)
        caps.setflags(write=False)
        return caps

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node: (link id, neighbor node) pairs, sorted by link id."""
        per_node: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for link_id, (a, b, _) in enumerate(self.links):
            per_node[a].append((link_id, b))
            per_node[b].append((link_id, a))
        return tuple(tuple(sorted(n)) for n in per_node)


def validate_topology(topo: Topology) -> Topology:
    """Check all structural invariants, raising on the first violation.

    Error messages name the offending node, link, or capacity.
    """
    if topo.node_count < 2:
        raise TopologyValidationError(f"node count must be at least 2, got {topo.node_count}")
    seen: dict[tuple[int, int], int] = {}
    for link_id, (a, b, cap) in enumerate(topo.links):
        for node in (a, b):
            if not 0 <= node < topo.node_count:
                raise TopologyValidationError(
                    f"link {link_id} ({a}-{b}): node {node} outside [0, {topo.node_count})"
                )
        if a == b:
            raise TopologyValidationError(f"link {link_id} ({a}-{b}): self-loop")
        if not 0 < cap < np.inf:
            raise TopologyValidationError(
                f"link {link_id} ({a}-{b}): capacity {cap} is not positive and finite"
            )
        key = (min(a, b), max(a, b))
        if key in seen:
            raise TopologyValidationError(
                f"link {link_id} ({a}-{b}): duplicates link {seen[key]}"
            )
        seen[key] = link_id
    unreached = _unreached_nodes(topo)
    if unreached:
        raise TopologyValidationError(
            f"graph is disconnected: node {unreached[0]} unreachable from node 0"
        )
    return topo


def _unreached_nodes(topo: Topology) -> list[int]:
    visited = [False] * topo.node_count
    visited[0] = True
    stack = [0]
    while stack:
        node = stack.pop()
        for _, nxt in topo.adjacency[node]:
            if not visited[nxt]:
                visited[nxt] = True
                stack.append(nxt)
    return [n for n, v in enumerate(visited) if not v]


def load_topology(source: str, name: str = "topology") -> Topology:
    """Parse and validate a topology from file content.

    Format: comment lines start with ``#``; the first data line is
    ``nodes <N>``; every following data line is ``link <a> <b> <capacity>``.
    """
    node_count: int | None = None
    links: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if node_count is None:
            if tokens[0] != "nodes" or len(tokens) != 2:
                raise TopologyParseError(
                    f"line {lineno}: expected 'nodes <N>' first, got {line!r}"
                )
            try:
                node_count = int(tokens[1])
            except ValueError:
                raise TopologyParseError(f"line {lineno}: bad node count {tokens[1]!r}") from None
        elif tokens[0] == "link":
            if len(tokens) != 4:
                raise TopologyParseError(
                    f"line {lineno}: expected 'link <a> <b> <capacity>', got {line!r}"
                )
            try:
                a, b = int(tokens[1]), int(tokens[2])
                cap = float(tokens[3])
            except ValueError:
                raise TopologyParseError(f"line {lineno}: bad link fields in {line!r}") from None
            links.append((a, b, cap))
        else:
            raise TopologyParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if node_count is None:
        raise TopologyParseError("file contains no 'nodes' line")
    return validate_topology(Topology(name=name, node_count=node_count, links=tuple(links)))


def bundled_topology_names() -> tuple[str, ...]:
    files = resources.files("esotn.data")
    return tuple(sorted(p.name[: -len(".txt")] for p in files.iterdir() if p.name.endswith(".txt")))


def load_bundled_topology(name: str) -> Topology:
    """Load one of the topologies shipped with the package (e.g. ``nsfnet``)."""
    try:
        text = resources.files("esotn.data").joinpath(f"{name}.txt").read_text(encoding="utf-8")
    except FileNotFoundError:
        raise TopologyError(
            f"no bundled topology {name!r}; available: {', '.join(bundled_topology_names())}"
        ) from None
    return load_topology(text, name=name)


def _path_layouts(groups: Sequence[Sequence[Sequence[int]]], n_links: int) -> list[tuple]:
    """Each group's paths over ``n_links`` links as ``(path arrays, link
    index, on-path layout)``, built in one vectorised pass; every array is a
    read-only, C-contiguous view into one flat buffer per form.

    The link index is the group's links as one flat array plus each path's
    start offset in it. The on-path layout is a float32 0/1 [link, path]
    matrix, plus the same matrix as rows ``link + n_links * on_path``,
    flattened link-major in the smallest unsigned type that holds them: each
    (link, path)'s row in a stack of per-link off-path over on-path rows."""
    paths = [path for group in groups for path in group]
    widths = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    lengths = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
    links = np.fromiter(chain.from_iterable(paths), dtype=np.intp, count=int(lengths.sum()))
    path_bounds = np.append(0, np.cumsum(lengths))  # into links
    group_bounds = np.append(0, np.cumsum(widths))  # into paths
    cell_bounds = np.append(0, np.cumsum(n_links * widths))  # into on_path and rows
    first_path = np.repeat(group_bounds[:-1], widths)
    starts = path_bounds[:-1] - path_bounds[first_path]
    # A path's on-path cells: its group's first cell + link * width + its column.
    path_cell = np.repeat(cell_bounds[:-1], widths) + np.arange(len(paths)) - first_path
    hits = links * widths.repeat(widths).repeat(lengths) + path_cell.repeat(lengths)
    on_path = np.zeros(cell_bounds[-1], dtype=np.float32)
    on_path[hits] = 1.0
    row_type = np.min_scalar_type(2 * n_links - 1)
    rows = np.tile(np.arange(n_links, dtype=row_type), len(groups)).repeat(widths.repeat(n_links))
    rows[hits] += n_links
    for array in (links, starts, on_path, rows):
        array.setflags(write=False)
    p, g, c = path_bounds.tolist(), group_bounds.tolist(), cell_bounds.tolist()
    return [
        (tuple(links[p[j] : p[j + 1]] for j in range(g[i], g[i + 1])),
         (links[p[g[i]] : p[g[i + 1]]], starts[g[i] : g[i + 1]]),
         (on_path[c[i] : c[i + 1]].reshape(n_links, width), rows[c[i] : c[i + 1]]))
        for i, width in enumerate(widths.tolist())
    ]


@dataclass(frozen=True)
class CandidatePathTable:
    """Up to k loop-free paths per ordered node pair, as link-id sequences
    over the topology's ``n_links`` links.

    Path lists are ordered by (hop count, lexicographic link-id sequence),
    so identical inputs always produce identical tables. Every pair's
    ``_path_layouts`` entry is built in one pass on the table's first use
    (not at construction, which stays as cheap as the path search).
    """

    k: int
    entries: dict[tuple[int, int], tuple[tuple[int, ...], ...]]
    n_links: int

    @cached_property
    def _layouts(self) -> dict[tuple[int, int], tuple]:
        return dict(zip(self.entries, _path_layouts(list(self.entries.values()), self.n_links)))

    def path_arrays(self, src: int, dst: int) -> tuple[np.ndarray, ...]:
        return self._layouts[(src, dst)][0]

    def link_index(self, src: int, dst: int) -> tuple[np.ndarray, np.ndarray]:
        return self._layouts[(src, dst)][1]

    def on_path(self, src: int, dst: int, paths: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        """The on-path layout of ``paths``: the pair's own when ``paths`` is
        its ``path_arrays`` tuple, else built afresh (for a reordering)."""
        layout = self._layouts[(src, dst)]
        return layout[2] if paths is layout[0] else _path_layouts([paths], self.n_links)[0][2]


def _reaches(neighbours: list[int], start: int, blocked: int, targets: int) -> bool:
    """Whether a walk from ``start`` that avoids the ``blocked`` node mask
    can end at a node of the ``targets`` mask (all masks are node bitmasks)."""
    seen = blocked
    frontier = neighbours[start] & ~seen
    while frontier:
        if frontier & targets:
            return True
        seen |= frontier
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= neighbours[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~seen
    return False


def compute_candidate_paths(topo: Topology, k: int) -> CandidatePathTable:
    """Precompute the candidate path table for every ordered node pair.

    One best-first search per source over partial simple paths keyed by
    (hop count, link-id sequence). Extending a partial path only increases
    its key, so the paths ending at any one node pop in exactly the table
    ordering; the first k of them are that node's row. A path is extended
    even past a node whose row it joins, since it is also a prefix of paths
    to other nodes, but only while it can still reach a row short of k
    without revisiting a node: a dropped path could add to no row. So a row
    short of k (say, towards a degree-1 node) costs at most its own paths'
    prefixes, not every simple path out of the source. The search stops once
    every row holds k paths or the heap is empty.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    neighbours = [sum(1 << nxt for _, nxt in adj) for adj in topo.adjacency]
    entries: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    for src in range(topo.node_count):
        rows: list[list[tuple[int, ...]]] = [[] for _ in range(topo.node_count)]
        unfilled = ((1 << topo.node_count) - 1) & ~(1 << src)  # rows short of k
        # Heap entries: (hops, link sequence, current node, visited-node bitmask).
        heap: list[tuple[int, tuple[int, ...], int, int]] = [(0, (), src, 1 << src)]
        while heap and unfilled:
            hops, seq, node, visited = heapq.heappop(heap)
            if unfilled >> node & 1:
                rows[node].append(seq)
                if len(rows[node]) == k:
                    unfilled &= ~(1 << node)
            if not _reaches(neighbours, node, visited, unfilled):
                continue
            for link_id, nxt in topo.adjacency[node]:
                if not visited >> nxt & 1:
                    heapq.heappush(heap, (hops + 1, seq + (link_id,), nxt, visited | (1 << nxt)))
        for dst in range(topo.node_count):
            if dst != src:
                entries[(src, dst)] = tuple(rows[dst])
    return CandidatePathTable(k=k, entries=entries, n_links=len(topo.links))
