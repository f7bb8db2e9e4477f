import tracemalloc

import numpy as np
import pytest

from epithresh.graph import Graph, build_graph
from epithresh.walker import LocalOracle


def traced_peak(call):
    """``(call(), peak bytes tracemalloc saw allocated during the call)``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def walk_path(walk, oracle, cfg):
    """``(walk(oracle, cfg), nodes)``: a walk's report and its path, which is
    ``cfg.start`` then every answer of the neighbor accessor the walk called.

    Both neighbor accessors of this one oracle instance record: its
    ``neighbor``, and for a ``LocalOracle`` the unchecked one that
    ``_walk_accessors`` hands the walk kernel. Both wrappers are removed
    when the walk ends.
    """
    nodes = [cfg.start]

    def recording(neighbor):
        def recorded(v, k):
            u = neighbor(v, k)
            nodes.append(u)
            return u

        return recorded

    oracle.neighbor = recording(oracle.neighbor)
    if isinstance(oracle, LocalOracle):
        accessors = oracle._walk_accessors

        def walk_accessors():
            degree, neighbor = accessors()
            return degree, recording(neighbor)

        oracle._walk_accessors = walk_accessors
    try:
        return walk(oracle, cfg), nodes
    finally:
        del oracle.neighbor
        if isinstance(oracle, LocalOracle):
            del oracle._walk_accessors


def neighbors_of(g: Graph, v: int) -> np.ndarray:
    """Sorted neighbor slice of node v (a read-only view)."""
    return g.neighbors[g.offsets[v] : g.offsets[v + 1]]


def complete_graph(n: int) -> Graph:
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def star_graph(n: int) -> Graph:
    """Star on n nodes: center 0 plus n - 1 leaves."""
    return build_graph([(0, i) for i in range(1, n)], n)


def cycle_graph(n: int) -> Graph:
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def path_graph(n: int) -> Graph:
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with at least one edge (the last pair is forced if needed)."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    iu = np.triu_indices(n, k=1)
    pairs = np.column_stack((iu[0], iu[1]))[mask[iu]]
    if len(pairs) == 0:
        pairs = np.array([[n - 2, n - 1]])
    return build_graph(pairs, n)


def random_connected_graph(n: int, seed: int, extra_edges: int = 0) -> Graph:
    """Random tree plus optional extra random edges: connected by construction."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(v)), v) for v in range(1, n)]
    for _ in range(extra_edges):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return build_graph(edges, n)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def star5() -> Graph:
    return star_graph(5)


@pytest.fixture
def cycle4() -> Graph:
    return cycle_graph(4)


@pytest.fixture
def path3() -> Graph:
    return path_graph(3)
