import json

import numpy as np
import pytest

from popgcn.popgraph import PopulationGraph


def make_random_graph(n, density=0.3, seed=0, weighted=True, n_components=1):
    """Random weighted graph with no isolated nodes.

    Each component is a random spanning tree plus extra random edges, so the
    number of connected components is exactly n_components.
    """
    rng = np.random.default_rng(seed)
    sizes = [n // n_components] * n_components
    sizes[-1] += n - sum(sizes)
    edges = set()
    offset = 0
    for size in sizes:
        nodes = np.arange(offset, offset + size)
        perm = rng.permutation(nodes)
        for i in range(1, size):  # spanning tree keeps the component connected
            j = int(rng.integers(0, i))
            u, v = sorted((int(perm[i]), int(perm[j])))
            edges.add((u, v))
        extra = int(density * size * (size - 1) / 2)
        for _ in range(extra):
            u, v = rng.choice(nodes, size=2, replace=False)
            u, v = int(min(u, v)), int(max(u, v))
            edges.add((u, v))
        offset += size
    edge_list = sorted(edges)
    us = np.array([e[0] for e in edge_list])
    vs = np.array([e[1] for e in edge_list])
    if weighted:
        weights = rng.uniform(0.1, 2.0, size=len(edge_list))
    else:
        weights = np.ones(len(edge_list))
    return PopulationGraph.from_edges(n, us, vs, weights)


def make_tree_graph(n, seed=0, weighted=True):
    """Random spanning tree on n nodes (long paths, handy for locality tests)."""
    rng = np.random.default_rng(seed)
    us, vs = [], []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        us.append(min(i, j))
        vs.append(max(i, j))
    weights = rng.uniform(0.5, 1.5, size=n - 1) if weighted else np.ones(n - 1)
    return PopulationGraph.from_edges(n, us, vs, weights)


def read_graph_csv(path):
    """The graph in a save_graph CSV: the provenance and node count header
    comments, the `u,v,weight` header, then one row per edge."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    provenance = json.loads(lines[0].removeprefix("# provenance:"))
    n_nodes = int(lines[1].removeprefix("# n_nodes:"))
    assert lines[2] == "u,v,weight"
    rows = [line.split(",") for line in lines[3:]]
    return PopulationGraph.from_edges(
        n_nodes,
        [int(u) for u, _, _ in rows],
        [int(v) for _, v, _ in rows],
        [float(w) for _, _, w in rows],
        provenance,
    )


def hop_distances(graph, source):
    """BFS hop distances from source; unreachable nodes get a large value."""
    adj = [[] for _ in range(graph.n_nodes)]
    for u, v in zip(graph.edges_u, graph.edges_v):
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full(graph.n_nodes, 10**9, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for node in frontier:
            for nb in adj[node]:
                if dist[nb] > d:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return dist


@pytest.fixture
def rng():
    return np.random.default_rng(42)
