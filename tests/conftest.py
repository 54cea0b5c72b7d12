"""Shared helpers: seeded random graphs and the canonical small-graph corpus."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import pytest

import sparsity_forge as sf


def random_graph(rng: random.Random, n: int, p: float) -> sf.Graph:
    edges = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    return sf.Graph(n, edges)


def plus_edges(g: sf.Graph, count: int, rng: random.Random) -> sf.Graph:
    """g with ``count`` more random edges: near g's density they break
    (a, 0)-sparsity while (a, b) with b > 0 may still hold."""
    edges = set(g.edges)
    while count:
        u, v = sorted(rng.sample(range(g.n), 2))
        if (u, v) not in edges:
            edges.add((u, v))
            count -= 1
    return sf.Graph(g.n, sorted(edges))


@lru_cache(maxsize=None)
def atlas_graphs(max_n: int = 7) -> tuple[sf.Graph, ...]:
    """Every graph on 1..max_n vertices up to isomorphism (max_n <= 7)."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= max_n:
            out.append(sf.Graph(n, [tuple(e) for e in g.edges()]))
    return tuple(out)


def to_networkx(g: sf.Graph):
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
