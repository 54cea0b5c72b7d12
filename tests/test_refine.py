"""Swap refinements: triangle elimination and low-potential set repair."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import sparsity_forge as sf
from sparsity_forge import refine
from sparsity_forge.instances import random_sparse_graph
from sparsity_forge.matroid import ForestEngine
from sparsity_forge.pebble import PebbleGame
from sparsity_forge.refine import _find_bad_sets, _find_bad_sets_naive

from conftest import random_graph


def _has_triangle(g: sf.Graph, ids) -> bool:
    sub = g.edge_subgraph(ids)
    return any(
        sub.induced_edge_count(c) == 3 for c in combinations(range(g.n), 3)
    )


def test_forest_partition_validation():
    k4 = sf.complete_graph(4)
    with pytest.raises(ValueError, match="cycle"):
        sf.ForestPartition(k4, sf.full_edge_set(k4), sf.EdgeSet(k4, []))
    with pytest.raises(ValueError, match="overlap"):
        sf.ForestPartition(k4, sf.EdgeSet(k4, [0]), sf.full_edge_set(k4))


def test_eliminate_triangles_noop_when_clean():
    # triangle plus pendant edge; remainder holds two triangle edges: no triangle
    g = sf.Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    part = sf.ForestPartition(
        g,
        sf.EdgeSet(g, [g.edge_index[(2, 3)], g.edge_index[(0, 1)]]),
        sf.EdgeSet(g, [g.edge_index[(0, 2)], g.edge_index[(1, 2)]]),
    )
    out = sf.eliminate_triangles(part)
    assert out.F.ids == part.F.ids and out.R.ids == part.R.ids


def test_eliminate_triangles_diamond():
    g = sf.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    res = sf.partition_sparse(g, 1, -1, 1, 0)
    trace = []
    out = sf.eliminate_triangles(
        sf.ForestPartition(g, res.e1, res.e2), instrument=True, trace=trace
    )
    assert not _has_triangle(g, out.R.ids)
    assert sf.is_sparse(g.edge_subgraph(out.R.ids), sf.SparsityParams(1, 0)).sparse
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_eliminate_triangles_random_sweep(rng):
    done = 0
    while done < 60:
        n = rng.randint(4, 10)
        g = random_sparse_graph(n, Fraction(2), rng)
        keep = [i for i in range(g.e) if rng.random() < 0.85]
        g2 = g.edge_subgraph(keep)
        if not sf.is_sparse(g2, sf.SparsityParams(2, -1)).sparse:
            continue
        res = sf.partition_sparse(g2, 1, -1, 1, 0)
        trace = []
        out = sf.eliminate_triangles(
            sf.ForestPartition(g2, res.e1, res.e2), instrument=True, trace=trace
        )
        assert not _has_triangle(g2, out.R.ids)
        assert sf.is_sparse(g2.edge_subgraph(out.R.ids), sf.SparsityParams(1, 0)).sparse
        assert all(b < a for a, b in zip(trace, trace[1:]))
        done += 1


def test_eliminate_triangles_checks_preconditions():
    k5 = sf.complete_graph(5)  # 10 > 2*5 - 1: not (2,-1)-sparse
    part = sf.ForestPartition(
        k5, sf.EdgeSet(k5, [0, 1, 2, 3]), sf.EdgeSet(k5, range(4, 10))
    )
    with pytest.raises(ValueError, match="host"):
        sf.eliminate_triangles(part)


def test_find_bad_sets_k5_and_forest():
    # remainder = all of K5 inside a 6-vertex host
    edges = [(i, j) for j in range(5) for i in range(j)] + [(0, 5)]
    host = sf.Graph(6, edges)
    pend = host.edge_index[(0, 5)]
    r = sf.EdgeSet(host, [i for i in range(host.e) if i != pend])
    bad = sf.find_bad_sets(host, r, 2, 1)
    assert [b.sorted() for b in bad] == [[0, 1, 2, 3, 4]]
    tree = sf.Graph(6, [(i, i + 1) for i in range(5)])
    assert sf.find_bad_sets(tree, sf.full_edge_set(tree), 2, 1) == []


def test_find_bad_sets_rejects_an_edge_set_of_another_host():
    k5 = sf.complete_graph(5)
    # these ids lie inside K5's range, so they would name K5's own edges
    other = sf.Graph(9, [(5, 6), (5, 7), (5, 8), (6, 7)])
    with pytest.raises(ValueError, match="different host graph"):
        sf.find_bad_sets(k5, sf.EdgeSet(other, range(4)), 2, 1)
    # an id past K5's 10 edges, which an edge-range check would report instead
    with pytest.raises(ValueError, match="different host graph"):
        sf.find_bad_sets(k5, sf.EdgeSet(sf.complete_graph(6), [14]), 2, 1)


def test_find_bad_sets_pruned_equals_naive(rng):
    # k in 1..4 with s in 1..k+1 spans missing-pair budgets 0..k, so both the
    # charged prefix and the common-neighbour extension run; dense remainders
    # are compared as well as pebble-accepted (k, 1-s)-sparse ones
    found = {"spent": 0, "open": 0}  # inputs with a bad set, by starting budget
    for _ in range(300):
        k = rng.randint(1, 4)
        s = rng.randint(1, k + 1)
        n = rng.randint(2 * k + 1, 12)
        g = random_graph(rng, n, 0.5 + 0.5 * rng.random())
        if rng.random() < 0.5:
            ids = set(range(g.e))
        else:
            game = PebbleGame(g.n, k, s - 1)
            ids = {eid for eid, (u, v) in enumerate(g.edges) if game.insert(u, v)}
        fast = _find_bad_sets(g, ids, k, s)
        slow = _find_bad_sets_naive(g, ids, k, s)
        assert [b.sorted() for b in fast] == [b.sorted() for b in slow]
        if fast:
            found["spent" if s == 1 else "open"] += 1
    assert found["spent"] and found["open"]


def test_refinement_without_a_repair_builds_no_forest_engine(monkeypatch):
    built = []

    class SpyEngine(ForestEngine):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(refine, "ForestEngine", SpyEngine)
    # triangle plus pendant edge, two triangle edges in the remainder
    g = sf.Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    part = sf.ForestPartition(
        g,
        sf.EdgeSet(g, [g.edge_index[(2, 3)], g.edge_index[(0, 1)]]),
        sf.EdgeSet(g, [g.edge_index[(0, 2)], g.edge_index[(1, 2)]]),
    )
    for instrument in (False, True):
        trace = []
        assert sf.eliminate_triangles(part, instrument=instrument, trace=trace) == part
        assert trace == [0]
    # K5 as a Hamiltonian path plus six remainder edges: no 5-set spans 10
    k5 = sf.complete_graph(5)
    path = [k5.edge_index[(i, i + 1)] for i in range(4)]
    part = sf.ForestPartition(
        k5, sf.EdgeSet(k5, path), sf.EdgeSet(k5, set(range(k5.e)) - set(path))
    )
    for instrument in (False, True):
        trace = []
        assert sf.brooks_refine(part, 2, 1, instrument=instrument, trace=trace) == part
        assert trace == [0]
    assert built == []
    # a repair still builds its engine
    edges = [(i, j) for j in range(5) for i in range(j)] + [(0, 5)]
    host = sf.Graph(6, edges)
    pend = host.edge_index[(0, 5)]
    forced = sf.ForestPartition(
        host,
        sf.EdgeSet(host, [pend]),
        sf.EdgeSet(host, [i for i in range(host.e) if i != pend]),
    )
    assert sf.brooks_refine(forced, 2, 1) != forced
    assert len(built) == 1


def test_brooks_refine_repairs_forced_bad_set():
    edges = [(i, j) for j in range(5) for i in range(j)] + [(0, 5)]
    host = sf.Graph(6, edges)
    pend = host.edge_index[(0, 5)]
    part = sf.ForestPartition(
        host,
        sf.EdgeSet(host, [pend]),
        sf.EdgeSet(host, [i for i in range(host.e) if i != pend]),
    )
    trace = []
    out = sf.brooks_refine(part, 2, 1, instrument=True, trace=trace)
    assert trace[0] == 1 and trace[-1] == 0
    sub = host.edge_subgraph(out.R.ids)
    worst = max(sub.induced_edge_count(c) for c in combinations(range(6), 5))
    assert worst <= 2 * 5 - 1  # k(2k+1) - s = 9
    assert sf.is_sparse(sub, sf.SparsityParams(2, 0)).sparse


def test_brooks_refine_noop_when_clean():
    k5 = sf.complete_graph(5)
    res = sf.partition_sparse(k5, 1, -1, 2, 0)
    part = sf.ForestPartition(k5, res.e1, res.e2)
    if not sf.find_bad_sets(k5, res.e2, 2, 1):
        out = sf.brooks_refine(part, 2, 1)
        assert out.F.ids == part.F.ids and out.R.ids == part.R.ids


def test_brooks_refine_validates_s_range():
    k5 = sf.complete_graph(5)
    res = sf.partition_sparse(k5, 1, -1, 2, 0)
    part = sf.ForestPartition(k5, res.e1, res.e2)
    with pytest.raises(ValueError):
        sf.brooks_refine(part, 2, 2)
    with pytest.raises(ValueError):
        sf.brooks_refine(part, 2, 0)


def _refine_instance(rng, k, s):
    """Random (k+1, -s)-sparse host with a valid forest + (k, 1-s) split."""
    n = rng.randint(2 * k + 1, 11)
    g = random_sparse_graph(n, Fraction(k + 1), rng)
    keep = sorted(i for i in range(g.e) if rng.random() < 0.9)
    g2 = g.edge_subgraph(keep)
    if not sf.is_sparse(g2, sf.SparsityParams(k + 1, -s)).sparse:
        return None
    res = sf.partition_sparse(g2, 1, -1, k, 1 - s)
    if not res.success:
        return None
    return g2, sf.ForestPartition(g2, res.e1, res.e2)


@pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2)])
def test_brooks_refine_random_instrumented(k, s):
    rng = random.Random(1000 + 10 * k + s)
    done = 0
    while done < 25:
        inst = _refine_instance(rng, k, s)
        if inst is None:
            continue
        g, part = inst
        trace = []
        out = sf.brooks_refine(part, k, s, instrument=True, trace=trace)
        assert all(b < a for a, b in zip(trace, trace[1:]))
        sub = g.edge_subgraph(out.R.ids)
        size = 2 * k + 1
        if g.n >= size:
            worst = max(
                sub.induced_edge_count(c) for c in combinations(range(g.n), size)
            )
            assert worst <= k * size - s
        assert sf.is_sparse(sub, sf.SparsityParams(k, 1 - s)).sparse
        done += 1
