"""Matroid-union partitioning: successes, deficiencies, guarantees."""

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsity_forge as sf
from sparsity_forge import matroid, mincut, partition, sparsity
from sparsity_forge.errors import NotSparseError
from sparsity_forge.instances import random_sparse_graph

from conftest import atlas_graphs, random_graph


def test_k4_into_two_spanning_trees():
    k4 = sf.complete_graph(4)
    res = sf.partition_sparse(k4, 1, -1, 1, -1)
    assert res.success
    assert res.e1.ids | res.e2.ids == frozenset(range(6))
    assert not (res.e1.ids & res.e2.ids)
    params = sf.SparsityParams(1, -1)
    for side in (res.e1, res.e2):
        assert sf.is_sparse(k4.edge_subgraph(side.ids), params).sparse
        assert len(side) == 3


def test_empty_graph_partitions_trivially():
    g = sf.Graph(0, [])
    res = sf.matroid_union_partition(g, sf.make_oracle(g, 1, -1), sf.make_oracle(g, 1, 1))
    assert res.success and len(res.e1) == 0 and len(res.e2) == 0


def test_not_sparse_input_raises_with_certificate():
    k5 = sf.complete_graph(5)
    with pytest.raises(NotSparseError) as exc:
        sf.partition_sparse(k5, 1, -1, 1, -1)
    assert exc.value.certificate.witness.sorted() == [0, 1, 2, 3, 4]


def test_disconnected_counterexample_deficiency():
    g = sf.gen_counterexample_disconnected(1, 1, 5, 2)
    res = sf.partition_sparse(g, 1, -1, 1, 1)
    assert not res.success
    assert res.r1 + res.r2 < len(res.deficiency)
    # within a single copy there is no deficit: 4 + 6 covers the 10 edges
    copy_ids = [i for i in range(g.e) if all(v < 5 for v in g.edges[i])]
    assert len(copy_ids) == 10
    m1, m2 = sf.make_oracle(g, 1, -1), sf.make_oracle(g, 1, 1)
    one_copy = sf.EdgeSet(g, copy_ids)
    assert sf.rank(m1, one_copy) == 4
    assert sf.rank(m2, one_copy) == 6


def test_ring_counterexample_deficiency():
    g = sf.gen_counterexample_ring(1, 3)
    res = sf.partition_sparse(g, 1, -1, 1, -2)
    assert not res.success
    assert res.r2 == 0
    assert res.r1 + res.r2 < len(res.deficiency)


def test_glued_trees_counterexample_deficiency():
    g = sf.gen_counterexample_glued_trees(2)
    res = sf.partition_sparse(g, 2, -1, 2, -3)
    assert not res.success
    assert res.r1 + res.r2 < len(res.deficiency)


def test_deficiency_minimization():
    g = sf.gen_counterexample_ring(1, 3)
    plain = sf.partition_sparse(g, 1, -1, 1, -2)
    minimized = sf.partition_sparse(g, 1, -1, 1, -2, minimize_certificate=True)
    b = minimized.deficiency
    assert len(b) <= len(plain.deficiency)
    m1, m2 = sf.make_oracle(g, 1, -1), sf.make_oracle(g, 1, -2)
    assert sf.rank(m1, b) + sf.rank(m2, b) < len(b)
    for eid in b.sorted():
        smaller = b.minus(eid)
        assert sf.rank(m1, smaller) + sf.rank(m2, smaller) >= len(smaller)


def test_forest_plus_k5():
    k5 = sf.complete_graph(5)
    res = sf.partition_forest_plus(k5, 2, 0)
    assert res.success
    assert sf.is_sparse(k5.edge_subgraph(res.e1.ids), sf.SparsityParams(1, -1)).sparse
    assert sf.is_sparse(k5.edge_subgraph(res.e2.ids), sf.SparsityParams(2, -3)).sparse


def test_forest_plus_c7():
    c7 = sf.circulant(7, 1)
    res = sf.partition_forest_plus(c7, 1, 0)  # slack f(1,0) = 2: rest is a forest too
    assert res.success
    assert sf.is_sparse(c7.edge_subgraph(res.e2.ids), sf.SparsityParams(1, -1)).sparse


def test_forest_plus_rejects_non_sparse():
    with pytest.raises(NotSparseError):
        sf.partition_forest_plus(sf.complete_graph(6), 2, 0)


def test_forest_plus_exhaustive_small_sweep():
    # guaranteed totality at desk scale: n <= 6 canonical graphs
    eps_grid = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                Fraction(2, 3), Fraction(3, 4), Fraction(5, 6)]
    checked = 0
    for g in atlas_graphs(6):
        for k in (1, 2, 3):
            for eps in eps_grid:
                if not sf.is_sparse(g, sf.SparsityParams(k + eps, 0)).sparse:
                    continue
                res = sf.partition_forest_plus(g, k, eps)
                assert res.success
                checked += 1
    assert checked > 3000


def test_forest_plus_all_seven_vertex_graphs_at_two_and_a_third():
    # slack(2, 1/3) = ceil(6 * 2/3) = 4: split is (1,-1) + (2,-3)
    m = Fraction(7, 3)
    assert sf.forest_slack(2, Fraction(1, 3)) == 4
    count = 0
    for g in atlas_graphs(7):
        if g.n != 7 or not sf.brute_sparse(g, m, 0).sparse:
            continue
        res = sf.partition_forest_plus(g, 2, Fraction(1, 3))
        assert res.success
        count += 1
    assert count > 400


# -- forest-first split: k >= 2 and eps <= 1/2 --------------------------------

# the acceptance values of m that take the forest-first split, and some that do not
_FOREST_FIRST_M = [Fraction(2), Fraction(7, 3), Fraction(5, 2), Fraction(3),
                   Fraction(10, 3), Fraction(4), Fraction(7)]
_UNION_ONLY_M = [Fraction(6, 5), Fraction(3, 2), Fraction(9, 5), Fraction(19, 10),
                 Fraction(18, 7), Fraction(11, 4), Fraction(20, 7)]


def _union_split(g, plan):
    """The split of the matroid union alone, which the forest-first one must equal."""
    m1, m2 = sf.make_oracle(g, 1, -1), sf.make_oracle(g, plan.k, 1 - plan.s)
    return sf.matroid_union_partition(g, m1, m2)


def _spy_engine_for(monkeypatch):
    """Count engine_for calls through every module that binds it."""
    real = matroid.engine_for
    calls = []

    def spy(oracle):
        calls.append((oracle.a, oracle.b))
        return real(oracle)

    for name, mod in list(sys.modules.items()):
        if name.startswith("sparsity_forge.") and vars(mod).get("engine_for") is real:
            monkeypatch.setattr(mod, "engine_for", spy)
    return calls


def test_forest_first_split_is_the_unions_split(monkeypatch):
    calls = _spy_engine_for(monkeypatch)
    routes = set()  # (n, ran the union) over the forest-first hosts
    for m in _FOREST_FIRST_M + _UNION_ONLY_M:
        plan = sparsity._plan(m)
        assert plan.forest_first == (m in _FOREST_FIRST_M), m  # k >= 2 and eps <= 1/2
        for n in (8, 60, 200):
            for seed in range(4 if n == 8 else 1):
                g = random_sparse_graph(n, m, random.Random(100 * n + seed))
                before = len(calls)
                split = partition._forest_plus(g, plan)
                ran_union = len(calls) > before
                assert split == _union_split(g, plan), (m, n, seed)
                if plan.forest_first:
                    routes.add((n, ran_union))
                else:
                    assert ran_union, (m, n, seed)
    # every host at n >= 60 skips the union; tight hosts at n = 8 take both routes
    assert routes == {(8, False), (8, True), (60, False), (200, False)}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_forest_first_split_is_the_unions_split_property(data):
    m = data.draw(st.sampled_from(_FOREST_FIRST_M), label="m")
    n = data.draw(st.integers(2, 9), label="n")
    all_pairs = list(combinations(range(n), 2))
    e = data.draw(st.integers(0, min(len(all_pairs), int(m * n))), label="edges")
    g = sf.Graph(n, data.draw(st.permutations(all_pairs), label="pairs")[:e])
    plan = sparsity._plan(m)
    if not sf.is_sparse(g, plan.gate).sparse:
        with pytest.raises(NotSparseError):
            partition._forest_plus(g, plan)
        return
    assert partition._forest_plus(g, plan) == _union_split(g, plan)


def test_forest_first_falls_back_to_the_union_on_k5(monkeypatch):
    # the greedy forest of K5 is the star at 0; the rest is the K4 on 1..4,
    # with 6 > 2*4 - 3 edges, so it is not (2, -3)-sparse and the union runs
    k5 = sf.complete_graph(5)
    plan = sparsity._plan(Fraction(2))
    assert (plan.k, plan.s, plan.forest_first) == (2, 4, True)
    calls = _spy_engine_for(monkeypatch)
    split = partition._forest_plus(k5, plan)
    assert calls == [(1, -1), (2, -3)]
    assert split == _union_split(k5, plan)
    assert split.e1.ids != {0, 1, 2, 3}  # not the star
    d = sf.decompose_ksw(k5, 2)
    assert (d.F, d.Gp) == (split.e1, split.e2)
    assert sf.verify_decomposition(d)


def test_decompose_runs_the_union_only_where_the_forest_first_split_fails(monkeypatch):
    # forest-first at 7; at 20/7 the greedy rest passes the final sweep; at
    # 19/10 on this host it does not, but s = forest_slack(1, 9/10) = 1, so
    # the (k+1, 0) orientation splits it and no union engine is built.  At
    # 3/2 (s = 2) a refused greedy try still runs the union
    calls = _spy_engine_for(monkeypatch)
    sf.decompose_ksw(random_sparse_graph(200, 7, random.Random(1)), 7)
    m = Fraction(20, 7)
    sf.decompose_ksw(random_sparse_graph(200, m, random.Random(1)), m)
    m = Fraction(19, 10)
    assert sparsity._plan(m).s == 1
    sf.decompose_ksw(random_sparse_graph(60, m, random.Random(16)), m)
    assert calls == []
    m = Fraction(3, 2)
    sf.decompose_ksw(random_sparse_graph(60, m, random.Random(0)), m)
    assert calls == [(1, -1), (1, -1)]  # s = forest_slack(1, 1/2) = 2


# every s = 1 regime of the bench: k = 1 at eps >= 4/5, and k = 2, 3 at
# eps >= (2k+2)/(2k+3)
_S1_M = [Fraction(9, 5), Fraction(19, 10), Fraction(20, 7), Fraction(35, 9)]


def _own_acyclic(g, ids):
    """The test's own union-find: no edge of ids closes a cycle."""
    parent = list(range(g.n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in ids:
        ru, rv = (root(x) for x in g.edges[eid])
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _oriented_splits(g, plan):
    """_oriented_split of g from its greedy forest, as decompose_ksw calls
    it, and from no forest at all: that rest is all of g, so the
    orientation runs unless g itself is (k, 0)-sparse."""
    forest, rest = partition._greedy_forest(g)
    yield partition._oriented_split(g, plan, forest, sf.EdgeSet(g, rest))
    yield partition._oriented_split(g, plan, [], sf.EdgeSet(g, range(g.e)))


def _checked_splits(hosts, m, gate, rest_is_sparse):
    """Check every oriented split of the hosts that pass ``gate``: it
    partitions E, its forest is acyclic by the test's own union-find, and
    ``rest_is_sparse`` holds for its rest.  Returns how many forests the
    orientation built (a non-empty forest from no forest at all)."""
    plan = sparsity._plan(m)
    assert plan.s == 1, m
    oriented = 0
    for g in hosts:
        if not gate(g):
            continue
        for i, split in enumerate(_oriented_splits(g, plan)):
            assert split.success
            assert not split.e1.ids & split.e2.ids
            assert split.e1.ids | split.e2.ids == frozenset(range(g.e))
            assert _own_acyclic(g, split.e1.ids), (m, g.edges)
            assert rest_is_sparse(g.edge_subgraph(split.e2.sorted()), plan.k), (m, g.edges)
            oriented += i == 1 and len(split.e1) > 0
    return oriented


def test_oriented_split_is_a_forest_and_a_k_0_sparse_rest_by_brute_force(rng):
    # gate and rest both by exhaustive search, never by the pebble game
    for m in _S1_M:
        hosts = [random_sparse_graph(n, m, random.Random(100 * n + seed))
                 for n in (5, 6, 7, 8) for seed in range(3)]
        hosts += [random_graph(rng, 8, rng.random()) for _ in range(40)]
        oriented = _checked_splits(
            hosts, m,
            gate=lambda g: sf.brute_sparse(g, m, 0).sparse,
            rest_is_sparse=lambda r, k: sf.brute_sparse(r, k, 0).sparse,
        )
        assert oriented >= 5, m


def _min_cut_sparse(g, a):
    """(a, 0)-sparsity by one selection max, without the pebble game: the
    max of q*e(U) - p|U| over every U, a = p/q, is 0 exactly when no U on
    two or more vertices breaks the bound (the empty set scores 0, a lone
    vertex -p).  At slack 0 this one min-cut decides what the per-edge
    min-cuts through each edge's ends decide together."""
    a = Fraction(a)
    return mincut.selection_max(g.n, g.edges, a.numerator, a.denominator)[0] == 0


def test_oriented_split_rest_passes_the_min_cut_above_40_vertices():
    rng = random.Random(27)
    for m in _S1_M:
        hosts = [random_sparse_graph(rng.randint(41, 120), m, rng) for _ in range(2)]
        # G(n, p) at average degree 1.6m: mostly past (k, 0) and within (m, 0)
        hosts += [random_graph(rng, n, 1.6 * m / n) for n in (rng.randint(41, 120) for _ in range(3))]
        oriented = _checked_splits(hosts, m, gate=lambda g: _min_cut_sparse(g, m),
                                   rest_is_sparse=_min_cut_sparse)
        assert oriented >= 3, m


def test_k_forest_and_k_pseudoforest_splits(rng):
    from sparsity_forge.instances import random_sparse_graph

    for trial in range(20):
        n = rng.randint(4, 12)
        g = random_sparse_graph(n, Fraction(2), rng)
        sub = [i for i in range(g.e) if rng.random() < 0.8]
        g2 = g.edge_subgraph(sub)
        if sf.is_sparse(g2, sf.SparsityParams(2, -2)).sparse:
            res = sf.partition_sparse(g2, 1, -1, 1, -1)
            assert res.success
            for side in (res.e1, res.e2):
                assert sf.is_sparse(g2.edge_subgraph(side.ids), sf.SparsityParams(1, -1)).sparse
        if sf.is_sparse(g2, sf.SparsityParams(2, 0)).sparse:
            res = sf.partition_sparse(g2, 1, 0, 1, 0)
            assert res.success
            for side in (res.e1, res.e2):
                assert sf.is_sparse(g2.edge_subgraph(side.ids), sf.SparsityParams(1, 0)).sparse


def test_partition_agrees_with_brute_force_small(rng):
    params_list = [(1, -1, 1, -1), (1, -1, 1, 0), (1, 0, 1, 0), (1, -1, 1, 1),
                   (1, 1, 1, 1), (2, -2, 1, -1), (1, -2, 1, 0)]
    for g in atlas_graphs(5):
        for a1, b1, a2, b2 in params_list:
            if b1 < -2 * a1 or b2 < -2 * a2:
                continue
            res = sf.matroid_union_partition(
                g, sf.make_oracle(g, a1, b1), sf.make_oracle(g, a2, b2)
            )
            exists, witness = sf.brute_partition_exists(g, a1, b1, a2, b2)
            assert res.success == exists
            if exists:
                w1, w2 = witness
                assert sf.is_independent(sf.make_oracle(g, a1, b1), w1)
                assert sf.is_independent(sf.make_oracle(g, a2, b2), w2)


# integral sides with 2a + b >= 1: forests, pseudoforests, two b < 0 sides at a = 2
# and one b > 0 side, so that the elongated engine runs too
_SIDES = [(1, -1), (1, 0), (2, -3), (2, -2), (1, 1)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_partition_success_matches_brute_force_property(data):
    n = data.draw(st.sampled_from([5, 6, 4, 7, 8, 3, 2]), label="n")  # 12 edges are dense at 5, 6
    all_pairs = list(combinations(range(n), 2))
    most = min(12, len(all_pairs))
    # drawn down from the densest graph, where deficiencies live
    e = most - data.draw(st.integers(0, most // 2), label="missing edges")
    g = sf.Graph(n, data.draw(st.permutations(all_pairs), label="pairs")[:e])
    a1, b1 = data.draw(st.sampled_from(_SIDES), label="side 1")
    a2, b2 = data.draw(st.sampled_from(_SIDES), label="side 2")
    res = sf.matroid_union_partition(g, sf.make_oracle(g, a1, b1), sf.make_oracle(g, a2, b2))
    exists, _ = sf.brute_partition_exists(g, a1, b1, a2, b2)
    assert res.success == exists
    if res.success:
        assert res.e1.ids | res.e2.ids == frozenset(range(g.e))
        assert not res.e1.ids & res.e2.ids
        assert sf.brute_sparse(g.edge_subgraph(res.e1.ids), a1, b1).sparse
        assert sf.brute_sparse(g.edge_subgraph(res.e2.ids), a2, b2).sparse


def test_partition_json_shapes():
    k4 = sf.complete_graph(4)
    ok = sf.partition_sparse(k4, 1, -1, 1, -1).to_json_dict()
    assert ok["outcome"] == "success" and set(ok) == {"outcome", "e1", "e2"}
    g = sf.gen_counterexample_ring(1, 3)
    bad = sf.partition_sparse(g, 1, -1, 1, -2).to_json_dict()
    assert bad["outcome"] == "deficiency" and set(bad) == {"outcome", "B", "r1", "r2"}
