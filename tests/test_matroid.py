"""Count-matroid oracle: independence, greedy rank, tight components, axioms."""

from itertools import chain, combinations

import pytest

import sparsity_forge as sf
from sparsity_forge.errors import MatroidRegimeError
from sparsity_forge.matroid import engine_for

from conftest import random_graph


def edge_set(g, ids):
    return sf.EdgeSet(g, ids)


def test_make_oracle_regimes():
    k4 = sf.complete_graph(4)
    assert sf.make_oracle(k4, 1, -1).validity_class == "lorea"
    assert sf.make_oracle(k4, 1, 0).validity_class == "lorea"
    assert sf.make_oracle(k4, 1, 1).validity_class == "white_whiteley"
    with pytest.raises(MatroidRegimeError):
        sf.make_oracle(k4, 1, -3)
    with pytest.raises(MatroidRegimeError):
        sf.make_oracle(k4, 0, 0)


def test_graphic_matroid_on_k4():
    k4 = sf.complete_graph(4)
    o = sf.make_oracle(k4, 1, -1)
    tree = edge_set(k4, [0, 1, 2])  # (0,1), (0,2), (0,3): a star
    assert sf.is_independent(o, tree)
    assert not sf.is_independent(o, sf.full_edge_set(k4))
    assert sf.is_independent(o, edge_set(k4, []))
    assert sf.rank(o, sf.full_edge_set(k4)) == 3
    assert sf.rank(o, edge_set(k4, [])) == 0


def test_pseudoforest_rank_on_k4_matches_exhaustive():
    k4 = sf.complete_graph(4)
    o = sf.make_oracle(k4, 1, 0)
    full = sf.full_edge_set(k4)
    assert sf.rank(o, full) == 4
    ids = range(k4.e)
    best = max(
        len(sub)
        for sub in chain.from_iterable(combinations(ids, r) for r in range(k4.e + 1))
        if sf.is_independent(o, edge_set(k4, sub))
    )
    assert best == 4


def test_foreign_edge_set_rejected():
    k4, k5 = sf.complete_graph(4), sf.complete_graph(5)
    o = sf.make_oracle(k4, 1, -1)
    with pytest.raises(ValueError, match="different host"):
        sf.is_independent(o, sf.full_edge_set(k5))


def test_pathological_regime_matroid_is_trivial():
    g = sf.gen_counterexample_ring(1, 3)
    o = sf.make_oracle(g, 1, -2)  # b == -2a: regime-valid, only the empty set fits
    assert sf.is_independent(o, edge_set(g, []))
    assert not sf.is_independent(o, edge_set(g, [0]))
    assert sf.rank(o, sf.full_edge_set(g)) == 0


def test_axioms_exhaustive_on_k4_k5():
    for host in (sf.complete_graph(4), sf.complete_graph(5)):
        for a, b in [(1, -1), (1, 0), (2, -2), (2, -3), (1, 1)]:
            assert sf.check_matroid_axioms(sf.make_oracle(host, a, b)), (host, a, b)


def test_independence_iff_all_subsets_independent(rng):
    g = random_graph(rng, 6, 0.7)
    o = sf.make_oracle(g, 1, 0)
    for _ in range(30):
        ids = [i for i in range(g.e) if rng.random() < 0.5]
        s = edge_set(g, ids)
        if sf.is_independent(o, s):
            for i in ids:
                assert sf.is_independent(o, s.minus(i))


def test_rank_monotone_and_submodular(rng):
    g = random_graph(rng, 6, 0.8)
    while g.e > 10:
        g = random_graph(rng, 6, 0.6)
    for a, b in [(1, -1), (1, 0), (2, -3), (1, 1)]:
        o = sf.make_oracle(g, a, b)
        for _ in range(60):
            s = frozenset(i for i in range(g.e) if rng.random() < 0.5)
            t = frozenset(i for i in range(g.e) if rng.random() < 0.5)
            rs = sf.rank(o, edge_set(g, s))
            rt = sf.rank(o, edge_set(g, t))
            if s <= t:
                assert rs <= rt
            runion = sf.rank(o, edge_set(g, s | t))
            rinter = sf.rank(o, edge_set(g, s & t))
            assert runion + rinter <= rs + rt


@pytest.mark.parametrize(
    "a, b, engine",
    [
        (1, -1, "ForestEngine"),
        (1, 0, "PebbleCountEngine"),
        (2, -3, "PebbleCountEngine"),
        (1, 1, "MincutCountEngine"),
        (2, 1, "MincutCountEngine"),
        (1, -2, "TrivialEngine"),
    ],
)
def test_engine_circuit_is_none_exactly_when_insert_succeeds(rng, a, b, engine):
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.4, 0.7]))
        o = sf.make_oracle(g, a, b)
        eng = engine_for(o)
        assert type(eng).__name__ == engine
        members: list[int] = []
        for eid, (u, v) in enumerate(g.edges):
            circuit = eng.circuit(u, v)
            refused_by = eng.insert(eid, u, v)
            assert refused_by == circuit  # a refused insert returns the same circuit
            fits = refused_by is None
            assert fits == o.is_independent(edge_set(g, members + [eid]))
            if fits:
                members.append(eid)
            else:
                # fundamental circuit: members plus eid minus any circuit element is independent
                assert set(circuit) <= set(members)
                for x in circuit:
                    rest = [y for y in members if y != x]
                    assert o.is_independent(edge_set(g, rest + [eid]))
            if members and rng.random() < 0.2:
                gone = rng.choice(members)
                eng.delete(gone)
                members.remove(gone)


def test_tight_components_of_forest():
    g = sf.Graph(6, [(0, 1), (1, 2), (3, 4)])  # two trees
    o = sf.make_oracle(g, 1, -1)
    comps = sf.find_tight_components(o, sf.full_edge_set(g))
    assert [c.sorted() for c in comps] == [[0, 1, 2], [3, 4]]


def test_tight_components_spanning_tree_is_single():
    k4 = sf.complete_graph(4)
    o = sf.make_oracle(k4, 1, -1)
    comps = sf.find_tight_components(o, edge_set(k4, [0, 1, 2]))
    assert [c.sorted() for c in comps] == [[0, 1, 2, 3]]


def test_tight_components_pseudoforest():
    # one cycle component and one tree component under (1, 0)
    g = sf.Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6)])
    o = sf.make_oracle(g, 1, 0)
    comps = sf.find_tight_components(o, sf.full_edge_set(g))
    # the cyclic component (with its hanging tree edge) is tight; the tree is not
    assert [c.sorted() for c in comps] == [[0, 1, 2, 3]]


def test_tight_components_disjointness_random(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 8), 0.6)
        o = sf.make_oracle(g, rng.choice([1, 2]), rng.choice([0, -1]))
        if o.b < -o.a:
            continue
        ids = []
        for eid in range(g.e):
            cand = edge_set(g, ids + [eid])
            if sf.is_independent(o, cand):
                ids.append(eid)
        comps = sf.find_tight_components(o, edge_set(g, ids))
        seen = set()
        for c in comps:
            assert not (c.ids & seen)
            seen |= c.ids
            spanned = g.induced_edge_ids(c.ids)
            inside = [i for i in spanned if i in set(ids)]
            assert len(inside) == o.a * len(c) + o.b  # each reported set is tight


def test_tight_components_regime_guard():
    k4 = sf.complete_graph(4)
    o = sf.make_oracle(k4, 2, -3)
    with pytest.raises(MatroidRegimeError):
        sf.find_tight_components(o, edge_set(k4, [0]))


def test_tight_components_requires_independent_input():
    k4 = sf.complete_graph(4)
    o = sf.make_oracle(k4, 1, -1)
    with pytest.raises(ValueError, match="dependent"):
        sf.find_tight_components(o, sf.full_edge_set(k4))
