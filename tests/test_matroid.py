"""Count-matroid oracle: independence, greedy rank, tight components, axioms."""

from collections import deque
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsity_forge as sf
from sparsity_forge.errors import MatroidRegimeError
from sparsity_forge.matroid import ForestEngine, MincutCountEngine, PebbleCountEngine, engine_for

from conftest import random_graph


def edge_set(g, ids):
    return sf.EdgeSet(g, ids)


def test_make_oracle_regimes():
    k4 = sf.complete_graph(4)
    assert sf.make_oracle(k4, 1, -1).validity_class == "lorea"
    assert sf.make_oracle(k4, 1, 0).validity_class == "lorea"
    assert sf.make_oracle(k4, 1, 1).validity_class == "white_whiteley"
    o = sf.make_oracle(k4, 2, -3)  # params are built once, not per query
    assert o.params is o.params and o.params == sf.SparsityParams(2, -3)
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
        (1, 1, "PebbleCountEngine"),
        (2, 1, "PebbleCountEngine"),
        (1, 2, "PebbleCountEngine"),
        (3, 1, "PebbleCountEngine"),
        (1, -2, "TrivialEngine"),
    ],
)
def test_engine_circuit_is_none_exactly_when_insert_succeeds(rng, a, b, engine):
    promotions = 0  # deletes after which a spare edge re-entered the game
    for _ in range(12):
        # dense enough at every a that b > 0 engines fill their spare slots
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.4, 0.7, 1.0]))
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
            if members and rng.random() < 0.3:
                gone = rng.choice(members)
                spare = list(getattr(eng, "spare", ()))
                eng.delete(gone)
                members.remove(gone)
                if gone not in spare and len(getattr(eng, "spare", ())) < len(spare):
                    promotions += 1
    assert (promotions > 0) == (b > 0), promotions


def _assert_spare_invariant(eng, members, b):
    """Spare edges are at most b members the game refuses; the game holds
    exactly the other members, one arc each."""
    host, game = eng.host, eng.game
    assert eng.members == members
    assert len(eng.spare) <= b and set(eng.spare) <= members
    for eid in members:
        u, v = host.edges[eid]
        assert game.out[u].get(v, 0) + game.out[v].get(u, 0) == (eid not in eng.spare)
    for eid in eng.spare:
        assert not game.insertable(*host.edges[eid])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_elongated_engine_matches_forced_mincut(data):
    # b > 0: the (a, 0) game plus b spare slots against a forced min-cut per
    # query, and the min-cut verdicts against the sparsity engine
    a = data.draw(st.integers(1, 3), label="a")
    b = data.draw(st.integers(1, 3), label="b")
    host = sf.complete_graph(data.draw(st.integers(2, 10), label="n"))
    eng = PebbleCountEngine(host, a, b)
    ref = MincutCountEngine(host, a, b)
    members: set[int] = set()
    for _ in range(data.draw(st.integers(0, 40), label="steps")):
        op = data.draw(st.sampled_from(["insert", "circuit", "delete"]), label="op")
        if op == "delete" and members:
            eid = data.draw(st.sampled_from(sorted(members)), label="eid")
            eng.delete(eid)
            ref.delete(eid)
            members.remove(eid)
        elif len(members) < host.e:
            eid = data.draw(st.sampled_from([e for e in range(host.e) if e not in members]))
            u, v = host.edges[eid]
            expected = ref.circuit(u, v)
            fits = sf.is_sparse(host.edge_subgraph(sorted(members) + [eid]), sf.SparsityParams(a, b))
            assert (expected is None) == fits.sparse
            if op == "circuit":
                assert eng.circuit(u, v) == expected
            else:
                assert eng.insert(eid, u, v) == expected
                if expected is None:
                    ref.insert(eid, u, v)
                    members.add(eid)
        _assert_spare_invariant(eng, members, b)


def _fresh_circuit(host, a, b, members, u, v):
    """The circuit of {u, v} from an engine that never answered a query."""
    fresh = PebbleCountEngine(host, a, b)
    for eid in sorted(members):
        assert fresh.insert(eid, *host.edges[eid]) is None
    return fresh.circuit(u, v)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.data())
def test_cached_spare_regions_match_a_fresh_engine(data):
    # the engine keeps the union of its spare edges' regions until its
    # members change; refused inserts and circuit queries reuse it
    a = data.draw(st.integers(1, 3), label="a")
    b = data.draw(st.integers(1, 3), label="b")
    n = data.draw(st.integers(2, 9), label="n")
    pairs = list(combinations(range(n), 2))
    missing = data.draw(st.sets(st.sampled_from(pairs), max_size=n), label="missing")
    host = sf.Graph(n, [pair for pair in pairs if pair not in missing])  # dense: spare fills
    eng = PebbleCountEngine(host, a, b)
    members: set[int] = set()
    for _ in range(data.draw(st.integers(0, 40), label="steps")):
        op = data.draw(st.sampled_from(["insert", "circuit", "delete"]), label="op")
        if op == "delete" and members:
            eid = data.draw(st.sampled_from(sorted(members)), label="eid")
            eng.delete(eid)
            members.remove(eid)
        elif len(members) < host.e:
            eid = data.draw(st.sampled_from([e for e in range(host.e) if e not in members]))
            u, v = host.edges[eid]
            expected = _fresh_circuit(host, a, b, members, u, v)
            if op == "circuit":
                assert eng.circuit(u, v) == expected
            else:
                assert eng.insert(eid, u, v) == expected
                if expected is None:
                    members.add(eid)
        _assert_spare_invariant(eng, members, b)


def _filtered_circuit(eng, u, v):
    """The circuit of {u, v} by a filter over all members: each one tested
    against the refused gather's region joined with every spare edge's
    stalled region.  None when {u, v} fits."""
    game, host = eng.game, eng.host
    if len(eng.spare) < eng.room or game.gather_max(u, v) > game.l:
        return None
    inside = set(game.last_region)
    for eid in eng.spare:
        assert game.gather_max(*host.edges[eid]) == 0
        inside.update(game.last_region)
    return sorted(eid for eid in eng.members if inside.issuperset(host.edges[eid]))


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.data())
def test_member_index_circuits_match_a_filter_over_all_members(data):
    # b <= 0 and b > 0 (spare edges): circuits walk the region's vertices
    # through the per-vertex member index, which must agree with members
    a = data.draw(st.integers(1, 3), label="a")
    b = data.draw(st.integers(1 - 2 * a, 3), label="b")
    n = data.draw(st.integers(2, 9), label="n")
    pairs = list(combinations(range(n), 2))
    missing = data.draw(st.sets(st.sampled_from(pairs), max_size=n), label="missing")
    host = sf.Graph(n, [pair for pair in pairs if pair not in missing])
    eng = PebbleCountEngine(host, a, b)
    for _ in range(data.draw(st.integers(0, 40), label="steps")):
        op = data.draw(st.sampled_from(["insert", "circuit", "delete"]), label="op")
        if op == "delete" and eng.members:
            eng.delete(data.draw(st.sampled_from(sorted(eng.members)), label="eid"))
        elif len(eng.members) < host.e:
            eid = data.draw(st.sampled_from([e for e in range(host.e) if e not in eng.members]))
            u, v = host.edges[eid]
            expected = _filtered_circuit(eng, u, v)
            if op == "circuit":
                assert eng.circuit(u, v) == expected
            else:
                assert eng.insert(eid, u, v) == expected
        index = {(w, eid, x) for w, incident in enumerate(eng._incident) for eid, x in incident.items()}
        ends = [(eid, *host.edges[eid]) for eid in eng.members]
        assert index == {(u, eid, v) for eid, u, v in ends} | {(v, eid, u) for eid, u, v in ends}


def test_mincut_reference_takes_rational_bounds(rng):
    # the brute partition search runs its b > 0 sides on this engine
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.7)
        a = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-2, 3), rng.randint(1, 3))
        if 2 * a + b < 1:
            continue
        ref = MincutCountEngine(g, a, b)
        for eid, (u, v) in enumerate(g.edges):
            fits = sf.brute_sparse(g.edge_subgraph(sorted(ref.members) + [eid]), a, b).sparse
            assert (ref.insert(eid, u, v) is None) == fits


def test_forest_add_refuses_a_cycle_and_stays_usable():
    k4 = sf.complete_graph(4)
    eid = k4.edge_index
    forest = ForestEngine(k4, [eid[0, 1], eid[1, 2]])
    with pytest.raises(ValueError, match="cycle"):
        forest.add(eid[0, 2])
    with pytest.raises(ValueError, match="cycle"):
        forest.add(eid[0, 1])  # already a member
    assert forest.ids() == {eid[0, 1], eid[1, 2]}
    assert forest.path(2, 0) == [eid[1, 2], eid[0, 1]]
    assert forest.insert(eid[2, 3], 2, 3) is None
    forest.delete(eid[1, 2])
    forest.add(eid[0, 2])
    assert forest.path(3, 1) == [eid[2, 3], eid[0, 2], eid[0, 1]]


def _bfs_path(adj, u, v):
    """Reference: edge ids of the u..v path in a forest given as nbr -> eid maps."""
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y, e in adj[x].items():
            if y not in prev:
                prev[y] = (x, e)
                queue.append(y)
    if v not in prev:
        return None
    path = []
    while v != u:
        v, e = prev[v]
        path.append(e)
    return path[::-1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_rooted_forest_matches_bfs_reference(data):
    n = data.draw(st.integers(1, 12), label="n")
    host = sf.complete_graph(n)
    forest = ForestEngine(host)
    ref = [dict() for _ in range(n)]  # nbr -> eid, the reference forest
    members: set[int] = set()

    def link(e):
        u, v = host.edges[e]
        ref[u][v] = ref[v][u] = e
        members.add(e)

    def cut(e):
        u, v = host.edges[e]
        del ref[u][v], ref[v][u]
        members.remove(e)

    for _ in range(data.draw(st.integers(0, 30), label="steps")):
        outside = [e for e in range(host.e) if e not in members]
        op = data.draw(st.sampled_from(["insert", "add", "delete", "swap"]), label="op")
        if op == "delete" and members:
            e = data.draw(st.sampled_from(sorted(members)))
            forest.delete(e)
            cut(e)
        elif outside:
            e = data.draw(st.sampled_from(outside))
            u, v = host.edges[e]
            expected = _bfs_path(ref, u, v)
            if op == "insert":
                assert forest.insert(e, u, v) == expected
                if expected is None:
                    link(e)
            elif expected is None:
                forest.add(e)
                link(e)
            elif op == "add":
                with pytest.raises(ValueError):
                    forest.add(e)
            else:  # refine's swap: cut an edge of the cycle e would close, then link e
                out = data.draw(st.sampled_from(expected))
                forest.delete(out)
                cut(out)
                forest.add(e)
                link(e)
        assert forest.ids() == members
        assert forest.adj == ref
        for u in range(n):
            for v in range(n):
                assert forest.path(u, v) == _bfs_path(ref, u, v)
        # parent pointers: one per member edge, each along its edge, no cycle
        ups = [forest._up_eid[x] for x in range(n) if forest._parent[x] >= 0]
        assert sorted(ups) == sorted(members)
        for x in range(n):
            if forest._parent[x] >= 0:
                assert set(host.edges[forest._up_eid[x]]) == {x, forest._parent[x]}
            steps = 0
            while x >= 0:
                x = forest._parent[x]
                steps += 1
                assert steps <= n


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
