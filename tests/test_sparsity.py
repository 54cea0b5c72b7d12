"""Exact sparsity decisions, density indices, and the slack function."""

import copy
import pickle
import random
import sys
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sparsity_forge as sf
from sparsity_forge import matroid, mincut, sparsity  # noqa: F401 (matroid binds selection_max)
from sparsity_forge.errors import PathologicalParametersError
from sparsity_forge.instances import random_sparse_graph
from sparsity_forge.pebble import PebbleGame

from conftest import plus_edges, random_graph


def test_potential_k2_matches_closed_form():
    k2 = sf.complete_graph(2)
    for k in range(1, 6):
        assert sf.potential(k2, [0, 1], Fraction(k + 1)) == 2 * k + 1


def test_potential_isolated_vertex():
    g = sf.Graph(2, [])
    assert sf.potential(g, [0], 3) == 3
    with pytest.raises(ValueError):
        sf.potential(g, [], 3)


def test_potential_random_recount(rng):
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        ids = [v for v in range(g.n) if rng.random() < 0.6] or [0]
        a = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        direct = a * len(ids) - sum(1 for u, v in g.edges if u in ids and v in ids)
        assert sf.potential(g, ids, a) == direct


def test_max_violation_k5_and_c4():
    val, wit = sf.max_violation(sf.complete_graph(5), 2)
    assert val == 0 and wit.sorted() == [0, 1, 2, 3, 4]
    val, wit = sf.max_violation(sf.circulant(4, 1), 1)
    assert val == 0 and wit.sorted() == [0, 1, 2, 3]


def test_max_violation_agrees_with_brute(rng):
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 10), rng.random())
        a = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        val, wit = sf.max_violation(g, a)
        best = max(
            Fraction(g.induced_edge_count(c)) - a * len(c)
            for r in range(2, g.n + 1)
            for c in combinations(range(g.n), r)
        )
        assert val == best
        assert g.induced_edge_count(wit.ids) - a * len(wit) == best


def test_forests_are_1_minus_1_sparse(rng):
    params = sf.SparsityParams(1, -1)
    for _ in range(25):
        n = rng.randint(2, 12)
        edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8]
        g = sf.Graph(n, edges)
        assert sf.is_sparse(g, params).sparse


def test_triangle_not_forest_sparse():
    cert = sf.is_sparse(sf.complete_graph(3), sf.SparsityParams(1, -1))
    assert not cert.sparse
    assert cert.witness.sorted() == [0, 1, 2]
    assert cert.max_violation == 1


def _subdivide(g: sf.Graph, times: int) -> sf.Graph:
    edges = [list(e) for e in g.edges]
    n = g.n
    out = []
    for u, v in edges:
        chain = [u] + list(range(n, n + times)) + [v]
        n += times
        out.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return sf.Graph(n, out)


def test_subdivided_k33_is_1_3_sparse():
    k33 = sf.Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    params = sf.SparsityParams(1, 3)
    for depth in range(4):
        g = _subdivide(k33, depth)
        assert sf.is_sparse(g, params).sparse
        if g.n <= 22:
            assert sf.brute_sparse(g, 1, 3).sparse


def test_is_tight_examples():
    assert sf.is_tight(sf.complete_graph(4), sf.SparsityParams(2, -2))
    assert sf.is_tight(sf.complete_graph(5), sf.SparsityParams(2, 0))
    k4e = sf.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert sf.is_tight(k4e, sf.SparsityParams(2, -3))
    assert not sf.is_tight(sf.complete_graph(4), sf.SparsityParams(2, -1))


def test_pathological_params_rejected():
    assert sf.SparsityParams(1, -2).pathological
    # the integer cross-multiplication agrees with Fraction arithmetic,
    # including at the boundary 2a + b = 1
    assert not sf.SparsityParams(Fraction(7, 10), Fraction(-2, 5)).pathological
    assert sf.SparsityParams(Fraction(7, 10), Fraction(-41, 100)).pathological
    for a in (Fraction(p, q) for q in range(1, 8) for p in range(1, 3 * q)):
        for b in (Fraction(p, q) for q in range(1, 8) for p in range(-6 * q, 2 * q)):
            assert sf.SparsityParams(a, b).pathological == (2 * a + b < 1)
    with pytest.raises(PathologicalParametersError):
        sf.is_sparse(sf.complete_graph(3), sf.SparsityParams(1, -2))


def test_degenerate_graphs_are_sparse():
    one = sf.Graph(1, [])
    cert = sf.is_sparse(one, sf.SparsityParams(2, -3))
    assert cert.sparse and cert.max_violation is None
    empty = sf.Graph(0, [])
    assert sf.is_sparse(empty, sf.SparsityParams(1, -1)).sparse


def test_k6_is_tight_for_half_integral_a():
    # 2k+2 vertices carry exactly (k+eps)(2k+2) edges when eps = 1/2, k = 2
    assert sf.is_tight(sf.complete_graph(6), sf.SparsityParams(Fraction(5, 2), 0))


# -- density indices ----------------------------------------------------------


def test_m_of_examples():
    assert sf.m_of(sf.complete_graph(5)) == 2
    assert sf.m_of(sf.circulant(7, 1)) == 1
    with pytest.raises(ValueError):
        sf.m_of(sf.Graph(3, []))


def test_m_of_random_vs_enumeration(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10), 0.2 + 0.6 * rng.random())
        if g.e == 0:
            continue
        best = max(
            Fraction(g.induced_edge_count(c), len(c))
            for r in range(1, g.n + 1)
            for c in combinations(range(g.n), r)
        )
        assert sf.m_of(g) == best


def test_m2_of_examples():
    assert sf.m2_of(sf.complete_graph(3)) == 2
    assert sf.m2_of(sf.complete_graph(5)) == 3


def test_m2_of_random_vs_enumeration(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 10), 0.2 + 0.6 * rng.random())
        best = max(
            Fraction(g.induced_edge_count(c) - 1, len(c) - 2)
            for r in range(3, g.n + 1)
            for c in combinations(range(g.n), r)
        )
        assert sf.m2_of(g) == best
        # characterization: smallest m with (m, 1-2m)-sparsity
        m2 = sf.m2_of(g)
        if m2 > 0:
            assert sf.is_sparse(g, sf.SparsityParams(m2, 1 - 2 * m2)).sparse
            smaller = m2 - Fraction(1, 97)
            if smaller > 0:
                assert not sf.is_sparse(g, sf.SparsityParams(smaller, 1 - 2 * smaller)).sparse


def test_m2_pair_examples():
    k3, k4 = sf.complete_graph(3), sf.complete_graph(4)
    assert sf.m2_pair(k3, k3) == 2
    assert sf.m2_pair(k4, k3) == Fraction(12, 5)
    # 120 / (14 + 2/5): past the old 16-vertex enumeration cap
    assert sf.m2_pair(sf.complete_graph(16), k4) == Fraction(25, 3)
    assert sf.m2_pair(sf.Graph(5, []), k3) == 0


def test_m2_pair_on_more_than_16_vertices(rng):
    # three disjoint 7-vertex blocks: with 0 <= 2 - 1/m2(h2) < 2, a union of
    # disjoint sets never beats its best part, so the blocks' own
    # enumerations give the pair density of the 21-vertex graph
    h2 = sf.complete_graph(4)
    shift = 1 / sf.m2_of(h2)
    blocks = [random_graph(rng, 7, 0.3 + 0.2 * i) for i in range(3)]
    h1 = sf.Graph(21, [(u + 7 * i, v + 7 * i) for i, blk in enumerate(blocks) for u, v in blk.edges])
    best = max(
        Fraction(blk.induced_edge_count(c)) / (len(c) - 2 + shift)
        for blk in blocks
        for r in range(2, 8)
        for c in combinations(range(7), r)
    )
    assert sf.m2_pair(h1, h2) == best


def test_m2_pair_rejects_tiny_first_graph_and_deprecates_cap():
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            sf.m2_pair(sf.Graph(n, []), sf.complete_graph(3))
    with pytest.warns(DeprecationWarning, match="max_vertices"):
        assert sf.m2_pair(sf.complete_graph(20), sf.complete_graph(3), max_vertices=16) == Fraction(380, 37)


def test_m2_pair_vs_enumeration_and_monotonicity(rng):
    for _ in range(15):
        h1 = random_graph(rng, rng.randint(3, 7), 0.5 + 0.4 * rng.random())
        h2 = random_graph(rng, rng.randint(3, 7), 0.5 + 0.4 * rng.random())
        if h2.e < 2 or h1.e < 1:
            continue
        m2h2 = sf.m2_of(h2)
        if m2h2 <= 0:
            continue
        best = max(
            Fraction(h1.induced_edge_count(c)) / (len(c) - 2 + Fraction(1, 1) / m2h2)
            for r in range(2, h1.n + 1)
            for c in combinations(range(h1.n), r)
        )
        assert sf.m2_pair(h1, h2) == best
        assert sf.m2_pair(h2, h2) <= sf.m2_of(h2)


# -- forest slack -------------------------------------------------------------


def test_forest_slack_interval_spot_values():
    assert sf.forest_slack(2, Fraction(4, 5)) == 2  # inside (3/4, 6/7)
    assert sf.forest_slack(3, Fraction(7, 9) - Fraction(1, 100)) == 3
    assert sf.forest_slack(2, 0) == 4
    assert sf.forest_slack(2, Fraction(1, 3)) == 4
    assert sf.forest_slack(2, Fraction(1, 2)) == 3
    assert sf.forest_slack(1, Fraction(4, 5)) == 1
    # eps as partition_forest_plus takes it: a float goes through Fraction
    assert sf.forest_slack(2, 0.5) == 3
    assert sf.forest_slack(2, 0.25) == sf.forest_slack(2, Fraction(1, 4))


def test_forest_slack_capped_at_2k():
    for k in range(1, 7):
        for j in range(0, 48):
            eps = Fraction(j, 48)
            val = sf.forest_slack(k, eps)
            assert 1 <= val <= 2 * k


def test_forest_slack_domain():
    with pytest.raises(ValueError):
        sf.forest_slack(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        sf.forest_slack(2, 1)
    with pytest.raises(ValueError):
        sf.forest_slack(2, Fraction(-1, 3))
    for k in (2.0, Fraction(2), 2.5):  # k must be an int, as in partition_forest_plus
        with pytest.raises(ValueError, match="integral k"):
            sf.forest_slack(k, Fraction(1, 3))


def test_slack_lemma_on_small_graphs(rng):
    # every certified (k+eps, 0)-sparse graph is (k+1, -slack)-sparse
    from conftest import atlas_graphs

    eps_choices = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                   Fraction(2, 3), Fraction(3, 4), Fraction(5, 6)]
    for g in atlas_graphs(6):
        for k in (1, 2):
            for eps in eps_choices:
                m = k + eps
                if not sf.is_sparse(g, sf.SparsityParams(m, 0)).sparse:
                    continue
                s = sf.forest_slack(k, eps)
                assert sf.is_sparse(g, sf.SparsityParams(k + 1, -s)).sparse


def test_strengthening_with_m(rng):
    # (m', 1-2m')-sparse and m' <= m imply (m, 1-2m)-sparse
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 9), rng.random())
        mp = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        m = mp + Fraction(rng.randint(0, 10), rng.randint(1, 6))
        if sf.is_sparse(g, sf.SparsityParams(mp, 1 - 2 * mp)).sparse:
            assert sf.is_sparse(g, sf.SparsityParams(m, 1 - 2 * m)).sparse


def _brute_density(g):
    # the largest e(U)/|U|: the a at which the maximum of e(U) - a|U| is zero
    a = Fraction(g.e, g.n)
    while True:
        cert = sf.brute_sparse(g, a, 1)  # b does not move the maximum
        if cert.min_potential >= 0:
            return a
        a = Fraction(g.induced_edge_count(cert.witness.ids), len(cert.witness))


def _maximizer_union_and_intersection(g, a):
    # over every U with |U| >= 2, as bitmasks: the maximum of e(U) - a|U|
    # and the union and intersection of the sets attaining it
    p, q = a.numerator, a.denominator
    nb = [0] * g.n
    for u, v in g.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    e = [0] * (1 << g.n)
    best, union, meet = None, 0, -1
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        rest = mask ^ low
        e[mask] = e[rest] + (nb[low.bit_length() - 1] & rest).bit_count()
        if not rest:
            continue
        val = q * e[mask] - p * mask.bit_count()
        if best is None or val > best:
            best, union, meet = val, mask, mask
        elif val == best:
            union, meet = union | mask, meet & mask
    ids = lambda mask: frozenset(v for v in range(g.n) if mask >> v & 1)
    return Fraction(best, q), ids(union), ids(meet)


def test_max_violation_strategies_agree(rng):
    # both witness conventions of max_violation against exhaustive search,
    # n = 2-14.  Each graph is also
    # padded with isolated vertices to n = 41-60: that leaves the maximum in
    # place and sends it down the large-graph witness conventions, both on a
    # fresh call and on the game a sparse is_sparse hands over.  Above 40
    # vertices a zero maximum is witnessed by the union of all zero sets, and
    # at every n a positive maximum by the intersection of all maximizers.
    zeros = positives = 0
    for i in range(120):
        g = random_graph(rng, rng.randint(2, 14), rng.random())
        if g.e == 0:
            continue
        if i % 5 == 0:
            a = _brute_density(g)
        elif i % 5 == 1:  # just above it: a negative maximum, rarely a lone edge
            a = _brute_density(g) + Fraction(1, rng.randint(2, 7))
        else:
            a = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        best = -sf.brute_sparse(g, a, 1).min_potential
        top, union, meet = _maximizer_union_and_intersection(g, a)
        assert top == best
        zeros += best == 0
        positives += best > 0
        for h in (g, sf.Graph(rng.randint(41, 60), g.edges)):
            value, witness = sf.max_violation(h, a)
            assert value == best
            assert h.induced_edge_count(witness.ids) - a * len(witness) == best
            # b = best is tight: a sweep accepts when best <= 0
            cert = sf.is_sparse(h, sf.SparsityParams(a, best))
            assert cert.sparse and cert.max_violation == 0
            assert h.induced_edge_count(cert.witness.ids) - a * len(cert.witness) == best
            if best > 0:
                assert witness.ids == cert.witness.ids == meet
            elif best == 0 and h is not g:
                assert witness.ids == cert.witness.ids == union
    assert zeros >= 10 and positives >= 10


@pytest.fixture
def cuts(monkeypatch):
    """The calls of mincut.selection_max, spied on in every module that binds it."""
    calls = []
    real = mincut.selection_max

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sparsity_forge") and getattr(module, "selection_max", None) is real:
            monkeypatch.setattr(module, "selection_max", spy)
    return calls


@pytest.fixture
def games(monkeypatch):
    """(n, k, l, copies, room) of every pebble game built through _counted."""
    built = []
    real = PebbleGame._counted.__func__

    def spy(cls, n, k, l, copies, room):
        built.append((n, k, l, copies, room))
        return real(cls, n, k, l, copies, room)

    monkeypatch.setattr(PebbleGame, "_counted", classmethod(spy))
    return built


def test_max_violation_asks_no_min_cut_at_any_maximum(cuts, games):
    # K4 padded with isolated vertices past 40: its maximum of e(U) - a|U|
    # is 6 - 4a, negative at a = 2, zero at 3/2 and positive at 1.  Each
    # read plays one zero-slack game with room for every copy (a negative
    # maximum adds its witness game, at l > 0), and none asks the min-cut
    k4 = sf.complete_graph(4)
    for n in (41, 50, 60):
        h = sf.Graph(n, k4.edges)
        assert sf.max_violation(h, 2) == (-2, sf.VertexSet(h, range(4)))
        assert sf.max_violation(h, Fraction(3, 2)) == (0, sf.VertexSet(h, range(4)))
        assert [game for game in games if not game[2]] == [(n, 2, 0, 1, 6), (n, 3, 0, 2, 12)]
        games.clear()
    for h in (k4, sf.Graph(8, k4.edges), sf.Graph(45, k4.edges)):
        assert sf.max_violation(h, 1) == (2, sf.VertexSet(h, range(4)))
        assert games == [(h.n, 1, 0, 1, 6)]
        games.clear()
    assert cuts == []


def test_a_read_the_sweep_showed_positive_plays_one_zero_slack_game(cuts, games):
    # a refusal at b >= 0, or an elongated game that left copies unplaced,
    # shows the maximum positive: the read plays one zero-slack game with
    # room for every copy, asks no min-cut, and gives what a fresh
    # max_violation gives
    rng = random.Random(5)
    k5 = sf.complete_graph(5)
    host = plus_edges(random_sparse_graph(50, 2, rng), 3, rng)
    verdicts = []
    for g, a, bs in ((k5, Fraction(3, 2), (0, 1, 3)), (sf.Graph(45, k5.edges), Fraction(3, 2), (0, 1, 3)),
                     (host, Fraction(2), (0, 1, 3))):
        game = (g.n, a.numerator, 0, a.denominator, a.denominator * g.e)
        for b in bs:
            cert = sf.is_sparse(g, sf.SparsityParams(a, b))
            verdicts.append(cert.sparse)
            games.clear()
            record = cert.to_json_dict()
            assert games == [game]
            value, witness = sf.max_violation(g, a)
            assert value > 0 and games == [game, game]
            assert (cert.max_violation, cert.witness) == (value - b, witness)
            assert record["witness"] == witness.sorted()
    assert verdicts == [False, False, True] * 3
    assert cuts == []


def _below(draw, top):
    # a rational a with 0 < a < top and a denominator of at most 9
    q = draw(st.integers(1, 9))
    largest = -(-top.numerator * q // top.denominator) - 1  # the last p with p/q < top
    assume(largest >= 1)
    return Fraction(draw(st.integers(1, largest)), q)


@st.composite
def positive_maximum_cases(draw):
    # a graph whose maximum of e(U) - a|U| is positive: G(n, p) at n <= 14
    # (relabelled onto 41-80 vertices in the "padded" kind), or a sparse host
    # on 41-80 vertices with dense blocks planted in it
    kind = draw(st.sampled_from(("small", "padded", "planted")))
    if kind == "planted":
        rnd = draw(st.randoms(use_true_random=False))
        n = draw(st.integers(41, 80))
        edges = {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(rnd.randint(n // 2, 2 * n))}
        top = Fraction(0)  # the densest block's e(U)/|U|, a lower bound on the maximum's
        for _ in range(draw(st.integers(1, 3))):
            block = rnd.sample(range(n), draw(st.integers(4, 9)))
            inside = [tuple(sorted(pair)) for pair in combinations(block, 2) if rnd.random() < 0.9]
            edges.update(inside)
            top = max(top, Fraction(len(inside), len(block)))
        return sf.Graph(n, sorted(edges)), _below(draw, top), None
    n = draw(st.integers(3, 14))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=2))
    g = sf.Graph(n, edges)
    # below the whole graph's density, so the whole vertex set scores > 0
    a = _below(draw, Fraction(g.e, n))
    if kind == "small":
        return g, a, g
    perm = draw(st.permutations(range(draw(st.integers(41, 80)))))
    return sf.Graph(len(perm), [(perm[u], perm[v]) for u, v in g.edges]), a, None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(positive_maximum_cases())
@example((sf.complete_graph(5), Fraction(3, 2), sf.complete_graph(5)))
def test_positive_maxima_match_the_min_cut_and_brute_force(case):
    # value and minimal maximizer against the selection network's min-cut,
    # and at n <= 14 against exhaustive search; the copies the zero-slack
    # game leaves unplaced are the same whether or not it buries regions
    g, a, small = case
    p, q = a.numerator, a.denominator
    value, witness = sf.max_violation(g, a)
    reference, minimal = mincut.selection_max(g.n, g.edges, p, q)
    assert reference > 0
    assert (value, witness.ids) == (Fraction(reference, q), frozenset(minimal))
    if 2 * a >= 1:  # the certificate of a refusal at b = 0 reads the same maximum
        cert = sf.is_sparse(g, sf.SparsityParams(a, 0))
        assert not cert.sparse and (cert.max_violation, cert.witness) == (value, witness)
    if small is not None:
        assert value == -sf.brute_sparse(g, a, 1).min_potential  # b does not move it
        assert (value, witness.ids) == _maximizer_union_and_intersection(g, a)[::2]
    buries, plain = (PebbleGame._counted(g.n, p, 0, q, q * g.e) for _ in range(2))
    short = []
    for u, v in sparsity._sweep_order(g, 0):
        unplaced = buries.unplaced
        buries.insert(u, v)
        if buries.unplaced > unplaced:
            short.append((u, v))
            buries._bury_free_regions()
    assert plain.sweep(sparsity._sweep_order(g, 0))
    assert (buries.unplaced, buries.pebbles, buries.out) == (plain.unplaced, plain.pebbles, plain.out)
    assert buries.unplaced == reference
    # the witness is the out-arc closure of the short edges' ends
    closure = {w for edge in short for w in edge}
    stack = list(closure)
    while stack:
        for w in plain.out[stack.pop()]:
            if w not in closure:
                closure.add(w)
                stack.append(w)
    assert closure == witness.ids


def test_potential_submodularity(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 9), rng.random())
        a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        u1 = frozenset(v for v in range(g.n) if rng.random() < 0.6)
        u2 = frozenset(v for v in range(g.n) if rng.random() < 0.6)
        if not (u1 & u2):
            continue
        lhs = sf.potential(g, u1 & u2, a) + sf.potential(g, u1 | u2, a)
        rhs = sf.potential(g, u1, a) + sf.potential(g, u2, a)
        assert lhs <= rhs


@st.composite
def graphs_and_params(draw):
    n = draw(st.integers(0, 9))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    a = Fraction(draw(st.integers(1, 16)), draw(st.integers(1, 4)))
    # b's own denominator makes the scaled game's copies an lcm with a's; for
    # b > 0 the elongated game may leave up to b times that many unplaced
    b = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 10)))
    assume(2 * a + b >= 1)
    return sf.Graph(n, edges), a, b


@settings(max_examples=300, derandomize=True, deadline=None)
@given(graphs_and_params())
def test_is_sparse_matches_brute_force_property(case):
    g, a, b = case
    bounds = [b]
    if g.n >= 2:
        # verdicts turn where b meets the maximum; a game that rounded b to
        # a's denominator would misjudge some of these
        top = -sf.brute_sparse(g, a, b).min_potential
        bounds += [top] + [top + Fraction(k, d) for k in (-1, 1) for d in range(1, 6)]
    for b in bounds:
        if 2 * a + b < 1:
            continue
        fast = sf.is_sparse(g, sf.SparsityParams(a, b))
        slow = sf.brute_sparse(g, a, b)
        assert fast.sparse == slow.sparse
        assert fast.max_violation == slow.max_violation
        assert fast.min_potential == slow.min_potential
        if g.n >= 2:
            w = fast.witness
            assert len(w) >= 2
            assert g.induced_edge_count(w.ids) - a * len(w) == -slow.min_potential


def test_certificates_pickle_and_copy_with_their_numbers():
    # both verdicts, fresh and cached params, and the refusal a NotSparseError carries
    for g, a, b in ((sf.complete_graph(4), 1, 3), (sf.complete_graph(4), 1, 0),
                    (random_sparse_graph(50, 2, random.Random(3)), 2, 0)):
        for params in (sf.SparsityParams(a, b), sparsity._params(a, b)):
            cert = sf.is_sparse(g, params)
            twins = (pickle.loads(pickle.dumps(cert)), copy.copy(cert), copy.deepcopy(cert))
            for twin in twins:
                assert twin == cert and twin.to_json_dict() == cert.to_json_dict()
                assert twin.params._counts == params._counts
        assert sparsity._params(a, b) is params  # copies left the cached one as it was
    with pytest.raises(sf.NotSparseError) as info:
        sf.decompose_ksw(sf.complete_graph(7), Fraction(5, 2))
    twin = pickle.loads(pickle.dumps(info.value))
    assert twin.certificate.to_json_dict() == info.value.certificate.to_json_dict()


_INT_OR_FRACTION = st.one_of(st.integers(-8, 8), st.fractions(-8, 8, max_denominator=9))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(st.integers(1, 8), st.fractions(Fraction(1, 9), 8, max_denominator=9)),
       _INT_OR_FRACTION)
@example(2, 0)
@example(Fraction(5, 2), -1)
@example(1, Fraction(1, 3))
def test_cached_params_equal_fresh_ones_and_carry_the_game_counts(a, b):
    # b > 0, b = 0 and b < 0, pathological or not; an int and the equal
    # Fraction are one cache key
    cached, fresh = sparsity._params(a, b), sf.SparsityParams(a, b)
    assert sparsity._params(Fraction(a), Fraction(b)) is cached
    assert cached == fresh and hash(cached) == hash(fresh)
    assert cached.pathological == fresh.pathological == (2 * a + b < 1)
    assert cached._counts == fresh._counts
    if not cached.pathological:
        game = PebbleGame.scaled(4, a, b)
        assert cached._counts == (game.k, game.l, game.copies, game.room)


def test_decision_only_callers_never_compute_the_maximum(monkeypatch, cuts, games):
    calls = []
    exact = sparsity.max_violation

    def spy(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    def maximum_games(graphs):
        # games built as max_violation builds its own: zero slack, room for every copy
        return [game for game in games for g in graphs
                if game[0] == g.n and not game[2] and game[4] == game[3] * g.e]

    monkeypatch.setattr(sparsity, "max_violation", spy)
    rng = random.Random(4)
    # one host per regime of the decomposition, either side of n = 40
    decided = []
    for m, n in ((Fraction(3, 2), 30), (Fraction(19, 10), 45), (Fraction(5, 2), 35),
                 (Fraction(20, 7), 45), (Fraction(7), 30)):
        g = random_sparse_graph(n, m, rng)
        decided.append(g)
        assert sf.verify_decomposition(sf.decompose_ksw(g, m))
    assert calls == [] and maximum_games(decided) == []
    for g in (random_sparse_graph(30, 2, rng), random_sparse_graph(50, 2, rng)):
        cert = sf.is_sparse(g, sf.SparsityParams(Fraction(5, 2), -1))
        assert cert.sparse and calls == []
        witness = cert.witness
        assert len(calls) == 1
        value = g.induced_edge_count(witness.ids) - Fraction(5, 2) * len(witness)
        assert (cert.witness, cert.max_violation, cert.min_potential) == (witness, value + 1, -value)
        assert len(calls) == 1
        calls.clear()
    # refusing gates, either side of n = 40 and at b = 0 and b > 0: the
    # error carries an unread certificate, and reading it costs one maximum
    refusals = []
    for g, m in ((sf.complete_graph(7), Fraction(5, 2)),
                 (plus_edges(random_sparse_graph(50, 2, rng), 2, rng), Fraction(19, 10))):
        with pytest.raises(sf.NotSparseError) as info:
            sf.decompose_ksw(g, m)
        decided.append(g)
        refusals.append(info.value.certificate)
    for g, sides in ((sf.complete_graph(6), (1, -1, 1, 1)),
                     (plus_edges(random_sparse_graph(45, 2, rng), 3, rng), (1, 0, 1, 1))):
        with pytest.raises(sf.NotSparseError) as info:
            sf.partition_sparse(g, *sides)
        decided.append(g)
        refusals.append(info.value.certificate)
    assert calls == [] and cuts == [] and maximum_games(decided) == []
    for g, cert in zip(decided[-4:], refusals):
        assert not cert.sparse
        assert cert.max_violation > 0 and len(calls) == 1
        assert cert.to_json_dict()["witness"] == cert.witness.sorted() and len(calls) == 1
        assert len(maximum_games([g])) == 1
        calls.clear()
    assert cuts == []
    games.clear()
    # b > 0 independence tests, accepted and refused, read no certificate
    refused = 0
    tested = [random_sparse_graph(30, 2, rng), plus_edges(random_sparse_graph(50, 2, rng), 2, rng)]
    for g in tested:
        for a, b in ((1, 1), (2, 1), (1, 2)):
            o = sf.make_oracle(g, a, b)
            ids = []
            for eid in range(g.e):
                if o.is_independent(sf.EdgeSet(g, ids + [eid])):
                    ids.append(eid)
            refused += g.e - len(ids)
    assert refused and calls == [] and cuts == [] and maximum_games(tested) == []


def test_whole_graph_refusals_build_no_game_and_match_the_sweep(games):
    # a graph whose own edge count breaks the bound is refused before any
    # game is built; every verdict and certificate is the one a sweep and
    # max_violation give, at b < 0, b = 0 and b > 0, either side of n = 40
    rng = random.Random(29)
    params = [sf.SparsityParams(a, b)
              for a, b in ((Fraction(3, 2), -1), (2, Fraction(-1, 3)), (Fraction(5, 2), 0),
                           (Fraction(7, 3), 0), (2, 1), (Fraction(5, 3), Fraction(1, 2)))]
    whole = swept_refusals = 0
    for n in (8, 20, 41, 70):
        hosts = [random_graph(rng, n, rng.uniform(0, 8 / (n - 1))) for _ in range(8)]
        # a sparse graph with a planted K6: refused, but not as a whole
        k6 = sf.complete_graph(6).edges
        hosts += [sf.Graph(n, sorted({*random_graph(rng, n, 1.5 / n).edges, *k6})) for _ in range(3)]
        for g in hosts:
            for par in params:
                k, l, q, room = par._counts
                games.clear()
                cert = sf.is_sparse(g, par)
                game = PebbleGame._counted(g.n, k, l, q, room)
                sparse = game.sweep(sparsity._sweep_order(g, l))
                assert cert.sparse == sparse
                if q * g.e > k * g.n - l + room:
                    assert not sparse and games == [(g.n, k, l, q, room)]  # the reference game alone
                    whole += 1
                else:
                    swept_refusals += not sparse
                value, witness = sf.max_violation(g, par.a)
                reference = sf.SparsityCertificate(sparse, witness, value - par.b, -value, par)
                assert cert.to_json_dict() == reference.to_json_dict(), (n, g.edges, par)
    assert whole >= 40 and swept_refusals >= 20


def test_peel_order_is_smallest_last_and_a_permutation():
    # a triangle 0-1-2 with a tail 2-3-4 and an isolated vertex 5: peeled
    # 5, 4, 3, then 2 (its degree fell last among the three of degree 2),
    # 1 and 0; (0, 2) and (1, 2), both peeled with 2, keep input order
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
    assert sparsity._peel_order(6, edges) == [(3, 4), (2, 3), (0, 2), (1, 2), (0, 1)]
    assert sparsity._peel_order(3, []) == []
    rng = random.Random(16)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 60), rng.random())
        order = sparsity._peel_order(g.n, g.edges)
        assert sorted(order) == list(g.edges)


def _two_k4s_on_70():
    # K4 on {0..3} and K4 on {4, 5, 6, 69}: in input order the first K4 is
    # refused first at (2, -3), in peel order the second (it holds the
    # highest id, so it is peeled first)
    perm = [0, 1, 2, 3, 4, 5, 6, 69] + list(range(7, 69))
    k4s = sf.Graph(8, list(combinations(range(4), 2)) + list(combinations(range(4, 8), 2)))
    return k4s, Fraction(2), Fraction(0), perm


@st.composite
def padded_graphs_and_params(draw):
    n = draw(st.integers(2, 12))
    pairs = list(combinations(range(n), 2))
    g = sf.Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)))
    a = draw(st.fractions(Fraction(1, 10), 7, max_denominator=10))
    sign = draw(st.sampled_from((-1, 0, 1)))
    b = sign * draw(st.fractions(Fraction(1, 10), 8, max_denominator=10))
    assume(2 * a + b >= 1)
    perm = draw(st.permutations(range(draw(st.integers(41, 70)))))
    return g, a, b, perm


@settings(max_examples=150, derandomize=True, deadline=None)
@given(padded_graphs_and_params())
@example(_two_k4s_on_70())
def test_peel_ordered_sweeps_keep_verdicts_and_certificates(case):
    # isolated vertices and a relabelling send a small graph down the
    # peel-ordered sweeps; neither changes the maximum over |U| >= 2
    g, a, b, perm = case
    padded = sf.Graph(len(perm), [(perm[u], perm[v]) for u, v in g.edges])
    params = sf.SparsityParams(a, b)
    cert = sf.is_sparse(padded, params)
    slow = sf.brute_sparse(g, a, b)
    assert cert.sparse == slow.sparse
    record = cert.to_json_dict()  # reads every lazy field
    assert cert.max_violation == slow.max_violation
    assert padded.induced_edge_count(cert.witness.ids) - a * len(cert.witness) == -slow.min_potential
    # a fresh Graph of the same edges: padded keeps the peel order its sweep cached
    unpeeled = sf.Graph(padded.n, padded.edges)
    with mock.patch.object(sparsity, "_peel_order", lambda n, edges: list(edges)):
        assert sf.is_sparse(unpeeled, params).to_json_dict() == record


def test_each_graph_is_peeled_once():
    g = random_sparse_graph(60, Fraction(5, 2), random.Random(3))
    with mock.patch.object(sparsity, "_peel_order", wraps=sparsity._peel_order) as peel:
        forward = sparsity._sweep_order(g, 1)
        backward = sparsity._sweep_order(g, 0)
        assert sparsity._sweep_order(g, 2) is forward
        small = sf.complete_graph(5)
        assert sparsity._sweep_order(small, 0) is small.edges  # not peeled at n <= 40
    assert peel.call_count == 1
    assert forward == tuple(sparsity._peel_order(g.n, g.edges))
    assert backward == forward[::-1]
    # the cache is no field: equality, hashing and repr ignore it
    twin = sf.Graph(g.n, g.edges)
    assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
