"""The brute-force trust anchor itself, plus its negative controls."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsity_forge as sf
from sparsity_forge.matroid import MincutCountEngine
from sparsity_forge.oracle import _SideChecker
from sparsity_forge.pebble import PebbleGame

from conftest import random_graph


def test_brute_sparse_trivia():
    c4 = sf.circulant(4, 1)
    cert = sf.brute_sparse(c4, 1, 0)
    assert cert.sparse and cert.max_violation == 0
    k4 = sf.complete_graph(4)
    cert = sf.brute_sparse(k4, 1, -1)
    assert not cert.sparse
    wit = cert.witness
    assert k4.induced_edge_count(wit.ids) >= len(wit)  # spans a cycle


def test_brute_sparse_size_guard():
    with pytest.raises(ValueError, match="22"):
        sf.brute_sparse(sf.Graph(23, []), 1, 0)


def test_brute_sparse_matches_engine(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        a = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if 2 * a + b < 1:
            continue
        fast = sf.is_sparse(g, sf.SparsityParams(a, b))
        slow = sf.brute_sparse(g, a, b)
        assert fast.sparse == slow.sparse
        assert fast.max_violation == slow.max_violation
        assert fast.min_potential == slow.min_potential


def test_brute_partition_c5_two_forests():
    c5 = sf.circulant(5, 1)
    ok, witness = sf.brute_partition_exists(c5, 1, -1, 1, -1)
    assert ok
    w1, w2 = witness
    assert sf.is_sparse(c5.edge_subgraph(w1.ids), sf.SparsityParams(1, -1)).sparse
    assert sf.is_sparse(c5.edge_subgraph(w2.ids), sf.SparsityParams(1, -1)).sparse
    assert w1.ids | w2.ids == frozenset(range(5))


def test_brute_partition_rejects_counterexample():
    g = sf.gen_counterexample_disconnected(1, 1, 5, 2)
    ok, witness = sf.brute_partition_exists(g, 1, -1, 1, 1)
    assert not ok and witness is None


def test_brute_partition_rational_bounds():
    # forest + (3/2, -2)-sparse split of K4: exercises scaled pebble sides
    k4 = sf.complete_graph(4)
    ok, witness = sf.brute_partition_exists(k4, 1, -1, Fraction(3, 2), -2)
    assert ok
    w1, w2 = witness
    assert sf.is_sparse(k4.edge_subgraph(w2.ids), sf.SparsityParams(Fraction(3, 2), -2)).sparse


def test_brute_partition_size_guard():
    big = sf.complete_graph(7)  # 21 edges
    with pytest.raises(ValueError, match="20"):
        sf.brute_partition_exists(big, 1, -1, 1, 0)
    matching = sf.Graph(24, [(2 * i, 2 * i + 1) for i in range(12)])  # 24 touched vertices
    with pytest.raises(ValueError, match="22 touched vertices"):
        sf.brute_partition_exists(matching, 1, -1, 1, 0)
    # only touched vertices count: 30 isolated ones cost nothing
    k4_far = sf.Graph(34, sf.complete_graph(4).edges)
    assert sf.brute_partition_exists(k4_far, 1, -1, 1, -1)[0]


def test_brute_partition_runs_no_engine(monkeypatch):
    cases = [
        (sf.circulant(5, 1), (1, -1, 1, -1), True),
        (sf.complete_graph(4), (1, -1, Fraction(3, 2), -2), True),
        (sf.gen_counterexample_disconnected(1, 1, 5, 2), (1, -1, 1, 1), False),
        # (1, -2) is pathological and holds nothing; C5 is no forest
        (sf.circulant(5, 1), (1, -1, 1, -2), False),
        # below b = -2a the room of a side is floored at 0, so it prunes nothing
        (sf.Graph(2, [(0, 1)]), (1, -1, 1, -3), True),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the brute partition search ran an engine")

    monkeypatch.setattr(PebbleGame, "__init__", refuse)
    monkeypatch.setattr(MincutCountEngine, "__init__", refuse)
    for g, params, verdict in cases:
        assert sf.brute_partition_exists(g, *params)[0] == verdict


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_side_table_matches_the_definition_property(data):
    n = data.draw(st.integers(2, 8), label="n")
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=16, unique=True), label="pairs")
    g = sf.Graph(n, edges)
    q = data.draw(st.integers(1, 4), label="denominator of a")
    a = Fraction(data.draw(st.integers(1, 4 * q), label="numerator of a"), q)
    d = data.draw(st.integers(1, 4), label="denominator of b")
    b = Fraction(data.draw(st.integers(math.ceil(-2 * a * d), 3 * d), label="numerator of b"), d)
    params = sf.SparsityParams(a, b)
    touched = len({x for edge in g.edges for x in edge})
    side = _SideChecker(g, a, b)
    members = []
    for _ in range(data.draw(st.integers(1, 24), label="steps")):
        if members and data.draw(st.booleans(), label="remove"):
            side.remove(members.pop())
        elif len(members) < g.e:
            eid = data.draw(st.sampled_from([i for i in range(g.e) if i not in members]), label="edge")
            h = g.edge_subgraph(members + [eid])
            # a pathological side holds nothing: one edge exceeds 2a + b
            fits = not params.pathological and sf.brute_sparse(h, a, b).sparse
            if not params.pathological:
                assert sf.is_sparse(h, params).sparse == fits
            assert side.try_add(eid) == fits
            if fits:
                members.append(eid)
        assert side.room[-1] == max(0, math.floor(a * touched + b)) - len(members)


class _WholeCountOnlyOracle:
    """Deliberately broken: checks the global count, never the subgraphs."""

    def __init__(self, host, a, b):
        self.host = host
        self.a, self.b = a, b

    def is_independent(self, s):
        if not s.ids:
            return True
        spanned = s.spanned_vertices()
        return len(s) <= self.a * len(spanned) + self.b


def test_axiom_checker_rejects_corrupted_oracle():
    # two disjoint triangles: a triangle plus two far edges passes the global
    # count but hides a dense subgraph, so heredity must fail
    g = sf.Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert not sf.check_matroid_axioms(_WholeCountOnlyOracle(g, 1, -1))
    assert sf.check_matroid_axioms(sf.make_oracle(g, 1, -1))


def test_axiom_checker_size_guard():
    host = sf.complete_graph(6)  # 15 edges
    with pytest.raises(ValueError, match="12"):
        sf.check_matroid_axioms(sf.make_oracle(host, 1, -1))
