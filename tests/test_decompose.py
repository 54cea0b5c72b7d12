"""End-to-end forest-plus-sparse decompositions and their verification."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsity_forge as sf
from sparsity_forge import decompose, matroid, partition, sparsity
from sparsity_forge.errors import NotSparseError
from sparsity_forge.instances import random_sparse_graph

from conftest import atlas_graphs, random_graph


def test_c5_two_forests():
    c5 = sf.circulant(5, 1)
    d = sf.decompose_ksw(c5, Fraction(6, 5))
    assert d.trace == "small_m_two_forests"
    assert bool(sf.verify_decomposition(d))


def test_k5_at_two():
    d = sf.decompose_ksw(sf.complete_graph(5), 2)
    assert d.trace == "large_m_case_A"
    assert len(d.F) == 4 and len(d.Gp) == 6
    assert sf.is_sparse(d.host.edge_subgraph(d.Gp.ids), sf.SparsityParams(2, -3)).sparse
    assert bool(sf.verify_decomposition(d))


def test_k6_at_five_halves():
    d = sf.decompose_ksw(sf.complete_graph(6), Fraction(5, 2))
    assert d.trace == "large_m_case_C"
    assert bool(sf.verify_decomposition(d))


def test_triangle_free_branch():
    d = sf.decompose_ksw(sf.complete_graph(4), Fraction(9, 5))
    assert d.trace == "small_m_triangle_free"
    assert bool(sf.verify_decomposition(d))


def test_rejections():
    with pytest.raises(ValueError, match="m > 1"):
        sf.decompose_ksw(sf.complete_graph(3), 1)
    with pytest.raises(NotSparseError):
        sf.decompose_ksw(sf.complete_graph(5), Fraction(3, 2))


def test_failed_final_check_raises(monkeypatch):
    # without triangle elimination, K4's pseudoforest side keeps a triangle
    monkeypatch.setattr(decompose, "eliminate_triangles", lambda part: part)
    with pytest.raises(sf.TheoremViolationError, match="after case small_m_triangle_free: G'"):
        sf.decompose_ksw(sf.complete_graph(4), Fraction(9, 5))


def test_degenerate_graphs():
    for g in (sf.Graph(0, []), sf.Graph(1, []), sf.Graph(3, [])):
        d = sf.decompose_ksw(g, 2)
        assert bool(sf.verify_decomposition(d))
        assert len(d.F) == 0 and len(d.Gp) == 0


def test_case_labels_over_eps_regions():
    # a path is (m, 0)-sparse for every m >= 1, so it exercises all labels
    p6 = sf.Graph(6, [(i, i + 1) for i in range(5)])
    expectations = [
        (Fraction(6, 5), "small_m_two_forests"),
        (Fraction(8, 5), "small_m_two_forests"),
        (Fraction(179, 100), "small_m_two_forests"),         # eps = 79/100 < 4/5
        (Fraction(9, 5), "small_m_triangle_free"),
        (Fraction(199, 100), "small_m_triangle_free"),
        (Fraction(2), "large_m_case_A"),                     # eps = 0 < 3/6
        (Fraction(3) + Fraction(5, 12), "large_m_case_B"),   # 3/8 <= 5/12 < 1/2
        (Fraction(2) + Fraction(1, 2), "large_m_case_C"),
        (Fraction(2) + Fraction(almost := Fraction(18, 25)), "large_m_case_D1"),
        (Fraction(2) + Fraction(9, 10), "large_m_case_D2"),  # eps >= 6/7
        (Fraction(2) + Fraction(4, 5), "large_m_case_D3"),   # 3/4 < 4/5 < 6/7
        (Fraction(3) + Fraction(7, 9), "large_m_case_D2"),   # k=3 boundary
    ]
    for m, label in expectations:
        k = m.numerator // m.denominator
        eps = m - k
        if label == "large_m_case_B":
            assert Fraction(3, 2 * k + 2) <= eps < Fraction(1, 2)
        d = sf.decompose_ksw(p6, m)
        assert d.trace == label, (m, d.trace, label)
        assert bool(sf.verify_decomposition(d))


def _case_by_fractions(k: int, eps: Fraction) -> str:
    if k == 1:
        return "small_m_two_forests" if eps < Fraction(4, 5) else "small_m_triangle_free"
    if eps < Fraction(3, 2 * k + 2):
        return "large_m_case_A"
    if eps < Fraction(1, 2):
        return "large_m_case_B"
    if eps < Fraction(k + 3, 2 * k + 3):
        return "large_m_case_C"
    if eps <= Fraction(3, 4):
        return "large_m_case_D1"
    if eps >= Fraction(k + 4, 2 * k + 3):
        return "large_m_case_D2"
    return "large_m_case_D3"


def _slack_by_fractions(k: int, eps: Fraction) -> int:
    if eps * (2 * k + 2) < 2:
        return 2 * k
    if eps < Fraction(1, 2):
        return math.ceil((2 * k + 2) * (1 - eps))
    if eps < Fraction(k + 2, 2 * k + 3):
        return k + 1
    return math.ceil((2 * k + 3) * (1 - eps))


def test_integer_thresholds_match_their_fraction_forms():
    # _case and forest_slack compare eps = p/q by cross-multiplication; the
    # cached plan per m carries the same numbers
    grid = sorted({Fraction(p, q) for q in range(1, 61) for p in range(q)})
    for k in range(1, 13):
        for eps in grid:
            case, slack = _case_by_fractions(k, eps), _slack_by_fractions(k, eps)
            assert sparsity._case(k, eps) == case, (k, eps)
            assert sf.forest_slack(k, eps) == slack, (k, eps)
            m = k + eps
            plan = sparsity._plan(m)
            assert (plan.k, plan.case, plan.s) == (k, case, slack), (k, eps)
            assert plan.gate == sf.SparsityParams(m, 0), (k, eps)
            assert plan.final == sf.SparsityParams(m, 1 - 2 * m), (k, eps)
    assert sf.forest_slack(3, 0) == 6  # a plain int eps


def test_each_host_sweep_runs_once(monkeypatch):
    # one decomposition sweeps the whole host once: the (m, 0) gate
    real = sf.is_sparse
    # the submodules that bind it; the package only reads sparsity's binding,
    # and patching it there would leave a copy in its namespace after undo
    modules = [mod for name, mod in sys.modules.items()
               if name.startswith("sparsity_forge.") and vars(mod).get("is_sparse") is real]
    for m, seed in ((Fraction(19, 10), 21), (Fraction(6, 5), 22)):
        host = random_sparse_graph(60, m, random.Random(seed))
        sweeps = Counter()

        def spy(g, params):
            if g.n == host.n and g.edges == host.edges:
                sweeps[params.a, params.b] += 1
            return real(g, params)

        for mod in modules:
            monkeypatch.setattr(mod, "is_sparse", spy)
        sf.decompose_ksw(host, m)
        monkeypatch.undo()
        assert sweeps == Counter({(m, 0): 1}), (m, dict(sweeps))


def _old_route(g, m):
    """(F, G') of the constructive route alone: the union's split, then the
    checked public refinement of m's case."""
    plan = sparsity._plan(m)
    split = sf.partition_forest_plus(g, plan.k, m - plan.k)
    part = sf.ForestPartition(g, split.e1, split.e2)
    if plan.case == sparsity.CASE_D2:
        part = sf.brooks_refine(part, plan.k, plan.s)
    elif plan.case == sparsity.CASE_SMALL_TRIANGLE_FREE:
        part = sf.eliminate_triangles(part)
    return part.F, part.R


def _greedy_rest(g):
    return partition._greedy_forest(g)[1]


def test_refine_cases_sweep_only_the_gate_sides_and_final_check(monkeypatch):
    # a greedy forest whose rest passes (m, 1 - 2m) ends the route: the gate
    # and that sweep are all, and no engine is built.  A refused rest leaves
    # the union's sides, refine (which sweeps nothing on this route) and the
    # final check, and the result equals the checked public route's
    real = sf.is_sparse
    modules = [mod for name, mod in sys.modules.items()
               if name.startswith("sparsity_forge.") and vars(mod).get("is_sparse") is real]
    built = []
    for cls in (matroid.ForestEngine, matroid.PebbleCountEngine,
                matroid.MincutCountEngine, matroid.TrivialEngine):
        def init(self, *args, _cls=cls, _real=cls.__init__, **kwargs):
            built.append(_cls.__name__)
            _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    for m, seed, accepted, label in (
        (Fraction(19, 10), 13, True, sparsity.CASE_SMALL_TRIANGLE_FREE),
        (Fraction(20, 7), 16, True, sparsity.CASE_D2),
        (Fraction(19, 10), 16, False, sparsity.CASE_SMALL_TRIANGLE_FREE),
    ):
        host = random_sparse_graph(60, m, random.Random(seed))
        sweeps = []
        built.clear()

        def spy(g, params):
            sweeps.append((params.a, params.b))
            return real(g, params)

        with monkeypatch.context() as patch:
            for mod in modules:
                patch.setattr(mod, "is_sparse", spy)
            d = sf.decompose_ksw(host, m)
        plan = sparsity._plan(m)
        assert d.trace == label
        if accepted:
            assert sweeps == [(m, 0), (m, 1 - 2 * m)]
            assert built == []
            assert d.Gp.sorted() == _greedy_rest(host)
        else:
            assert sweeps == [(m, 0), (m, 1 - 2 * m), (1, -1), (plan.k, 1 - plan.s),
                              (m, 1 - 2 * m)]
            # the union's two engines, and eliminate_triangles' for its swaps
            assert built == ["ForestEngine", "PebbleCountEngine", "ForestEngine"]
            assert (d.F, d.Gp) == _old_route(host, m)


def test_forest_first_decomposition_peels_each_graph_once(monkeypatch):
    # decompose plus the caller's verify at a forest-first m, n > 40: five
    # sweeps (the gate; R0 at (k, 1 - s) and F0 at (1, -1) in the split;
    # two final checks of R0), but only three peels (host, R0, F0), and
    # R0's three sweeps share one subgraph, its EdgeSet's
    m = Fraction(7)
    host = random_sparse_graph(60, m, random.Random(5))
    real_peel, real_order = sparsity._peel_order, sparsity._sweep_order
    peeled, swept = [], []

    def peel(n, edges):
        peeled.append(edges)
        return real_peel(n, edges)

    def order(g, l):
        swept.append(g)
        return real_order(g, l)

    with monkeypatch.context() as patch:
        patch.setattr(sparsity, "_peel_order", peel)
        patch.setattr(sparsity, "_sweep_order", order)
        d = sf.decompose_ksw(host, m)
        assert sf.verify_decomposition(d)
    r0, f0 = tuple(d.Gp.pairs()), tuple(d.F.pairs())
    assert d.trace == sparsity.CASE_A and d.Gp.sorted() == _greedy_rest(host)
    assert [g.edges for g in swept] == [host.edges, r0, f0, r0, r0]
    assert peeled == [host.edges, r0, f0]
    assert all(g is d.Gp.subgraph for g in swept if g.edges == r0)
    # the same answer from fresh objects, and from the host's cached order
    record = d.to_json_dict(verified=True)
    fresh = sf.decompose_ksw(sf.Graph(host.n, host.edges), m)
    assert fresh.to_json_dict(verified=bool(sf.verify_decomposition(fresh))) == record
    again = sf.decompose_ksw(host, m)
    assert again.to_json_dict(verified=bool(sf.verify_decomposition(again))) == record


def test_greedy_try_changes_nothing_where_its_rest_fits_the_union(rng):
    # where the greedy rest is (k, 1 - s)-sparse the union returns the greedy
    # split itself, and refinement then finds nothing to repair in a rest
    # that passes (m, 1 - 2m): so the output equals the constructive route's
    ms = [Fraction(6, 5), Fraction(3, 2), Fraction(8, 5), Fraction(9, 5), Fraction(19, 10),
          Fraction(5, 2), Fraction(18, 7), Fraction(11, 4), Fraction(20, 7), Fraction(8, 3),
          Fraction(34, 9), Fraction(7)]
    for m in ms:
        plan = sparsity._plan(m)
        side = sf.SparsityParams(plan.k, 1 - plan.s)
        hosts = [random_sparse_graph(n, m, random.Random(100 * n + seed))
                 for n in (8, 12, 20) for seed in range(3)]
        hosts += [random_graph(rng, 8, rng.random()) for _ in range(30)]
        fitting = 0
        for g in hosts:
            if not sf.is_sparse(g, plan.gate).sparse:
                continue
            if sf.is_sparse(g.edge_subgraph(_greedy_rest(g)), side).sparse:
                d = sf.decompose_ksw(g, m)
                assert (d.F, d.Gp) == _old_route(g, m), (m, g.edges)
                fitting += 1
        assert fitting >= 5, m


_ACCEPTANCE_M = [Fraction(6, 5), Fraction(3, 2), Fraction(9, 5), Fraction(2), Fraction(7, 3),
                 Fraction(5, 2), Fraction(11, 4), Fraction(3), Fraction(10, 3), Fraction(4)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_every_answer_passes_the_brute_force_checks(data):
    m = data.draw(st.sampled_from(_ACCEPTANCE_M), label="m")
    n = data.draw(st.integers(0, 8), label="n")
    all_pairs = list(combinations(range(n), 2))
    e = data.draw(st.integers(0, min(len(all_pairs), int(m * n))), label="edges")
    g = sf.Graph(n, data.draw(st.permutations(all_pairs), label="pairs")[:e])
    try:
        d = sf.decompose_ksw(g, m)
    except NotSparseError:
        assert not sf.brute_sparse(g, m, 0).sparse
        return
    assert sf.brute_sparse(g, m, 0).sparse
    assert d.F.ids | d.Gp.ids == frozenset(range(g.e)) and not d.F.ids & d.Gp.ids
    assert sf.brute_sparse(g.edge_subgraph(d.F.ids), 1, -1).sparse  # a forest
    assert sf.brute_sparse(g.edge_subgraph(d.Gp.ids), m, 1 - 2 * m).sparse


def test_a_refused_greedy_try_at_20_7_runs_brooks_refine(monkeypatch):
    # K6 is (20/7, 0)-sparse; its greedy forest is the star at 0, whose rest
    # is the K5 on 1..5, and K5's 10 edges exceed 5m + 1 - 2m = 67/7
    k6, m = sf.complete_graph(6), Fraction(20, 7)
    assert not sf.is_sparse(k6.edge_subgraph(_greedy_rest(k6)), sf.SparsityParams(m, 1 - 2 * m)).sparse
    swaps = []
    real = decompose.brooks_refine

    def spy(part, k, s, trace=None):
        trace = []
        out = real(part, k, s, trace=trace)
        swaps.append(len(trace) - 1)
        return out

    monkeypatch.setattr(decompose, "brooks_refine", spy)
    d = sf.decompose_ksw(k6, m)
    assert d.trace == sparsity.CASE_D2 and swaps and swaps[0] >= 1
    assert (d.F, d.Gp) == _old_route(k6, m)
    assert sf.verify_decomposition(d)


def test_d1_beats_d2_in_overlap():
    # k = 5: (k+4)/(2k+3) = 9/13 < 3/4, so eps = 18/25 lies in both windows
    eps = Fraction(18, 25)
    assert Fraction(5 + 4, 13) <= eps <= Fraction(3, 4)
    p6 = sf.Graph(6, [(i, i + 1) for i in range(5)])
    d = sf.decompose_ksw(p6, 5 + eps)
    assert d.trace == "large_m_case_D1"


def test_d2_host_with_a_passing_greedy_rest_skips_refinement(monkeypatch):
    # K5 plus a pendant edge is (20/7, 0)-sparse; eps = 6/7 labels it D2, but
    # its greedy rest, the K4 on 1..4, passes (20/7, -33/7), so no refine runs
    edges = [(i, j) for j in range(5) for i in range(j)] + [(0, 5)]
    host = sf.Graph(6, edges)
    m = Fraction(20, 7)
    assert sf.is_sparse(host, sf.SparsityParams(m, 0)).sparse
    refined = []
    monkeypatch.setattr(decompose, "brooks_refine", lambda *args, **kwargs: refined.append(args))
    d = sf.decompose_ksw(host, m)
    assert not refined
    assert d.trace == "large_m_case_D2"
    assert d.Gp.pairs() == list(combinations(range(1, 5), 2))
    assert bool(sf.verify_decomposition(d))


def test_verify_rejects_corrupted_split():
    k5 = sf.complete_graph(5)
    d = sf.decompose_ksw(k5, 2)
    moved = next(iter(d.Gp.ids))
    bad = sf.Decomposition(
        host=k5,
        F=d.F.plus(moved) if hasattr(d.F, "plus") else d.F,
        Gp=d.Gp.minus(moved),
        m=d.m,
        trace=d.trace,
    )
    report = sf.verify_decomposition(bad)
    assert not report.ok
    assert report.problems


def test_verify_decomposition_flags_overlap_and_gaps():
    k4 = sf.complete_graph(4)
    d = sf.decompose_ksw(k4, 2)
    overlap = sf.Decomposition(k4, d.F, sf.full_edge_set(k4), d.m, d.trace)
    rep = sf.verify_decomposition(overlap)
    assert not rep.ok and any("overlap" in p for p in rep.problems)


def test_verify_decomposition_reports_a_nonpositive_m():
    k4 = sf.complete_graph(4)
    none, full = sf.EdgeSet(k4, []), sf.full_edge_set(k4)
    for m in (0, -1, Fraction(-1, 3)):
        rep = sf.verify_decomposition(sf.Decomposition(k4, none, full, m, "x"))
        assert not rep.ok and any("not positive" in p for p in rep.problems), m
    # an int m, and an m below 1, where the plan has no case
    d = sf.decompose_ksw(k4, 2)
    assert sf.verify_decomposition(sf.Decomposition(k4, d.F, d.Gp, 2, d.trace)).ok
    rep = sf.verify_decomposition(sf.Decomposition(k4, none, full, Fraction(1, 2), "x"))
    assert rep.problems == ("G' is not (1/2, 0)-sparse; witness [0, 1, 2, 3]",)
    assert sparsity._plan(Fraction(1, 2)).case is None


def test_repeated_m_builds_no_params(monkeypatch):
    # parameters and per-m plans are built once: a second round of the
    # criterion-1 traffic at the same ten m constructs no SparsityParams
    ms = [Fraction(6, 5), Fraction(3, 2), Fraction(9, 5), Fraction(2), Fraction(7, 3),
          Fraction(5, 2), Fraction(11, 4), Fraction(3), Fraction(10, 3), Fraction(4)]
    rng = random.Random(13)
    graphs = [sf.complete_graph(4), sf.circulant(7, 2)]
    graphs += [random_graph(rng, 8, rng.random()) for _ in range(6)]

    def one_round():
        runs = 0
        for g in graphs:
            for m in ms:
                try:
                    d = sf.decompose_ksw(g, m)
                except NotSparseError:
                    continue
                assert sf.verify_decomposition(d).ok
                runs += 1
        return runs

    one_round()
    built = []
    init = sf.SparsityParams.__init__

    def spy(self, a, b):
        built.append((a, b))
        init(self, a, b)

    monkeypatch.setattr(sf.SparsityParams, "__init__", spy)
    assert one_round() > 0
    assert built == []


def test_end_to_end_small_sample(rng):
    m_values = [Fraction(6, 5), Fraction(3, 2), Fraction(9, 5), Fraction(2),
                Fraction(7, 3), Fraction(5, 2), Fraction(11, 4), Fraction(3),
                Fraction(10, 3), Fraction(4)]
    done = 0
    for g in atlas_graphs(5):
        for m in m_values:
            if not sf.brute_sparse(g, m, 0).sparse:
                continue
            d = sf.decompose_ksw(g, m)
            assert bool(sf.verify_decomposition(d))
            done += 1
    assert done > 200


def test_decompose_agrees_with_brute_existence(rng):
    # whenever the pipeline outputs a decomposition, exhaustive search confirms
    # one exists under the same bounds (and the output itself is one)
    m_values = [Fraction(3, 2), Fraction(2), Fraction(5, 2)]
    done = 0
    while done < 12:
        g = random_graph(rng, rng.randint(3, 6), rng.random())
        if g.e > 12:
            continue
        for m in m_values:
            if not sf.brute_sparse(g, m, 0).sparse:
                continue
            d = sf.decompose_ksw(g, m)
            assert bool(sf.verify_decomposition(d))
            exists, _ = sf.brute_partition_exists(g, 1, -1, m, 1 - 2 * m)
            assert exists
            done += 1


# -- hypergraph overlap bound --------------------------------------------------


def test_hypergraph_bound_spec_example():
    g = sf.Graph(4, [])
    f1 = sf.VertexSet(g, [0, 1, 2])
    f2 = sf.VertexSet(g, [1, 2, 3])
    assert sf.check_hypergraph_bound([f1, f2], 2)  # 6 >= 4 + 2


def test_hypergraph_bound_precondition():
    g = sf.Graph(6, [])
    f1 = sf.VertexSet(g, [0, 1])
    f2 = sf.VertexSet(g, [2, 3])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sf.check_hypergraph_bound([f1, f2], 1)


def test_hypergraph_bound_random_families(rng):
    g = sf.Graph(14, [])
    done = 0
    while done < 500:
        r = rng.randint(2, 5)
        s = rng.randint(1, 3)
        families = []
        for _ in range(r):
            size = rng.randint(s + 1, 8)
            families.append(sf.VertexSet(g, rng.sample(range(14), size)))
        try:
            result = sf.check_hypergraph_bound(families, s)
        except ValueError:
            continue  # rejection sampling on the overlap precondition
        assert result
        done += 1
