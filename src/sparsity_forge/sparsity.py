"""Exact (a, b)-sparsity decisions with witnesses, density indices, and the
forest-slack function.

A graph is (a, b)-sparse when every subgraph spanning at least two vertices
has e(H) <= a*v(H) + b.  Subgraphs on a single vertex are excluded from the
quantifier: they carry potential a by convention but are not constraints
(otherwise no graph at all would be (2, -3)-sparse, while K4 minus an edge
is the canonical (2, -3)-tight example).  For edgeless subgraphs the bound
is slack whenever 2a + b >= 1, and parameters with 2a + b < 1 are rejected
as pathological, so the two-vertex floor loses nothing.

All decisions run on exact rationals.  For every b the verdict comes from
one scaled pebble sweep at (a, b) (Lee & Streinu; for b > 0 the elongated
game, after Whiteley): the graph is sparse exactly when every edge is
accepted.  The certificate's numbers are exact all the same, for both
verdicts; they are computed the first time one is read.  A maximum of
e(G[U]) - a|U| at or below zero is pinned down exactly by gathering pebbles
on a game that has accepted every edge; only when a zero-slack sweep refuses
an edge is the maximum positive, and one min-cut over the standard
edge/vertex selection network computes it (see max_violation, which also
states the witness conventions).  The density indices m, m2 and
the pair density are one Dinkelbach ascent over max_violation.

Edge order is free to a sweep that decides: the game greedily builds a basis
of a count matroid, so its verdict, and what a certificate reads off the
game it hands over, are the same in any order.  Graphs on more than 40 vertices are therefore swept in
smallest-last peel order (``_sweep``), which spares the pebble searches most
of their repeats.  Games whose output depends on the order keep input order:
max_violation's negative-maximum witness sweep (its witness is the region of
the first refused edge), random_sparse_graph (it keeps the edges a game
accepts) and the engines of matroid_union_partition (they colour edges as
they arrive).  So does the greedy spanning forest that the decomposition
tries first (partition._greedy_forest): it is built in ascending id order,
as the union would build its first side.  The sweep that then checks its
rest, at (k, 1-s) in the forest-first split and at (m, 1-2m) for every
other m, only decides, and runs in peel order.

Parameters are immutable and, inside the package, built once: ``_params``
keeps one SparsityParams per (a, b), with its pebble-game counts, and
``_plan`` the numbers of the forest-plus decomposition per m.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .errors import PathologicalParametersError
from .graphs import Graph, VertexSet, _Frozen
from .mincut import selection_max
from .pebble import PebbleGame, _scaled_counts
from .rationals import format_rational

RationalLike = Fraction | int


class SparsityParams(_Frozen):
    """An (a, b) bound, a > 0.  Pathological means 2a + b < 1.

    Each instance carries the (k, l, copies, room) of the scaled pebble game
    that decides it (``pebble._scaled_counts``).  Inside the package,
    ``_params`` hands out one shared instance per (a, b).
    """

    _fields = ("a", "b")

    def __init__(self, a: RationalLike, b: RationalLike):
        if not isinstance(a, Fraction):
            a = Fraction(a)
        if not isinstance(b, Fraction):
            b = Fraction(b)
        if a.numerator <= 0:
            raise ValueError(f"sparsity coefficient a must be positive, got {a}")
        k, l, q, room = counts = _scaled_counts(a, b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        # 2a + b < 1, scaled by q: k = a*q and room - l = b*q
        object.__setattr__(self, "_pathological", 2 * k + room - l < q)
        object.__setattr__(self, "_counts", counts)

    @property
    def pathological(self) -> bool:
        return self._pathological

    def __repr__(self) -> str:
        return f"SparsityParams({format_rational(self.a)}, {format_rational(self.b)})"


_PARAMS_CACHED = 256  # distinct (a, b); a decomposition at one m uses about five


@lru_cache(maxsize=_PARAMS_CACHED)
def _params(a: RationalLike, b: RationalLike) -> SparsityParams:
    """The shared, immutable SparsityParams(a, b) (an int and the equal
    Fraction are one key)."""
    return SparsityParams(a, b)


class SparsityCertificate(_Frozen):
    """Outcome of a sparsity check plus the witness that pins it down.

    ``witness`` attains the maximum of e(G[U]) - a|U| over |U| >= 2;
    ``max_violation`` is that maximum minus b (sparse iff <= 0) and
    ``min_potential`` its negation a|U| - e(G[U]).  Graphs with fewer than
    two vertices satisfy every bound vacuously and carry None in the two
    numeric fields.

    A certificate from is_sparse arrives without these three fields, for
    either verdict: the exact maximum and its witness are computed the first
    time any of them is read, and kept.
    """

    _fields = ("sparse", "witness", "max_violation", "min_potential", "params")

    def __init__(
        self,
        sparse: bool,
        witness: VertexSet,
        max_violation: Fraction | None,
        min_potential: Fraction | None,
        params: SparsityParams,
    ):
        _Frozen.__init__(self, sparse, witness, max_violation, min_potential, params)

    @classmethod
    def _exact_on_read(
        cls, sparse: bool, params: SparsityParams, exact: Callable[[], tuple[Fraction, VertexSet]]
    ) -> "SparsityCertificate":
        """A certificate whose numeric fields come from ``exact()``, which
        returns the maximum of e(G[U]) - a|U| and a witness attaining it."""
        cert = object.__new__(cls)
        object.__setattr__(cert, "sparse", sparse)
        object.__setattr__(cert, "params", params)
        object.__setattr__(cert, "_exact", exact)
        return cert

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: the three fields
        # of an _exact_on_read certificate before their first read
        exact = self.__dict__.get("_exact")
        if exact is None or name not in ("witness", "max_violation", "min_potential"):
            raise AttributeError(name)
        m, witness = exact()
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "max_violation", m - self.params.b)
        object.__setattr__(self, "min_potential", -m)
        del self.__dict__["_exact"]
        return self.__dict__[name]

    def __reduce__(self):
        # a pickle or copy reads the numbers: an _exact_on_read closure cannot travel
        fields = (self.witness, self.max_violation, self.min_potential)
        return SparsityCertificate, (self.sparse, *fields, self.params)

    @property
    def verdict(self) -> str:
        return "sparse" if self.sparse else "not_sparse"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "a": format_rational(self.params.a),
            "b": format_rational(self.params.b),
            "witness": self.witness.sorted(),
            "max_violation": format_rational(self.max_violation),
            "min_potential": format_rational(self.min_potential),
        }


def potential(g: Graph, vertices: VertexSet | Iterable[int], a: RationalLike) -> Fraction:
    """a*|U| - e(G[U]) for a nonempty vertex set U; an isolated vertex scores a."""
    ids = vertices.ids if isinstance(vertices, VertexSet) else frozenset(vertices)
    if not ids:
        raise ValueError("potential of the empty set is not defined here")
    return Fraction(a) * len(ids) - g.induced_edge_count(ids)


# Up to this many vertices a maximum <= 0 is witnessed by the region of the
# smallest gather; above it, by the conventions max_violation states.
_WITNESS_LIMIT = 40

# Sweeps of graphs on more vertices than this insert their edges in peel
# order.  On small graphs the order costs more than it saves: with the
# order's own cost included, decisions ran 1.6-1.8x slower in peel order at
# n = 8 (G(8, p) and random_sparse_graph hosts at the ten acceptance m),
# 1.26x at n = 16, broke even near n = 30 and ran 0.91x at n = 40 and 60.
_PEEL_ABOVE = 40


def _peel_order(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges sorted by the peel position of their earlier-peeled end.

    Smallest-last peeling (Matula & Beck): repeatedly remove a vertex of
    least degree in what is left, found through a bucket queue per degree,
    in O(n + e).  Each bucket is a stack, so among the vertices of least
    degree the one whose degree fell last is peeled first (at the start,
    the highest id).  Edges peeled at the same position keep input order.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(nb) for nb in adj]
    buckets: list[list[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    position = [-1] * n
    d = 0
    for i in range(n):
        while True:  # stale entries (peeled, or degree since fallen) are skipped
            bucket = buckets[d]
            if not bucket:
                d += 1
                continue
            v = bucket.pop()
            if position[v] < 0 and degree[v] == d:
                break
        position[v] = i
        for w in adj[v]:
            if position[w] < 0:
                dw = degree[w] - 1
                degree[w] = dw
                buckets[dw].append(w)
        if d:  # removing v lowers the least degree by at most one
            d -= 1
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in edges:
        pu, pv = position[e[0]], position[e[1]]
        at[pu if pu < pv else pv].append(e)
    return [e for group in at for e in group]


def _sweep(g: Graph, game: PebbleGame) -> bool:
    """Insert every edge of g into ``game``; True iff the game accepts all.

    Above _PEEL_ABOVE vertices the edges go in peel order (_peel_order):
    forward for games with l > 0, reversed, densest core first, for l = 0
    (the (a, 0) gates and the elongated games).  is_sparse says why the
    order changes no output.
    """
    edges = g.edges
    if g.n > _PEEL_ABOVE:
        edges = _peel_order(g.n, edges)
        if not game.l:
            edges.reverse()
    insert = game.insert
    return all(insert(u, v) for u, v in edges)


def max_violation(
    g: Graph, a: RationalLike, _accepted: PebbleGame | None = None
) -> tuple[Fraction, VertexSet]:
    """Exact max of e(G[U]) - a|U| over vertex sets with |U| >= 2, with witness.

    Every call takes one route.  A game that has accepted every edge at zero
    slack (the handed-over one, or a fresh zero-slack sweep) pins down a
    maximum <= 0 exactly: it equals minus the smallest pebble count
    gatherable onto an edge's endpoints.  A sweep that refuses an edge shows
    the maximum is positive, and one min-cut on the selection network gives
    its value and minimal maximizer (the identity max = total - mincut holds
    only there: the network cannot express negative maxima, every closure
    being at least as good as the empty one).

    Witness conventions: a positive maximum returns its minimal maximizer.
    Up to _WITNESS_LIMIT vertices a maximum <= 0 returns the region where
    the smallest gather stalled.  Above it, a zero maximum returns the
    largest zero set, read off the game: the union of the regions of the
    edges that gather no pebble.  A negative maximum -s/q (a = p/q in lowest
    terms) returns the region of the first edge refused by a fresh
    (a, -(s + 1)/q) game, or the first edge when no set beats a lone edge
    (s = 2p - q).

    Degenerate case: a single-vertex graph has no admissible U; the lone
    vertex is returned with value -a.

    ``_accepted`` lets is_sparse hand over its scaled game once that game has
    placed every copy of every edge of g, in place of a zero-slack sweep
    (gather counts and stalled regions do not depend on the game's l or on
    its orientation, so the answer is the same).

    Sweep order: the zero-slack sweep decides only whether every edge fits,
    so on large graphs it runs in peel order (_sweep).  The negative-maximum
    witness sweep must keep input order: its witness is the region of the
    first edge it refuses, and another order may refuse another edge first.
    """
    a = Fraction(a)
    if a <= 0:
        raise ValueError("need a > 0")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    p, q = a.numerator, a.denominator
    if g.n == 1:
        return -a, VertexSet(g, [0])
    if g.e == 0:
        return -2 * a, VertexSet(g, [0, 1])
    game = _accepted
    if game is None:
        game = PebbleGame.scaled(g.n, a, 0)
        if not _sweep(g, game):
            # refused at zero slack: positive, witnessed by the minimal cut side
            value, umin = selection_max(g.n, g.edges, p, q)
            if value <= 0:
                raise AssertionError("pebble engine and min cut disagree")
            return Fraction(value, q), VertexSet(g, umin)
    best = None
    region: list[int] = []
    for i, (u, v) in enumerate(g.edges):
        c = game.gather_max(u, v, stop_at=best)
        if best is None or c < best:
            best = c
            region = game.last_region
            if best == 0:
                break
    assert best is not None
    value = Fraction(-best, game.copies)
    if g.n <= _WITNESS_LIMIT:
        return value, VertexSet(g, region)
    if value == 0:
        # Zero sets are closed under union and intersection, so an edge with
        # both ends in the union has its smallest zero set inside it too.
        # The edges before i gathered pebbles: no zero set holds them.
        union = set(region)
        for u, v in g.edges[i + 1 :]:
            if (u not in union or v not in union) and not game.gather_max(u, v, stop_at=1):
                union.update(game.last_region)
        return value, VertexSet(g, union)
    s = best * q // game.copies  # value = -s/q
    if s == 2 * p - q:  # no set beats a lone edge
        u, v = g.edges[0]
        return value, VertexSet(g, [u, v])
    game = PebbleGame.scaled(g.n, a, Fraction(-(s + 1), q))
    if all(game.insert(u, v) for u, v in g.edges):
        raise AssertionError("gather count and pebble sweep disagree")
    return value, VertexSet(g, game.last_region)


def _require_regular(params: SparsityParams) -> None:
    """The PathologicalParametersError of is_sparse, raised when 2a + b < 1."""
    if params.pathological:
        raise PathologicalParametersError(
            f"parameters {params} have 2a + b < 1; only edgeless graphs qualify"
        )


def is_sparse(g: Graph, params: SparsityParams) -> SparsityCertificate:
    """Decide (a, b)-sparsity and return the witness certificate.

    One scaled pebble sweep at (a, b) gives the verdict for every b: the
    graph is sparse iff the game accepts every edge (for b > 0 the elongated
    game, which may leave up to b*q edge copies unplaced).  For both verdicts
    the certificate's witness and numbers are exact, and computed by
    max_violation the first time one of them is read; a game that placed
    every copy is handed over in place of a fresh zero-slack sweep.

    The sweep runs in peel order above 40 vertices (_sweep), and every output
    is the same as in input order:
    * for b <= 0 the game accepts every edge exactly when the blow-up is
      independent, in any order;
    * for b > 0 the copies it places are the blow-up's rank in any order, so
      whether ``unplaced <= room`` holds, and whether the game placed every
      copy, do not depend on it either;
    * a sparse sweep's certificate reads gather counts and ``last_region``
      off the handed-over game, and neither depends on its orientation;
    * a refusal hands over no game.
    Measured on random_sparse_graph hosts (CPU time on a 2-core host, the
    order's own cost included, medians of three runs): reversed, the (m, 0)
    gates at n = 3000 went from 640 to 187 ms at m = 20/7, 483 to 182 at
    19/10, 113 to 88 at 5/2 and 179 to 97 at 7.  Forward, the (7, -13)
    checks of the remainder at n = 600 ran about 2x faster, and the
    (8, -14) host sweep at n = 3000 went from 124 to 63 ms; but host sweeps
    at (2, -1) and (3, -1) went from 11 to 23 and from 16 to 63 ms.  The
    decomposition no longer runs those two.
    """
    _require_regular(params)
    if g.n <= 1:
        return SparsityCertificate(
            sparse=True,
            witness=VertexSet(g, range(g.n)),
            max_violation=None,
            min_potential=None,
            params=params,
        )
    game = PebbleGame._counted(g.n, *params._counts)
    sparse = _sweep(g, game)
    accepted = game if sparse and not game.unplaced else None
    return SparsityCertificate._exact_on_read(
        sparse, params, lambda: max_violation(g, params.a, _accepted=accepted)
    )


def is_tight(g: Graph, params: SparsityParams) -> bool:
    """Sparse and e(G) = a*v(G) + b with equality on the whole graph."""
    if not is_sparse(g, params).sparse:
        return False
    return Fraction(g.e) == params.a * g.n + params.b


# ---------------------------------------------------------------------------
# density indices
# ---------------------------------------------------------------------------


def _max_ratio(g: Graph, d: Fraction | int, c: Fraction | int, lam: Fraction) -> Fraction:
    """max (e(U) - d) / (|U| - c) over vertex sets U on >= 2 vertices, c < |U|,
    by a Dinkelbach ascent from a lower bound 0 < lam <= the maximum.

    (e(U) - d) / (|U| - c) > lam exactly when e(U) - lam|U| > d - lam*c, so
    while max_violation(g, lam) finds such a U, lam rises to its ratio; when
    none violates, lam is the maximum.  Each step strictly raises lam, and
    there are finitely many ratios, so this terminates.
    """
    while True:
        viol, u = max_violation(g, lam)
        if viol <= d - lam * c:
            return lam
        lam = Fraction(g.induced_edge_count(u.ids) - d) / (len(u) - c)


def m_of(g: Graph) -> Fraction:
    """Maximum subgraph density max e(J)/v(J); equals min m with g (m, 0)-sparse."""
    if g.e == 0:
        raise ValueError("density of an edgeless graph is not defined")
    return _max_ratio(g, 0, 0, Fraction(g.e, g.n))


def m2_of(g: Graph) -> Fraction:
    """max (e(J)-1)/(v(J)-2) over subgraphs on >= 3 vertices.

    Equals min m with g (m, 1-2m)-sparse.  A two-vertex set never violates
    (m, 1-2m) for m >= 1/2, so the ascent only meets sets on >= 3 vertices.
    """
    if g.n < 3:
        raise ValueError("m2 needs a subgraph on at least 3 vertices")
    if g.e == 0:
        return Fraction(-1, g.n - 2)
    if g.e == 1:
        return Fraction(0)
    # two edges span at most 4 vertices, so m2 >= 1/2
    return _max_ratio(g, 1, 2, Fraction(1, 2))


def m2_pair(h1: Graph, h2: Graph, max_vertices: int | None = None) -> Fraction:
    """max e(J) / (v(J) - 2 + 1/m2(h2)) over subgraphs J of h1 on >= 2 vertices.

    ``max_vertices`` is deprecated and ignored: the ascent has no size cap.
    """
    if max_vertices is not None:
        warnings.warn(
            "m2_pair no longer enumerates subsets; max_vertices is ignored",
            DeprecationWarning,
            stacklevel=2,
        )
    if h1.n < 2:
        raise ValueError("m2_pair needs a first graph on at least 2 vertices")
    m2h2 = m2_of(h2)
    if m2h2 <= 0:
        raise ValueError("second graph has nonpositive m2; pairing undefined")
    if h1.e == 0:
        return Fraction(0)
    # a lone edge scores 1 / (1/m2(h2)) = m2(h2)
    return _max_ratio(h1, 0, 2 - 1 / m2h2, m2h2)


# ---------------------------------------------------------------------------
# forest slack and the decomposition plan per m
# ---------------------------------------------------------------------------


def forest_slack(k: int, eps: RationalLike) -> int:
    """The integer s such that every (k+eps, 0)-sparse graph is (k+1, -s)-sparse.

    Four-interval definition evaluated with exact comparisons, first match
    wins top to bottom; capped at 2k, which is the edge of the usable
    matroid range at (k, 1-2k).  With eps = p/q, every comparison and
    ceiling is on integers, cross-multiplied by q.  The domain is that of
    partition_forest_plus: an int k >= 1, and any eps that Fraction takes.
    """
    if not isinstance(eps, (int, Fraction)):
        eps = Fraction(eps)
    p, q = eps.numerator, eps.denominator  # ints have both
    if not isinstance(k, int) or k < 1:
        raise ValueError("need integral k >= 1")
    if not (0 <= p < q):
        raise ValueError("need 0 <= eps < 1")
    if p * (2 * k + 2) < 2 * q:  # eps < 1/(k+1)
        return 2 * k
    if 2 * p < q:  # eps < 1/2: ceil((2k+2)(1-eps))
        return -(-(2 * k + 2) * (q - p) // q)
    if p * (2 * k + 3) < (k + 2) * q:  # eps < (k+2)/(2k+3)
        return k + 1
    return -(-(2 * k + 3) * (q - p) // q)  # ceil((2k+3)(1-eps))


f = forest_slack


CASE_SMALL_TWO_FORESTS = "small_m_two_forests"
CASE_SMALL_TRIANGLE_FREE = "small_m_triangle_free"
CASE_A = "large_m_case_A"
CASE_B = "large_m_case_B"
CASE_C = "large_m_case_C"
CASE_D1 = "large_m_case_D1"
CASE_D2 = "large_m_case_D2"
CASE_D3 = "large_m_case_D3"


def _case(k: int, eps: Fraction) -> str:
    """The case label of decompose_ksw at m = k + eps, k >= 1."""
    # eps = p/q: each threshold compared by integer cross-multiplication
    p, q = eps.numerator, eps.denominator
    if k == 1:
        return CASE_SMALL_TWO_FORESTS if 5 * p < 4 * q else CASE_SMALL_TRIANGLE_FREE
    if p * (2 * k + 2) < 3 * q:  # eps < 3/(2k+2)
        return CASE_A
    if 2 * p < q:  # eps < 1/2
        return CASE_B
    if p * (2 * k + 3) < (k + 3) * q:  # eps < (k+3)/(2k+3)
        return CASE_C
    if 4 * p <= 3 * q:  # eps <= 3/4
        return CASE_D1
    if p * (2 * k + 3) >= (k + 4) * q:  # eps >= (k+4)/(2k+3)
        return CASE_D2
    return CASE_D3


class _Plan(_Frozen):
    """The numbers of the forest-plus decomposition at one m = k + eps > 0.

    ``gate`` is the (m, 0) hypothesis and ``final`` the (m, 1-2m) bound on
    the rest.  For k >= 1, ``s`` = forest_slack(k, eps) and ``case`` names
    m's case of the constructive route (which refinement follows the split);
    decompose_ksw reports it even when its greedy try ends the route.  Below
    m = 1 both are None.

    Every m tries the greedy spanning forest first.  ``forest_first`` holds
    for k >= 2 and eps <= 1/2: there the forest-plus split tests its rest at
    (k, 1-s), and runs the matroid union only when the rest fails
    (partition._split); the split is the union's either way.  That rest
    passed on every random_sparse_graph host at n = 200 and 1000 over 60
    such m, and on 88-100% of the sparse G(8, p) graphs per acceptance m.
    At every other m the (k, 1-s) test fails on most hosts at n = 40 to
    300, so decompose_ksw tests the rest at the final (m, 1-2m) bound
    instead, and runs the union and refinement only when it fails.  That
    test passed on every random_sparse_graph host at n = 30 to 400 (six
    per n) at 6/5 and from 18/7 to 34/9, on 4 to 15 of 18 at 3/2, 8/5, 9/5
    and 19/10, and on 81-100% of the sparse G(8, p) graphs per m.
    """

    _fields = ("k", "case", "s", "gate", "final", "forest_first")

    def __init__(
        self,
        k: int,
        case: str | None,
        s: int | None,
        gate: SparsityParams,
        final: SparsityParams,
        forest_first: bool,
    ):
        _Frozen.__init__(self, k, case, s, gate, final, forest_first)


_PLANS_CACHED = 64  # distinct m


def _plan(m: RationalLike) -> _Plan:
    """The shared plan at m (an int or a Fraction); ValueError for m <= 0."""
    return _plan_at(m.numerator, m.denominator)


@lru_cache(maxsize=_PLANS_CACHED)
def _plan_at(p: int, q: int) -> _Plan:
    """The plan at m = p/q, cached by the two ints: they hash faster than m."""
    m = Fraction(p, q)
    gate, final = _params(m, 0), _params(m, 1 - 2 * m)
    k = m.numerator // m.denominator
    if k < 1:
        return _Plan(k, None, None, gate, final, False)
    eps = m - k
    forest_first = k >= 2 and 2 * eps.numerator <= eps.denominator
    return _Plan(k, _case(k, eps), forest_slack(k, eps), gate, final, forest_first)
