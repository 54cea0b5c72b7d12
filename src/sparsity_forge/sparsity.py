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
verdicts; they are computed the first time one is read, by one engine: the
zero-slack game with room for every copy.  The copies it leaves unplaced
are q times a positive maximum of e(G[U]) - a|U|, and when it places them
all, gathering pebbles pins down a maximum at or below zero (see
max_violation, which also states the witness conventions).  The density
indices m, m2 and the pair density are one Dinkelbach ascent over
max_violation.

Edge order is free to a sweep that decides: the game greedily builds a basis
of a count matroid, so its verdict, and what a certificate reads off the
game it hands over, are the same in any order.  Graphs on more than 40
vertices are therefore swept in smallest-last peel order (``_sweep_order``),
which spares the pebble searches most of their repeats.  Games whose output
depends on the order keep input order: max_violation's negative-maximum
witness sweep (its witness is the region of the first refused edge),
random_sparse_graph (it keeps the edges a game accepts) and the engines of
matroid_union_partition (they colour edges as they arrive).  So does the
greedy spanning forest that the decomposition tries first
(graphs._greedy_forest): it is built in ascending id order, as the union
would build its first side.  The sweep that then checks its rest, at
(k, 1-s) in the forest-first split, at (m, 1-2m) for every other m and at
(k, 0) in the oriented split, only decides, and runs in peel order.  The
oriented split's (k+1, 0) game is the exception that uses _sweep_order and
still depends on it: its forest is read off the orientation, and another
order orients the host otherwise.  Its order is fixed (the l = 0 order of
_sweep_order), so its output is deterministic all the same.

Parameters are immutable and, inside the package, built once: ``_params``
keeps one SparsityParams per (a, b), with its pebble-game counts, and
``_plan`` the numbers of the forest-plus decomposition per m.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import PathologicalParametersError
from .graphs import Graph, VertexSet, _Frozen
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
# order's own cost included, the (m, 0) and (m, 1 - 2m) decisions on
# random_sparse_graph hosts at the ten acceptance m ran 1.3x slower in peel
# order at n = 8 and 1.1x at n = 16, then 0.95x at n = 30, 0.86x at n = 40
# and 0.77x at n = 60 (CPU medians of five).  On G(n, p) graphs with p
# uniform in [0, 1], mostly refused, peel order lost at every n, by 1.4-2.5x.
_PEEL_ABOVE = 40


def _peel_order(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges sorted by the peel position of their earlier-peeled end.

    Smallest-last peeling (Matula & Beck): repeatedly remove a vertex of
    least degree in what is left, found through a bucket queue per degree,
    in O(n + e).  Each bucket is a stack, so among the vertices of least
    degree the one whose degree fell last is peeled first (at the start,
    the highest id).  Edges peeled at the same position keep input order:
    a vertex lists its neighbours in the order of its edges, and its edges
    to the vertices still unpeeled are emitted when it is peeled.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(nb) for nb in adj]
    buckets: list[list[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    peeled = [False] * n
    order: list[tuple[int, int]] = []
    d = 0
    for _ in range(n):
        while True:  # stale entries (peeled, or degree since fallen) are skipped
            bucket = buckets[d]
            if not bucket:
                d += 1
                continue
            v = bucket.pop()
            if not peeled[v] and degree[v] == d:
                break
        peeled[v] = True
        for w in adj[v]:
            if not peeled[w]:
                dw = degree[w] - 1
                degree[w] = dw
                buckets[dw].append(w)
                order.append((v, w) if v < w else (w, v))
        if d:  # removing v lowers the least degree by at most one
            d -= 1
    return order


def _sweep_order(g: Graph, l: int) -> Sequence[tuple[int, int]]:
    """The order in which a game with slack ``l`` takes g's edges.

    Input order up to _PEEL_ABOVE vertices; above it peel order
    (_peel_order): forward for games with l > 0, reversed, densest core
    first, for l = 0 (the (a, 0) gates and the elongated games).  is_sparse
    says why the order changes no output.

    Each Graph is peeled once: the order is kept, as a tuple, in the
    instance's dict under ``_peel``, so the sweeps of one graph (a host's
    gate, and the three sweeps of a decomposition's remainder, which share
    its EdgeSet.subgraph) all read it.
    """
    if g.n <= _PEEL_ABOVE:
        return g.edges
    try:
        edges = g._peel
    except AttributeError:
        edges = tuple(_peel_order(g.n, g.edges))
        object.__setattr__(g, "_peel", edges)
    return edges if l else edges[::-1]


def max_violation(
    g: Graph, a: RationalLike, _accepted: PebbleGame | None = None
) -> tuple[Fraction, VertexSet]:
    """Exact max of e(G[U]) - a|U| over vertex sets with |U| >= 2, with witness.

    Every call takes one route: the (p, 0) game with q copies per edge
    (a = p/q in lowest terms) and room for all q*e of them, so it refuses
    no edge.  The copies it leaves unplaced are the q-fold blow-up's nullity
    in the (p, 0) count matroid, the max of q*e(U) - p|U| floored at 0
    (Edmonds' rank formula; Whiteley's elongation, as in is_sparse for
    b > 0), so a positive maximum is ``unplaced / q``.  A game that placed
    every copy pins down a maximum <= 0: minus the smallest pebble count
    gatherable onto an edge's endpoints.

    Witness conventions: a positive maximum returns its minimal maximizer.
    In the final state q*e(U) - p|U| = unplaced(U) - pebbles(U) -
    out-arcs(U), so that is the out-arc closure of the ends of the edges
    with an unplaced copy: the union of the regions of the inserts that left
    copies unplaced, which are closed and pebble-free for good and are
    buried (PebbleGame._bury_free_regions).
    Up to _WITNESS_LIMIT vertices a maximum <= 0 returns the region where
    the smallest gather stalled.  Above it, a zero maximum returns the
    largest zero set, read off the game: the union of the regions of the
    edges that gather no pebble.  A negative maximum -s/q returns the region
    of the first edge refused by a fresh (a, -(s + 1)/q) game, or the first
    edge when no set beats a lone edge (s = 2p - q).

    Degenerate case: a single-vertex graph has no admissible U; the lone
    vertex is returned with value -a.

    ``_accepted`` lets is_sparse hand over its scaled game once that game has
    placed every copy of every edge of g, in place of the fresh game
    (gather counts and stalled regions do not depend on the game's l or on
    its orientation, so the answer is the same).

    Insert order: neither the nullity nor the minimal maximizer depends on
    it, so the fresh game takes the edges in is_sparse's order
    (_sweep_order).  The negative-maximum witness sweep must keep input
    order: its witness is the region of the first edge it refuses, and
    another order may refuse another edge first.
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
        game = PebbleGame._counted(g.n, p, 0, q, q * g.e)
        short: set[int] = set()
        for u, v in _sweep_order(g, 0):
            unplaced = game.unplaced
            game.insert(u, v)
            if game.unplaced > unplaced:
                short.update(game.last_region)
                game._bury_free_regions()
        if game.unplaced:
            return Fraction(game.unplaced, q), VertexSet(g, short)
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
    if game.sweep(g.edges):
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
    every copy is handed over in place of max_violation's fresh zero-slack
    game, and any other read plays that game.  A graph whose own edge count
    breaks the bound (q*e > k*n - l + room, in the game's numbers) is
    refused without a game: a sweep would refuse it too, and a refusal
    hands over nothing, so its certificate is the same.

    The sweep runs in peel order above 40 vertices (_sweep_order), and every
    output is the same as in input order:
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
    k, l, q, room = params._counts
    if q * g.e > k * g.n - l + room:  # the whole graph breaks the bound: refused unswept
        return SparsityCertificate._exact_on_read(False, params, lambda: max_violation(g, params.a))
    game = PebbleGame._counted(g.n, k, l, q, room)
    sparse = game.sweep(_sweep_order(g, l))
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
    instead, and splits and refines only when it fails.  That test passed
    on every random_sparse_graph host at n = 30 to 400 (six per n) at 6/5
    and from 18/7 to 34/9, on 4 to 15 of 18 at 3/2, 8/5, 9/5 and 19/10,
    and on 81-100% of the sparse G(8, p) graphs per m.  The split is the
    union's, except where ``s`` = 1 (k = 1 at eps >= 4/5, k >= 2 at
    eps >= (2k+2)/(2k+3)): there the host is (k+1, -1)-sparse, and
    partition._oriented_split reads a forest and a (k, 0)-sparse rest off
    one (k+1, 0) pebble game's orientation.
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
