"""Exact (a, b)-sparsity decisions with witnesses, density indices, and the
forest-slack function.

A graph is (a, b)-sparse when every subgraph spanning at least two vertices
has e(H) <= a*v(H) + b.  Subgraphs on a single vertex are excluded from the
quantifier: they carry potential a by convention but are not constraints
(otherwise no graph at all would be (2, -3)-sparse, while K4 minus an edge
is the canonical (2, -3)-tight example).  For edgeless subgraphs the bound
is slack whenever 2a + b >= 1, and parameters with 2a + b < 1 are rejected
as pathological, so the two-vertex floor loses nothing.

All decisions run on exact rationals.  For b <= 0 the verdict comes from one
scaled pebble sweep at (a, b) (Lee & Streinu): the graph is sparse exactly
when every edge is accepted.  The certificate's numbers are exact all the
same; they are computed the first time one is read.  A positive maximum of
e(G[U]) - a|U| is computed by min-cut over the standard edge/vertex
selection network; a maximum at or below zero is pinned down exactly by
gathering pebbles on a game that has accepted every edge (see max_violation,
which also states the witness conventions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import PathologicalParametersError
from .graphs import Graph, VertexSet
from .mincut import selection_max
from .pebble import PebbleGame
from .rationals import ceil_fraction, floor_fraction, format_rational

RationalLike = Fraction | int


@dataclass(frozen=True)
class SparsityParams:
    """An (a, b) bound, a > 0.  Pathological means 2a + b < 1."""

    a: Fraction
    b: Fraction

    def __init__(self, a: RationalLike, b: RationalLike):
        # built several times per decision: skip re-wrapping Fractions and
        # compare 2a + b < 1 by integer cross-multiplication
        if not isinstance(a, Fraction):
            a = Fraction(a)
        if not isinstance(b, Fraction):
            b = Fraction(b)
        if a.numerator <= 0:
            raise ValueError(f"sparsity coefficient a must be positive, got {a}")
        ad, bd = a.denominator, b.denominator
        pathological = 2 * a.numerator * bd + b.numerator * ad < ad * bd
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_pathological", pathological)

    @property
    def pathological(self) -> bool:
        return self._pathological

    @property
    def k(self) -> int:
        return floor_fraction(self.a)

    @property
    def eps(self) -> Fraction:
        return self.a - self.k

    def __repr__(self) -> str:
        return f"SparsityParams({format_rational(self.a)}, {format_rational(self.b)})"


@dataclass(frozen=True)
class SparsityCertificate:
    """Outcome of a sparsity check plus the witness that pins it down.

    ``witness`` attains the maximum of e(G[U]) - a|U| over |U| >= 2;
    ``max_violation`` is that maximum minus b (sparse iff <= 0) and
    ``min_potential`` its negation a|U| - e(G[U]).  Graphs with fewer than
    two vertices satisfy every bound vacuously and carry None in the two
    numeric fields.

    A sparse verdict that is_sparse reached by a pebble sweep arrives without
    these three fields: the exact maximum and its witness are computed the
    first time any of them is read, and kept.
    """

    sparse: bool
    witness: VertexSet
    max_violation: Fraction | None
    min_potential: Fraction | None
    params: SparsityParams

    @classmethod
    def _sparse_exact_on_read(
        cls, params: SparsityParams, exact: Callable[[], tuple[Fraction, VertexSet]]
    ) -> "SparsityCertificate":
        """A sparse certificate whose numeric fields come from ``exact()``, which
        returns the maximum of e(G[U]) - a|U| and a witness attaining it."""
        cert = object.__new__(cls)
        object.__setattr__(cert, "sparse", True)
        object.__setattr__(cert, "params", params)
        object.__setattr__(cert, "_exact", exact)
        return cert

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: the three fields
        # of a _sparse_exact_on_read certificate before their first read
        exact = self.__dict__.get("_exact")
        if exact is None or name not in ("witness", "max_violation", "min_potential"):
            raise AttributeError(name)
        m, witness = exact()
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "max_violation", m - self.params.b)
        object.__setattr__(self, "min_potential", -m)
        del self.__dict__["_exact"]
        return self.__dict__[name]

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


_CUT_WITNESS_LIMIT = 40


def max_violation(
    g: Graph, a: RationalLike, _accepted: PebbleGame | None = None
) -> tuple[Fraction, VertexSet]:
    """Exact max of e(G[U]) - a|U| over vertex sets with |U| >= 2, with witness.

    A positive maximum comes from one min-cut on the selection network (the
    identity max = total - mincut holds only there: the network cannot
    express negative maxima, every closure being at least as good as the
    empty one).  A maximum <= 0 is located exactly through the pebble engine:
    once every edge is accepted at zero slack, the maximum equals minus the
    smallest pebble count gatherable onto an edge's endpoints.

    Witness conventions: a positive maximum returns the minimal min-cut
    maximizer.  Up to _CUT_WITNESS_LIMIT vertices a maximum <= 0 returns the
    region where the smallest gather stalled.  Above it, a zero maximum
    returns the maximal min-cut maximizer, and a negative maximum -s/q
    (a = p/q in lowest terms) the region of the first edge refused by a
    fresh (a, -(s + 1)/q) game, or the first edge when no set beats a lone
    edge (s = 2p - q).  Without a handed-over game, large graphs run the
    min-cut first.

    Degenerate case: a single-vertex graph has no admissible U; the lone
    vertex is returned with value -a.

    ``_accepted`` lets is_sparse hand over its scaled game once that game has
    accepted every edge of g, in place of a zero-slack sweep (gather counts
    and stalled regions do not depend on the game's l or on its orientation,
    so the answer is the same).
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
    large = g.n > _CUT_WITNESS_LIMIT
    game = _accepted
    if game is None:
        if large:
            value, umin, umax = selection_max(g.n, g.edges, p, q)
            if value > 0:
                return Fraction(value, q), VertexSet(g, umin)
            if umax:
                return Fraction(0), VertexSet(g, umax)
        game = PebbleGame.scaled(g.n, a, 0)
        if not all(game.insert(u, v) for u, v in g.edges):
            return _positive_max(g, p, q)
    best = None
    region: list[int] = []
    for u, v in g.edges:
        c = game.gather_max(u, v, stop_at=best)
        if best is None or c < best:
            best = c
            region = game.last_region
            if best == 0:
                break
    assert best is not None
    value = Fraction(-best, game.copies)
    if not large:
        return value, VertexSet(g, region)
    if value == 0:
        return value, VertexSet(g, selection_max(g.n, g.edges, p, q)[2])
    s = best * q // game.copies  # value = -s/q
    if s == 2 * p - q:  # no set beats a lone edge
        u, v = g.edges[0]
        return value, VertexSet(g, [u, v])
    game = PebbleGame.scaled(g.n, a, Fraction(-(s + 1), q))
    if all(game.insert(u, v) for u, v in g.edges):
        raise AssertionError("gather count and pebble sweep disagree")
    return value, VertexSet(g, game.last_region)


def _positive_max(g: Graph, p: int, q: int) -> tuple[Fraction, VertexSet]:
    """The maximum once a zero-slack refusal has proved it positive; the
    minimal min-cut source side is the witness convention."""
    value, umin, _ = selection_max(g.n, g.edges, p, q)
    if value <= 0:
        raise AssertionError("pebble engine and min cut disagree")
    return Fraction(value, q), VertexSet(g, umin)


def is_sparse(g: Graph, params: SparsityParams) -> SparsityCertificate:
    """Decide (a, b)-sparsity and return the witness certificate.

    For b <= 0 one pebble sweep at (a, b) gives the verdict.  When it accepts
    every edge, the certificate's witness and numbers are computed exactly
    on first read.  A refusal at b = 0 proves the maximum positive, and one
    min-cut gives it; a refusal at b < 0, and every b > 0, go through
    max_violation at once.
    """
    if params.pathological:
        raise PathologicalParametersError(
            f"parameters {params} have 2a + b < 1; only edgeless graphs qualify"
        )
    if g.n <= 1:
        return SparsityCertificate(
            sparse=True,
            witness=VertexSet(g, range(g.n)),
            max_violation=None,
            min_potential=None,
            params=params,
        )
    a, b = params.a, params.b
    if b <= 0:
        game = PebbleGame.scaled(g.n, a, b)
        if all(game.insert(u, v) for u, v in g.edges):
            return SparsityCertificate._sparse_exact_on_read(
                params, lambda: max_violation(g, a, _accepted=game)
            )
    if b == 0:  # the sweep refused an edge at zero slack
        m, u = _positive_max(g, a.numerator, a.denominator)
    else:
        m, u = max_violation(g, a)
    return SparsityCertificate(
        sparse=m <= b, witness=u, max_violation=m - b, min_potential=-m, params=params
    )


def is_tight(g: Graph, params: SparsityParams) -> bool:
    """Sparse and e(G) = a*v(G) + b with equality on the whole graph."""
    if not is_sparse(g, params).sparse:
        return False
    return Fraction(g.e) == params.a * g.n + params.b


# ---------------------------------------------------------------------------
# density indices
# ---------------------------------------------------------------------------


def m_of(g: Graph) -> Fraction:
    """Maximum subgraph density max e(J)/v(J); equals min m with g (m, 0)-sparse.

    Ascending exact iteration: evaluate max_violation at the current density;
    a positive violation hands back a denser subgraph, zero means optimal.
    Candidate densities have denominator at most n, so this terminates.
    """
    if g.e == 0:
        raise ValueError("density of an edgeless graph is not defined")
    a = Fraction(g.e, g.n)
    while True:
        m, u = max_violation(g, a)
        if m > 0:
            a = Fraction(g.induced_edge_count(u.ids), len(u))
        else:
            return a


def m2_of(g: Graph) -> Fraction:
    """max (e(J)-1)/(v(J)-2) over subgraphs on >= 3 vertices.

    Equals min m with g (m, 1-2m)-sparse, which is how the ascent below
    queries it: the violation shift by (2m - 1) does not move the argmax.
    """
    if g.n < 3:
        raise ValueError("m2 needs a subgraph on at least 3 vertices")
    if g.e == 0:
        return Fraction(-1, g.n - 2)
    if g.e == 1:
        return Fraction(0)
    m = Fraction(1, 2)  # two edges span at most 4 vertices, so m2 >= 1/2
    while True:
        viol, u = max_violation(g, m)
        if viol > 1 - 2 * m:
            if len(u) < 3:
                raise AssertionError("two-vertex sets cannot violate (m, 1-2m)")
            m = Fraction(g.induced_edge_count(u.ids) - 1, len(u) - 2)
        else:
            return m


def m2_pair(h1: Graph, h2: Graph, max_vertices: int = 16) -> Fraction:
    """max e(J) / (v(J) - 2 + 1/m2(h2)) over subgraphs J of h1 on >= 2 vertices.

    Desk-scale subset enumeration over h1 (induced subgraphs dominate).
    """
    if h1.n > max_vertices:
        raise ValueError(f"m2_pair enumerates subsets; limit is n <= {max_vertices}")
    m2h2 = m2_of(h2)
    if m2h2 <= 0:
        raise ValueError("second graph has nonpositive m2; pairing undefined")
    shift = 1 / m2h2
    adj_mask = [0] * h1.n
    for u, v in h1.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best: Fraction | None = None
    edge_count = [0] * (1 << h1.n)
    for mask in range(1, 1 << h1.n):
        low = mask & (-mask)
        rest = mask ^ low
        v = low.bit_length() - 1
        edge_count[mask] = edge_count[rest] + (adj_mask[v] & rest).bit_count()
        size = mask.bit_count()
        if size < 2:
            continue
        value = Fraction(edge_count[mask]) / (size - 2 + shift)
        if best is None or value > best:
            best = value
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# forest slack
# ---------------------------------------------------------------------------


def forest_slack(k: int, eps: RationalLike) -> int:
    """The integer s such that every (k+eps, 0)-sparse graph is (k+1, -s)-sparse.

    Four-interval definition evaluated with exact rational comparisons,
    first match wins top to bottom; capped at 2k, which is the edge of the
    usable matroid range at (k, 1-2k).
    """
    eps = Fraction(eps)
    if k < 1:
        raise ValueError("need k >= 1")
    if not (0 <= eps < 1):
        raise ValueError("need 0 <= eps < 1")
    if eps * (2 * k + 2) < 2:
        return 2 * k
    if eps < Fraction(1, 2):
        return ceil_fraction((2 * k + 2) * (1 - eps))
    if eps < Fraction(k + 2, 2 * k + 3):
        return k + 1
    return ceil_fraction((2 * k + 3) * (1 - eps))


f = forest_slack
