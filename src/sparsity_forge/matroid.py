"""Count matroids over a host graph's edges: independence, rank, tight sets.

For integral a >= 1 and b >= -2a, the edge sets whose spanned subgraph is
(a, b)-sparse form a matroid (the classical b <= 0 regime, extended to
positive b).  The public oracle answers independence by calling the exact
sparsity engine; rank is matroid greedy over ascending edge ids.

The private engine classes at the bottom give the partition module an
incremental view of the same matroids: insert, delete, and ``circuit(u, v)``,
which returns None when the edge fits and otherwise the members spanned by
the unique minimal tight vertex set through u and v (minimal tight sets
through a fixed pair are closed under intersection).  For b <= 0 that set is
the region a refused pebble gather reaches from {u, v} (Lee & Streinu).  For
b > 0 the matroid is the (a, 0) one elongated by b (Whiteley), played as an
(a, 0) game plus up to b spare edges; the set is the union of the refused
region and every spare edge's stalled region.  The (1, -1) engine is a rooted
forest whose circuit is the forest path, found in O(depth) by walking the
root paths of u and v; linking two trees re-roots one of them.
``insert(eid, u, v)`` follows the same convention: None when it places the
edge, otherwise the circuit that refused it.
"""

from __future__ import annotations

from .errors import MatroidRegimeError
from .graphs import EdgeSet, Graph, UnionFind, VertexSet
from .mincut import selection_max
from .pebble import PebbleGame
from .sparsity import SparsityParams, _params, is_sparse

LOREA = "lorea"
WHITE_WHITELEY = "white_whiteley"


class CountMatroidOracle:
    """Independence and rank in the (a, b) count matroid on a host's edges.

    Mutable (answers are cached per edge set), with identity equality.
    """

    def __init__(self, host: Graph, a: int, b: int, validity_class: str):
        self.host, self.a, self.b, self.validity_class = host, a, b, validity_class
        self._cache: dict[frozenset[int], bool] = {}

    @property
    def params(self) -> SparsityParams:
        return _params(self.a, self.b)

    def is_independent(self, s: EdgeSet) -> bool:
        if s.host != self.host:
            raise ValueError("edge set belongs to a different host graph")
        cached = self._cache.get(s.ids)
        if cached is not None:
            return cached
        if not s.ids:
            result = True
        elif 2 * self.a + self.b < 1:
            # pathological bound: any edge already violates e <= a*2 + b
            result = False
        else:
            result = is_sparse(self.host.edge_subgraph(s.ids), self.params).sparse
        self._cache[s.ids] = result
        return result

    def rank(self, s: EdgeSet) -> int:
        if s.host != self.host:
            raise ValueError("edge set belongs to a different host graph")
        picked: list[int] = []
        for eid in s.sorted():
            if self.is_independent(EdgeSet(self.host, picked + [eid])):
                picked.append(eid)
        return len(picked)

    def __repr__(self) -> str:
        return f"CountMatroidOracle(a={self.a}, b={self.b}, {self.validity_class})"


def make_oracle(host: Graph, a: int, b: int) -> CountMatroidOracle:
    """Build the (a, b) count-matroid oracle; rejects parameters outside b >= -2a."""
    return CountMatroidOracle(host, a, b, _regime(a, b))


def _regime(a: int, b: int) -> str:
    """The validity class of the (a, b) count matroid; MatroidRegimeError
    when there is none."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise MatroidRegimeError("count matroids here need integral a and b")
    if a < 1:
        raise MatroidRegimeError(f"need a >= 1, got a={a}")
    if b < -2 * a:
        raise MatroidRegimeError(f"need b >= -2a = {-2 * a}, got b={b}")
    return LOREA if b <= 0 else WHITE_WHITELEY


def is_independent(o: CountMatroidOracle, s: EdgeSet) -> bool:
    return o.is_independent(s)


def rank(o: CountMatroidOracle, s: EdgeSet) -> int:
    return o.rank(s)


def find_tight_components(o: CountMatroidOracle, s: EdgeSet) -> list[VertexSet]:
    """Vertex sets of the maximal connected (a, b)-tight subgraphs of (V(s), s).

    Needs the regime -a <= b <= 0, where such sets are pairwise vertex
    disjoint.  The set is played into an (a, -b) pebble game; an edge lies in
    a tight set exactly when no more than -b pebbles gather onto its
    endpoints, and the stalled gather's region is its minimal tight set.
    Overlapping minimal sets are merged; a tight set has no isolated vertices,
    so the merge recovers every maximal connected tight subgraph exactly.
    """
    if o.validity_class != LOREA or o.b < -o.a:
        raise MatroidRegimeError("tight components need -a <= b <= 0")
    if s.host != o.host:
        raise ValueError("edge set belongs to a different host graph")
    g = o.host
    pairs = [g.edges[i] for i in s.sorted()]
    game = PebbleGame(g.n, o.a, -o.b)
    if not game.sweep(pairs):
        raise ValueError("edge set is dependent; tight components are defined on independent sets")
    tight_sets: list[list[int]] = []
    for u, v in pairs:
        if game.gather_max(u, v, stop_at=1 - o.b) == -o.b:
            tight_sets.append(game.last_region)
    # merge overlapping minimal tight sets (union of intersecting tight sets is tight)
    uf = UnionFind(len(tight_sets))
    owner: dict[int, int] = {}
    for i, verts in enumerate(tight_sets):
        for v in verts:
            uf.union(owner.setdefault(v, i), i)
    clusters: dict[int, set[int]] = {}
    for i, verts in enumerate(tight_sets):
        clusters.setdefault(uf.find(i), set()).update(verts)
    result = [VertexSet(g, verts) for verts in clusters.values()]
    result.sort(key=lambda vs: vs.sorted())
    return result


# ---------------------------------------------------------------------------
# incremental engines for the partition machinery
# ---------------------------------------------------------------------------


class ForestEngine:
    """(1, -1) incremental oracle: a rooted spanning forest of the members.

    Each vertex keeps its parent and the id of the edge to it (-1 at a
    root), so ``path(u, v)`` walks two root paths in O(depth) instead of
    searching u's whole tree.  ``add`` re-roots u's tree at u by reversing
    the parent pointers on u's root path and hangs u below v; ``delete``
    cuts the child's parent pointer.  ``adj`` mirrors the members as an
    adjacency map (nbr -> eid) for callers that scan neighbourhoods.
    """

    def __init__(self, host: Graph, ids=()):
        self.host = host
        n = host.n
        self.adj: list[dict[int, int]] = [dict() for _ in range(n)]  # nbr -> eid
        self._parent = [-1] * n
        self._up_eid = [-1] * n  # id of the edge to the parent
        # timestamped ancestor marks: no per-query allocation
        self._mark = [0] * n
        self._stamp = 0
        for eid in ids:
            self.add(eid)

    def insert(self, eid: int, u: int, v: int) -> list[int] | None:
        path = self.path(u, v)
        if path is None:
            self._link(eid, u, v)
        return path

    def add(self, eid: int) -> None:
        """Add a host edge between two trees; ValueError if it closes a cycle."""
        u, v = self.host.edges[eid]
        if self.path(u, v) is not None:
            raise ValueError(f"edge {eid} = ({u}, {v}) would close a forest cycle")
        self._link(eid, u, v)

    def _link(self, eid: int, u: int, v: int) -> None:
        """Join the trees of u and v, which must differ, by edge eid."""
        parent, up_eid = self._parent, self._up_eid
        # re-root at u: reverse every parent pointer on u's root path
        child, child_eid = -1, -1
        x = u
        while x >= 0:
            nxt, nxt_eid = parent[x], up_eid[x]
            parent[x], up_eid[x] = child, child_eid
            child, child_eid = x, nxt_eid
            x = nxt
        parent[u], up_eid[u] = v, eid
        self.adj[u][v] = eid
        self.adj[v][u] = eid

    def delete(self, eid: int) -> None:
        u, v = self.host.edges[eid]
        del self.adj[u][v]
        del self.adj[v][u]
        child = u if self._up_eid[u] == eid else v
        self._parent[child] = self._up_eid[child] = -1

    def circuit(self, u: int, v: int) -> list[int] | None:
        return self.path(u, v)

    def ids(self) -> set[int]:
        return {eid for nbrs in self.adj for eid in nbrs.values()}

    def path(self, u: int, v: int) -> list[int] | None:
        """Edge ids along the forest path u..v from the u end; None if disconnected."""
        parent, up_eid, mark = self._parent, self._up_eid, self._mark
        self._stamp += 1
        stamp = self._stamp
        x = u
        while x >= 0:
            mark[x] = stamp
            x = parent[x]
        tail: list[int] = []  # edges from v up to the meeting vertex
        y = v
        while mark[y] != stamp:
            if parent[y] < 0:
                return None
            tail.append(up_eid[y])
            y = parent[y]
        head: list[int] = []  # edges from u up to the meeting vertex
        x = u
        while x != y:
            head.append(up_eid[x])
            x = parent[x]
        head.extend(reversed(tail))
        return head


class PebbleCountEngine:
    """Integral (a, b) with -2a < b: pebble inserts and circuits.

    For b > 0 the (a, b) matroid is the (a, 0) one elongated by b: an (a, 0)
    game plus up to b ``spare`` members it refuses.  The game holds an
    (a, 0) basis of the members, and ``len(spare)`` is their nullity.

    The union of the spare edges' stalled regions is read only while
    ``spare`` is full, and it is kept until the next delete.  A region is
    the minimal tight set through a spare edge's ends; it depends on the
    game's edges, not on their orientation.  While ``spare`` is full, only a
    delete changes those edges or ``spare``: a refused insert or a circuit
    query leaves them as they were, and an insert the game accepts lies
    inside no tight set.  Such an edge leaves every minimal tight set R as
    it was: a tight set T through the same ends meets R in a tight set
    without the new edge, which was tight before, so it is all of R.
    """

    def __init__(self, host: Graph, a: int, b: int):
        self.host = host
        self.game = PebbleGame(host.n, a, max(-b, 0))
        self.room = max(b, 0)
        self.spare: list[int] = []
        self.members: set[int] = set()
        # per vertex, its members' ids and other ends: circuits walk a region
        self._incident: list[dict[int, int]] = [dict() for _ in range(host.n)]
        self._spare_region: set[int] | None = None  # None: not computed yet

    def insert(self, eid: int, u: int, v: int) -> list[int] | None:
        if not self.game.insert(u, v):
            if len(self.spare) == self.room:
                return self._spanned_by_region()
            self.spare.append(eid)
        self.members.add(eid)
        self._incident[u][eid] = v
        self._incident[v][eid] = u
        return None

    def delete(self, eid: int) -> None:
        self.members.remove(eid)
        u, v = self.host.edges[eid]
        del self._incident[u][eid]
        del self._incident[v][eid]
        self._spare_region = None
        if eid in self.spare:
            self.spare.remove(eid)
            return
        self.game.delete(u, v)
        # the game's rank fell by at most one, so at most one spare edge fits
        for spare_eid in self.spare:
            if self.game.insert(*self.host.edges[spare_eid]):
                self.spare.remove(spare_eid)
                break

    def circuit(self, u: int, v: int) -> list[int] | None:
        if len(self.spare) < self.room or self.game.insertable(u, v):
            return None
        return self._spanned_by_region()

    def _spanned_by_region(self) -> list[int]:
        """Members inside the minimal tight set through u and v: the last
        refused gather's region joined with each spare edge's stalled one.
        The member index gives them from the set's own vertices."""
        inside = set(self.game.last_region)
        if self._spare_region is None:
            region: set[int] = set()
            for spare_eid in self.spare:
                self.game.gather_max(*self.host.edges[spare_eid], stop_at=1)
                region.update(self.game.last_region)
            self._spare_region = region
        inside |= self._spare_region
        incident = self._incident
        return sorted(eid for w in inside for eid, x in incident[w].items() if w < x and x in inside)


class MincutCountEngine:
    """A forced min-cut per test and circuit; rational a and b welcome.

    No engine route or oracle builds it: tests hold ``PebbleCountEngine`` to
    it, and it stays here because the benchmark's span targets name it.
    """

    def __init__(self, host: Graph, a, b):
        self.host = host
        self.a, self.b = a, b
        self.members: set[int] = set()

    def insertable(self, u: int, v: int) -> bool:
        return self.circuit(u, v) is None

    def insert(self, eid: int, u: int, v: int) -> list[int] | None:
        circuit = self.circuit(u, v)
        if circuit is None:
            self.members.add(eid)
        return circuit

    def delete(self, eid: int) -> None:
        self.members.remove(eid)

    def circuit(self, u: int, v: int) -> list[int] | None:
        ordered = sorted(self.members)
        pairs = [self.host.edges[i] for i in ordered]
        p, q = self.a.numerator, self.a.denominator
        value, umin = selection_max(self.host.n, pairs, p, q, free_vertices=(u, v))
        # (value - 2p) / q = max of e(U) - a|U| over U containing u, v
        if value - 2 * p <= q * (self.b - 1):
            return None  # {u, v} keeps every such U within the bound
        inside = set(umin)
        return [eid for eid, (x, y) in zip(ordered, pairs) if x in inside and y in inside]


class TrivialEngine:
    """b == -2a: only the empty set is independent."""

    def __init__(self, host: Graph):
        self.host = host

    def insert(self, eid: int, u: int, v: int) -> list[int]:
        return self.circuit(u, v)

    def delete(self, eid: int) -> None:
        raise ValueError("trivial matroid holds no elements")

    def circuit(self, u: int, v: int) -> list[int]:
        return []  # the new element alone is dependent


def engine_for(oracle: CountMatroidOracle):
    """Incremental engine matching an oracle's matroid."""
    a, b = oracle.a, oracle.b
    if (a, b) == (1, -1):
        return ForestEngine(oracle.host)
    if b == -2 * a:
        return TrivialEngine(oracle.host)
    return PebbleCountEngine(oracle.host, a, b)
