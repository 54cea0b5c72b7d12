"""Edge-swap refinement of forest-plus-remainder partitions.

Both procedures improve an existing valid partition by moving one remainder
edge into the forest, optionally swapping a forest edge back, so that a bad
structure disappears while both sides keep their sparsity:

* ``eliminate_triangles`` removes every triangle from a (1, 0)-sparse
  remainder of a (2, -1)-sparse host;
* ``brooks_refine`` pushes every (2k+1)-vertex subgraph of a (k, 1-s)-sparse
  remainder one edge below its sparsity ceiling, for 1 <= s <= k - 1.

Each loop maintains a progress measure that strictly decreases (triangle
count, number of low-potential vertex sets), and the theory guarantees a
usable swap always exists; running out of swaps raises TheoremViolationError
instead of silently returning a wrong partition.  ``instrument=True`` re-runs
the exact engine after every swap; ``trace`` collects the measure per
iteration.

Most remainders need no repair, so both procedures measure first and return
the input partition itself when the measure is already 0; the forest engine
is built only when a swap follows.  The low-potential sets are found by a
near-clique search over int bitmasks of remainder neighbours
(``find_bad_sets``).
"""

from __future__ import annotations

from itertools import combinations

from .errors import TheoremViolationError, VerificationError
from .graphs import EdgeSet, Graph, UnionFind, VertexSet, _Frozen
from .matroid import ForestEngine
from .sparsity import SparsityParams, _params, is_sparse


class ForestPartition(_Frozen):
    """A 2-coloring of a host's edges whose first side is acyclic."""

    _fields = ("host", "F", "R")

    def __init__(self, host: Graph, F: EdgeSet, R: EdgeSet):
        if F.host != host or R.host != host:
            raise ValueError("edge sets must live on the host")
        if F.ids & R.ids:
            raise ValueError("forest and remainder overlap")
        if F.ids | R.ids != frozenset(range(host.e)):
            raise ValueError("forest and remainder do not cover the host")
        if not _acyclic(host, F.ids):
            raise ValueError("forest side contains a cycle")
        _Frozen.__init__(self, host, F, R)


def _acyclic(g: Graph, ids) -> bool:
    uf = UnionFind(g.n)
    edges = g.edges
    for eid in ids:
        u, v = edges[eid]
        if not uf.union(u, v):
            return False
    return True


class _Remainder:
    """Mutable remainder adjacency with triangle bookkeeping."""

    def __init__(self, g: Graph, ids):
        self.g = g
        self.ids = set(ids)
        self.adj: list[set[int]] = [set() for _ in range(g.n)]
        for eid in self.ids:
            u, v = g.edges[eid]
            self.adj[u].add(v)
            self.adj[v].add(u)

    def add(self, eid: int) -> None:
        u, v = self.g.edges[eid]
        self.ids.add(eid)
        self.adj[u].add(v)
        self.adj[v].add(u)

    def remove(self, eid: int) -> None:
        u, v = self.g.edges[eid]
        self.ids.remove(eid)
        self.adj[u].remove(v)
        self.adj[v].remove(u)

    def triangle_count(self) -> int:
        count = 0
        for eid in self.ids:
            u, v = self.g.edges[eid]
            count += len(self.adj[u] & self.adj[v])
        return count // 3

    def smallest_triangle(self) -> tuple[int, int, int] | None:
        best = None
        for eid in sorted(self.ids):
            u, v = self.g.edges[eid]
            for w in self.adj[u] & self.adj[v]:
                tri = tuple(sorted((u, v, w)))
                if best is None or tri < best:
                    best = tri
        return best

    def is_pseudoforest(self) -> bool:
        """Every component holds at most one cycle: components satisfy e <= v."""
        uf = UnionFind(self.g.n)
        has_cycle = [False] * self.g.n
        for eid in self.ids:
            u, v = self.g.edges[eid]
            ru, rv = uf.find(u), uf.find(v)
            if ru == rv:
                if has_cycle[ru]:
                    return False
                has_cycle[ru] = True
            else:
                if has_cycle[ru] and has_cycle[rv]:
                    return False
                uf.union(ru, rv)
                has_cycle[rv] = has_cycle[ru] or has_cycle[rv]
        return True

    def edge_id(self, u: int, v: int) -> int:
        return self.g.edge_index[(u, v) if u < v else (v, u)]


def eliminate_triangles(
    part: ForestPartition,
    instrument: bool = False,
    trace: list | None = None,
) -> ForestPartition:
    """Swap remainder edges with forest edges until the remainder is a
    triangle-free pseudoforest.

    Requires: host (2, -1)-sparse, F a forest, R (1, 0)-sparse.  While a
    triangle survives, some triangle edge either bridges two forest
    components (move it to F), or some edge on its forest path can be traded
    for it without breaking the pseudoforest or adding triangles back.
    """
    g = part.host
    _require_sparse(g, _params(2, -1), "host")
    _require_sparse(g.edge_subgraph(part.R.ids), _params(1, 0), "remainder")
    rem = _Remainder(g, part.R.ids)
    count = rem.triangle_count()
    if trace is not None:
        trace.append(count)
    if not count:
        return part
    forest = ForestEngine(g, part.F.ids)
    while True:
        tri = rem.smallest_triangle()
        if tri is None:
            break
        moved = False
        for v in tri:
            pq = [w for w in tri if w != v]
            p, q = pq[0], pq[1]
            opposite = rem.edge_id(p, q)
            path = forest.path(p, q)
            if path is None:
                forest.add(opposite)
                rem.remove(opposite)
                moved = True
                break
            for feid in path:
                if _swap_improves(rem, opposite, feid):
                    forest.delete(feid)
                    forest.add(opposite)
                    rem.remove(opposite)
                    rem.add(feid)
                    moved = True
                    break
            if moved:
                break
        if not moved:
            raise TheoremViolationError(
                f"no triangle-removing swap exists for {tri}; this contradicts the "
                "triangle-free pseudoforest guarantee for (2,-1)-sparse hosts"
            )
        new_count = rem.triangle_count()
        if trace is not None:
            trace.append(new_count)
        if instrument:
            if new_count >= count:
                raise VerificationError("triangle count did not decrease")
            if not _acyclic(g, forest.ids()):
                raise VerificationError("forest side grew a cycle")
            if not is_sparse(g.edge_subgraph(rem.ids), _params(1, 0)).sparse:
                raise VerificationError("remainder stopped being (1,0)-sparse")
        count = new_count
    return ForestPartition(g, EdgeSet(g, forest.ids()), EdgeSet(g, rem.ids))


def _swap_improves(rem: _Remainder, out_eid: int, in_eid: int) -> bool:
    """Would R - out + in be a pseudoforest with strictly fewer triangles?"""
    g = rem.g
    p, q = g.edges[out_eid]
    removed_triangles = len(rem.adj[p] & rem.adj[q])
    s, t = g.edges[in_eid]
    rem.remove(out_eid)
    added_triangles = len(rem.adj[s] & rem.adj[t])
    rem.add(in_eid)
    ok = rem.is_pseudoforest() and added_triangles < removed_triangles
    rem.remove(in_eid)
    rem.add(out_eid)
    return ok


def _require_sparse(g: Graph, params: SparsityParams, what: str) -> None:
    cert = is_sparse(g, params)
    if not cert.sparse:
        raise ValueError(f"{what} is not ({params.a}, {params.b})-sparse")


# ---------------------------------------------------------------------------
# low-potential (2k+1)-set repair
# ---------------------------------------------------------------------------


def find_bad_sets(g: Graph, R: EdgeSet, k: int, s: int) -> list[VertexSet]:
    """All U with |U| = 2k+1 spanning exactly k(2k+1)+1-s remainder edges.

    These sit at potential k|U| - e(R[U]) = s - 1, one below the repair
    target.  R must be an edge set of g and (k, 1-s)-sparse.  Such a U
    misses exactly s-1 of its vertex pairs, so every member needs remainder
    degree at least 2k+1-s; the search runs over those candidates only, as
    int bitmasks of their remainder neighbours.  A prefix of ascending
    candidates is charged its missing pairs until the budget of s-1 is
    spent; after that only the common neighbours of the whole prefix can
    extend it, and they are read off the AND of its masks.  The sets come
    in lexicographic order.
    """
    if R.host != g:
        raise ValueError("edge set belongs to a different host graph")
    _require_sparse(g.edge_subgraph(R.ids), _params(k, 1 - s), "remainder")
    return _find_bad_sets(g, R.ids, k, s)


def _find_bad_sets(g: Graph, r_ids, k: int, s: int) -> list[VertexSet]:
    size = 2 * k + 1
    max_missing = s - 1
    pairs = [g.edges[eid] for eid in r_ids]
    degree = [0] * g.n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    candidates = [v for v in range(g.n) if degree[v] >= size - 1 - max_missing]
    index = [-1] * g.n
    for i, v in enumerate(candidates):
        index[v] = i
    # nb[i]: the candidates adjacent to candidates[i], as a mask of indices
    nb = [0] * len(candidates)
    for u, v in pairs:
        i, j = index[u], index[v]
        if i >= 0 and j >= 0:
            nb[i] |= 1 << j
            nb[j] |= 1 << i
    out: list[VertexSet] = []

    def grow(start: int, chosen: int, missing: int, common: int) -> None:
        # chosen: a mask of indices; common: the candidates adjacent to all of them
        slots = size - chosen.bit_count()
        if not slots:
            if missing == max_missing:
                out.append(VertexSet(g, [v for i, v in enumerate(candidates) if chosen >> i & 1]))
            return
        if missing == max_missing:
            # budget spent: every further member is adjacent to the whole prefix
            ext = common >> start << start
            while ext.bit_count() >= slots:
                low = ext & -ext
                ext ^= low
                i = low.bit_length() - 1
                grow(i + 1, chosen | low, missing, common & nb[i])
            return
        placed = size - slots
        for i in range(start, len(candidates) - slots + 1):
            charged = missing + placed - (nb[i] & chosen).bit_count()
            if charged <= max_missing:
                grow(i + 1, chosen | 1 << i, charged, common & nb[i])

    grow(0, 0, 0, (1 << len(candidates)) - 1)
    return out


def _find_bad_sets_naive(g: Graph, r_ids: set[int], k: int, s: int) -> list[VertexSet]:
    """Unpruned reference enumeration (tests compare against the pruned one)."""
    size = 2 * k + 1
    target = k * size + 1 - s
    adj = [set() for _ in range(g.n)]
    for eid in r_ids:
        u, v = g.edges[eid]
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for combo in combinations(range(g.n), size):
        members = set(combo)
        edges = sum(len(adj[v] & members) for v in combo) // 2
        if edges == target:
            out.append(VertexSet(g, combo))
    return out


def brooks_refine(
    part: ForestPartition,
    k: int,
    s: int,
    instrument: bool = False,
    trace: list | None = None,
) -> ForestPartition:
    """Repair every (2k+1)-vertex set of the remainder down to k(2k+1)-s edges.

    Requires: host (k+1, -s)-sparse with 1 <= s <= k-1, F a forest, R
    (k, 1-s)-sparse.  For a bad set U, at most s-1 <= k-2 forest edges lie
    inside U, so some vertex y of U touches no forest edge inside U yet has a
    remainder edge xy inside U; moving xy to the forest (swapping out the
    forest-path edge at y, whose far endpoint must lie outside U) raises U's
    potential and never creates a new bad set.
    """
    if not (1 <= s <= k - 1):
        raise ValueError("need 1 <= s <= k - 1")
    g = part.host
    _require_sparse(g, _params(k + 1, -s), "host")
    _require_sparse(g.edge_subgraph(part.R.ids), _params(k, 1 - s), "remainder")
    bad = _find_bad_sets(g, part.R.ids, k, s)
    if trace is not None:
        trace.append(len(bad))
    if not bad:
        return part
    forest = ForestEngine(g, part.F.ids)
    rem = _Remainder(g, part.R.ids)
    while bad:
        before = {vs.ids for vs in bad}
        potentials_before = _all_potentials(g, rem.ids, k) if instrument and g.n <= 10 else None
        u_set = bad[0].sorted()
        members = set(u_set)
        forest_touched = set()
        for v in u_set:
            for w, feid in forest.adj[v].items():
                if w in members:
                    forest_touched.add(v)
                    forest_touched.add(w)
        y = None
        for cand in u_set:
            if cand in forest_touched:
                continue
            if rem.adj[cand] & members:
                y = cand
                break
        if y is None:
            raise TheoremViolationError(
                f"no repair vertex in bad set {u_set}; this contradicts the "
                "pigeonhole guarantee for (k+1,-s)-sparse hosts"
            )
        eid = min(rem.edge_id(y, w) for w in rem.adj[y] & members)
        x = g.edges[eid][0] if g.edges[eid][1] == y else g.edges[eid][1]
        path = forest.path(x, y)
        if path is None:
            forest.add(eid)
            rem.remove(eid)
        else:
            feid = path[-1]  # the path edge incident to y
            a, b = g.edges[feid]
            far = a if b == y else b
            if far in members:
                raise TheoremViolationError(
                    "forest-path edge at the repair vertex stays inside the bad set"
                )
            forest.delete(feid)
            forest.add(eid)
            rem.remove(eid)
            rem.add(feid)
        bad = _find_bad_sets(g, rem.ids, k, s)
        if trace is not None:
            trace.append(len(bad))
        after = {vs.ids for vs in bad}
        if not after <= (before - {frozenset(members)}):
            raise TheoremViolationError("a repaired or fresh bad set appeared")
        if instrument:
            if not _acyclic(g, forest.ids()):
                raise VerificationError("forest side grew a cycle")
            if not is_sparse(g.edge_subgraph(rem.ids), _params(k, 1 - s)).sparse:
                raise VerificationError("remainder stopped being (k,1-s)-sparse")
            if potentials_before is not None:
                for mask, pot in _all_potentials(g, rem.ids, k).items():
                    old = potentials_before[mask]
                    if pot < old and pot < s:
                        raise VerificationError(
                            "a set lost potential below the repair target"
                        )
    return ForestPartition(g, EdgeSet(g, forest.ids()), EdgeSet(g, rem.ids))


def _all_potentials(g: Graph, r_ids, k: int) -> dict[int, int]:
    """k|U| - e(R[U]) for every vertex subset mask with |U| >= 2."""
    adj = [0] * g.n
    for eid in r_ids:
        u, v = g.edges[eid]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    out = {}
    edge_count = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = mask & (-mask)
        rest = mask ^ low
        v = low.bit_length() - 1
        edge_count[mask] = edge_count[rest] + (adj[v] & rest).bit_count()
        if mask.bit_count() >= 2:
            out[mask] = k * mask.bit_count() - edge_count[mask]
    return out
