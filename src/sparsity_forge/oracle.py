"""Brute-force ground truth: exhaustive sparsity, exhaustive 2-partition search,
and matroid-axiom checking over full power sets.

Everything here computes straight from the definitions and runs none of the
pebble and min-cut engines it checks: a Gray-code subset sweep (n <= 22),
a room-per-vertex-set table per partition side (e <= 20, at most 22 touched
vertices), and power sets of ground sets up to 12 edges.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .errors import PathologicalParametersError
from .graphs import EdgeSet, Graph, VertexSet
from .sparsity import SparsityCertificate, SparsityParams


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def brute_sparse(g: Graph, a: Fraction | int, b: Fraction | int) -> SparsityCertificate:
    """Exhaustive (a, b)-sparsity certificate for v(g) <= 22.

    Iterates every vertex subset in Gray-code order, maintaining the induced
    edge count incrementally, and maximizes e(G[U]) - a|U| over |U| >= 2
    (induced subgraphs dominate: extra edges only help the left side).
    """
    params = SparsityParams(a, b)
    if params.pathological:
        raise PathologicalParametersError(f"parameters {params} are pathological")
    if g.n > 22:
        raise ValueError("brute_sparse enumerates subsets; limit is n <= 22")
    if g.n <= 1:
        return SparsityCertificate(
            sparse=True,
            witness=VertexSet(g, range(g.n)),
            max_violation=None,
            min_potential=None,
            params=params,
        )
    p, q = params.a.numerator, params.a.denominator
    adj = _adjacency_masks(g)
    best = None
    best_mask = 0
    mask = 0
    cur_e = 0
    for i in range(1, 1 << g.n):
        gray = i ^ (i >> 1)
        v = (gray ^ mask).bit_length() - 1
        if gray & (1 << v):
            cur_e += (adj[v] & mask).bit_count()
            mask = gray
        else:
            mask = gray
            cur_e -= (adj[v] & mask).bit_count()
        size = mask.bit_count()
        if size < 2:
            continue
        val = q * cur_e - p * size
        if best is None or val > best:
            best = val
            best_mask = mask
    assert best is not None
    m = Fraction(best, q)
    witness = VertexSet(g, [v for v in range(g.n) if best_mask >> v & 1])
    return SparsityCertificate(
        sparse=m <= params.b,
        witness=witness,
        max_violation=m - params.b,
        min_potential=-m,
        params=params,
    )


# ---------------------------------------------------------------------------
# exhaustive 2-partition search
# ---------------------------------------------------------------------------


class _SideChecker:
    """One side of a partial 2-coloring, checked against the definition.

    Over the vertices that g's edges touch (bit i of a mask is the i-th of
    them), ``room[U]`` is floor(a|U| + b) - e_side(U), floored at 0 so that
    ``room[-1]`` bounds what the side can still take.  An edge fits when
    every set holding both its ends has room left; a pathological side
    (2a + b < 1) has none on two vertices.
    """

    def __init__(self, g: Graph, a: Fraction, b: Fraction):
        touched = sorted({x for edge in g.edges for x in edge})
        if len(touched) > 22:
            raise ValueError("brute_partition_exists tabulates vertex sets; limit is 22 touched vertices")
        self.bits = [1 << i for i in range(len(touched))]
        bit = dict(zip(touched, self.bits))
        self.ends = [bit[u] | bit[v] for u, v in g.edges]
        caps = [max(0, floor(a * t + b)) for t in range(len(touched) + 1)]  # once per size
        self.room = [caps[mask.bit_count()] for mask in range(1 << len(touched))]
        self.masks: dict[int, list[int]] = {}

    def _supersets(self, eid: int) -> list[int]:
        """The sets holding both ends of edge eid, listed on first use."""
        masks = self.masks.get(eid)
        if masks is None:
            masks = [self.ends[eid]]
            for bit in self.bits:
                if not bit & masks[0]:
                    masks += [mask | bit for mask in masks]
            self.masks[eid] = masks
        return masks

    def try_add(self, eid: int) -> bool:
        """Add edge eid to the side if the side stays sparse; report success."""
        masks = self._supersets(eid)
        room = self.room
        if 0 in map(room.__getitem__, masks):  # no room ever drops below 0
            return False
        for mask in masks:
            room[mask] -= 1
        return True

    def remove(self, eid: int) -> None:
        room = self.room
        for mask in self._supersets(eid):
            room[mask] += 1


def brute_partition_exists(
    g: Graph,
    a1: Fraction | int,
    b1: Fraction | int,
    a2: Fraction | int,
    b2: Fraction | int,
) -> tuple[bool, tuple[EdgeSet, EdgeSet] | None]:
    """Exhaustive search for a 2-coloring with side i (ai, bi)-sparse.

    Extends a partial coloring edge by edge in id order.  A side refuses an
    edge as soon as it would stop being sparse (sound: sparsity is
    hereditary under edge removal), and a branch is pruned once the edges
    left exceed the two sides' room on the whole touched set.  Limits: e <= 20
    and 22 touched vertices (isolated ones cost nothing).  Returns the first
    witness in deterministic order.
    """
    if g.e > 20:
        raise ValueError("brute_partition_exists is exponential; limit is e <= 20")
    a1, b1, a2, b2 = Fraction(a1), Fraction(b1), Fraction(a2), Fraction(b2)
    side1 = _SideChecker(g, a1, b1)
    side2 = _SideChecker(g, a2, b2)
    symmetric = (a1, b1) == (a2, b2)
    total = g.e
    assign = [0] * total

    def search(idx: int) -> bool:
        if idx == total:
            return True
        if total - idx > side1.room[-1] + side2.room[-1]:
            return False
        choices = ((1, side1),) if symmetric and idx == 0 else ((1, side1), (2, side2))
        for label, side in choices:
            if side.try_add(idx):
                assign[idx] = label
                if search(idx + 1):
                    return True
                side.remove(idx)
        return False

    if search(0):
        ids1 = [i for i in range(total) if assign[i] == 1]
        ids2 = [i for i in range(total) if assign[i] == 2]
        return True, (EdgeSet(g, ids1), EdgeSet(g, ids2))
    return False, None


# ---------------------------------------------------------------------------
# matroid axioms over the full power set
# ---------------------------------------------------------------------------


def check_matroid_axioms(oracle) -> bool:
    """Exhaustively verify (I1) empty set, (I2) hereditary, (I3) exchange.

    Queries ``oracle.is_independent`` on every subset of the host's edges
    (host must have e <= 12), then checks the exchange axiom in the
    single-step form: independent S, T with |T| = |S| + 1 always admit an
    x in T - S keeping S + x independent.
    """
    g: Graph = oracle.host
    if g.e > 12:
        raise ValueError("axiom check enumerates the power set; limit is e <= 12")
    e = g.e
    indep = [
        oracle.is_independent(EdgeSet(g, [i for i in range(e) if mask >> i & 1]))
        for mask in range(1 << e)
    ]
    if not indep[0]:
        return False
    by_size: dict[int, list[int]] = {}
    for mask in range(1 << e):
        if indep[mask]:
            by_size.setdefault(mask.bit_count(), []).append(mask)
    # hereditary
    for masks in by_size.values():
        for mask in masks:
            rest = mask
            while rest:
                low = rest & (-rest)
                if not indep[mask ^ low]:
                    return False
                rest ^= low
    # exchange: T violates it against S exactly when T misses every x that
    # extends S, so no T of the next size may sit inside the complement
    for size, smaller in sorted(by_size.items()):
        larger = by_size.get(size + 1)
        if not larger:
            continue
        for smask in smaller:
            grow = 0
            for x in range(e):
                bit = 1 << x
                if not smask & bit and indep[smask | bit]:
                    grow |= bit
            for tmask in larger:
                if not tmask & grow:
                    return False
    return True
