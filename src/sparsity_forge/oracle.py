"""Brute-force ground truth: exhaustive sparsity, exhaustive 2-partition search,
and matroid-axiom checking over full power sets.

Everything here computes straight from the definitions so the faster engines
elsewhere can be tested against it.  Subset sweeps run in Gray-code order
with O(1) edge-count updates, which keeps graphs up to 22 vertices and
12-edge ground sets inside desk-scale budgets.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PathologicalParametersError
from .graphs import EdgeSet, Graph, VertexSet
from .matroid import MincutCountEngine
from .pebble import PebbleGame
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
    """Incremental exact test for one side of a partial 2-coloring.

    b <= 0 runs the scaled pebble game (rational a and b welcome).  b > 0
    runs ``MincutCountEngine``'s forced min-cut per insertion, now the
    independent reference for the elongated pebble game that partitions
    play at b > 0.  Pathological sides hold nothing.
    """

    def __init__(self, g: Graph, a: Fraction, b: Fraction):
        self.g = g
        self.pathological = 2 * a + b < 1
        self.members: list[int] = []
        # nonpathological means 2a + b >= 1, hence l < 2k in the scaled game
        self._game = PebbleGame.scaled(g.n, a, b) if not self.pathological and b <= 0 else None
        self._mincut = MincutCountEngine(g, a, b) if b > 0 else None

    def try_add(self, eid: int) -> bool:
        """Add edge eid to the side if the side stays sparse; report success."""
        if self.pathological:
            return False
        u, v = self.g.edges[eid]
        if self._game is not None:
            fits = self._game.insert(u, v)
        else:
            fits = self._mincut.insert(eid, u, v) is None
        if fits:
            self.members.append(eid)
        return fits

    def remove(self, eid: int) -> None:
        assert self.members and self.members[-1] == eid
        self.members.pop()
        if self._game is not None:
            self._game.delete(*self.g.edges[eid])
        else:
            self._mincut.delete(eid)


def _capacity(g: Graph, a: Fraction, b: Fraction) -> int:
    """Largest possible edge count of an (a, b)-sparse subgraph of g."""
    if 2 * a + b < 1:
        return 0
    cap = a * g.n + b
    return max(0, min(g.e, cap.numerator // cap.denominator))


def brute_partition_exists(
    g: Graph,
    a1: Fraction | int,
    b1: Fraction | int,
    a2: Fraction | int,
    b2: Fraction | int,
) -> tuple[bool, tuple[EdgeSet, EdgeSet] | None]:
    """Exhaustive search for a 2-coloring with side i (ai, bi)-sparse; e <= 20.

    Extends a partial coloring edge by edge in id order, pruning a branch as
    soon as a side would stop being sparse (sound: sparsity is hereditary
    under edge removal) or the remaining edges cannot fit the whole-graph
    capacities.  Returns the first witness in deterministic order.
    """
    if g.e > 20:
        raise ValueError("brute_partition_exists is exponential; limit is e <= 20")
    a1, b1, a2, b2 = Fraction(a1), Fraction(b1), Fraction(a2), Fraction(b2)
    side1 = _SideChecker(g, a1, b1)
    side2 = _SideChecker(g, a2, b2)
    cap1 = _capacity(g, a1, b1)
    cap2 = _capacity(g, a2, b2)
    symmetric = (a1, b1) == (a2, b2)
    total = g.e
    assign = [0] * total

    def search(idx: int) -> bool:
        if idx == total:
            return True
        if total - idx > (cap1 - len(side1.members)) + (cap2 - len(side2.members)):
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
