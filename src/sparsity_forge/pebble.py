"""Incremental (k, l)-sparsity maintenance by pebble accounting.

State: an orientation of the currently accepted edges plus k pebbles per
vertex, spending one pebble per outgoing arc (invariant: pebbles[v] +
outdeg[v] == k).  An edge {u, v} can be accepted while keeping every
edge-containing subgraph at e(U) <= k|U| - l exactly when l + 1 pebbles can
be gathered onto {u, v} by reversing directed paths.  When gathering stalls,
the set of vertices reachable from {u, v} spans a subgraph that would be
pushed past the bound; that region is the refutation callers consume.

Valid for 0 <= l < 2k; parallel edges are fine as long as 2 <= 2k - l,
loops never are.  Rational bounds scale to integers: a simple graph is
(p/q, b)-sparse with b <= 0 iff its q-fold blow-up is (p, -bq)-sparse, so a
game built by ``scaled`` stands for every edge with ``copies`` parallel
arcs, placed all or none.  Parallel copies are interchangeable, so deleting
{u, v} drops any u-v arcs and refunds their tails' pebbles.  For b > 0,
``scaled`` builds the elongated game instead.

The game is a capacitated augmenting-path search (Gabow & Westermann,
"Forests, frames, and games"): an arc's multiplicity is its capacity, so
one path moves as many pebbles as its bottleneck multiplicity allows.  An
edge gathers l + copies pebbles in one go and only then places its copies,
so a refused edge places nothing.  ``sweep`` inserts a whole edge list in
one loop and stops at the first refusal; ``insert`` is a sweep of one edge.

Searches are breadth-first, so a gather reaches the nearest pebble and
reverses a shortest path, and each search costs only what it reaches: a
pebble one arc away moves by a scan of the end's out-arcs (one-hop move),
an end with no out-arc stalls without a search, and an end whose search
stalled is not searched again within the same gather (a stalled end stays
stalled; ``_gather`` has the proof).  The regions of the two stalled
searches, joined, are ``last_region``: no scan of all n vertices.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

# a mark above every stamp a game reaches (a stamp past it only ends burials),
# and the largest int CPython keeps in one digit, which compares fastest
_BURIED = (1 << 30) - 1


def _scaled_counts(a: Fraction | int, b: Fraction | int) -> tuple[int, int, int, int]:
    """(k, l, copies, room) of the game deciding (a, b)-sparsity, rational a > 0.

    With q the least common denominator, each edge becomes q parallel arcs
    in the integral (a*q, -b*q) game.  For b > 0 that is the elongated
    (a*q, 0) game (Whiteley): the graph is (a, b)-sparse iff its blow-up's
    nullity in the (a*q, 0) count matroid, the copies the game leaves
    unplaced, is at most its ``room`` b*q.
    """
    # integer arithmetic on the numerators and denominators ints have too
    ad, bd = a.denominator, b.denominator
    q = lcm(ad, bd)
    k, l = a.numerator * (q // ad), -b.numerator * (q // bd)
    return (k, l, q, 0) if l > 0 else (k, 0, q, -l)


class PebbleGame:
    """Inserts may still leave ``room`` copies unplaced; ``unplaced`` they have.

    Room is 0 unless ``scaled`` built the elongated game for b > 0.  Spent
    room is never refunded: ``delete`` keeps its all-copies contract, so it
    raises ValueError once a copy went unplaced.
    """

    def __init__(self, n: int, k: int, l: int, copies: int = 1):
        if k < 1 or not (0 <= l < 2 * k):
            raise ValueError(f"pebble game needs k >= 1 and 0 <= l < 2k, got ({k}, {l})")
        self.n = n
        self.k = k
        self.l = l
        self.copies = copies
        self.room = 0
        self.unplaced = 0
        self.pebbles = [k] * n
        self.out: list[dict[int, int]] = [dict() for _ in range(n)]  # head -> arc count
        self.last_region: list[int] = []
        # timestamped search scratch space: no per-search allocation
        self._mark = [0] * n
        self._prev = [0] * n
        self._stamp = 0
        self._reached: list[int] = []  # the last stalled search's vertices
        self._stalled: list = []  # the last double stall's two search lists

    @classmethod
    def scaled(cls, n: int, a: Fraction | int, b: Fraction | int) -> "PebbleGame":
        """Game deciding (a, b)-sparsity of simple graphs, rational a > 0;
        ``_scaled_counts`` gives its numbers."""
        return cls._counted(n, *_scaled_counts(a, b))

    @classmethod
    def _counted(cls, n: int, k: int, l: int, copies: int, room: int) -> "PebbleGame":
        game = cls(n, k, l, copies)
        game.room = room
        return game

    # -- internals ----------------------------------------------------------

    def _collect(self, target: int, u: int, v: int, want: int) -> int:
        """Move up to ``want`` pebbles onto ``target`` along one directed path,
        searching past its out-neighbours: ``_gather`` has scanned them, and
        none but u or v holds a pebble.

        The search is breadth-first and stops at the first vertex other than
        u and v holding a pebble, so the path it reverses is a shortest one;
        the path carries min(want, that vertex's pebbles, its smallest arc
        multiplicity) pebbles, the count returned.  Its queue is also its
        visited list: on a stall (0) ``_reached`` holds every vertex reached
        from ``target``, ``target`` included.
        """
        pebbles = self.pebbles
        out = self.out
        self._stamp += 1
        stamp = self._stamp
        mark = self._mark
        prev = self._prev
        mark[target] = stamp
        queue = list(out[target])
        for y in queue:
            mark[y] = stamp
            prev[y] = target
        for x in queue:
            for y in out[x]:
                if mark[y] >= stamp:  # reached, or buried
                    continue
                mark[y] = stamp
                prev[y] = x
                if pebbles[y] and y != u and y != v:
                    break
                queue.append(y)
            else:
                continue
            break
        else:
            queue.append(target)
            self._reached = queue
            return 0
        found = y
        amount = pebbles[found]
        if amount > want:
            amount = want
        while amount > 1 and y != target:  # one pebble fits every arc
            x = prev[y]
            if out[x][y] < amount:
                amount = out[x][y]
            y = x
        y = found
        while y != target:
            x = prev[y]
            arcs = out[x]
            left = arcs[y] - amount
            if left:
                arcs[y] = left
            else:
                del arcs[y]
            back = out[y]
            back[x] = back.get(x, 0) + amount
            y = x
        pebbles[found] -= amount
        pebbles[target] += amount
        return amount

    def _gather(self, u: int, v: int, stop_at: int) -> int:
        """Collect pebbles onto {u, v} until they hold ``stop_at`` or both
        ends stall; returns their count.

        Each path moves its bottleneck: the fewest of the pebbles still
        wanted, the pebbles at its far end and its arcs' multiplicities.  On
        a double stall ``last_region`` holds everything reached from u or v,
        sorted, and ``_stalled`` the two ends' lists.  This is the loop
        behind gather_max; sweeps call it directly, so that timing or tracing
        gather_max does not also count every insert.

        A breadth-first search scans every out-neighbour of its start before
        it goes deeper, so the first such neighbour holding a pebble is the
        vertex it would stop at.  That one-hop move is made here, by one scan
        of the end's out-arcs; an end with no out-arc stalls here, its region
        itself; only a deeper search calls ``_collect``.

        Pebbles are collected onto u until u stalls, then onto v only: a
        stalled end stays stalled.  u's stalled region R is closed under
        out-arcs and holds no pebble outside {u, v}.  A path found from v
        therefore never enters R, since from R it could reach only vertices
        of R, never the pebble it ends at; and reversing a path changes the
        out-arcs of the path's own vertices only.  So R keeps its out-arcs
        and its pebbles, and a search from u would stall again on the same
        region: u's stalled list still holds it after v moved pebbles, and a
        double stall joins it with v's.
        """
        pebbles = self.pebbles
        out = self.out
        have = pebbles[u] + pebbles[v]
        reached = []
        for target in (u, v):
            arcs = out[target]
            while have < stop_at:
                for y in arcs:
                    got = pebbles[y]
                    if got and y != u and y != v:  # one-hop move
                        if got > stop_at - have:
                            got = stop_at - have
                        left = arcs[y]
                        if left > got:
                            arcs[y] = left - got
                        else:
                            got = left
                            del arcs[y]
                        back = out[y]
                        back[target] = back.get(target, 0) + got
                        pebbles[y] -= got
                        pebbles[target] += got
                        break
                else:
                    if not arcs:  # holds all k pebbles; its region is itself
                        reached.append((target,))
                        break
                    got = self._collect(target, u, v, stop_at - have)
                    if not got:
                        reached.append(self._reached)
                        break
                have += got
            else:
                return have
        self._stalled = reached
        self.last_region = sorted({*reached[0], *reached[1]})
        return have

    def _bury_free_regions(self) -> list:
        """Right after a refused insert, bury the stalled regions that hold
        no pebble and return them: searches skip them from now on.  Such a
        region is closed with slack 0, and in a game that only inserts it
        stays so: no path to a pebble passes through it, so no reversal
        changes its arcs, and an edge with one end inside takes every pebble
        from the other end.  Other vertices are still reached in the same
        order.  A buried out-neighbour of a search's start takes the stamp,
        which ends its burial."""
        pebbles, mark = self.pebbles, self._mark
        buried = [region for region in self._stalled if not any(map(pebbles.__getitem__, region))]
        for region in buried:
            for w in region:
                mark[w] = _BURIED
        return buried

    # -- public surface -----------------------------------------------------

    def gather_max(self, u: int, v: int, stop_at: int | None = None) -> int:
        """Largest pebble count collectible onto {u, v}; equals the minimum of
        k|U| - e(U) over vertex sets containing both (for the current edges).

        When the count reaches ``stop_at`` the gather aborts early (callers
        scanning for a minimum cannot improve on it anyway) and the region is
        not recorded.  Otherwise it runs to a double stall and ``last_region``
        holds the smallest vertex set attaining the returned minimum: the
        vertices reachable from {u, v}, which no orientation changes.
        """
        # {u, v} never holds more than 2k pebbles, so 2k + 1 is never reached
        return self._gather(u, v, 2 * self.k + 1 if stop_at is None else stop_at)

    def insertable(self, u: int, v: int) -> bool:
        """True iff ``insert`` would accept {u, v}; places nothing, spends no room.

        Pure with respect to the edge set; the orientation may shift, which
        is harmless.  On False, ``last_region`` holds the blocked vertex set.
        """
        if u == v:
            raise ValueError("loops are never sparse here")
        need = self.l + self.copies
        have = self.pebbles[u] + self.pebbles[v]
        return have >= need or need - self._gather(u, v, need) <= self.room

    def insert(self, u: int, v: int) -> bool:
        """Accept {u, v} if the edge set stays sparse: a sweep of one edge."""
        return self.sweep(((u, v),))

    def sweep(self, edges: Iterable[tuple[int, int]]) -> bool:
        """Insert the edges in order; False at the first one refused.

        One gather collects l + copies pebbles onto {u, v}, which is what
        placing the copies one at a time with l + 1 pebbles each demands of
        every vertex set through u and v; ends that already hold them need
        no gather.  Copies it falls short by stay unplaced, paid from
        ``room``; if the room cannot pay, the edge is refused, places
        nothing, ``last_region`` holds the blocked set, and the sweep stops.
        """
        pebbles, out, copies = self.pebbles, self.out, self.copies
        need = self.l + copies
        for u, v in edges:
            if u == v:
                raise ValueError("loops are never sparse here")
            place = copies
            if pebbles[u] + pebbles[v] < need:
                short = need - self._gather(u, v, need)
                if short > 0:
                    if short > self.room:
                        return False
                    self.room -= short
                    self.unplaced += short
                    place -= short
            from_u = pebbles[u] if pebbles[u] < place else place
            if from_u:
                pebbles[u] -= from_u
                arcs = out[u]
                arcs[v] = arcs.get(v, 0) + from_u
            if from_u < place:
                pebbles[v] -= place - from_u
                arcs = out[v]
                arcs[u] = arcs.get(u, 0) + place - from_u
        return True

    def delete(self, u: int, v: int) -> None:
        """Remove an accepted edge {u, v}: any ``copies`` arcs between u and v."""
        if self.unplaced:
            raise ValueError("delete needs a game that placed every copy; this one spent room")
        left = self.copies
        for tail, head in ((u, v), (v, u)):
            arcs = self.out[tail]
            dropped = min(left, arcs.get(head, 0))
            if dropped:
                if arcs[head] == dropped:
                    del arcs[head]
                else:
                    arcs[head] -= dropped
                self.pebbles[tail] += dropped
                left -= dropped
