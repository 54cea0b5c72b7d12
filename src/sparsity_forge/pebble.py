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
one path found by a DFS moves as many pebbles as its bottleneck
multiplicity allows.  An insert gathers l + copies pebbles in one go and
only then places its copies, so a refused insert places nothing.

Two shortcuts keep every move the DFS would make and skip its cost: a
pebble one arc away moves by a scan of the target's out-arcs (one-hop
move), and an end whose search stalled is not searched again within the
same gather (a stalled end stays stalled; ``_gather`` has the proof).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


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
    room is never refunded: ``delete`` and ``insertable`` keep their
    all-copies contract, so ``delete`` raises ValueError once a copy went
    unplaced, and no caller asks ``insertable`` of such a game.
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
        # timestamped DFS scratch space: no per-search allocation
        self._mark = [0] * n
        self._prev = [0] * n
        self._stamp = 0

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
        """Move up to ``want`` pebbles onto ``target`` along one directed path.

        The DFS stops at the first vertex other than u and v holding a
        pebble; the path then carries min(want, that vertex's pebbles, its
        smallest arc multiplicity) pebbles, the count returned.  On a stall
        (0) the current stamp marks the region reached from ``target``.

        One-hop move: a DFS scans every out-neighbour of ``target`` before
        it goes deeper, so the first such neighbour holding a pebble is the
        vertex it would stop at.  That case is handled by one scan of
        ``out[target]``, with no stamp, stack or ``prev``; the deeper search
        starts from the state the DFS reaches after that scan.
        """
        pebbles = self.pebbles
        out = self.out
        arcs = out[target]
        for y in arcs:
            amount = pebbles[y]
            if amount and y != u and y != v:
                if amount > want:
                    amount = want
                left = arcs[y]
                if left > amount:
                    arcs[y] = left - amount
                else:
                    amount = left
                    del arcs[y]
                back = out[y]
                back[target] = back.get(target, 0) + amount
                pebbles[y] -= amount
                pebbles[target] += amount
                return amount
        self._stamp += 1
        stamp = self._stamp
        mark = self._mark
        mark[target] = stamp
        if not arcs:  # holds all k pebbles; its region is itself
            return 0
        prev = self._prev
        for y in arcs:
            mark[y] = stamp
            prev[y] = target
        stack = list(arcs)
        found = -1
        while stack:
            x = stack.pop()
            for y in out[x]:
                if mark[y] == stamp:
                    continue
                mark[y] = stamp
                prev[y] = x
                if pebbles[y] > 0 and y != u and y != v:
                    found = y
                    stack.clear()
                    break
                stack.append(y)
        if found < 0:
            return 0
        amount = pebbles[found]
        if amount > want:
            amount = want
        y = found
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
        a double stall ``last_region`` holds everything reached from u or v.
        This is the loop behind gather_max; insert calls it directly, so that
        timing or tracing gather_max does not also count every insert.

        Pebbles are collected onto u until u stalls, then onto v only: a
        stalled end stays stalled.  u's stalled region R is closed under
        out-arcs and holds no pebble outside {u, v}.  A path found from v
        therefore never enters R, since from R it could reach only vertices
        of R, never the pebble it ends at; and reversing a path changes the
        out-arcs of the path's own vertices only.  So R keeps its out-arcs
        and its pebbles, and u would stall again on the same region.  After
        v moved pebbles, v's searches have overwritten part of R's marks, so
        on a double stall u is searched once more to mark R again; that
        search moves nothing.
        """
        pebbles = self.pebbles
        have = pebbles[u] + pebbles[v]
        while have < stop_at:
            got = self._collect(u, u, v, stop_at - have)
            if not got:
                break
            have += got
        else:
            return have
        stamp_u = self._stamp
        v_moved = False
        while have < stop_at:
            got = self._collect(v, u, v, stop_at - have)
            if not got:
                break
            have += got
            v_moved = True
        else:
            return have
        stamp_v = self._stamp
        if v_moved:
            self._collect(u, u, v, stop_at - have)
            stamp_u = self._stamp
        mark = self._mark
        self.last_region = [
            w for w in range(self.n) if mark[w] == stamp_u or mark[w] == stamp_v
        ]
        return have

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
        """True iff accepting {u, v} keeps the edge set (k, l)-sparse.

        Pure with respect to the edge set; the orientation may shift, which
        is harmless.  On False, ``last_region`` holds the blocked vertex set.
        """
        if not self.insert(u, v):
            return False
        self.delete(u, v)
        return True

    def insert(self, u: int, v: int) -> bool:
        """Accept {u, v} if the edge set stays sparse.

        One gather collects l + copies pebbles onto {u, v}, which is what
        placing the copies one at a time with l + 1 pebbles each demands of
        every vertex set through u and v.  Copies it falls short by stay
        unplaced, paid from ``room``; if the room cannot pay, the insert is
        refused, places nothing, and ``last_region`` holds the blocked set.
        """
        if u == v:
            raise ValueError("loops are never sparse here")
        pebbles, out, copies = self.pebbles, self.out, self.copies
        need = self.l + copies
        have = pebbles[u] + pebbles[v]
        # ends that already hold enough pebbles need no gather
        short = need - (have if have >= need else self._gather(u, v, need))
        if short > 0:
            if short > self.room:
                return False
            self.room -= short
            self.unplaced += short
            copies -= short
        from_u = pebbles[u] if pebbles[u] < copies else copies
        if from_u:
            pebbles[u] -= from_u
            out[u][v] = out[u].get(v, 0) + from_u
        if from_u < copies:
            pebbles[v] -= copies - from_u
            out[v][u] = out[v].get(u, 0) + copies - from_u
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
