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
{u, v} drops any u-v arcs and refunds their tails' pebbles.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class PebbleGame:
    def __init__(self, n: int, k: int, l: int, copies: int = 1):
        if k < 1 or not (0 <= l < 2 * k):
            raise ValueError(f"pebble game needs k >= 1 and 0 <= l < 2k, got ({k}, {l})")
        self.n = n
        self.k = k
        self.l = l
        self.copies = copies
        self.pebbles = [k] * n
        self.out: list[dict[int, int]] = [dict() for _ in range(n)]  # head -> arc count
        self.last_region: list[int] = []
        # timestamped DFS scratch space: no per-search allocation
        self._mark = [0] * n
        self._prev = [0] * n
        self._stamp = 0
        self._seen_stamp = 0

    @classmethod
    def scaled(cls, n: int, a: Fraction | int, b: Fraction | int) -> "PebbleGame":
        """Game deciding (a, b)-sparsity of simple graphs, rational a > 0 and b <= 0.

        With q the least common denominator, each edge becomes q parallel
        arcs in the integral (a*q, -b*q) game.
        """
        a, b = Fraction(a), Fraction(b)
        q = lcm(a.denominator, b.denominator)
        # integer arithmetic: is_sparse builds one of these per decision
        k, l = a.numerator * (q // a.denominator), -b.numerator * (q // b.denominator)
        return cls(n, k, l, copies=q)

    # -- internals ----------------------------------------------------------

    def _collect_one(self, target: int, exclude: tuple[int, int]) -> bool:
        """Move one pebble onto ``target`` by reversing a directed path.

        Pebbles on ``exclude`` vertices are off limits (already counted).
        On failure the visit stamps identify the region for later assembly.
        """
        self._stamp += 1
        stamp = self._stamp
        mark = self._mark
        prev = self._prev
        pebbles = self.pebbles
        out = self.out
        mark[target] = stamp
        stack = [target]
        found = -1
        while stack:
            x = stack.pop()
            for y in out[x]:
                if mark[y] == stamp:
                    continue
                mark[y] = stamp
                prev[y] = x
                if pebbles[y] > 0 and y != exclude[0] and y != exclude[1]:
                    found = y
                    stack.clear()
                    break
                stack.append(y)
        self._seen_stamp = stamp
        if found < 0:
            return False
        y = found
        while y != target:
            x = prev[y]
            self._reverse_arc(x, y)
            y = x
        pebbles[found] -= 1
        pebbles[target] += 1
        return True

    def _region_from(self, stamp_a: int, stamp_b: int) -> list[int]:
        mark = self._mark
        return sorted(
            v for v in range(self.n) if mark[v] == stamp_a or mark[v] == stamp_b
        )

    def _drop_arc(self, x: int, y: int) -> None:
        cnt = self.out[x][y]
        if cnt == 1:
            del self.out[x][y]
        else:
            self.out[x][y] = cnt - 1

    def _reverse_arc(self, x: int, y: int) -> None:
        self._drop_arc(x, y)
        self.out[y][x] = self.out[y].get(x, 0) + 1

    def _gather(self, u: int, v: int, stop_at: int) -> int:
        # gather_max's loop; insert calls it directly, so that timing or
        # tracing gather_max does not also count every insert
        pebbles = self.pebbles
        while pebbles[u] + pebbles[v] < stop_at:
            if self._collect_one(u, (u, v)):
                continue
            su = self._seen_stamp
            if self._collect_one(v, (u, v)):
                continue
            self.last_region = self._region_from(su, self._seen_stamp)
            break
        return pebbles[u] + pebbles[v]

    def gather_max(self, u: int, v: int, stop_at: int | None = None) -> int:
        """Largest pebble count collectible onto {u, v}; equals the minimum of
        k|U| - e(U) over vertex sets containing both (for the current edges).

        When the count reaches ``stop_at`` the gather aborts early (callers
        scanning for a minimum cannot improve on it anyway) and the region is
        not recorded.  Otherwise it runs to a double stall and ``last_region``
        holds a reachability-closed set attaining the returned minimum.
        """
        # {u, v} never holds more than 2k pebbles, so 2k + 1 is never reached
        return self._gather(u, v, 2 * self.k + 1 if stop_at is None else stop_at)

    def _remove(self, u: int, v: int, count: int) -> None:
        for _ in range(count):
            tail, head = (u, v) if v in self.out[u] else (v, u)
            self._drop_arc(tail, head)
            self.pebbles[tail] += 1

    # -- public surface -----------------------------------------------------

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
        """Accept {u, v} as ``copies`` parallel arcs, all or none, if the edge
        set stays sparse.  On False, ``last_region`` holds the blocked set."""
        if u == v:
            raise ValueError("loops are never sparse here")
        for placed in range(self.copies):
            if self._gather(u, v, self.l + 1) <= self.l:
                self._remove(u, v, placed)
                return False
            tail, head = (u, v) if self.pebbles[u] > 0 else (v, u)
            self.pebbles[tail] -= 1
            self.out[tail][head] = self.out[tail].get(head, 0) + 1
        return True

    def delete(self, u: int, v: int) -> None:
        """Remove an accepted edge {u, v}: any ``copies`` arcs between u and v."""
        self._remove(u, v, self.copies)
