"""Integer max-flow / min-cut and the edge-vs-vertex selection network.

The selection (maximum closure) network decides questions of the shape
"which vertex set U maximizes q*e(G[U]) - p*|U|": one node per edge with a
source arc of capacity q, infinite arcs from each edge node to its two
endpoint nodes, and vertex-to-sink arcs of capacity p.  The maximum over all
U (the empty set included) equals total edge weight minus the min cut, and
the vertices reachable from the source in the residual network form the
minimal maximizing set.  All capacities are integers, so everything here is
exact.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


class Dinic:
    """Plain Dinic max-flow on integer capacities; deterministic arc order."""

    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            dq = deque([s])
            while dq:
                u = dq.popleft()
                for idx in self.head[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        dq.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    idx = self.head[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got > 0:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 62)
                if pushed == 0:
                    break
                flow += pushed

    def residual_reach(self, root: int) -> list[bool]:
        """Nodes reachable from ``root`` in the residual network."""
        seen = [False] * self.n
        seen[root] = True
        dq = deque([root])
        while dq:
            u = dq.popleft()
            for idx in self.head[u]:
                v = self.to[idx]
                if self.cap[idx] > 0 and not seen[v]:
                    seen[v] = True
                    dq.append(v)
        return seen


def selection_max(
    n: int,
    edges: Sequence[tuple[int, int]],
    p: int,
    q: int,
    free_vertices: Iterable[int] = (),
) -> tuple[int, list[int]]:
    """Maximize q*e(G[U]) - p*|U without free_vertices| over all U (empty allowed).

    Returns (max value, minimal maximizer), the maximizer as a sorted vertex
    list.  Vertices in ``free_vertices`` incur no cost, which forces them
    into every maximizer whenever their inclusion is not strictly harmful;
    callers use that to restrict the search to sets containing a prescribed
    edge.
    """
    free = set(free_vertices)
    e = len(edges)
    source = 0
    sink = 1 + e + n
    net = Dinic(2 + e + n)
    inf = q * e + p * n + 1
    total = q * e
    for i, (u, v) in enumerate(edges):
        net.add_edge(source, 1 + i, q)
        net.add_edge(1 + i, 1 + e + u, inf)
        net.add_edge(1 + i, 1 + e + v, inf)
    for v in range(n):
        if v not in free:
            net.add_edge(1 + e + v, sink, p)
    flow = net.max_flow(source, sink)
    value = total - flow
    reach = net.residual_reach(source)
    # free vertices are costless: include them by convention
    return value, sorted(free.union(v for v in range(n) if reach[1 + e + v]))
