"""Simple undirected graphs with stable edge ids, serialization, and generators.

Conventions used everywhere in this package:

* vertices are the integers 0..n-1;
* edges are unordered pairs, stored sorted as (u, v) with u < v;
* edge ids are dense 0..e-1 and assigned in lexicographic order of the
  sorted endpoint pairs, so identical edge sets always get identical ids
  (deterministic certificates depend on this);
* no self-loops, no parallel edges.

The generator families at the bottom build the graphs used as fixtures for
the partition counterexamples: disjoint unions of regular circulants, two
complete graphs glued at a vertex, and a ring of near-complete blocks.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property
from math import isqrt
from typing import Iterable, Iterator

from .errors import GraphFormatError


class _Frozen:
    """Base of the package's immutable values.

    A subclass names its two or more fields in ``_fields``, and its
    ``__init__`` stores them through ``object.__setattr__``, directly or by
    ``_Frozen.__init__``: assignment and deletion raise AttributeError.
    (Writing ``self.__dict__`` instead would slow every later attribute read
    of the instance.)  Instances are equal when they have the same class and
    equal fields, hash by their fields, and repr as ``Class(field=value,
    ...)``.  Pickle and copy restore the instance dict as it is.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a plain class attribute, not a method: called as self._values(self)
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Frozen):
    """Immutable simple graph.  ``edges[i]`` is the endpoint pair of edge id i."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for i in range(1, len(canon)):
            if canon[i] == canon[i - 1]:
                raise ValueError(f"parallel edge {canon[i]}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def e(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {pair: i for i, pair in enumerate(self.edges)}

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_index

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def induced_edge_count(self, vertices: Iterable[int]) -> int:
        vs = set(vertices)
        return sum(1 for u, v in self.edges if u in vs and v in vs)

    def induced_edge_ids(self, vertices: Iterable[int]) -> list[int]:
        vs = set(vertices)
        return [i for i, (u, v) in enumerate(self.edges) if u in vs and v in vs]

    def edge_subgraph(self, edge_ids: Iterable[int]) -> "Graph":
        """Subgraph keeping all n vertices and the given edges (ids reassigned).

        The ids must name distinct edges of this graph: a negative, too
        large or repeated id raises ValueError.  The host's pairs are
        canonical and sorted, so taking them in ascending id order already
        gives the subgraph's canonical edge list; nothing is checked or
        sorted again.
        """
        ids = sorted(edge_ids)
        e = len(self.edges)
        if ids and (ids[0] < 0 or ids[-1] >= e):
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise ValueError(f"edge id {bad} out of range for a host with e={e}")
        if len(set(ids)) < len(ids):
            bad = next(i for i, j in zip(ids, ids[1:]) if i == j)
            raise ValueError(f"edge id {bad} repeated")
        sub = object.__new__(Graph)
        object.__setattr__(sub, "n", self.n)
        object.__setattr__(sub, "edges", tuple([self.edges[i] for i in ids]))
        return sub

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.e})"


class VertexSet(_Frozen):
    """A subset of a host graph's vertices."""

    _fields = ("host", "ids")

    def __init__(self, host: Graph, ids: Iterable[int]):
        ids = frozenset(ids)
        for v in ids:
            if not (0 <= v < host.n):
                raise ValueError(f"vertex {v} out of range for host with n={host.n}")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.ids))

    def __contains__(self, v: int) -> bool:
        return v in self.ids

    def sorted(self) -> list[int]:
        return sorted(self.ids)

    def __repr__(self) -> str:
        return f"VertexSet({self.sorted()})"


class EdgeSet(_Frozen):
    """A subset of a host graph's edge ids, with set semantics."""

    _fields = ("host", "ids")

    def __init__(self, host: Graph, ids: Iterable[int]):
        ids = frozenset(ids)
        for i in ids:
            if not (0 <= i < host.e):
                raise ValueError(f"edge id {i} out of range for host with e={host.e}")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.ids))

    def __contains__(self, eid: int) -> bool:
        return eid in self.ids

    def sorted(self) -> list[int]:
        return sorted(self.ids)

    def pairs(self) -> list[tuple[int, int]]:
        return [self.host.edges[i] for i in self.sorted()]

    def spanned_vertices(self) -> VertexSet:
        verts = set()
        for i in self.ids:
            u, v = self.host.edges[i]
            verts.add(u)
            verts.add(v)
        return VertexSet(self.host, verts)

    def union(self, other: "EdgeSet") -> "EdgeSet":
        self._check_host(other)
        return EdgeSet(self.host, self.ids | other.ids)

    def difference(self, other: "EdgeSet") -> "EdgeSet":
        self._check_host(other)
        return EdgeSet(self.host, self.ids - other.ids)

    def plus(self, eid: int) -> "EdgeSet":
        return EdgeSet(self.host, self.ids | {eid})

    def minus(self, eid: int) -> "EdgeSet":
        return EdgeSet(self.host, self.ids - {eid})

    def _check_host(self, other: "EdgeSet") -> None:
        if other.host is not self.host and other.host != self.host:
            raise ValueError("edge sets live on different hosts")

    def __repr__(self) -> str:
        return f"EdgeSet({self.sorted()})"


def full_edge_set(g: Graph) -> EdgeSet:
    return EdgeSet(g, range(g.e))


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of x and y under y's root; False if already merged."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


# ---------------------------------------------------------------------------
# graph6 (standard ASCII encoding; short and long vertex-count headers)
# ---------------------------------------------------------------------------

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047
_G6_MAX_HUGE = 68719476735


def _parse_graph6_header(data: bytes, at: int) -> tuple[int, int]:
    """Return (n, index of first adjacency byte) for the header at ``at``."""
    if len(data) <= at:
        raise GraphFormatError("empty graph6 string", at)
    c = data[at]
    if c != 126:
        if not (63 <= c <= 126):
            raise GraphFormatError(f"header byte {c} outside graph6 range 63..126", at)
        return c - 63, at + 1
    # long form: '~' then 3 bytes; huge form: '~~' then 6 bytes
    if len(data) >= at + 2 and data[at + 1] == 126:
        raw, start = data[at + 2 : at + 8], at + 2
        if len(raw) < 6:
            raise GraphFormatError("truncated huge-form vertex count", len(data))
    else:
        raw, start = data[at + 1 : at + 4], at + 1
        if len(raw) < 3:
            raise GraphFormatError("truncated long-form vertex count", len(data))
    n = 0
    for k, byte in enumerate(raw):
        if not (63 <= byte <= 126):
            raise GraphFormatError(
                f"vertex-count byte {byte} outside graph6 range 63..126", start + k
            )
        n = (n << 6) | (byte - 63)
    return n, start + len(raw)


def parse_graph6(text: str | bytes) -> Graph:
    """Decode a graph6 string into a Graph.

    Bits cover the upper triangle column by column: (0,1), (0,2), (1,2),
    (0,3), ...; each byte carries six bits, most significant first, offset
    by 63.  Errors name the offending byte offset.  Each adjacency byte is
    read once: it is range-checked, and each of its set bits is mapped
    straight to its pair.
    """
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            # every character before the first non-ASCII one is a single byte
            raise GraphFormatError(
                f"non-ASCII character {text[exc.start]!r}", exc.start
            ) from None
    else:
        data = bytes(text)
    data = data.rstrip(b"\r\n")
    n, pos = _parse_graph6_header(data, 10 if data.startswith(b">>graph6<<") else 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) < nbytes:
        raise GraphFormatError(
            f"truncated adjacency bits: need {nbytes} bytes, got {len(body)}",
            len(data),
        )
    if len(body) > nbytes:
        raise GraphFormatError("trailing bytes after adjacency bits", pos + nbytes)
    edges = []
    for at, byte in enumerate(body):
        x = byte - 63
        if not 0 <= x <= 63:
            raise GraphFormatError(
                f"adjacency byte {byte} outside graph6 range 63..126", pos + at
            )
        top = 6 * at + 5  # index of the bit x holds at 1 << 0
        while x:
            low = x & -x
            x ^= low
            bit = top - low.bit_length() + 1
            j = (isqrt(8 * bit + 1) + 1) >> 1  # column j: C(j, 2) <= bit < C(j+1, 2)
            edges.append((bit - j * (j - 1) // 2, j))
    # the low 6*nbytes - nbits bits of the last byte pad the triangle
    if nbytes and (body[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise GraphFormatError("nonzero padding bit", pos + nbytes - 1)
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical graph6 string (inverse of parse_graph6)."""
    n = g.n
    if n > _G6_MAX_HUGE:
        raise ValueError(f"graph6 supports at most {_G6_MAX_HUGE} vertices")
    out = bytearray()
    if n <= _G6_MAX_SHORT:
        out.append(63 + n)
    elif n <= _G6_MAX_LONG:
        out.append(126)
        out.extend(63 + ((n >> s) & 63) for s in (12, 6, 0))
    else:
        out.extend((126, 126))
        out.extend(63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0))
    adj = g.adjacency
    acc = 0
    nb = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if i in adj[j] else 0)
            nb += 1
            if nb == 6:
                out.append(63 + acc)
                acc, nb = 0, 0
    if nb:
        out.append(63 + (acc << (6 - nb)))
    return out.decode("ascii")


# ---------------------------------------------------------------------------
# plain edge-list text format
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\S+")
_HEADER = re.compile(r"\s*n *=[ \t]*")  # up to the vertex count of "n = <count>"


def parse_edgelist(text: str) -> Graph:
    """Parse lines of "u v" pairs; an optional first line "n = <count>".

    Vertex count defaults to the largest index + 1.  Duplicate edges,
    self-loops, and non-integer tokens are rejected.  Errors carry the
    1-based line and the offset in ``text`` of the offending token (the byte
    offset, for ASCII input).
    """
    declared_n = None
    first = True
    pairs = []
    seen = set()
    max_v = -1
    start = 0  # offset of the current line in ``text``
    for lineno, raw in enumerate(text.splitlines(keepends=True), 1):
        at = start
        start += len(raw)
        tokens = [(at + m.start(), m.group()) for m in _TOKEN.finditer(raw)]
        if not tokens:
            continue
        header = _HEADER.match(raw) if first else None
        first = False
        if header:
            rhs = raw[header.end() :].strip()
            if not rhs.isdigit():
                raise GraphFormatError(
                    f"invalid vertex count {rhs!r} in header", at + header.end(), line=lineno
                )
            declared_n = int(rhs)
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"expected 'u v', got {raw.strip()!r}", tokens[0][0], line=lineno)
        ends = []
        for pos, tok in tokens:
            try:
                w = int(tok)
            except ValueError:
                raise GraphFormatError(f"non-integer token {tok!r}", pos, line=lineno) from None
            if w < 0:
                raise GraphFormatError(f"negative vertex {w}", pos, line=lineno)
            if declared_n is not None and w >= declared_n:
                raise GraphFormatError(f"vertex {w} exceeds declared n={declared_n}", pos, line=lineno)
            ends.append(w)
        u, v = ends
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", tokens[0][0], line=lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"duplicate edge {key}", tokens[0][0], line=lineno)
        seen.add(key)
        pairs.append(key)
        max_v = max(max_v, u, v)
    n = declared_n if declared_n is not None else max_v + 1
    return Graph(n, pairs)


def write_edgelist(g: Graph) -> str:
    lines = [f"n = {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def complete_graph(t: int) -> Graph:
    if t < 1:
        raise ValueError("complete graph needs t >= 1")
    return Graph(t, [(i, j) for j in range(t) for i in range(j)])


def circulant(n: int, connection_radius: int) -> Graph:
    """Vertex i adjacent to i +- 1, ..., i +- radius (mod n); 2*radius-regular.

    Requires n >= 2*radius + 1, otherwise offsets collide into parallel edges.
    """
    r = connection_radius
    if r < 1:
        raise ValueError("connection radius must be >= 1")
    if n < 2 * r + 1:
        raise ValueError(f"circulant needs n >= {2 * r + 1} to stay simple, got n={n}")
    edges = set()
    for i in range(n):
        for d in range(1, r + 1):
            j = (i + d) % n
            edges.add((i, j) if i < j else (j, i))
    return Graph(n, edges)


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    offset = 0
    edges = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


def glue(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Disjoint union of g1 and g2 with v1 identified to v2.

    v(G) = v(g1) + v(g2) - 1 and e(G) = e(g1) + e(g2); identification across
    disjoint copies cannot create a parallel edge, but the guard stays.
    """
    if not (0 <= v1 < g1.n and 0 <= v2 < g2.n):
        raise ValueError("glue vertices out of range")
    n = g1.n + g2.n - 1

    def map2(u: int) -> int:
        if u == v2:
            return v1
        return g1.n + (u if u < v2 else u - 1)

    edges = list(g1.edges)
    seen = set(edges)
    for u, v in g2.edges:
        a, b = map2(u), map2(v)
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise ValueError(f"gluing would create parallel edge {key}")
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def gen_counterexample_disconnected(a1: int, a2: int, n: int, t: int) -> Graph:
    """t disjoint copies of a 2(a1+a2)-regular circulant on n vertices.

    Each copy is (a1+a2, 0)-tight, so the union is (a1+a2, 0)-sparse, yet for
    t > 1 it admits no split into an (a1, -1)-sparse and an (a2, 1)-sparse part.
    """
    if a1 < 1 or a2 < 1:
        raise ValueError("a1 and a2 must be >= 1")
    if t < 2:
        raise ValueError("need t >= 2 copies")
    radius = a1 + a2
    if n < 2 * radius + 1:
        raise ValueError(f"need n >= {2 * radius + 1} for a 2*{radius}-regular circulant")
    return disjoint_union([circulant(n, radius)] * t)


def gen_counterexample_glued_trees(a: int) -> Graph:
    """Two copies of K_{4a} glued at one vertex.

    K_{4a} decomposes into 2a edge-disjoint Hamiltonian paths (spanning
    trees), so each copy is (2a, -2a)-tight and so is the glued result; for
    any 1 <= t < a it does not split into (a, -t)- and (a, t-2a)-sparse parts.
    """
    if a < 2:
        raise ValueError("need a >= 2 (so some 1 <= t < a exists)")
    h = complete_graph(4 * a)
    return glue(h, 0, h, 0)


def gen_counterexample_ring(a: int, t: int) -> Graph:
    """Ring of t blocks, each K_{2a+2} minus one edge, chained at the missing edge.

    Block i has junction vertices J_i and J_{i+1 mod t}; the removed edge is
    exactly the junction pair, and consecutive blocks share one junction.
    The result is (a+1, -(a+2))-sparse but has no partition into a forest and
    an (a, -(a+1))-sparse part.
    """
    if a < 1:
        raise ValueError("need a >= 1")
    if t < a + 2:
        raise ValueError(f"need t >= a + 2 = {a + 2} blocks, got {t}")
    block_order = 2 * a + 2
    privates = block_order - 2
    n = t + t * privates
    edges = []
    for i in range(t):
        members = [i, (i + 1) % t]
        base = t + i * privates
        members.extend(range(base, base + privates))
        for x in range(block_order):
            for y in range(x + 1, block_order):
                if x == 0 and y == 1:
                    continue  # the removed edge: both endpoints are junctions
                u, v = members[x], members[y]
                edges.append((u, v) if u < v else (v, u))
    return Graph(n, edges)
