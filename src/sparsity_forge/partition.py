"""Two-matroid union partitioning with augmenting paths and deficiency
certificates.

The driver maintains a coloring of already-placed edges, one independent set
per matroid.  A new edge that fits neither side starts a breadth-first search
in the exchange digraph: an arc goes from a blocked element y to each member
x of y's fundamental circuit in the side y wants to enter (displacing x would
admit y).  Reaching an element that fits directly into the opposite side
yields a shortest augmenting chain, which is applied as a batch of deletes
and re-inserts; shortest chains never break independence.

If the search exhausts, the visited elements B certify impossibility:
every visited element's circuit stayed inside B, so each side's members
within B span B, giving r1(B) + r2(B) = |B| - 1 < |B|.  The certificate is
re-verified through the public greedy rank before being returned.

The decomposition's split at s = forest_slack(k, eps) = 1 needs no union:
_oriented_split reads a forest and a (k, 0)-sparse rest off one (k+1, 0)
pebble game's orientation.  partition_forest_plus and partition_sparse
keep the union's split, which is their contract.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .errors import NotSparseError, TheoremViolationError, VerificationError
from .graphs import EdgeSet, Graph, _Frozen, _greedy_forest
from .matroid import CountMatroidOracle, engine_for, make_oracle
from .pebble import PebbleGame
from .rationals import format_rational
from .sparsity import _params, _Plan, _plan, _sweep_order, is_sparse


class PartitionResult(_Frozen):
    """Either a full 2-coloring or a deficiency certificate B with
    r1(B) + r2(B) < |B|."""

    _fields = ("success", "e1", "e2", "deficiency", "r1", "r2")

    def __init__(
        self,
        success: bool,
        e1: EdgeSet | None = None,
        e2: EdgeSet | None = None,
        deficiency: EdgeSet | None = None,
        r1: int | None = None,
        r2: int | None = None,
    ):
        _Frozen.__init__(self, success, e1, e2, deficiency, r1, r2)

    def to_json_dict(self) -> dict:
        if self.success:
            return {"outcome": "success", "e1": self.e1.sorted(), "e2": self.e2.sorted()}
        return {
            "outcome": "deficiency",
            "B": self.deficiency.sorted(),
            "r1": self.r1,
            "r2": self.r2,
        }


def matroid_union_partition(
    g: Graph,
    m1: CountMatroidOracle,
    m2: CountMatroidOracle,
    minimize_certificate: bool = False,
) -> PartitionResult:
    """Partition E(g) into sets independent in m1 and m2, or certify failure.

    Edges enter in ascending id order; the exchange search is breadth first,
    so applied chains are shortest (ties resolved by ascending ids).  On
    success both sides are re-verified through the sparsity engine; on
    deficiency the certificate is re-verified by greedy rank.  The optional
    minimization pass shrinks B while the rank deficit persists.
    """
    if m1.host != g or m2.host != g:
        raise ValueError("oracles must be built over the same host graph")
    engines = {1: engine_for(m1), 2: engine_for(m2)}
    color: dict[int, int] = {}
    for eid in range(g.e):
        u, v = g.edges[eid]
        circuit1 = engines[1].insert(eid, u, v)
        if circuit1 is None:
            color[eid] = 1
            continue
        circuit2 = engines[2].insert(eid, u, v)
        if circuit2 is None:
            color[eid] = 2
            continue
        chain, visited = _augment(g, engines, color, eid, (circuit1, circuit2))
        if chain is None:
            return _deficiency_result(g, m1, m2, visited, minimize_certificate)
        _apply_chain(g, engines, color, chain)
    ids1 = sorted(e for e, c in color.items() if c == 1)
    ids2 = sorted(e for e, c in color.items() if c == 2)
    e1, e2 = EdgeSet(g, ids1), EdgeSet(g, ids2)
    if not m1.is_independent(e1) or not m2.is_independent(e2):
        raise VerificationError("augmentation produced a dependent side; this is a bug")
    return PartitionResult(success=True, e1=e1, e2=e2)


def _augment(g, engines, color, start, start_circuits):
    """BFS the exchange digraph from an unplaced edge, whose circuits in the
    two sides (from the refused inserts) are ``start_circuits``.

    Returns (chain, visited): chain = [start, x1, ..., xt] where each element
    displaces the next and xt finally fits the opposite side directly, or
    chain = None when no augmenting path exists.
    """
    other = {1: 2, 2: 1}
    visited = {start}
    pred: dict[int, int] = {}
    queue: deque[int] = deque()
    for circuit in start_circuits:
        for x in sorted(circuit):
            if x not in visited:
                visited.add(x)
                pred[x] = start
                queue.append(x)
    while queue:
        y = queue.popleft()
        circuit = engines[other[color[y]]].circuit(*g.edges[y])
        if circuit is None:
            chain = [y]
            while chain[-1] != start:
                chain.append(pred[chain[-1]])
            chain.reverse()
            return chain, visited
        for x in sorted(circuit):
            if x not in visited:
                visited.add(x)
                pred[x] = y
                queue.append(x)
    return None, visited


def _apply_chain(g, engines, color, chain):
    """Shift every chain element one side over; the head takes the freed slot."""
    other = {1: 2, 2: 1}
    moves = []  # (eid, old color or None, new color)
    for x in chain[1:]:
        moves.append((x, color[x], other[color[x]]))
    moves.append((chain[0], None, color[chain[1]]))
    for eid, old, _ in moves:
        if old is not None:
            engines[old].delete(eid)
    for eid, _, new in reversed(moves):
        u, v = g.edges[eid]
        if engines[new].insert(eid, u, v) is not None:
            raise VerificationError("exchange chain application failed; this is a bug")
        color[eid] = new


def _deficiency_result(g, m1, m2, visited, minimize):
    b = EdgeSet(g, visited)
    if minimize:
        b = _minimize_deficiency(g, m1, m2, b)
    r1, r2 = m1.rank(b), m2.rank(b)
    if r1 + r2 >= len(b):
        raise VerificationError("deficiency certificate failed greedy-rank re-verification")
    return PartitionResult(success=False, deficiency=b, r1=r1, r2=r2)


def _minimize_deficiency(g, m1, m2, b: EdgeSet) -> EdgeSet:
    """Drop edges while the rank deficit survives; result is removal-minimal."""
    improved = True
    while improved:
        improved = False
        for eid in b.sorted():
            smaller = b.minus(eid)
            if not smaller.ids:
                continue
            if m1.rank(smaller) + m2.rank(smaller) < len(smaller):
                b = smaller
                improved = True
                break
    return b


def partition_sparse(
    g: Graph,
    a1: int,
    b1: int,
    a2: int,
    b2: int,
    minimize_certificate: bool = False,
) -> PartitionResult:
    """Split an (a1+a2, b1+b2)-sparse graph into (a1, b1)- and (a2, b2)-sparse parts.

    Success is guaranteed when both slacks are in [-ai, 0] or both are >= 0;
    other regime-valid parameters run the same machinery and may return a
    deficiency certificate.  A host that fails the combined sparsity bound
    raises NotSparseError carrying the refuting certificate.
    """
    m1 = make_oracle(g, a1, b1)  # parameter validation precedes the data checks
    m2 = make_oracle(g, a2, b2)
    cert = is_sparse(g, _params(a1 + a2, b1 + b2))
    if not cert.sparse:
        raise NotSparseError(
            f"input is not ({a1 + a2}, {b1 + b2})-sparse", certificate=cert
        )
    return matroid_union_partition(g, m1, m2, minimize_certificate=minimize_certificate)


def partition_forest_plus(g: Graph, k: int, eps: Fraction | int) -> PartitionResult:
    """Split a (k+eps, 0)-sparse graph into a forest and a (k, 1-s)-sparse part,
    where s = forest_slack(k, eps).  Guaranteed total: a deficiency on a
    certified input would contradict the guarantee and raises loudly.

    The split is the one matroid_union_partition returns for the (1, -1)
    and (k, 1-s) oracles; for k >= 2 and eps <= 1/2 it is usually found
    without the union (see _forest_plus).
    """
    eps = eps if isinstance(eps, Fraction) else Fraction(eps)
    if not isinstance(k, int) or k < 1 or not (0 <= eps < 1):
        raise ValueError("need integral k >= 1 and 0 <= eps < 1")
    return _forest_plus(g, _plan(k + eps))


def _gate(g: Graph, plan: _Plan) -> None:
    """Raise NotSparseError, with its certificate, unless g is (m, 0)-sparse."""
    cert = is_sparse(g, plan.gate)
    if not cert.sparse:
        raise NotSparseError(
            f"input is not ({format_rational(plan.gate.a)}, 0)-sparse", certificate=cert
        )


def _forest_plus(g: Graph, plan: _Plan) -> PartitionResult:
    """partition_forest_plus at the m of ``plan``, which has k >= 1."""
    _gate(g, plan)
    return _split(g, plan)


def _split(g: Graph, plan: _Plan) -> PartitionResult:
    """_forest_plus on a host that has already passed ``plan.gate``.

    Where ``plan.forest_first`` holds, the greedy spanning forest F0 in
    ascending id order is taken first, and its complement R0 is swept once
    at (k, 1-s).  If R0 is independent, (F0, R0) is exactly what the union
    returns: the union places edges in ascending id order, side 1 first, so
    side 1 takes F0's edges; every other edge fits side 2, a subset of R0,
    so no exchange chain ever runs.  If R0 is dependent, the union runs as
    on every other plan.
    """
    k, s = plan.k, plan.s
    m1 = make_oracle(g, 1, -1)
    m2 = make_oracle(g, k, 1 - s)
    if plan.forest_first:
        forest, rest = _greedy_forest(g)
        e1, e2 = EdgeSet(g, forest), EdgeSet(g, rest)
        if m2.is_independent(e2):
            if not m1.is_independent(e1):
                raise VerificationError("the greedy forest has a cycle; this is a bug")
            return PartitionResult(success=True, e1=e1, e2=e2)
    result = matroid_union_partition(g, m1, m2)
    if not result.success:
        raise TheoremViolationError(
            f"certified ({format_rational(plan.gate.a)}, 0)-sparse input produced a deficiency "
            f"against (1,-1) + ({k},{1 - s}); certificate B={result.deficiency.sorted()}"
        )
    return result


def _oriented_split(g: Graph, plan: _Plan, forest: list[int], rest: EdgeSet) -> PartitionResult:
    """A forest and a (k, 0)-sparse rest of a host that has passed
    ``plan.gate``, where ``plan.s`` = 1, with no matroid union.

    ``forest`` lists the ids of a forest of g and ``rest`` holds every
    other edge: decompose_ksw passes its greedy spanning forest and that
    forest's rest.  If the rest is (k, 0)-sparse, that pair is the split,
    and it is the one the union returns (see _split).  Otherwise one
    (k+1, 0) pebble game orients the host with out-degree <= k+1 (Hakimi).
    A vertex of out-degree k+1 is full.  A breadth-first search runs
    backwards along the arcs from the other vertices, in ascending id
    order, and each full vertex it reaches puts its arc to the vertex it
    was reached from into the forest; every other arc goes to the rest, so
    each vertex keeps out-degree <= k there.  With s = 1 the gate makes the
    host (k+1, -1)-sparse, so the search reaches every full vertex: the
    (k+1)|S| out-arcs of an unreached set S would all stay inside S.  The
    forest's arcs point from later-reached vertices to earlier ones, so it
    has no cycle (Whiteley's forest plus pseudoforest, for k = 1).

    The result is checked as a certificate, not by a sweep: the forest is
    acyclic, and the orientation gives every vertex out-degree <= k in the
    rest.  TheoremViolationError if either fails.
    """
    k = plan.k
    if is_sparse(rest.subgraph, _params(k, 0)).sparse:
        return PartitionResult(success=True, e1=EdgeSet(g, forest), e2=rest)
    n, edge_index = g.n, g.edge_index
    game = PebbleGame(n, k + 1, 0)
    if not game.sweep(_sweep_order(g, 0)):
        raise TheoremViolationError(
            f"certified ({format_rational(plan.gate.a)}, 0)-sparse input is not ({k + 1}, 0)-sparse"
        )
    tail = [-1] * g.e
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # head -> (tail, edge id)
    for x, arcs in enumerate(game.out):
        for y in arcs:
            eid = edge_index[(x, y) if x < y else (y, x)]
            tail[eid] = x
            into[y].append((x, eid))
    reached = [p > 0 for p in game.pebbles]  # a full vertex holds no pebble
    queue = [v for v in range(n) if reached[v]]
    tree: list[int] = []
    for w in queue:
        for x, eid in into[w]:
            if not reached[x]:
                reached[x] = True
                queue.append(x)
                tree.append(eid)
    in_tree = set(tree)
    rest_ids = [eid for eid in range(g.e) if eid not in in_tree]
    outdeg = [0] * n
    for eid in rest_ids:
        outdeg[tail[eid]] += 1
    if -1 in tail or max(outdeg) > k or _greedy_forest(g, tree)[1]:
        raise TheoremViolationError(
            f"the ({k + 1}, 0) orientation of a certified ({format_rational(plan.gate.a)}, 0)-sparse "
            f"input gave no forest plus ({k}, 0)-sparse rest"
        )
    return PartitionResult(success=True, e1=EdgeSet(g, tree), e2=EdgeSet(g, rest_ids))
