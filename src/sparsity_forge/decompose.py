"""The forest-plus-sparse decomposition pipeline.

Given m > 1 and an (m, 0)-sparse graph, produce a partition into a forest F
and a remainder that is (m, 1-2m)-sparse.  Write m = k + eps and
s = forest_slack(k, eps).  The host is gated once at (m, 0), and the greedy
spanning forest F0 in ascending id order is tried first:

* for k >= 2 and eps <= 1/2 (``forest_first``), its rest R0 is swept at
  (k, 1-s) inside the split (partition_forest_plus): (F0, R0) if R0
  passes, the matroid union's split if not.  No refinement follows;
* for every other m, R0 is swept once at (m, 1-2m).  The theorem asks only
  for some forest whose rest passes that bound, so if R0 passes, (F0, R0)
  is the answer and the sweep was its final check.  Only if it refuses
  does the constructive route run: the matroid union's split, then a
  refinement where the rest's (k, 1-s) bound is too weak.

The refinement:

* k = 1, eps < 4/5 (m < 9/5): s = 2, so the rest is a second forest, which
  is already good;
* k = 1, eps >= 4/5: s = 1, so the rest is a pseudoforest; it is swapped
  triangle-free (eliminate_triangles), which suffices for these m;
* k >= 2: the rest is already strong enough except in one window of eps
  (case D2 below), where the low-potential (2k+1)-sets are repaired by
  brooks_refine.

The case label names m's case even when the greedy try ends the route.  It
is a routing device only: every outcome is checked at (m, 1-2m), and a
failed check raises instead of returning a bad decomposition.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TheoremViolationError
from .graphs import EdgeSet, Graph, VertexSet, _Frozen
from .partition import _gate, _greedy_forest, _split
from .rationals import format_rational
from .refine import _acyclic, _SplitPartition, brooks_refine, eliminate_triangles
from .sparsity import CASE_D2, CASE_SMALL_TRIANGLE_FREE, _plan, is_sparse


class Decomposition(_Frozen):
    _fields = ("host", "F", "Gp", "m", "trace")

    def __init__(self, host: Graph, F: EdgeSet, Gp: EdgeSet, m: Fraction, trace: str):
        _Frozen.__init__(self, host, F, Gp, m, trace)

    def to_json_dict(self, verified: bool | None = None) -> dict:
        out = {
            "m": format_rational(self.m),
            "case": self.trace,
            "F": self.F.sorted(),
            "Gprime": self.Gp.sorted(),
        }
        if verified is not None:
            out["verified"] = verified
        return out


def decompose_ksw(g: Graph, m: Fraction | int) -> Decomposition:
    """Partition an (m, 0)-sparse graph into a forest and an (m, 1-2m)-sparse rest.

    Raises NotSparseError (with certificate) when the input fails the
    hypothesis, ValueError for m <= 1, and TheoremViolationError if the
    result fails its final check (verify_decomposition's, on the
    constructive route).
    """
    m = _above_one(m)
    plan = _plan(m)
    _gate(g, plan)
    label = plan.case
    if not plan.forest_first:
        forest, rest = _greedy_forest(g)
        # a refusal reads only the verdict: its witness would cost a min-cut
        if is_sparse(g.edge_subgraph(rest), plan.final).sparse:
            if not _acyclic(g, forest):
                raise TheoremViolationError(f"case {label}: the greedy forest has a cycle")
            return Decomposition(g, EdgeSet(g, forest), EdgeSet(g, rest), m, label)
    result = _split(g, plan)
    f, r = result.e1, result.e2
    # refine runs no check on a _SplitPartition: verify_decomposition below
    # re-checks what it returns
    if label == CASE_SMALL_TRIANGLE_FREE:
        refined = eliminate_triangles(_SplitPartition(g, f, r))
        f, r = refined.F, refined.R
    elif label == CASE_D2:
        refined = brooks_refine(_SplitPartition(g, f, r), plan.k, plan.s)
        f, r = refined.F, refined.R
    d = Decomposition(g, f, r, m, label)
    report = verify_decomposition(d)
    if not report:
        raise TheoremViolationError(f"after case {label}: {'; '.join(report.problems)}")
    return d


def _above_one(m: Fraction | int) -> Fraction:
    """m as a Fraction; ValueError unless m > 1."""
    m = m if isinstance(m, Fraction) else Fraction(m)  # skip re-wrapping a Fraction
    if m.numerator <= m.denominator:
        raise ValueError("decomposition needs m > 1")
    return m


class VerificationReport(_Frozen):
    _fields = ("ok", "problems")

    def __init__(self, ok: bool, problems: tuple[str, ...]):
        _Frozen.__init__(self, ok, problems)

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(d: Decomposition) -> VerificationReport:
    """Re-check a decomposition from scratch: exact partition, acyclic F,
    (m, 1-2m)-sparse remainder.  Never raises; returns a verdict with
    diagnostics."""
    problems = []
    g = d.host
    if d.F.ids & d.Gp.ids:
        problems.append("F and G' overlap")
    if d.F.ids | d.Gp.ids != frozenset(range(g.e)):
        problems.append("F and G' do not cover E")
    if not _acyclic(g, d.F.ids):
        problems.append("F contains a cycle")
    m = d.m if isinstance(d.m, Fraction) else Fraction(d.m)
    if m.numerator <= 0:
        problems.append(f"m = {format_rational(m)} is not positive")
    else:
        final = _plan(m).final
        cert = is_sparse(g.edge_subgraph(d.Gp.ids), final)
        if not cert.sparse:
            problems.append(
                f"G' is not ({format_rational(final.a)}, {format_rational(final.b)})-sparse; "
                f"witness {cert.witness.sorted()}"
            )
    return VerificationReport(ok=not problems, problems=tuple(problems))


def check_hypergraph_bound(sets: list[VertexSet], s: int) -> bool:
    """Check sum |F_i| >= n + r*s/2 for hyperedges overlapping pairwise-union
    in at least s vertices each.

    Precondition (verified, offending indices reported): every F_i meets the
    union of the others in at least s vertices.  The bound itself follows by
    discharging and this checker confirms it on concrete families.
    """
    families = [frozenset(vs.ids if isinstance(vs, VertexSet) else vs) for vs in sets]
    r = len(families)
    offenders = []
    for i, fi in enumerate(families):
        others = set()
        for j, fj in enumerate(families):
            if j != i:
                others |= fj
        if len(fi & others) < s:
            offenders.append(i)
    if offenders:
        raise ValueError(
            f"sets {offenders} meet the union of the others in fewer than s={s} vertices"
        )
    n = len(set().union(*families)) if families else 0
    return sum(len(fi) for fi in families) >= n + Fraction(r * s, 2)
