"""The forest-plus-sparse decomposition pipeline.

Given m > 1 and an (m, 0)-sparse graph, produce a partition into a forest F
and a remainder that is (m, 1-2m)-sparse.  Every m takes one route: write
m = k + eps, split the host into a forest and a (k, 1-s)-sparse rest with
s = forest_slack(k, eps) (partition_forest_plus, which also gates (m, 0)),
then refine the rest where its (k, 1-s) bound is too weak:

* k = 1, eps < 4/5 (m < 9/5): s = 2, so the rest is a second forest, which
  is already good;
* k = 1, eps >= 4/5: s = 1, so the rest is a pseudoforest; it is swapped
  triangle-free (eliminate_triangles), which suffices for these m;
* k >= 2: the rest is already strong enough except in one window of eps
  (case D2 below), where the low-potential (2k+1)-sets are repaired by
  brooks_refine.

The case analysis is a routing device only: every outcome is re-checked by
verify_decomposition, and a failed check raises instead of returning a bad
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TheoremViolationError
from .graphs import EdgeSet, Graph, VertexSet
from .partition import _forest_plus
from .rationals import format_rational
from .refine import ForestPartition, _acyclic, brooks_refine, eliminate_triangles
from .sparsity import CASE_D2, CASE_SMALL_TRIANGLE_FREE, _plan, is_sparse


@dataclass(frozen=True)
class Decomposition:
    host: Graph
    F: EdgeSet
    Gp: EdgeSet
    m: Fraction
    trace: str

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
    result fails verify_decomposition.
    """
    m = m if isinstance(m, Fraction) else Fraction(m)  # skip re-wrapping a Fraction
    if m <= 1:
        raise ValueError("decomposition needs m > 1")
    plan = _plan(m)
    result = _forest_plus(g, plan)
    label = plan.case
    f, r = result.e1, result.e2
    if label == CASE_SMALL_TRIANGLE_FREE:
        refined = eliminate_triangles(ForestPartition(g, f, r))
        f, r = refined.F, refined.R
    elif label == CASE_D2:
        refined = brooks_refine(ForestPartition(g, f, r), plan.k, plan.s)
        f, r = refined.F, refined.R
    d = Decomposition(g, f, r, m, label)
    report = verify_decomposition(d)
    if not report:
        raise TheoremViolationError(f"after case {label}: {'; '.join(report.problems)}")
    return d


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    problems: tuple[str, ...]

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
    if d.m <= 0:
        problems.append(f"m = {format_rational(d.m)} is not positive")
    else:
        final = _plan(d.m).final
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
