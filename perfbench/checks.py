"""Independent checks of the program's answers.

Each check re-derives what it can straight from the edge list (induced edge
counts, acyclicity by its own union-find, cover and disjointness) and returns
a list of problems; an empty list means the answer passed.  Where a check
needs a matroid rank it goes through the public ``make_oracle(...).rank``,
which the partition machinery does not use on its success path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import sparsity_forge as sf


def induced_edge_count(edges, vertices) -> int:
    inside = set(vertices)
    return sum(1 for u, v in edges if u in inside and v in inside)


def acyclic(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def check_certificate(g: sf.Graph, a, b, cert: dict, expect_sparse: bool | None = None) -> list[str]:
    """Recount e(G[W]) - a|W| on the witness W and compare every stated field."""
    a, b = Fraction(a), Fraction(b)
    problems = []
    if cert.get("a") != sf.format_rational(a) or cert.get("b") != sf.format_rational(b):
        problems.append(f"certificate is for ({cert.get('a')}, {cert.get('b')}), asked ({a}, {b})")
    witness = cert.get("witness")
    if not isinstance(witness, list) or len(set(witness)) != len(witness) or len(witness) < 2 \
            or not all(isinstance(v, int) and 0 <= v < g.n for v in witness):
        return problems + [f"witness {witness!r} is not a set of >= 2 vertices of the graph"]
    value = induced_edge_count(g.edges, witness) - a * len(witness)
    try:
        stated = Fraction(cert["max_violation"])
        potential = Fraction(cert["min_potential"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return problems + ["certificate lacks numeric max_violation / min_potential"]
    if stated != value - b:
        problems.append(f"witness recounts to violation {value - b}, certificate says {stated}")
    if potential != -value:
        problems.append(f"witness recounts to potential {-value}, certificate says {potential}")
    verdict = cert.get("verdict")
    if verdict == "not_sparse" and value <= b:
        problems.append("refusal is not proved by its witness")
    elif verdict == "sparse" and value > b:
        problems.append("verdict 'sparse' but the witness violates the bound")
    elif verdict not in ("sparse", "not_sparse"):
        problems.append(f"unknown verdict {verdict!r}")
    if expect_sparse is not None and (cert.get("verdict") == "sparse") != expect_sparse:
        problems.append(f"verdict {cert.get('verdict')!r}, expected sparse={expect_sparse}")
    return problems


def check_decomposition(g: sf.Graph, m, out: dict, expect_case: str | None = None) -> list[str]:
    """An answer of decompose_ksw + verify_decomposition, as its JSON dict."""
    problems = []
    f_ids, gp_ids = out.get("F"), out.get("Gprime")
    if not isinstance(f_ids, list) or not isinstance(gp_ids, list):
        return ["decomposition lacks F or Gprime"]
    if out.get("m") != sf.format_rational(Fraction(m)):
        problems.append(f"decomposition is for m={out.get('m')}, asked {m}")
    if set(f_ids) & set(gp_ids):
        problems.append("F and G' overlap")
    if sorted(f_ids + gp_ids) != list(range(g.e)):
        problems.append("F and G' do not partition E")
        return problems
    if not acyclic(g.n, [g.edges[i] for i in f_ids]):
        problems.append("F contains a cycle")
    if out.get("verified") is not True:
        problems.append("verify_decomposition rejected the decomposition")
    if expect_case is not None and out.get("case") != expect_case:
        problems.append(f"case {out.get('case')!r}, expected {expect_case!r}")
    return problems


def audit_small(g: sf.Graph, m, out: dict) -> list[str]:
    """Brute-force audit of one n = 8 answer: the gate, G', and the split."""
    m = Fraction(m)
    gate = sf.brute_sparse(g, m, 0)
    if "F" not in out:
        if gate.sparse:
            return ["refused a graph that brute force finds (m, 0)-sparse"]
        if Fraction(out["max_violation"]) != gate.max_violation:
            return ["refusal's maximum differs from brute force"]
        return []
    problems = []
    if not gate.sparse:
        problems.append("decomposed a graph that brute force finds not (m, 0)-sparse")
    rest = g.edge_subgraph(out["Gprime"])
    if not sf.brute_sparse(rest, m, 1 - 2 * m).sparse:
        problems.append("brute force finds G' not (m, 1-2m)-sparse")
    if g.e <= 20 and not sf.brute_partition_exists(g, 1, -1, m, 1 - 2 * m)[0]:
        problems.append("brute force finds no forest + (m, 1-2m) split")
    return problems


def load_schemas(root: Path) -> dict:
    """The shipped JSON schemas, keyed by stem ("certificate", "partition", ...)."""
    import jsonschema

    out = {}
    for path in sorted((root / "src" / "sparsity_forge" / "schemas").glob("*.schema.json")):
        schema = json.loads(path.read_text())
        out[path.name.split(".")[0]] = jsonschema.Draft202012Validator(schema)
    return out


def _schema_problems(validator, record: dict) -> list[str]:
    errors = list(validator.iter_errors(record))
    return [f"schema: {errors[0].message}"] if errors else []


def check_cli_record(g: sf.Graph, command: tuple, line: str, schemas: dict) -> list[str]:
    """One stdout line of ``check`` or ``partition`` for graph g."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"record is not JSON: {exc}"]
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    if command[0] == "check":
        _, a, b = command
        return _schema_problems(schemas["certificate"], record) or check_certificate(g, a, b, record)
    _, a1, b1, a2, b2 = command
    if "outcome" not in record:
        problems = _schema_problems(schemas["certificate"], record)
        return problems or check_certificate(g, a1 + a2, b1 + b2, record, expect_sparse=False)
    problems = _schema_problems(schemas["partition"], record)
    if problems:
        return problems
    if record["outcome"] == "success":
        e1, e2 = record["e1"], record["e2"]
        if sorted(e1 + e2) != list(range(g.e)):
            return ["e1 and e2 do not partition E"]
        if (a1, b1) == (1, -1):
            if not acyclic(g.n, [g.edges[i] for i in e1]):
                problems.append("e1 contains a cycle")
        elif not sf.make_oracle(g, a1, b1).is_independent(sf.EdgeSet(g, e1)):
            problems.append(f"e1 is not ({a1}, {b1})-sparse")
        if not sf.make_oracle(g, a2, b2).is_independent(sf.EdgeSet(g, e2)):
            problems.append(f"e2 is not ({a2}, {b2})-sparse")
        return problems
    ids = record["B"]
    if not ids or len(set(ids)) != len(ids) or not all(0 <= i < g.e for i in ids):
        return ["deficiency B is not a nonempty set of edge ids"]
    big_b = sf.EdgeSet(g, ids)
    r1 = sf.make_oracle(g, a1, b1).rank(big_b)
    r2 = sf.make_oracle(g, a2, b2).rank(big_b)
    if (r1, r2) != (record["r1"], record["r2"]):
        problems.append(f"ranks recount to ({r1}, {r2}), record says ({record['r1']}, {record['r2']})")
    if r1 + r2 >= len(ids):
        problems.append(f"r1 + r2 = {r1 + r2} is not below |B| = {len(ids)}")
    return problems
