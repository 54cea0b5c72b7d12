"""Self-test of the benchmark's answer checks and wrapper set.

Each check must pass a sound answer and count a corrupted one as failed.
Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sparsity_forge as sf  # noqa: E402
from sparsity_forge import decompose, refine  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _answer_record(d: sf.Decomposition) -> dict:
    """A decomposition as the benchmark records it: verified, then serialised."""
    return d.to_json_dict(verified=sf.verify_decomposition(d).ok)


def _tight_decomposition():
    """A decomposition with a forest edge whose move into G' breaks G'."""
    rng = random.Random(3)
    for _ in range(500):
        g = sf.Graph(8, [e for e in combinations(range(8), 2) if rng.random() < 0.6])
        m = Fraction(5, 2)
        try:
            d = sf.decompose_ksw(g, m)
        except sf.NotSparseError:
            continue
        for eid in d.F.sorted():
            moved = sf.Decomposition(g, d.F.minus(eid), d.Gp.plus(eid), m, d.trace)
            rest = g.edge_subgraph(moved.Gp.ids)
            if not sf.brute_sparse(rest, m, 1 - 2 * m).sparse:
                return g, m, d, moved
    raise AssertionError("no tight instance found")


def test_sound_decomposition_passes():
    g, m, d, _ = _tight_decomposition()
    record = _answer_record(d)
    assert checks.check_decomposition(g, m, record, d.trace) == []
    assert checks.audit_small(g, m, record) == []


def test_forest_edge_moved_into_gprime_fails():
    g, m, _, moved = _tight_decomposition()
    record = _answer_record(moved)
    assert checks.check_decomposition(g, m, record) != []
    assert checks.audit_small(g, m, record) != []


def test_refusal_witness_with_a_vertex_dropped_fails():
    g = sf.complete_graph(7)
    m = Fraction(5, 2)
    try:
        sf.decompose_ksw(g, m)
        raise AssertionError("K7 is not (5/2, 0)-sparse")
    except sf.NotSparseError as exc:
        record = exc.certificate.to_json_dict()
    assert checks.check_certificate(g, m, 0, record, expect_sparse=False) == []
    assert checks.audit_small(g, m, record) == []
    record["witness"] = record["witness"][:-1]
    assert checks.check_certificate(g, m, 0, record, expect_sparse=False) != []


def _cli_case():
    g = sf.gen_counterexample_ring(1, 4)
    command = ("partition", 1, -1, 1, -2)
    line = json.dumps(sf.partition_sparse(g, 1, -1, 1, -2).to_json_dict())
    return g, command, line


def test_truncated_cli_record_fails():
    g, command, line = _cli_case()
    schemas = checks.load_schemas(HERE.parent)
    assert checks.check_cli_record(g, command, line, schemas) == []
    assert checks.check_cli_record(g, command, line[:-5], schemas) != []
    record = json.loads(line)
    record["r1"] += 1
    assert checks.check_cli_record(g, command, json.dumps(record), schemas) != []


def test_missing_cli_record_counts_as_failed():
    g, command, line = _cli_case()
    schemas = checks.load_schemas(HERE.parent)
    proc = SimpleNamespace(returncode=1, stdout=(line + "\n").encode(), stderr=b"")
    sound = workloads.Outcome()
    workloads._check_cli_output(sound, [g], command, proc, schemas)
    assert sound.failed == 0
    short = workloads.Outcome()
    workloads._check_cli_output(short, [g, g], command, proc, schemas)
    assert short.failed == 1


def test_missing_wrapped_name_reports_layer_absent(monkeypatch):
    monkeypatch.delattr(refine, "brooks_refine")
    tracer = spans.Tracer().install()
    try:
        names = {name for name, _ in tracer.metric_names()}
        assert "refine" in tracer.absent
        assert not any(name.startswith("refine.") for name in names)
        assert "decompose.decompose_ksw.self_s" in names
    finally:
        tracer.uninstall()


def test_wrappers_cover_rebound_names_and_restore():
    original = decompose.is_sparse
    tracer = spans.Tracer().install()
    try:
        assert tracer.absent == []
        assert decompose.is_sparse is not original
        sf.decompose_ksw(sf.complete_graph(4), 2)  # inactive: not recorded
        tracer.active = True
        sf.decompose_ksw(sf.complete_graph(4), 2)
        # the gate, the partition re-checking both sides, the final check
        assert tracer.counts["sparsity.is_sparse.calls"] == 4
        assert tracer.counts["decompose.case.large_m_case_A"] == 1
    finally:
        tracer.uninstall()
    assert decompose.is_sparse is original
