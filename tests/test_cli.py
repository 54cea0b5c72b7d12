"""CLI contract: exit codes, JSON schemas, piping, per-record errors, bench determinism."""

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

import sparsity_forge as sf
from sparsity_forge import decompose, instances, sparsity
from sparsity_forge.cli import main


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        data = stdin_text if isinstance(stdin_text, bytes) else stdin_text.encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    import jsonschema

    text = resources.files("sparsity_forge.schemas").joinpath(name).read_text()
    schema = json.loads(text)
    return lambda obj: jsonschema.validate(obj, schema)


def g6(g):
    return sf.write_graph6(g) + "\n"


# check --a 1 --b -1 on the triangle "Bw"
TRIANGLE = (
    '{"verdict": "not_sparse", "a": "1", "b": "-1", "witness": [0, 1, 2], '
    '"max_violation": "1", "min_potential": "0"}\n'
)


def error_record(reason, line, offset):
    return json.dumps({"reason": reason, "line": line, "offset": offset}) + "\n"


def test_check_exit_codes(capsys, monkeypatch):
    path = sf.Graph(3, [(0, 1), (1, 2)])
    code, out, _ = run_cli(capsys, ["check", "--a", "1", "--b", "-1"], g6(path), monkeypatch)
    assert code == 0
    load_schema("certificate.schema.json")(json.loads(out))
    code, out, _ = run_cli(
        capsys, ["check", "--a", "1", "--b", "-1"], g6(sf.complete_graph(3)), monkeypatch
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not_sparse" and payload["witness"] == [0, 1, 2]
    code, _, err = run_cli(
        capsys, ["check", "--a", "1", "--b", "-2"], g6(path), monkeypatch
    )
    assert code == 2 and "error" in err


def test_check_k6_at_seven_thirds(capsys, monkeypatch):
    # e(K6) = 15 > (7/3)*6 = 14: certified not sparse
    code, out, _ = run_cli(
        capsys, ["check", "--a", "7/3", "--b", "0"], g6(sf.complete_graph(6)), monkeypatch
    )
    assert code == 1


def test_check_batch_order_preserved(capsys, monkeypatch):
    batch = g6(sf.complete_graph(3)) + g6(sf.Graph(3, [(0, 1)])) + g6(sf.complete_graph(4))
    code, out, _ = run_cli(capsys, ["check", "--a", "1", "--b", "-1"], batch, monkeypatch)
    verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
    assert verdicts == ["not_sparse", "sparse", "not_sparse"]
    assert code == 1


def test_check_edgelist_file(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(
        capsys, ["check", "--a", "1", "--b", "0", "--format", "edgelist", str(f)]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "sparse"


def test_non_ascii_edgelist_file_names_the_byte(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_bytes(b"1 \xc3\xa6\n")
    code, out, err = run_cli(
        capsys, ["check", "--a", "1", "--b", "0", "--format", "edgelist", str(f)]
    )
    assert code == 2 and out == error_record("non-ASCII byte 0xc3", 1, 2)
    assert err == "error: non-ASCII byte 0xc3 (line 1, at byte offset 2)\n"
    f.write_bytes(b"n = 3\r\n0 1\r\n\r\n1 2 \xff\n")
    code, out, err = run_cli(
        capsys, ["check", "--a", "1", "--b", "0", "--format", "edgelist", str(f)]
    )
    assert code == 2 and out == error_record("non-ASCII byte 0xff", 4, 18)
    assert err == "error: non-ASCII byte 0xff (line 4, at byte offset 18)\n"


def test_edgelist_errors_name_the_line_and_byte(capsys, monkeypatch):
    cases = [
        (b"0 1\n1 x\n", "non-integer token 'x' (line 2, at byte offset 6)"),
        (b"n = x\n0 1\n", "invalid vertex count 'x' in header (line 1, at byte offset 4)"),
        (b"0 1\r\n\r\n 1 0\r\n", "duplicate edge (0, 1) (line 3, at byte offset 8)"),
        (b"0 1\n2 2\n", "self-loop at vertex 2 (line 2, at byte offset 4)"),
        (b"0 1\n1 -2\n", "negative vertex -2 (line 2, at byte offset 6)"),
        (b"0 1_0\n", "non-integer token '1_0' (line 1, at byte offset 2)"),
        (b"0 1\n+0 1\n", "non-integer token '+0' (line 2, at byte offset 4)"),
        (b"\nn = 3\n0 1\n1 3\n", "vertex 3 exceeds declared n=3 (line 4, at byte offset 13)"),
        (b"0 1\n0 1 2\n", "expected 'u v', got '0 1 2' (line 2, at byte offset 4)"),
    ]
    for data, message in cases:
        code, out, err = run_cli(
            capsys, ["check", "--a", "1", "--b", "0", "--format", "edgelist"], data, monkeypatch
        )
        where = re.fullmatch(r"(.*) \(line (\d+), at byte offset (\d+)\)", message)
        reason, line, offset = where.group(1), int(where.group(2)), int(where.group(3))
        assert (code, out, err) == (2, error_record(reason, line, offset), f"error: {message}\n")


def test_rational_options_take_negative_values(capsys, monkeypatch):
    triangle = g6(sf.complete_graph(3))
    code, out, _ = run_cli(capsys, ["check", "--a", "7/3", "--b", "-1/3"], triangle, monkeypatch)
    assert code == 0 and json.loads(out)["b"] == "-1/3"
    assert run_cli(capsys, ["check", "--a", "7/3", "--b=-1/3"], triangle, monkeypatch)[1] == out
    # a negative --a or --m reaches the check of its value, not argparse's
    # "expected one argument"
    code, _, err = run_cli(capsys, ["check", "--a", "-7/3", "--b", "1"], "", monkeypatch)
    assert (code, err) == (2, "error: sparsity coefficient a must be positive, got -7/3\n")
    code, _, err = run_cli(capsys, ["decompose", "--m", "-5/2"], "", monkeypatch)
    assert (code, err) == (2, "error: decomposition needs m > 1\n")
    # plain negative integers parse as before
    code, out, _ = run_cli(capsys, ["check", "--a", "1", "--b", "-1"], triangle, monkeypatch)
    assert (code, out) == (1, TRIANGLE)
    code, out, _ = run_cli(
        capsys, ["partition", "--a1", "1", "--b1", "-1", "--a2", "1", "--b2", "-2"],
        g6(sf.Graph(3, [(0, 1), (1, 2)])), monkeypatch,
    )
    assert code == 0 and json.loads(out)["outcome"] == "success"
    for argv in ([], ["check"]):
        try:
            main([*argv, "--help"])
        except SystemExit:
            pass
        assert "-1/3" in capsys.readouterr().out


def test_invalid_utf8_graph6_line_names_the_byte(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["check", "--a", "1", "--b", "-1"], b"Bw\n\xff\n", monkeypatch)
    assert code == 2
    assert out == TRIANGLE + error_record("header byte 255 outside graph6 range 63..126", 2, 3)
    assert err == "error: header byte 255 outside graph6 range 63..126 (line 2, at byte offset 3)\n"


def test_graph6_errors_count_from_the_start_of_the_input(capsys, monkeypatch):
    # blank and indented lines, a CR LF ending and the optional >>graph6<< prefix
    # all shift the offending byte; offsets count every byte before it
    text = b"Bw\r\n\n  >>graph6<<Bw\n\t>>graph6<<Bx\xff\n"
    code, out, err = run_cli(capsys, ["check", "--a", "1", "--b", "-1"], text, monkeypatch)
    assert code == 2
    assert out == 2 * TRIANGLE + error_record("trailing bytes after adjacency bits", 4, 33)
    assert err == "error: trailing bytes after adjacency bits (line 4, at byte offset 33)\n"
    assert text[33:34] == b"\xff"


def test_malformed_record_costs_only_itself(capsys, monkeypatch):
    reason = "truncated adjacency bits: need 286 bytes, got 2"
    err_line = f"error: {reason} (line 2, at byte offset 6)\n"
    bad = error_record(reason, 2, 6)
    code, out, err = run_cli(
        capsys, ["check", "--a", "1", "--b", "-1"], b"Bw\nzzz\nBw\n", monkeypatch
    )
    assert (code, out, err) == (2, TRIANGLE + bad + TRIANGLE, err_line)
    split = '{"outcome": "success", "e1": [0, 1], "e2": [2]}\n'
    code, out, err = run_cli(
        capsys, ["partition", "--a1", "1", "--b1", "-1", "--a2", "1", "--b2", "-1"],
        b"Bw\nzzz\nBw\n", monkeypatch,
    )
    assert (code, out, err) == (2, split + bad + split, err_line)
    # a lone CR ends a line too
    code, out, err = run_cli(capsys, ["check", "--a", "1", "--b", "-1"], b"Bw\rBx\n", monkeypatch)
    assert (code, out) == (2, TRIANGLE + error_record("nonzero padding bit", 2, 4))
    assert err == "error: nonzero padding bit (line 2, at byte offset 4)\n"


def test_lone_carriage_return_breaks_lines(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["check", "--a", "1", "--b", "-1"], b"Bw\rBw\n", monkeypatch)
    assert (code, out, err) == (1, 2 * TRIANGLE, "")


STREAM_COMMANDS = [
    ["check", "--a", "1", "--b", "-1"],
    ["partition", "--a1", "1", "--b1", "-1", "--a2", "1", "--b2", "-2", "--minimize"],
    ["decompose", "--m", "3/2", "--verify"],
]


def run_alone(argv, data: bytes):
    """main() on ``data`` as stdin, without pytest fixtures (for hypothesis)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


_NON_SPACE_BYTE = st.integers(0, 255).filter(lambda c: not bytes([c]).isspace())


@st.composite
def graph6_records(draw):
    """A graph6 record, possibly corrupted; never blank and never containing
    whitespace, so it stays one record on one line."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rec = bytearray(sf.write_graph6(sf.Graph(n, edges)).encode())
    how = draw(st.sampled_from(["keep", "keep", "cut", "append", "replace"]))
    if how == "cut" and len(rec) > 1:
        del rec[draw(st.integers(1, len(rec) - 1)):]
    elif how == "append":
        rec += bytes(draw(st.lists(_NON_SPACE_BYTE, min_size=1, max_size=3)))
    elif how == "replace":
        rec[draw(st.integers(0, len(rec) - 1))] = draw(_NON_SPACE_BYTE)
    return bytes(rec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    argv=st.sampled_from(STREAM_COMMANDS),
    records=st.lists(graph6_records(), min_size=1, max_size=6),
)
def test_stream_answers_each_record_as_if_alone(argv, records):
    code, out, err = run_alone(argv, b"".join(r + b"\n" for r in records))
    lines = out.splitlines()
    assert len(lines) == len(records)
    codes, errors, start = [], [], 0
    for i, rec in enumerate(records):
        alone_code, alone_out, _ = run_alone(argv, rec + b"\n")
        codes.append(alone_code)
        if alone_code == 2:
            alone = json.loads(alone_out)
            expect = {"reason": alone["reason"], "line": i + 1, "offset": alone["offset"] + start}
            assert json.loads(lines[i]) == expect
            errors.append(
                f"error: {alone['reason']} (line {i + 1}, at byte offset {expect['offset']})"
            )
        else:
            assert lines[i] + "\n" == alone_out
        start += len(rec) + 1
    assert code == max(codes)
    assert err.splitlines() == errors


def test_every_stream_line_matches_one_shipped_schema(capsys, monkeypatch):
    import jsonschema

    shipped = resources.files("sparsity_forge.schemas")
    validators = {
        path.name: jsonschema.Draft202012Validator(json.loads(path.read_text()))
        for path in shipped.iterdir()
        if path.name.endswith(".schema.json")
    }
    assert "error.schema.json" in validators
    stream = (
        g6(sf.complete_graph(3)) + "zzz\n" + g6(sf.Graph(4, [(0, 1), (2, 3)]))
        + "\xff\n" + g6(sf.complete_graph(5)) + "Bx\n"
    )
    argvs = STREAM_COMMANDS + [["decompose", "--m", "2", "--verify", "--trace"]]
    for argv in argvs:
        code, out, _ = run_cli(capsys, argv, stream.encode("latin-1"), monkeypatch)
        assert code == 2 and len(out.splitlines()) == 6
        for line in out.splitlines():
            record = json.loads(line)
            matching = [name for name, v in validators.items() if v.is_valid(record)]
            assert len(matching) == 1, (argv, line, matching)
        assert [json.loads(l).get("line") for l in out.splitlines()[1::2]] == [2, 4, 6]


def test_parameter_error_ends_the_run(capsys, monkeypatch):
    stream = 3 * g6(sf.complete_graph(3))
    for argv in (
        ["check", "--a", "1", "--b", "-2"],
        ["partition", "--a1", "1", "--b1", "-3", "--a2", "1", "--b2", "0"],
        ["decompose", "--m", "1"],
    ):
        code, out, err = run_cli(capsys, argv, stream, monkeypatch)
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert len(err.splitlines()) == 1


def test_parameter_errors_need_no_record(capsys, monkeypatch):
    # the parameters are checked before the first record is read
    for argv in (
        ["check", "--a", "1", "--b", "-5"],
        ["decompose", "--m", "1"],
        ["partition", "--a1", "1", "--b1", "-1", "--a2", "1", "--b2", "-3"],
    ):
        inputs = ("", g6(sf.complete_graph(3)))
        answers = [run_cli(capsys, argv, text, monkeypatch) for text in inputs]
        assert answers[0] == answers[1], argv
        code, out, err = answers[0]
        assert (code, out) == (2, "") and err.startswith("error: "), argv
        assert len(err.splitlines()) == 1, argv


_MODULES_AFTER_RUN = """
import runpy, sys
sys.argv = ["sparsity-forge", *sys.argv[1:]]
try:
    runpy.run_module("sparsity_forge.cli", run_name="__main__")
except SystemExit:
    pass
print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""


def modules_after_run(argv, text):
    """The module names a fresh interpreter holds after running the CLI."""
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_RUN, *argv],
        input=text, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.count("\n") == 1, proc.stdout
    return set(proc.stderr.split())


def test_each_command_imports_only_what_it_runs():
    record = g6(sf.complete_graph(4))
    engines = {f"sparsity_forge.{name}" for name in ("refine", "decompose", "oracle", "instances")}
    stdlib = {"dataclasses", "hashlib"}
    loaded = modules_after_run(["check", "--a", "1", "--b", "-1"], record)
    assert "sparsity_forge.sparsity" in loaded
    # the certificate maximum is read off a pebble game: no min-cut is loaded
    union = {"sparsity_forge.matroid", "sparsity_forge.partition", "sparsity_forge.mincut"}
    assert not loaded & (engines | stdlib | union)
    argv = ["partition", "--a1", "1", "--b1", "-1", "--a2", "1", "--b2", "0"]
    loaded = modules_after_run(argv, record)
    assert "sparsity_forge.partition" in loaded
    assert not loaded & (engines | stdlib)


def test_parse_error_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["check", "--a", "1", "--b", "0"], "!!!\n", monkeypatch)
    assert code == 2 and "error" in err


def test_decompose_cli(capsys, monkeypatch):
    validate = load_schema("decomposition.schema.json")
    code, out, _ = run_cli(
        capsys,
        ["decompose", "--m", "2", "--verify", "--trace"],
        g6(sf.complete_graph(5)),
        monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    assert payload["case"] == "large_m_case_A" and payload["verified"] is True
    code, out, _ = run_cli(
        capsys, ["decompose", "--m", "3/2"], g6(sf.complete_graph(5)), monkeypatch
    )
    assert code == 1
    load_schema("certificate.schema.json")(json.loads(out))


def test_partition_cli_and_schema(capsys, monkeypatch):
    validate = load_schema("partition.schema.json")
    code, out, _ = run_cli(
        capsys,
        ["partition", "--a1", "1", "--b1", "-1", "--a2", "1", "--b2", "-1"],
        g6(sf.complete_graph(4)),
        monkeypatch,
    )
    assert code == 0
    validate(json.loads(out))
    code, _, err = run_cli(
        capsys,
        ["partition", "--a1", "1", "--b1", "-3", "--a2", "1", "--b2", "0"],
        g6(sf.complete_graph(4)),
        monkeypatch,
    )
    assert code == 2


def test_gen_and_pipe_reproduces_deficiency(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["gen", "ring", "--a", "1", "--t", "3"])
    assert code == 0
    ring_line = out.strip()
    assert sf.parse_graph6(ring_line) == sf.gen_counterexample_ring(1, 3)
    validate = load_schema("partition.schema.json")
    code, out, _ = run_cli(
        capsys,
        ["partition", "--a1", "1", "--b1", "-1", "--a2", "1", "--b2", "-2"],
        ring_line + "\n",
        monkeypatch,
    )
    assert code == 1
    payload = json.loads(out)
    validate(payload)
    assert payload["outcome"] == "deficiency"
    assert payload["r1"] + payload["r2"] < len(payload["B"])


def test_gen_invalid_params_exit_2(capsys):
    code, _, err = run_cli(capsys, ["gen", "ring", "--a", "1", "--t", "2"])
    assert code == 2 and "error" in err


def test_gen_families_match_library(capsys):
    code, out, _ = run_cli(capsys, ["gen", "disconnected", "--a1", "1", "--a2", "1", "--n", "5", "--t", "2"])
    assert code == 0
    assert sf.parse_graph6(out.strip()) == sf.gen_counterexample_disconnected(1, 1, 5, 2)
    code, out, _ = run_cli(capsys, ["gen", "glued-trees", "--a", "2"])
    assert code == 0
    assert sf.parse_graph6(out.strip()) == sf.gen_counterexample_glued_trees(2)


def test_bench_deterministic_and_consistent(capsys):
    argv = ["bench", "decompose", "--sizes", "24,40", "--seed", "7", "--m", "5/2"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, argv)
    assert out1.splitlines()[1:] and [l.split()[:3] for l in out1.splitlines()[1:]] == [
        l.split()[:3] for l in out2.splitlines()[1:]
    ]
    for line in out1.splitlines()[1:]:
        cols = line.split()
        check_ms, split_ms, verify_ms, total_ms = map(float, cols[3:7])
        assert abs((check_ms + split_ms + verify_ms) - total_ms) <= 0.05 * total_ms + 0.5


def test_bench_runs_each_m_of_a_list(capsys):
    # one row per (m, n), m outer; the m column follows the case label, and
    # each row matches the row of a single-m run
    argv = ["bench", "decompose", "--sizes", "24,40", "--seed", "7", "--m", "3/2,7"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    header, *rows = out.splitlines()
    assert header.split()[-2:] == ["case", "m"]
    rows = [row.split() for row in rows]
    assert [(row[0], row[-2], row[-1]) for row in rows] == [
        ("24", "small_m_two_forests", "3/2"), ("40", "small_m_two_forests", "3/2"),
        ("24", "large_m_case_A", "7"), ("40", "large_m_case_A", "7"),
    ]
    for m, chunk in (("3/2", rows[:2]), ("7", rows[2:])):
        code, single, _ = run_cli(capsys, argv[:-1] + [m])
        assert code == 0
        assert [row.split()[:3] for row in single.splitlines()[1:]] == [row[:3] for row in chunk]


def test_bench_failed_check_exits_2(capsys, monkeypatch):
    # the bench's own checks raise, so they still hold under python -O
    failing = sf.VerificationReport(ok=False, problems=("F contains a cycle",))
    real_verify, real_decompose = decompose.verify_decomposition, decompose.decompose_ksw
    inside = []

    def decompose_ksw(g, m):
        inside.append(g)
        try:
            return real_decompose(g, m)
        finally:
            inside.pop()

    def bench_check_fails(d):
        # decompose_ksw's own final check passes; the bench's checks of its output fail
        return real_verify(d) if inside else failing

    monkeypatch.setattr(decompose, "decompose_ksw", decompose_ksw)
    monkeypatch.setattr(decompose, "verify_decomposition", bench_check_fails)
    code, _, err = run_cli(capsys, ["bench", "decompose", "--sizes", "24", "--m", "5/2"])
    assert code == 2 and err.startswith("error:") and "verify_decomposition" in err


def test_bench_refuses_a_host_that_is_not_sparse(capsys, monkeypatch):
    # the bench sweeps no gate of its own: decompose_ksw's refusal is reported
    monkeypatch.setattr(instances, "random_sparse_graph", lambda n, m, rng: sf.complete_graph(7))
    code, _, err = run_cli(capsys, ["bench", "decompose", "--sizes", "24", "--m", "5/2"])
    assert code == 2 and err == "error: generated host n=24 is not (5/2, 0)-sparse\n"


def test_bench_repeats_each_stage_on_cold_inputs(capsys, monkeypatch):
    # each repeat of the split and the verify stage gets a fresh host and
    # Decomposition, so no repeat reads a peel order or subgraph that an
    # earlier one cached: at m = 7 a split peels the host, R0 and F0, and a
    # verify peels R0 (a warm repeat would peel nothing)
    real, peeled = sparsity._peel_order, []
    monkeypatch.setattr(
        sparsity, "_peel_order", lambda n, edges: peeled.append(edges) or real(n, edges)
    )
    code, out, _ = run_cli(capsys, ["bench", "decompose", "--sizes", "60", "--m", "7"])
    assert code == 0 and out.split()[-2:] == ["large_m_case_A", "7"]
    host, r0, f0 = peeled[:3]
    assert peeled == [host, r0, f0] * 3 + [r0] * 3


def test_bench_unknown_suite(capsys):
    code, _, err = run_cli(capsys, ["bench", "nonsense"])
    assert code == 2 and "unknown bench suite" in err


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "sparsity_forge.cli", "gen", "ring", "--a", "1", "--t", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert sf.parse_graph6(out.stdout.strip()).n == 9
