"""graph container, graph6/edge-list round trips, generator families."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsity_forge as sf
from sparsity_forge.errors import GraphFormatError
from sparsity_forge.graphs import _parse_graph6_header

from conftest import random_graph, to_networkx


# -- container invariants ----------------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        sf.Graph(3, [(0, 0)])


def test_graph_rejects_parallel_edges():
    with pytest.raises(ValueError, match="parallel"):
        sf.Graph(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        sf.Graph(2, [(0, 2)])


def test_edge_ids_are_lexicographic():
    g = sf.Graph(4, [(3, 2), (1, 0), (0, 3)])
    assert g.edges == ((0, 1), (0, 3), (2, 3))


def test_edge_set_validation():
    g = sf.complete_graph(3)
    with pytest.raises(ValueError):
        sf.EdgeSet(g, [7])
    s = sf.EdgeSet(g, [0, 2])
    assert s.sorted() == [0, 2]
    assert s.spanned_vertices().sorted() == [0, 1, 2]


def test_edge_subgraph_matches_a_fresh_graph(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        ids = rng.sample(range(g.e), rng.randint(0, g.e))  # any order
        sub = g.edge_subgraph(ids)
        assert sub == sf.Graph(g.n, [g.edges[i] for i in ids])
        assert sub.edges == tuple(g.edges[i] for i in sorted(ids))


@pytest.mark.parametrize(
    "ids, message",
    [([-1], "edge id -1 out of range"), ([0, 3], "edge id 3 out of range"),
     ([2, 0, 2], "edge id 2 repeated")],
)
def test_edge_subgraph_names_a_bad_id(ids, message):
    # a negative id once picked the last edge, 3 raised IndexError and a
    # repeat was reported as a parallel edge
    with pytest.raises(ValueError, match=message):
        sf.complete_graph(3).edge_subgraph(ids)


# -- graph6 -------------------------------------------------------------------


def test_graph6_hand_decoded_star():
    # 'D?{': n=5, bits 000000 111100 over pairs (0,1),(0,2),(1,2),(0,3),...
    g = sf.parse_graph6("D?{")
    assert g.n == 5
    assert g.edges == ((0, 4), (1, 4), (2, 4), (3, 4))


def test_graph6_k3_and_single_vertex():
    assert sf.parse_graph6("Bw").edges == ((0, 1), (0, 2), (1, 2))
    assert sf.write_graph6(sf.complete_graph(3)) == "Bw"
    g = sf.parse_graph6("@")
    assert (g.n, g.e) == (1, 0)
    assert sf.write_graph6(g) == "@"


def test_graph6_roundtrip_random():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.random())
        assert sf.parse_graph6(sf.write_graph6(g)) == g


def test_graph6_matches_networkx():
    import networkx as nx

    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 70)  # exercises the long form too
        g = random_graph(rng, n, rng.random() * 0.3)
        ours = sf.write_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert sorted(map(tuple, back.edges())) == list(g.edges)


def test_graph6_long_form_header():
    g = sf.Graph(63, [(0, 62)])
    s = sf.write_graph6(g)
    assert s.startswith("~")
    assert sf.parse_graph6(s) == g


def test_graph6_errors_name_offsets():
    with pytest.raises(GraphFormatError, match="offset 0"):
        sf.parse_graph6(" ")
    with pytest.raises(GraphFormatError, match="truncated"):
        sf.parse_graph6("D?")
    with pytest.raises(GraphFormatError, match="trailing"):
        sf.parse_graph6("Bw?")
    with pytest.raises(GraphFormatError):
        sf.parse_graph6("")


@settings(max_examples=300, derandomize=True)
@given(st.one_of(st.text(), st.binary()))
def test_graph6_junk_raises_only_format_errors(junk):
    try:
        sf.parse_graph6(junk)
    except GraphFormatError as exc:
        assert exc.offset is None or 0 <= exc.offset <= len(junk)


def test_graph6_non_ascii_text_names_its_offset():
    with pytest.raises(GraphFormatError, match="offset 2"):
        sf.parse_graph6("Bw\u00e6")


@st.composite
def graphs_crossing_the_long_header(draw):
    n = draw(st.integers(0, 70))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    return sf.Graph(n, edges)


@settings(max_examples=200, derandomize=True)
@given(graphs_crossing_the_long_header())
def test_graph6_roundtrip_property(g):
    text = sf.write_graph6(g)
    assert sf.parse_graph6(text) == g
    assert sf.parse_graph6(text.encode() + b"\n") == g


def test_graph6_optional_header_prefix():
    assert sf.parse_graph6(">>graph6<<Bw") == sf.complete_graph(3)


def test_graph6_roundtrip_up_to_100_vertices():
    rng = random.Random(3)
    for n in list(range(0, 8)) + [rng.randint(8, 100) for _ in range(60)]:
        g = random_graph(rng, n, rng.choice([0.02, 0.1, 0.5, 0.95]))
        assert sf.parse_graph6(sf.write_graph6(g)) == g


def _parse_graph6_bitwise(data: bytes) -> sf.Graph:
    """Reference decoder that reads one adjacency bit at a time, re-checking
    the byte it sits in for every bit."""
    data = data.rstrip(b"\r\n")
    n, pos = _parse_graph6_header(data, 10 if data.startswith(b">>graph6<<") else 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) < nbytes:
        raise GraphFormatError(
            f"truncated adjacency bits: need {nbytes} bytes, got {len(body)}", len(data)
        )
    if len(body) > nbytes:
        raise GraphFormatError("trailing bytes after adjacency bits", pos + nbytes)
    edges = []
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for bit in range(6 * nbytes):
        byte = body[bit // 6]
        if not (63 <= byte <= 126):
            raise GraphFormatError(
                f"adjacency byte {byte} outside graph6 range 63..126", pos + bit // 6
            )
        if (byte - 63) >> (5 - bit % 6) & 1:
            if bit >= nbits:
                raise GraphFormatError("nonzero padding bit", pos + bit // 6)
            edges.append(pairs[bit])
    return sf.Graph(n, edges)


def _outcome(parse, data: bytes):
    try:
        return parse(data)
    except GraphFormatError as exc:
        return (str(exc), exc.reason, exc.offset)


def test_graph6_corrupted_records_fail_like_the_bitwise_reference():
    rng = random.Random(4)
    errors = set()
    for _ in range(600):
        n = rng.choice([rng.randint(0, 12), rng.randint(13, 80)])
        g = random_graph(rng, n, rng.random() * 0.4)
        data = bytearray(sf.write_graph6(g).encode())
        if rng.random() < 0.2:
            data[:0] = b">>graph6<<"
        for _ in range(rng.randint(1, 3)):
            cut = rng.randrange(len(data) + 1)
            edit = rng.randrange(5)
            if edit == 0 and cut < len(data):  # any byte value in place
                data[cut] = rng.randrange(256)
            elif edit == 1 and cut < len(data):  # a valid byte, padding bits too
                data[cut] = rng.randint(63, 126)
            elif edit == 2:
                del data[cut:]
            elif edit == 3:
                data.insert(cut, rng.randrange(256))
            elif data:  # the last byte, where the padding bits sit
                data[-1] = rng.randint(63, 126)
        ours, ref = _outcome(sf.parse_graph6, bytes(data)), _outcome(_parse_graph6_bitwise, bytes(data))
        assert ours == ref, bytes(data)
        if isinstance(ref, tuple):
            errors.add(ref[1].split(" ")[0])
    # every body error occurs: out-of-range, nonzero padding, truncated, trailing
    assert {"adjacency", "nonzero", "truncated", "trailing"} <= errors


# -- edge list ----------------------------------------------------------------


def test_edgelist_triangle():
    g = sf.parse_edgelist("0 1\n1 2\n2 0")
    assert g == sf.complete_graph(3)


def test_edgelist_errors():
    with pytest.raises(GraphFormatError, match="self-loop"):
        sf.parse_edgelist("0 0")
    with pytest.raises(GraphFormatError, match="duplicate"):
        sf.parse_edgelist("0 1\n0 1")
    with pytest.raises(GraphFormatError, match="duplicate"):
        sf.parse_edgelist("0 1\n1 0")
    with pytest.raises(GraphFormatError, match="non-integer"):
        sf.parse_edgelist("0 x")


@settings(max_examples=300, derandomize=True)
@given(st.text(alphabet="0123 \t\r\n=nx-", max_size=40))
def test_edgelist_errors_point_into_their_line(text):
    try:
        sf.parse_edgelist(text)
    except GraphFormatError as exc:
        lines = text.splitlines(keepends=True)
        start = sum(len(ln) for ln in lines[: exc.line - 1])
        assert start <= exc.offset <= start + len(lines[exc.line - 1].rstrip("\r\n"))


def test_edgelist_header_and_roundtrip():
    g = sf.parse_edgelist("n = 5\n0 1\n1 2")
    assert g.n == 5 and g.e == 2
    assert sf.parse_edgelist(sf.write_edgelist(g)) == g
    with pytest.raises(GraphFormatError, match="exceeds"):
        sf.parse_edgelist("n = 2\n0 5")


# -- generators ---------------------------------------------------------------


def test_complete_graph_counts():
    assert sf.complete_graph(2).e == 1
    assert sf.complete_graph(6).e == 15
    with pytest.raises(ValueError):
        sf.complete_graph(0)


def test_circulant():
    assert sf.circulant(5, 2) == sf.complete_graph(5)
    g = sf.circulant(7, 2)
    assert g.e == 14
    assert all(g.degree(v) == 4 for v in range(7))
    with pytest.raises(ValueError):
        sf.circulant(4, 2)


def test_glue():
    k3 = sf.complete_graph(3)
    g = sf.glue(k3, 0, k3, 0)
    assert (g.n, g.e) == (5, 6)
    k2 = sf.complete_graph(2)
    p3 = sf.glue(k2, 1, k2, 0)
    assert p3.edges == ((0, 1), (1, 2))


def test_glue_count_additivity_random(rng):
    for _ in range(40):
        g1 = random_graph(rng, rng.randint(1, 8), rng.random())
        g2 = random_graph(rng, rng.randint(1, 8), rng.random())
        v1, v2 = rng.randrange(g1.n), rng.randrange(g2.n)
        glued = sf.glue(g1, v1, g2, v2)
        assert glued.n == g1.n + g2.n - 1
        assert glued.e == g1.e + g2.e


def test_counterexample_disconnected():
    g = sf.gen_counterexample_disconnected(1, 1, 5, 2)
    assert (g.n, g.e) == (10, 20)
    assert sf.brute_sparse(g, 2, 0).sparse
    with pytest.raises(ValueError):
        sf.gen_counterexample_disconnected(1, 1, 4, 2)
    with pytest.raises(ValueError):
        sf.gen_counterexample_disconnected(1, 1, 5, 1)


def test_counterexample_glued_trees():
    g = sf.gen_counterexample_glued_trees(2)
    assert (g.n, g.e) == (15, 56)  # two K8 copies: 2*28 edges, 8+8-1 vertices
    assert sf.is_tight(g, sf.SparsityParams(4, -4))
    with pytest.raises(ValueError):
        sf.gen_counterexample_glued_trees(1)


def test_counterexample_ring():
    g = sf.gen_counterexample_ring(1, 3)
    assert (g.n, g.e) == (9, 15)
    cert = sf.is_sparse(g, sf.SparsityParams(2, -3))
    assert cert.sparse
    assert cert.min_potential == 3  # exactly a + 2
    with pytest.raises(ValueError):
        sf.gen_counterexample_ring(1, 2)
    with pytest.raises(ValueError):
        sf.gen_counterexample_ring(0, 3)


def test_counterexample_ring_larger_is_tighter():
    g = sf.gen_counterexample_ring(2, 4)
    cert = sf.is_sparse(g, sf.SparsityParams(3, -4))
    assert cert.sparse
    assert cert.min_potential == 4
