"""Fixed-seed output digests: generation, partitions, tight components,
decomposition, sparsity certificates and density indices stay byte-identical.

The digests below were recorded once and must never be edited to make a
change pass; a mismatch means a refactor changed a deterministic output.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import sparsity_forge as sf
from sparsity_forge.instances import random_sparse_graph

from conftest import plus_edges, random_graph


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "n, a, b, seed, expected",
    [
        (30, Fraction(2), Fraction(0), 1, "3448ca571376b65d"),
        (45, Fraction(7, 3), Fraction(-1), 2, "f7aa10fee6fdb76a"),
        (60, Fraction(5, 2), Fraction(-2, 3), 3, "62f6d5089558ad23"),
        (25, Fraction(3, 2), Fraction(-2), 4, "f96c7c959b2f15d1"),
        # scaled games with 7 to 10 copies per edge
        (120, Fraction(20, 7), Fraction(0), 31, "8d04e57d6ac4616f"),
        (90, Fraction(19, 10), Fraction(-1, 10), 32, "5775e1391bb207f2"),
        (70, Fraction(13, 9), Fraction(-2, 9), 33, "2e37e6e3a9839413"),
        (100, Fraction(7, 10), Fraction(-3, 10), 34, "7ee9ceaa16f9bd24"),
        # large hosts at b = 0, where refusals leave closed pebble-free
        # regions that later searches skip, and two at b < 0, where none do
        (600, Fraction(5, 2), Fraction(0), 0, "3f7bae45c96b10ef"),
        (1000, Fraction(3, 2), Fraction(0), 0, "7a5869b631d52bbe"),
        (600, Fraction(7), Fraction(0), 0, "e9151305b79e533c"),
        (1000, Fraction(19, 10), Fraction(0), 0, "18de26208323a321"),
        (1000, Fraction(9, 5), Fraction(-1, 5), 0, "ff156dbc576d73e0"),
        (600, Fraction(20, 7), Fraction(-3, 7), 0, "cf7dd7f7f95cd0a9"),
    ],
)
def test_generation_digest(n, a, b, seed, expected):
    g = random_sparse_graph(n, a, random.Random(seed), b=b)
    assert _digest(sf.write_graph6(g)) == expected


@pytest.mark.parametrize(
    "m, n, seed, expected",
    [
        (Fraction(19, 10), 30, 2, "804ad22fabdd72ac"),
        # re-recorded once, from 0c02f2e3a96a8622, when the greedy forest became
        # the first try at m without the forest-first split: its rest passes here
        (Fraction(20, 7), 30, 12, "1beee6972ace5f96"),
        (Fraction(5, 2), 60, 13, "8c2842f1f8a2c6af"),
        # small_m_two_forests, the triangle-free split at 9/5, and m = 3,
        # where the (k, 1 - s) side is (m, 1 - 2m) itself
        (Fraction(6, 5), 30, 14, "57dab5bf1e3d141c"),
        (Fraction(8, 5), 40, 15, "01dababdef0af56b"),
        (Fraction(9, 5), 40, 16, "295b77b7b772320b"),
        (Fraction(3), 40, 17, "692c317438b91e67"),
    ],
)
def test_decomposition_digest(m, n, seed, expected):
    g = random_sparse_graph(n, m, random.Random(seed))
    d = sf.decompose_ksw(g, m)
    assert _digest(json.dumps(d.to_json_dict(), sort_keys=True)) == expected


def test_decomposition_refusal_digest():
    # hosts that fail (m, 0), at m below and above 2: message and certificate
    rng = random.Random(18)
    hosts = [(sf.complete_graph(5), Fraction(3, 2)), (sf.complete_graph(7), Fraction(5, 2))]
    hosts += [(random_graph(rng, 8, 0.9), m)
              for m in (Fraction(6, 5), Fraction(9, 5), Fraction(7, 3), Fraction(11, 4))]
    hosts += [(random_sparse_graph(40, 2, random.Random(19)), m)
              for m in (Fraction(8, 5), Fraction(19, 10))]
    hosts += [(random_sparse_graph(40, 3, random.Random(20)), m)
              for m in (Fraction(5, 2), Fraction(20, 7))]
    out = []
    for g, m in hosts:
        with pytest.raises(sf.NotSparseError) as info:
            sf.decompose_ksw(g, m)
        out.append([str(m), str(info.value), info.value.certificate.to_json_dict()])
    assert _digest(json.dumps(out, sort_keys=True)) == "36ec040718c7485a"


def _partition_digest(g, a1, b1, a2, b2, minimize=False):
    result = sf.partition_sparse(g, a1, b1, a2, b2, minimize_certificate=minimize)
    payload = result.to_json_dict()
    return payload["outcome"], _digest(json.dumps(payload, sort_keys=True))


def test_partition_success_digests():
    g = random_sparse_graph(40, 2, random.Random(1))
    assert _partition_digest(g, 1, -1, 1, 1) == ("success", "02672ee37d784502")
    g = random_sparse_graph(40, 3, random.Random(2), b=-2)
    assert _partition_digest(g, 2, -2, 1, 0) == ("success", "8f4d99c099ce7807")


def test_minimized_deficiency_digest():
    g = sf.gen_counterexample_ring(1, 3)
    assert _partition_digest(g, 1, -1, 1, -2, minimize=True) == ("deficiency", "e65d06758175709e")


def _positive_slack_host(n, a, b, seed):
    # an (a, 0)-sparse host plus up to b more edges that keep it (a, b)-sparse,
    # so a b > 0 side has to hold edges beyond its (a, 0) part
    rng = random.Random(seed)
    g = random_sparse_graph(n, a, rng)
    for _ in range(20 * b):
        if g.e >= a * n + b:
            break
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) in g.edge_index:
            continue
        bigger = sf.Graph(n, list(g.edges) + [(u, v)])
        if sf.is_sparse(bigger, sf.SparsityParams(a, b)).sparse:
            g = bigger
    return g


@pytest.mark.parametrize(
    "n, sides, seed, expected",
    [
        (40, (1, -1, 1, 1), 41, "efeb61d26e530619"),
        (36, (1, -1, 2, 1), 42, "0e8db566df030f37"),
        (40, (1, 0, 1, 1), 43, "dfb6dc13b2dced93"),
        (30, (2, 1, 1, 2), 44, "7bc90def8dd30919"),
    ],
)
def test_positive_slack_partition_digest(n, sides, seed, expected):
    a1, b1, a2, b2 = sides
    g = _positive_slack_host(n, a1 + a2, b1 + b2, seed)
    assert _partition_digest(g, *sides) == ("success", expected)


def test_positive_slack_deficiency_digest():
    # criterion 3's disconnected family refuses forest + (1, 1)
    g = sf.gen_counterexample_disconnected(1, 1, 5, 2)
    assert _partition_digest(g, 1, -1, 1, 1, minimize=True) == ("deficiency", "dddc9e3cbeec5efa")


def test_tight_components_digest():
    # five dense 7-vertex blocks joined by a few sparse edges
    rng = random.Random(11)
    g = sf.Graph(35, [
        (u, v)
        for u in range(35)
        for v in range(u + 1, 35)
        if rng.random() < (0.8 if u // 7 == v // 7 else 0.015)
    ])
    out = []
    for a, b in [(1, -1), (1, 0), (2, -2), (2, -1), (2, 0), (3, -3), (3, -1)]:
        o = sf.make_oracle(g, a, b)
        ids = []
        for eid in range(g.e):
            if o.is_independent(sf.EdgeSet(g, ids + [eid])):
                ids.append(eid)
        comps = sf.find_tight_components(o, sf.EdgeSet(g, ids))
        out.append([a, b, [c.sorted() for c in comps]])
    assert _digest(json.dumps(out)) == "6b7bc58f9a606d18"


def _two_k4s(n: int) -> sf.Graph:
    # two disjoint K4s, the first on the lowest and highest ids, plus isolated
    # vertices: their potentials tie, so the witness shows which one is chosen
    blocks = ([0, 1, n - 2, n - 1], [2, 3, 4, 5])
    return sf.Graph(n, [(u, v) for blk in blocks for i, u in enumerate(blk) for v in blk[i + 1:]])


def _certificates(hosts, params):
    out = []
    for g in hosts:
        for a, b in params:
            if 2 * a + b >= 1:
                out.append(sf.is_sparse(g, sf.SparsityParams(a, b)).to_json_dict())
    return _digest(json.dumps(out, sort_keys=True))


# (a, b) pairs around each host's generation density: b = 0, b < 0 and b > 0,
# with a below the density (refusals) as well as at and above it
def _grid(a):
    return [(a + da, b) for da in (Fraction(-1, 2), 0, Fraction(1, 3))
            for b in (Fraction(0), Fraction(-1), Fraction(-1, 3), Fraction(1))]


@pytest.mark.parametrize(
    "n, a, b, seed, expected",
    [
        (41, Fraction(5, 2), Fraction(-1), 21, "570acd26900016c1"),
        (60, Fraction(7, 3), Fraction(-2, 3), 22, "d4540e978242bcff"),
        (90, Fraction(5, 2), Fraction(-1), 23, "89cd990b1573025a"),
        (150, Fraction(11, 4), Fraction(0), 24, "246c37dd260ecd28"),
        (300, Fraction(3, 2), Fraction(-1), 25, "83fda45412483f8d"),
    ],
)
def test_large_check_certificate_digest(n, a, b, seed, expected):
    # n > 40 certificates: every verdict path (accepted sweep, refusal at
    # b = 0 and b < 0, and b > 0) with its witness and exact numbers
    g = random_sparse_graph(n, a, random.Random(seed), b=b)
    assert _certificates([g], _grid(a)) == expected


def test_large_random_graph_certificate_digest():
    rng = random.Random(26)
    hosts = [random_graph(rng, n, p) for n, p in ((41, 0.1), (57, 0.05), (120, 0.03), (300, 0.01))]
    params = [(a, b) for a in (Fraction(3, 2), Fraction(11, 6), Fraction(5, 2), Fraction(7))
              for b in (Fraction(0), Fraction(-1), Fraction(1))]
    assert _certificates(hosts, params) == "4febeece8e4d75ba"


def test_large_tie_and_matching_certificate_digest():
    # tied maxima, zero maxima (K4 at 3/2) and single-edge maxima (a matching)
    hosts = [_two_k4s(52), _two_k4s(80)]
    # the first refusal at the next slack, not the smallest stalled gather
    assert sf.max_violation(hosts[0], 2)[1].sorted() == [2, 3, 4, 5]
    params = [(Fraction(2), b) for b in (Fraction(0), Fraction(-1), Fraction(-2), Fraction(-3), Fraction(1))]
    params += [(Fraction(3, 2), b) for b in (Fraction(0), Fraction(-1), Fraction(1))]
    matchings = [sf.Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]) for n in (42, 60)]
    mparams = [(a, b) for a in (Fraction(3, 4), Fraction(5, 3), Fraction(7, 2))
               for b in (Fraction(0), Fraction(-1, 2), Fraction(1))]
    assert _certificates(hosts, params) == "b03bcd1c17e3a58f"
    assert _certificates(matchings, mparams) == "5562c8b5289e8b2d"


def test_large_density_index_digest():
    rng = random.Random(27)
    out = []
    for n, p in ((41, 0.15), (64, 0.08), (100, 0.05), (200, 0.02)):
        g = random_graph(rng, n, p)
        out.append([str(sf.m_of(g)), str(sf.m2_of(g))])
    for n in (52, 80):
        out.append([str(sf.m_of(_two_k4s(n))), str(sf.m2_of(_two_k4s(n)))])
    assert _digest(json.dumps(out)) == "4b3dfdad9bfad43b"


def test_rational_positive_slack_certificate_digest():
    # b > 0 with denominators 3, 2 and 5 against a with denominators 4, 7, 6
    # and 1, on hosts below and above n = 40
    rng = random.Random(28)
    hosts = []
    for n in (30, 60):
        g = random_sparse_graph(n, Fraction(12, 7), rng)
        hosts += [g, plus_edges(g, 1, rng), plus_edges(g, 3, rng)]
        g = random_sparse_graph(n, 2, rng)  # (2, 0)-tight
        hosts += [plus_edges(g, 1, rng), plus_edges(g, 2, rng)]
    hosts += [random_graph(rng, 36, 0.1), random_graph(rng, 90, 0.04)]
    params = [(a, b) for a in (Fraction(5, 4), Fraction(12, 7), Fraction(13, 6), Fraction(2))
              for b in (Fraction(1, 3), Fraction(3, 2), Fraction(7, 5))]
    assert _certificates(hosts, params) == "aee22058bc7cfe09"
