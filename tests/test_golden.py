"""Fixed-seed output digests: generation, partitions, tight components and
decomposition stay byte-identical.

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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "n, a, b, seed, expected",
    [
        (30, Fraction(2), Fraction(0), 1, "3448ca571376b65d"),
        (45, Fraction(7, 3), Fraction(-1), 2, "f7aa10fee6fdb76a"),
        (60, Fraction(5, 2), Fraction(-2, 3), 3, "62f6d5089558ad23"),
        (25, Fraction(3, 2), Fraction(-2), 4, "f96c7c959b2f15d1"),
    ],
)
def test_generation_digest(n, a, b, seed, expected):
    g = random_sparse_graph(n, a, random.Random(seed), b=b)
    assert _digest(sf.write_graph6(g)) == expected


@pytest.mark.parametrize(
    "m, n, seed, expected",
    [
        (Fraction(19, 10), 30, 2, "804ad22fabdd72ac"),
        (Fraction(20, 7), 30, 12, "0c02f2e3a96a8622"),
        (Fraction(5, 2), 60, 13, "8c2842f1f8a2c6af"),
    ],
)
def test_decomposition_digest(m, n, seed, expected):
    g = random_sparse_graph(n, m, random.Random(seed))
    d = sf.decompose_ksw(g, m)
    assert _digest(json.dumps(d.to_json_dict(), sort_keys=True)) == expected


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
