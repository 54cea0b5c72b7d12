"""Fixed-seed output digests: generation and decomposition stay byte-identical.

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
