"""Instance generation: the refused-region memo and the buried regions skip
only candidates that the exact oracle refuses, and change no output."""

import random
from fractions import Fraction

import pytest

import sparsity_forge as sf
from sparsity_forge import instances
from sparsity_forge.pebble import PebbleGame


class _OrderRecorder(random.Random):
    """Keeps the candidate order the generator shuffles."""

    def shuffle(self, x):
        super().shuffle(x)
        self.order = list(x)


def test_skipped_candidates_are_refused(monkeypatch):
    gathered: set[tuple[int, int]] = set()
    burials = 0

    class Recording(PebbleGame):
        def insert(self, u, v):
            gathered.add((u, v))
            return super().insert(u, v)

        def _bury_free_regions(self):
            nonlocal burials
            buried = super()._bury_free_regions()
            burials += len(buried)
            return buried

    monkeypatch.setattr(instances, "PebbleGame", Recording)
    params = [
        (Fraction(3, 2), Fraction(0)),
        (Fraction(7, 4), Fraction(-1, 2)),
        (Fraction(19, 10), Fraction(-1, 10)),
        (Fraction(20, 7), Fraction(-3, 7)),
        (Fraction(7, 10), Fraction(-3, 10)),
        (Fraction(2), Fraction(-3)),
    ]
    skipped = 0
    for n in range(4, 10):
        for a, b in params:
            for seed in range(8):
                gathered.clear()
                rng = _OrderRecorder(seed)
                g = instances.random_sparse_graph(n, a, rng, b=b)
                accepted = set(g.edges)
                target = max(0, int(a * n + b))
                kept: list[tuple[int, int]] = []
                for pair in rng.order:
                    if len(kept) == target:
                        break
                    if pair not in gathered:
                        skipped += 1
                        assert not sf.brute_sparse(sf.Graph(n, kept + [pair]), a, b).sparse
                    elif pair in accepted:
                        kept.append(pair)
                assert set(kept) == accepted
    assert skipped > 0
    assert burials > 0


def _reference_random_sparse_graph(n, a, rng, b=0):
    """random_sparse_graph with the refused-region memo and no burial."""
    a, b = Fraction(a), Fraction(b)
    target = max(0, int(a * n + b))
    want = min(max(1, instances.DENSITY_FACTOR * target), n * (n - 1) // 2)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < want:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            pairs.add((u, v) if u < v else (v, u))
    order = sorted(pairs)
    rng.shuffle(order)
    game = PebbleGame.scaled(n, a, b)
    kept: list[tuple[int, int]] = []
    blocked = [0] * n
    bit = 1
    for u, v in order:
        if blocked[u] & blocked[v]:
            continue
        if game.insert(u, v):
            kept.append((u, v))
            if len(kept) >= target:
                break
        else:
            for w in game.last_region:
                blocked[w] |= bit
            bit <<= 1
    return sf.Graph(n, kept)


@pytest.mark.parametrize(
    "a, b",
    [
        # 1, 2, 7 and 10 copies per edge, at b = 0 (burials) and b < 0 (none)
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(-1)),
        (Fraction(3, 2), Fraction(0)),
        (Fraction(5, 2), Fraction(-1)),
        (Fraction(20, 7), Fraction(0)),
        (Fraction(20, 7), Fraction(-3, 7)),
        (Fraction(19, 10), Fraction(0)),
        (Fraction(19, 10), Fraction(-1, 10)),
    ],
)
def test_generation_matches_the_loop_without_burial(a, b):
    for n in (7, 30, 200):
        for seed in range(3):
            g = instances.random_sparse_graph(n, a, random.Random(seed), b=b)
            assert g == _reference_random_sparse_graph(n, a, random.Random(seed), b=b)
