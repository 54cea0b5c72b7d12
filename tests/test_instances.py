"""Instance generation: the refused-region memo skips only candidates that
the exact oracle refuses."""

import random
from fractions import Fraction

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

    class Recording(PebbleGame):
        def insert(self, u, v):
            gathered.add((u, v))
            return super().insert(u, v)

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
