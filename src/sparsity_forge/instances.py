"""Deterministic random instance generation for benchmarks and stress tests."""

from __future__ import annotations

import random
from fractions import Fraction

from .graphs import Graph
from .pebble import PebbleGame

DENSITY_FACTOR = 4  # candidate pairs sampled per edge of the target count


def random_sparse_graph(
    n: int,
    a: Fraction | int,
    rng: random.Random,
    b: Fraction | int = 0,
) -> Graph:
    """A seeded random (a, b)-sparse graph on n vertices, b <= 0.

    Samples roughly DENSITY_FACTOR * a * n candidate pairs of a random graph
    and greedily deletes every edge whose retention would break sparsity
    (equivalently: keeps each candidate iff the pebble engine accepts it),
    stopping once floor(a*n + b) edges survive.  Deterministic given the RNG.
    A candidate inside a region that already refused one is skipped without a
    gather: that region's slack only falls as edges are kept.
    """
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b > 0 or 2 * a + b < 1:
        raise ValueError("need a > 0 and nonpathological b <= 0")
    target = max(0, int(a * n + b))
    want = min(max(1, DENSITY_FACTOR * target), n * (n - 1) // 2)
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
    # Edges are only added, so a region that refused a pair stays blocked
    # for every later pair inside it.  blocked[w] has bit i set when w lies
    # in the i-th refused region; a shared bit skips the pebble gather.
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
    return Graph(n, kept)
