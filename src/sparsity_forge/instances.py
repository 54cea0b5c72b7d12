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
    keeping at most floor(a*n + b) edges: fewer when the candidates run out
    first.  Deterministic given the RNG.
    A candidate inside a region that already refused one is skipped without a
    gather: that region's slack only falls as edges are kept.

    Each vertex is drawn as ``random.Random.randrange(n)`` draws it: by
    rejection over ``getrandbits(n.bit_length())``, here inlined.  So the
    graphs are the ones randrange would give for a random.Random, or for a
    subclass whose randrange still draws that way, but not necessarily for
    an rng whose randrange draws otherwise.
    """
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b > 0 or 2 * a + b < 1:
        raise ValueError("need a > 0 and nonpathological b <= 0")
    target = max(0, int(a * n + b))
    want = min(max(1, DENSITY_FACTOR * target), n * (n - 1) // 2)
    pairs: set[tuple[int, int]] = set()
    bits, getrandbits = n.bit_length(), rng.getrandbits
    while len(pairs) < want:
        # u = rng.randrange(n), inlined (see the docstring); v likewise
        u = getrandbits(bits)
        while u >= n:
            u = getrandbits(bits)
        v = getrandbits(bits)
        while v >= n:
            v = getrandbits(bits)
        if u != v:
            pairs.add((u, v) if u < v else (v, u))
    order = sorted(pairs)
    rng.shuffle(order)
    game = PebbleGame.scaled(n, a, b)
    kept: list[tuple[int, int]] = []
    # Edges are only added, so a region that refused a pair stays blocked
    # for every later pair inside it.  blocked[w] has bit i set when w lies
    # in the i-th refused region; a shared bit skips the pebble gather.  A
    # stalled end's region with no pebble keeps slack 0 for good: searches
    # skip it, and all its bits are set, since its union with any refused
    # region stays refused (the slack k|U| - c*e(U) is submodular).
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
            for region in game._bury_free_regions():
                for w in region:
                    blocked[w] = -1
    return Graph(n, kept)
