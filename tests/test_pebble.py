"""Keyless pebble game: random insert/delete runs against the brute oracle
and the min-cut minimal tight set, and gathers against brute-force slack."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsity_forge as sf
from sparsity_forge.mincut import selection_max
from sparsity_forge.pebble import PebbleGame


def _undirected_arcs(game: PebbleGame) -> Counter:
    arcs = Counter()
    for tail, heads in enumerate(game.out):
        for head, count in heads.items():
            arcs[min(tail, head), max(tail, head)] += count
    return arcs


def _assert_consistent(game: PebbleGame, edges: set) -> None:
    assert all(count > 0 for heads in game.out for count in heads.values())
    for v in range(game.n):
        assert game.pebbles[v] + sum(game.out[v].values()) == game.k
    assert _undirected_arcs(game) == Counter({e: game.copies for e in edges})


def _brute_min_slack(game: PebbleGame, edges: set, u: int, v: int) -> tuple[int, list[int]]:
    """min of k|U| - copies * e(U) over U containing u and v, and the
    smallest U attaining it (minimizers are closed under intersection)."""
    others = [w for w in range(game.n) if w != u and w != v]
    best: tuple[int, list[int]] | None = None
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            members = {u, v, *extra}
            inside = sum(1 for x, y in edges if x in members and y in members)
            slack = game.k * len(members) - game.copies * inside
            if best is None or slack < best[0]:
                best = (slack, sorted(members))
    assert best is not None
    return best


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.data())
def test_keyless_game_matches_brute_force(data):
    # denominators up to 10 each: games with lcm(q_a, q_b) copies per edge
    # (12 at a = p/4, b = -j/3), where one path can carry several pebbles.
    # b > 0 plays the elongated game, insert-only: its spent room is final
    n = data.draw(st.integers(2, 7), label="n")
    a = data.draw(st.fractions(Fraction(1, 2), 3, max_denominator=10), label="a")
    if data.draw(st.booleans(), label="b > 0"):
        b = data.draw(st.fractions(Fraction(1, 10), 3, max_denominator=10), label="b")
    else:
        b = -data.draw(st.fractions(0, 2 * a - 1, max_denominator=10), label="-b")
    game = PebbleGame.scaled(n, a, b)
    edges: set[tuple[int, int]] = set()
    for _ in range(data.draw(st.integers(0, 25), label="steps")):
        if b <= 0 and edges and data.draw(st.booleans()):
            u, v = data.draw(st.sampled_from(sorted(edges)))
            game.delete(u, v)
            edges.remove((u, v))
        else:
            pair = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            u, v = sorted(pair)
            if (u, v) in edges:
                continue
            expected = sf.brute_sparse(sf.Graph(n, edges | {(u, v)}), a, b).sparse
            if b > 0:
                room_before = game.room
                accepted = game.insert(u, v)
                assert accepted == expected
                if accepted:
                    edges.add((u, v))
                else:
                    assert game.room == room_before
                placed = sum(_undirected_arcs(game).values())
                assert placed + game.unplaced == game.copies * len(edges)
                continue
            assert game.insertable(u, v) == expected
            _assert_consistent(game, edges)
            free_before = sum(game.pebbles)
            accepted = game.insert(u, v)
            assert accepted == expected
            if accepted:
                edges.add((u, v))
            else:
                assert sum(game.pebbles) == free_before
                # the refused gather's reach is the minimal tight set through u, v
                minimal = selection_max(n, sorted(edges), game.k, game.copies, free_vertices=(u, v))[1]
                assert game.last_region == minimal
        _assert_consistent(game, edges)
        # the largest gather onto a pair is the smallest slack of a set
        # through it, and its stalled region the smallest set attaining it
        pair = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        x, y = sorted(pair)
        slack, smallest = _brute_min_slack(game, edges, x, y)
        assert game.gather_max(x, y) == slack
        assert game.last_region == smallest
        _assert_consistent(game, edges)


def test_delete_refuses_a_game_that_spent_room():
    # K4 is (1, 3)-sparse but not (1, 0)-sparse: the elongated game leaves
    # two of its six edges' copies unplaced, and a delete could not tell
    # which copies of which edge are missing
    game = PebbleGame.scaled(4, 1, 3)
    assert game.room == 3
    assert all(game.insert(u, v) for u, v in combinations(range(4), 2))
    assert (game.room, game.unplaced) == (1, 2)
    with pytest.raises(ValueError, match="spent room"):
        game.delete(0, 1)
    game = PebbleGame.scaled(4, 1, 3)
    game.insert(0, 1)
    game.delete(0, 1)  # nothing unplaced yet: the all-copies contract holds
    assert game.out == [dict() for _ in range(4)]
