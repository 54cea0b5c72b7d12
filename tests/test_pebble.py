"""Keyless pebble game: random insert/delete runs against the brute oracle
and the min-cut minimal tight set, and gathers against brute-force slack."""

from collections import Counter, deque
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


class _ReferenceGame(PebbleGame):
    """The kernel without its shortcuts: every collect is a full breadth-first
    search from its end (no one-hop move, no inline stall), u is searched
    again after every path found from v, a double stall's region is read off
    a scan of all n marks, and each insert gathers and places on its own."""

    def insert(self, u: int, v: int) -> bool:
        if u == v:
            raise ValueError("loops are never sparse here")
        placed = min(self.copies, self._gather(u, v, self.l + self.copies) - self.l)
        if self.copies - placed > self.room:
            return False
        self.room -= self.copies - placed
        self.unplaced += self.copies - placed
        from_u = min(self.pebbles[u], placed)
        for tail, head, count in ((u, v, from_u), (v, u, placed - from_u)):
            if count:
                self.pebbles[tail] -= count
                self.out[tail][head] = self.out[tail].get(head, 0) + count
        return True

    def _collect(self, target: int, u: int, v: int, want: int) -> int:
        self._stamp += 1
        stamp, mark, prev, pebbles, out = self._stamp, self._mark, self._prev, self.pebbles, self.out
        mark[target] = stamp
        queue = deque([target])
        found = -1
        while queue and found < 0:
            x = queue.popleft()
            for y in out[x]:
                if mark[y] == stamp:
                    continue
                mark[y] = stamp
                prev[y] = x
                if pebbles[y] > 0 and y != u and y != v:
                    found = y
                    break
                queue.append(y)
        if found < 0:
            return 0
        amount = min(pebbles[found], want)
        y = found
        while y != target:
            x = prev[y]
            amount = min(amount, out[x][y])
            y = x
        y = found
        while y != target:
            x = prev[y]
            out[x][y] -= amount
            if not out[x][y]:
                del out[x][y]
            out[y][x] = out[y].get(x, 0) + amount
            y = x
        pebbles[found] -= amount
        pebbles[target] += amount
        return amount

    def _gather(self, u: int, v: int, stop_at: int) -> int:
        pebbles = self.pebbles
        while pebbles[u] + pebbles[v] < stop_at:
            want = stop_at - pebbles[u] - pebbles[v]
            if self._collect(u, u, v, want):
                continue
            stamp_u = self._stamp
            if self._collect(v, u, v, want):
                continue
            mark, stamp_v = self._mark, self._stamp
            self.last_region = [w for w in range(self.n) if mark[w] in (stamp_u, stamp_v)]
            break
        return pebbles[u] + pebbles[v]


def _state(game: PebbleGame):
    # arc order included: it steers every later search
    return (list(game.pebbles), [list(arcs.items()) for arcs in game.out], list(game.last_region),
            game.room, game.unplaced)


def _spy_stalled_ends(game: PebbleGame) -> None:
    """Wrap the game's kernel: within one gather, every search from an end
    that already stalled must stall again and move nothing."""
    collect, gather = game._collect, game._gather
    stalled: set[int] = set()

    def spy_collect(target, u, v, want):
        before = _state(game)[:2]
        got = collect(target, u, v, want)
        if target in stalled:
            assert got == 0 and _state(game)[:2] == before
        if not got:
            stalled.add(target)
        return got

    def spy_gather(u, v, stop_at):
        stalled.clear()
        return gather(u, v, stop_at)

    game._collect, game._gather = spy_collect, spy_gather


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.data())
def test_kernel_moves_exactly_as_the_reference(data):
    n = data.draw(st.integers(2, 8), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    l = data.draw(st.integers(0, 2 * k - 1), label="l")
    copies = data.draw(st.integers(1, 3), label="copies")
    room = data.draw(st.integers(0, 4), label="room")
    game, ref = PebbleGame(n, k, l, copies), _ReferenceGame(n, k, l, copies)
    game.room = ref.room = room
    _spy_stalled_ends(game)
    inserted: list[tuple[int, int]] = []  # parallel inserts welcome
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    for _ in range(data.draw(st.integers(0, 40), label="steps")):
        op = data.draw(st.sampled_from(["insert", "insert", "delete", "gather_max", "insertable"]))
        if op == "delete":
            if not inserted:
                continue
            u, v = data.draw(st.sampled_from(inserted))
            got = _outcome(lambda: game.delete(u, v))
            assert got == _outcome(lambda: ref.delete(u, v))
            if got is None:
                inserted.remove((u, v))
        elif op == "gather_max":
            u, v = data.draw(pair)
            stop_at = data.draw(st.none() | st.integers(0, 2 * k + 1))
            assert game.gather_max(u, v, stop_at) == ref.gather_max(u, v, stop_at)
        else:
            u, v = data.draw(pair)
            got = _outcome(lambda: getattr(game, op)(u, v))
            assert got == _outcome(lambda: getattr(ref, op)(u, v))
            if op == "insert" and got is True:
                inserted.append((u, v))
        assert _state(game) == _state(ref)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_sweep_moves_as_edge_by_edge_inserts(data):
    # twin games: the kernel sweeps each edge list, the reference inserts its
    # edges one at a time up to the first refusal; parallel edges welcome
    n = data.draw(st.integers(2, 8), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    l = data.draw(st.integers(0, 2 * k - 1), label="l")
    copies = data.draw(st.integers(1, 3), label="copies")
    room = data.draw(st.integers(0, 4), label="room")
    game, twin = PebbleGame(n, k, l, copies), _ReferenceGame(n, k, l, copies)
    game.room = twin.room = room
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    for _ in range(data.draw(st.integers(1, 4), label="sweeps")):
        edges = [tuple(e) for e in data.draw(st.lists(pair, max_size=12), label="edges")]
        accepted = game.sweep(edges)
        assert accepted == all(twin.insert(u, v) for u, v in edges)
        assert _state(game) == _state(twin)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_buried_regions_change_no_move(data):
    # twin games at l = 0 that only insert, parallel edges welcome: one buries
    # every pebble-free stalled end region a refusal leaves, the other never
    # buries; the burying game's searches skip vertices, never a move
    n = data.draw(st.integers(2, 10), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    copies = data.draw(st.integers(1, 3), label="copies")
    game, twin = PebbleGame(n, k, 0, copies), PebbleGame(n, k, 0, copies)
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    for _ in range(data.draw(st.integers(1, 40), label="inserts")):
        u, v = data.draw(pair)
        accepted = game.insert(u, v)
        assert accepted == twin.insert(u, v)
        assert game.pebbles == twin.pebbles
        assert [list(arcs.items()) for arcs in game.out] == [list(arcs.items()) for arcs in twin.out]
        if not accepted:
            assert set(game.last_region) <= set(twin.last_region)
            game._bury_free_regions()


def test_a_refused_search_skips_a_buried_region():
    # a (1, 0) game: the triangle 0-1-2 takes every pebble it has, so a
    # parallel edge inside it is refused and leaves it pebble-free; a later
    # refusal on the path 5 -> 4 -> 3 -> 0 then stops short of the triangle
    game = PebbleGame(6, 1, 0)
    assert game.sweep([(0, 1), (1, 2), (0, 2), (3, 0), (4, 3), (5, 4)])
    assert not game.insert(0, 1)
    assert {w for region in game._bury_free_regions() for w in region} == {0, 1, 2}
    assert not game.insert(4, 5)
    assert game.last_region == [3, 4, 5]
