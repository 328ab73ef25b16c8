"""Tests for the move set over valid join orders."""

import hashlib
import random

import pytest

import repro.core.moves as moves_module
from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.core.moves import Move, MoveSet, NoValidMove, move_validity
from repro.core.optimizer import optimize
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.plans.join_order import JoinOrder
from repro.plans.validity import is_valid_order, random_valid_order, valid_orders
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query

from tests.conftest import (
    disjoint_union,
    make_relations,
    star_graph,
    two_component_graph,
)


class TestPropose:
    def test_swap_only(self):
        move_set = MoveSet(swap_probability=1.0)
        order = JoinOrder([0, 1, 2, 3])
        rng = random.Random(0)
        for _ in range(20):
            candidate = move_set.propose(order, rng)
            # A swap differs from the original in exactly two positions.
            diffs = sum(
                1 for a, b in zip(order.positions, candidate.positions) if a != b
            )
            assert diffs == 2

    def test_insert_only_is_permutation(self):
        move_set = MoveSet(swap_probability=0.0)
        order = JoinOrder([0, 1, 2, 3])
        rng = random.Random(0)
        for _ in range(20):
            candidate = move_set.propose(order, rng)
            assert sorted(candidate.positions) == [0, 1, 2, 3]
            assert candidate != order

    def test_too_short_raises(self):
        with pytest.raises(NoValidMove):
            MoveSet().propose(JoinOrder([0]), random.Random(0))


class TestRandomNeighbor:
    @pytest.mark.parametrize("seed", range(8))
    def test_always_valid(self, chain, seed):
        move_set = MoveSet()
        rng = random.Random(seed)
        order = JoinOrder([0, 1, 2, 3, 4])
        for _ in range(30):
            order = move_set.random_neighbor(order, chain, rng)
            assert is_valid_order(order, chain)

    def test_differs_from_input(self, star):
        move_set = MoveSet()
        rng = random.Random(1)
        order = JoinOrder([0, 1, 2, 3, 4])
        assert move_set.random_neighbor(order, star, rng) != order

    def test_gives_up_when_no_neighbor_exists(self):
        # A 2-chain has exactly two valid orders; both are each other's
        # neighbors, so moves always succeed.  A single pathological case
        # is a graph whose only valid order is unique: impossible with
        # n >= 2, so force failure with max_tries=0 rejected instead.
        with pytest.raises(ValueError):
            MoveSet(max_tries=0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            MoveSet(swap_probability=1.5)


class TestStructuredMoves:
    def test_swap_move_applies(self):
        order = JoinOrder([0, 1, 2, 3])
        move = Move("swap", 1, 3)
        assert move.apply(order) == order.swap(1, 3)
        assert move.first_changed == 1

    def test_insert_move_applies(self):
        order = JoinOrder([0, 1, 2, 3])
        move = Move("insert", 3, 0)
        assert move.apply(order) == order.insert(3, 0)
        assert move.first_changed == 0

    def test_propose_move_matches_propose_stream(self):
        """propose() and propose_move() consume rng draws identically."""
        order = JoinOrder([0, 1, 2, 3, 4])
        move_set = MoveSet()
        orders = [
            move_set.propose(order, random.Random(9)) for _ in range(1)
        ]
        rng_a, rng_b = random.Random(17), random.Random(17)
        for _ in range(50):
            via_order = move_set.propose(order, rng_a)
            via_move = move_set.propose_move(order, rng_b).apply(order)
            assert via_order == via_move
        assert orders  # silence unused-variable linters

    def test_random_valid_move_returns_matching_pair(self, chain):
        move_set = MoveSet()
        rng = random.Random(3)
        order = JoinOrder([0, 1, 2, 3, 4])
        for _ in range(20):
            move, neighbor = move_set.random_valid_move(order, chain, rng)
            assert move.apply(order) == neighbor
            assert is_valid_order(neighbor, chain)
            order = neighbor


class TestDegeneratePath:
    def test_has_any_valid_neighbor_on_healthy_graph(self, chain):
        assert MoveSet().has_any_valid_neighbor(
            JoinOrder([0, 1, 2, 3, 4]), chain
        )

    def test_fails_fast_when_no_neighbor_exists(self, monkeypatch, chain):
        """A single-order valid space is detected by the exhaustive scan
        after the first burst of failed draws, not after max_tries."""
        monkeypatch.setattr(
            moves_module, "move_validity", lambda order, graph: _NeverValid()
        )
        move_set = MoveSet(max_tries=64)
        draws = CountingRandom(5)
        with pytest.raises(NoValidMove) as info:
            move_set.random_valid_move(JoinOrder([0, 1, 2, 3, 4]), chain, draws)
        message = str(info.value)
        assert "exhaustive scan" in message
        # The rejected moves are surfaced for diagnosis...
        assert "swap(" in message or "insert(" in message
        # ...and the retry loop stopped at the fail-fast burst (8 draws),
        # far short of the 64-try allowance (>= 192 rng calls).
        assert draws.calls < 64

    def test_exhausted_retries_surface_rejected_moves(self, monkeypatch, chain):
        """When neighbors exist but draws keep missing, the final error
        lists every rejected move."""
        monkeypatch.setattr(
            moves_module, "move_validity", lambda order, graph: _NeverValid()
        )
        move_set = MoveSet(max_tries=3)
        monkeypatch.setattr(
            move_set, "has_any_valid_neighbor", lambda order, graph: True
        )
        with pytest.raises(NoValidMove) as info:
            move_set.random_valid_move(
                JoinOrder([0, 1, 2, 3, 4]), chain, random.Random(5)
            )
        message = str(info.value)
        assert "3 tries" in message
        assert "rejected:" in message


class _NeverValid:
    """A move check that rejects every move."""

    def valid(self, swap, i, j):
        return False

    def __call__(self, move):
        return False


class CountingRandom(random.Random):
    """random.Random that counts draw calls
    (random/getrandbits/randrange/sample)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)

    def randrange(self, *args, **kwargs):
        self.calls += 1
        return super().randrange(*args, **kwargs)

    def sample(self, *args, **kwargs):
        self.calls += 1
        return super().sample(*args, **kwargs)


class TestReachability:
    def test_moves_reach_every_valid_order(self):
        """BFS over the move graph covers the whole valid space."""
        graph = star_graph([50, 10, 20, 30])
        move_set = MoveSet()
        all_valid = set(valid_orders(graph))
        start = next(iter(all_valid))
        seen = {start}
        frontier = [start]
        while frontier:
            order = frontier.pop()
            for neighbor in move_set.neighbors(order, graph):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert seen == all_valid

    def test_neighbors_are_valid_and_distinct(self, chain):
        move_set = MoveSet()
        order = JoinOrder([0, 1, 2, 3, 4])
        neighbors = list(move_set.neighbors(order, chain))
        assert len(neighbors) == len(set(neighbors))
        assert all(is_valid_order(n, chain) for n in neighbors)
        assert order not in neighbors


def _random_connected_graph(rng: random.Random, n: int):
    """A random spanning tree over ``n`` relabelled vertices plus extra edges."""
    label = rng.sample(range(n), n)
    edges = set()
    for child in range(1, n):
        a, b = label[rng.randrange(child)], label[child]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    relations = make_relations([rng.randint(10, 1000) for _ in range(n)])
    predicates = [JoinPredicate(a, b, 5, 5) for a, b in sorted(edges)]
    return JoinGraph(relations, predicates)


def _all_moves(n: int):
    for kind in ("swap", "insert"):
        for i in range(n):
            for j in range(n):
                if i != j:
                    yield Move(kind, i, j)


def _start_orders(graph, rng: random.Random):
    """Two valid orders and two arbitrary permutations (mostly invalid)."""
    n = graph.n_relations
    orders = [random_valid_order(graph, rng) for _ in range(2)]
    orders += [JoinOrder(rng.sample(range(n), n)) for _ in range(2)]
    return orders


class TestSpanValidity:
    """move_validity agrees with the full is_valid_order check."""

    def test_agrees_with_full_check_on_connected_graphs(self):
        rng = random.Random(2024)
        checked = invalid_starts = rejected = 0
        for _ in range(40):
            graph = _random_connected_graph(rng, rng.randint(2, 12))
            for order in _start_orders(graph, rng):
                invalid_starts += not is_valid_order(order, graph)
                valid = move_validity(order, graph)
                for move in _all_moves(graph.n_relations):
                    expected = is_valid_order(move.apply(order), graph)
                    assert valid(move) == expected, (order, move)
                    checked += 1
                    rejected += not expected
        # Both verdicts, and invalid start orders, were exercised.
        assert checked > 10_000
        assert invalid_starts > 0 and 0 < rejected < checked

    def test_disconnected_graphs_take_the_full_check(self, monkeypatch, two_components):
        calls = []

        def spy(order, graph):
            calls.append(order)
            return is_valid_order(order, graph)

        monkeypatch.setattr(moves_module, "is_valid_order", spy)
        rng = random.Random(5)
        for order in _start_orders(two_components, rng):
            valid = move_validity(order, two_components)
            for move in _all_moves(two_components.n_relations):
                calls.clear()
                assert valid(move) == is_valid_order(move.apply(order), two_components)
                assert calls == [move.apply(order)]

    def test_connected_graphs_skip_the_full_check(self, monkeypatch, chain):
        def forbidden(order, graph):
            raise AssertionError("full check called on a connected graph")

        monkeypatch.setattr(moves_module, "is_valid_order", forbidden)
        rng = random.Random(8)
        order = JoinOrder([0, 1, 2, 3, 4])
        for _ in range(50):
            _, order = MoveSet().random_valid_move(order, chain, rng)

    def test_carried_check_agrees_with_a_fresh_one(self):
        """``after`` gives the check a fresh ``move_validity`` would: the
        same verdict on every move from the neighbor, for every valid
        move from valid and invalid start orders alike.  On the last,
        disconnected, graph ``after`` rebuilds the full check."""
        rng = random.Random(77)
        graphs = [_random_connected_graph(rng, rng.randint(2, 8)) for _ in range(12)]
        graphs.append(two_component_graph())
        carried = 0
        edges = set()
        for graph in graphs:
            n = graph.n_relations
            follows = list(_all_moves(n))
            for order in _start_orders(graph, rng):
                check = move_validity(order, graph)
                for move in _all_moves(n):
                    if not check(move):
                        continue
                    neighbor = move.apply(order)
                    after = check.after(move, neighbor)
                    fresh = move_validity(neighbor, graph)
                    for follow in follows:
                        expected = is_valid_order(follow.apply(neighbor), graph)
                        assert after(follow) == fresh(follow) == expected, (
                            order, move, follow,
                        )
                    carried += 1
                    edges.add((min(move.i, move.j) == 0, max(move.i, move.j) == n - 1))
        assert carried > 1000
        # Spans touching the first position, the last, and both.
        assert {(True, False), (False, True), (True, True)} <= edges

    @pytest.mark.parametrize("connected", (True, False))
    def test_random_valid_move_keeps_the_draw_stream(self, connected):
        """The same moves and rng state as drawing every proposal with
        ``random.sample`` and ``randrange`` and checking it with
        ``is_valid_order``.  Graphs run from 3 to 64 relations, across
        ``sample``'s switch from its pool list to its set above 21; the
        check is carried from move to move as the searches carry it."""
        rng = random.Random(31)
        move_set = MoveSet()
        sizes = set()
        for _ in range(16):
            if connected:
                graph = _random_connected_graph(rng, rng.randint(3, 64))
            else:
                graph = disjoint_union(
                    _random_connected_graph(rng, rng.randint(2, 32)),
                    _random_connected_graph(rng, rng.randint(2, 32)),
                )
            n = graph.n_relations
            sizes.add(n)
            order = random_valid_order(graph, rng)
            check = move_validity(order, graph)
            fast, reference = random.Random(7), random.Random(7)
            for _ in range(100):
                move, neighbor = move_set.random_valid_move(
                    order, graph, fast, check
                )
                while True:
                    expected = _sampled_move(n, reference, move_set.swap_probability)
                    if is_valid_order(expected.apply(order), graph):
                        break
                assert move == expected
                assert fast.getstate() == reference.getstate()
                check = check.after(move, neighbor)
                order = neighbor
        assert min(sizes) <= 21 < max(sizes)

    def test_propose_move_draws_like_sample_and_randrange(self):
        """Every size from 2 to 64: each side of 21 and the switch itself."""
        move_set = MoveSet()
        for n in range(2, 65):
            order = JoinOrder(range(n))
            fast, reference = random.Random(n), random.Random(n)
            for _ in range(200):
                assert move_set.propose_move(order, fast) == _sampled_move(
                    n, reference, move_set.swap_probability
                )
                assert fast.getstate() == reference.getstate()


def _sampled_move(n: int, rng: random.Random, swap_probability: float) -> Move:
    """A proposal drawn with ``random.sample`` and ``randrange`` themselves."""
    if rng.random() < swap_probability:
        i, j = rng.sample(range(n), 2)
        return Move("swap", i, j)
    source = rng.randrange(n)
    target = rng.randrange(n - 1)
    if target >= source:
        target += 1
    return Move("insert", source, target)


#: (N, method, model) -> (order, cost, units_spent, n_evaluations,
#: trajectory length, first 16 hex digits of sha256(repr(trajectory))) for
#: ``generate_query(DEFAULT_SPEC, N, 1)`` at ``seed=2, time_factor=4.0``.
#: Above 21 relations swaps draw as ``random.sample``'s set branch does,
#: which no smaller query reaches; these values pin every draw and
#: decision there.
PINNED_ABOVE_21 = {
    (30, "SA", "disk"): (
        (2, 1, 0, 5, 10, 11, 12, 15, 4, 14, 16, 20, 6, 8, 17, 3, 25, 30, 7,
         22, 19, 27, 24, 26, 23, 9, 29, 13, 21, 28, 18),
        64875855437013.1, 108000.0, 3600, 20, "d2946bf437328f90",
    ),
    (40, "SA", "disk"): (
        (0, 3, 7, 1, 2, 11, 10, 14, 16, 4, 13, 31, 6, 22, 5, 29, 28, 17, 8,
         18, 34, 23, 27, 32, 37, 9, 19, 30, 25, 20, 24, 35, 21, 33, 12, 15,
         26, 39, 36, 38, 40),
        1114817263096.671, 192000.0, 4800, 30, "3d13a4c7449fb52e",
    ),
    (30, "II", "memory"): (
        (0, 3, 8, 17, 14, 25, 24, 26, 5, 1, 12, 2, 10, 11, 20, 7, 9, 15, 22,
         27, 23, 4, 6, 30, 16, 19, 28, 13, 21, 29, 18),
        1341854041897686.2, 108000.0, 3600, 75, "365be47979a66cc7",
    ),
    (40, "II", "memory"): (
        (6, 3, 1, 2, 14, 4, 0, 9, 16, 20, 21, 31, 12, 22, 7, 28, 26, 17, 8,
         25, 33, 13, 37, 34, 19, 23, 15, 27, 10, 39, 11, 18, 30, 29, 35, 5,
         38, 36, 32, 24, 40),
        22962220292353.24, 192000.0, 4800, 111, "0a5417e5d6cb3b68",
    ),
}
MODELS = {"memory": MainMemoryCostModel, "disk": DiskCostModel}


@pytest.mark.parametrize("key", sorted(PINNED_ABOVE_21))
def test_searches_above_21_relations_are_pinned(key):
    n_joins, method, model = key
    result = optimize(
        generate_query(DEFAULT_SPEC, n_joins, 1), method=method,
        model=MODELS[model](), seed=2, time_factor=4.0,
    )
    digest = hashlib.sha256(repr(result.trajectory).encode()).hexdigest()
    assert (
        tuple(result.order), result.cost, result.units_spent,
        result.n_evaluations, len(result.trajectory), digest[:16],
    ) == PINNED_ABOVE_21[key]
