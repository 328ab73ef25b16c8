"""Differential harness for the incremental plan-evaluation engine.

The engine promises *bitwise* agreement with the full-cost oracle
(:meth:`CostModel.plan_cost`) on every unaborted evaluation — stronger
than the 1e-9 relative tolerance the acceptance criterion asks for — and
that bound-pruned aborts can never flip an accept/reject decision.  Both
promises are exercised here over random graphs x random move sequences,
for both cost models, plus end-to-end: II and SA runs must produce
bitwise-identical orders, costs, budgets, and trajectories whether they
run on the reference :class:`Evaluator` or the :class:`DeltaEvaluator`
in budget-compatibility mode.
"""

from __future__ import annotations

import copy
import math
import random
from itertools import permutations

import pytest

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.core.budget import Budget
from repro.core.iterative import improvement_run
from repro.core.moves import MoveSet
from repro.core import state
from repro.core.optimizer import optimize
from repro.core.state import DeltaEvaluator, Evaluator
from repro.cost.cardinality import MAX_CARDINALITY, CostOverflowError
from repro.cost.disk import DiskCostModel
from repro.cost.incremental import (
    IncrementalEvaluator,
    QueryContext,
    supports_incremental,
)
from repro.cost.memory import MainMemoryCostModel
from repro.cost.static import StaticCostModel
from repro.plans.join_order import JoinOrder
from repro.plans.validity import random_valid_order, valid_orders
from repro.workloads.benchmarks import DEFAULT_SPEC, benchmark_specs
from repro.workloads.generator import generate_query

from .conftest import chain_graph, cycle_graph, selected_graph, star_graph

MODELS = (MainMemoryCostModel(), DiskCostModel())
SPECS = tuple(benchmark_specs().values())

#: >= 20 random graphs, cycling through all ten benchmark specs so the
#: dense-graph spec makes one join read several neighbors placed at
#: different positions; together with the hand-built shapes and the walk
#: length below, the harness crosses 10k differential moves per model.
RANDOM_GRAPHS = tuple(
    generate_query(
        SPECS[index % len(SPECS)],
        n_joins=random.Random(index).choice((4, 7, 12, 20, 30)),
        seed=1000 + index,
    ).graph
    for index in range(20)
)
MOVES_PER_GRAPH = 500


def _walk_and_compare(graph, model, seed, n_moves, prune_probability=0.0):
    """Replay one random walk; return (moves checked, pruned aborts).

    Every candidate is costed by the engine and by ``plan_cost``; when a
    bound is used (with ``prune_probability``), a pruned result must imply
    the full cost exceeds the bound (the reject decision is unchanged).
    """
    rng = random.Random(seed)
    move_set = MoveSet()
    engine = IncrementalEvaluator(graph, model)
    current = random_valid_order(graph, rng)
    current_cost, _ = engine.rebase(current.positions)
    assert current_cost == model.plan_cost(current, graph)
    checked = pruned = 0
    for _ in range(n_moves):
        move, candidate = move_set.random_valid_move(current, graph, rng)
        full_cost = model.plan_cost(candidate, graph)
        bound = None
        if prune_probability and rng.random() < prune_probability:
            bound = current_cost
        engine_cost, joins = engine.evaluate(
            candidate.positions, bound, move.first_changed
        )
        checked += 1
        if engine_cost is None:
            pruned += 1
            assert bound is not None
            # An abort asserts "cost exceeds the bound"; verify against
            # the oracle, and confirm the walk actually stopped early.
            assert full_cost > bound
            assert joins <= graph.n_joins
        else:
            assert engine_cost == full_cost, (
                f"bitwise mismatch on {candidate}: "
                f"engine {engine_cost!r} vs full {full_cost!r}"
            )
            # Accept-like policy to keep the anchor moving.
            if engine_cost < current_cost or rng.random() < 0.3:
                engine.commit(candidate.positions)
                current, current_cost = candidate, engine_cost
    return checked, pruned


class TestDifferentialRandomWalks:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_random_graphs_random_walks(self, model):
        total = total_pruned = 0
        for index, graph in enumerate(RANDOM_GRAPHS):
            checked, pruned = _walk_and_compare(
                graph,
                model,
                seed=index,
                n_moves=MOVES_PER_GRAPH,
                prune_probability=0.4,
            )
            total += checked
            total_pruned += pruned
        assert total >= len(RANDOM_GRAPHS) * MOVES_PER_GRAPH
        # The bound must actually bite somewhere, or the abort path went
        # untested.
        assert total_pruned > 0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize(
        "make_graph", (chain_graph, star_graph, cycle_graph)
    )
    def test_hand_built_shapes(self, model, make_graph):
        _walk_and_compare(make_graph(), model, seed=5, n_moves=200)

    def test_total_moves_cross_acceptance_floor(self):
        """The harness covers >= 10k moves across >= 20 graphs per model."""
        assert len(RANDOM_GRAPHS) >= 20
        assert len(RANDOM_GRAPHS) * MOVES_PER_GRAPH >= 10_000


# ----------------------------------------------------------------------
# Disk-model parity at the formula's edges
# ----------------------------------------------------------------------

#: The default model plus small ones whose page and memory boundaries lie
#: at catalog-sized cardinalities.
DISK_EDGE_MODELS = (
    DiskCostModel(),
    DiskCostModel(memory_pages=4, tuples_per_page=10),
    DiskCostModel(memory_pages=3, tuples_per_page=1.0),
)


def _boundary_cards(model):
    """Cardinalities one below, at and one above 1, 2, ``memory_pages``
    and ``memory_pages + 1`` pages of ``model``."""
    cards = set()
    for pages in (1, 2, model.memory_pages, model.memory_pages + 1):
        edge = pages * model.tuples_per_page
        cards.update(card for card in (edge - 1, edge, edge + 1) if card >= 1)
    return sorted(cards)


def _chain_of(cards, distinct):
    """A chain over ``cards``; each predicate side has ``min(distinct,
    card)`` distinct values, so ``distinct=inf`` makes every join's result
    the smaller operand and ``distinct=1`` makes it the product."""
    relations = [Relation(f"r{i}", card) for i, card in enumerate(cards)]
    predicates = [
        JoinPredicate(
            i, i + 1, min(distinct, cards[i]), min(distinct, cards[i + 1])
        )
        for i in range(len(cards) - 1)
    ]
    return JoinGraph(relations, predicates)


def _assert_orders_match(graph, model):
    """Every valid order, each walked from the previous one's prefix."""
    engine = IncrementalEvaluator(graph, model)
    orders = list(valid_orders(graph))
    for order in orders:
        cost, _ = engine.evaluate(order.positions)
        assert cost == model.plan_cost(order, graph), order
        engine.commit(order.positions)
    return orders


class TestDiskParityEdges:
    @pytest.mark.parametrize("model", DISK_EDGE_MODELS, ids=repr)
    @pytest.mark.parametrize("distinct", (math.inf, 1), ids=("min", "product"))
    def test_page_and_memory_boundaries(self, model, distinct):
        cards = _boundary_cards(model)
        memory = model.memory_pages
        passes = set()
        result_pages = set()
        for a, first in enumerate(cards):
            for b, second in enumerate(cards):
                third = cards[(a + b) % len(cards)]
                graph = _chain_of([first, second, third], distinct)
                for order in _assert_orders_match(graph, model):
                    detail = model.plan_cost_detail(order, graph)
                    result_pages.update(
                        model.pages(size) for size in detail.prefix_sizes
                    )
                passes.update(
                    model.partition_passes(model.pages(card))
                    for card in (first, second, third)
                )
        # Inner pages at memory_pages (no pass) and one above (one pass).
        assert {0, 1} <= passes
        if distinct == math.inf:
            # Results at and just above memory: materialisation off and on.
            assert {memory, memory + 1} <= result_pages

    @pytest.mark.parametrize("model", DISK_EDGE_MODELS, ids=repr)
    @pytest.mark.parametrize(
        "cards",
        (
            [1e100, 1e100, 1e100, 1e100],
            [MAX_CARDINALITY, MAX_CARDINALITY, 2.0],
            [MAX_CARDINALITY / 2, 3.0, MAX_CARDINALITY],
        ),
        ids=("clamped-chain", "at-max", "below-max"),
    )
    def test_sizes_near_max_cardinality(self, model, cards):
        graph = _chain_of(cards, 1)
        _assert_orders_match(graph, model)
        sizes = {
            size
            for order in valid_orders(graph)
            for size in model.plan_cost_detail(order, graph).prefix_sizes
        }
        assert MAX_CARDINALITY in sizes

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_nonfinite_cardinality_raises_on_both_paths(self, model):
        relations = list(chain_graph().relations)
        poisoned = copy.copy(relations[2])
        object.__setattr__(poisoned, "base_cardinality", math.inf)
        relations[2] = poisoned
        graph = JoinGraph(
            relations, list(chain_graph().predicates), validate=False
        )
        for order in valid_orders(graph):
            with pytest.raises(CostOverflowError) as full:
                model.plan_cost(order, graph)
            with pytest.raises(CostOverflowError) as engine:
                IncrementalEvaluator(graph, model).evaluate(order.positions)
            # Same exception at the same join.
            assert str(engine.value) == str(full.value)

    @pytest.mark.parametrize("base", (MainMemoryCostModel, DiskCostModel))
    def test_join_cost_override_priced_through_its_own_method(self, base):
        class Doubled(base):
            def join_cost(self, outer_size, inner_size, result_size):
                return 2.0 * super().join_cost(
                    outer_size, inner_size, result_size
                )

        model = Doubled()
        graph = chain_graph()
        for order in _assert_orders_match(graph, model):
            assert model.plan_cost(order, graph) != base().plan_cost(
                order, graph
            )


# ----------------------------------------------------------------------
# Adversarial shapes: clamps, overflows and cross-product steps
# ----------------------------------------------------------------------


def _poisoned(graph, index, cardinality):
    """A copy of ``graph`` with one relation's base cardinality replaced."""
    relations = list(graph.relations)
    bad = copy.copy(relations[index])
    object.__setattr__(bad, "base_cardinality", cardinality)
    relations[index] = bad
    return JoinGraph(relations, list(graph.predicates), validate=False)


def _huge_graph():
    """Cardinalities big enough to trip the clamp and the inf product."""
    relations = [
        Relation("a", 10.0**200),
        Relation("b", 10.0**160),
        Relation("c", 1000.0),
        Relation("d", 10.0**120),
    ]
    predicates = [
        JoinPredicate(0, 1, 10.0**50, 10.0**40),
        JoinPredicate(1, 2, 100.0, 50.0),
        JoinPredicate(2, 3, 10.0, 10.0**60),
    ]
    return JoinGraph(relations, predicates)


def _cross_product_graph():
    """Sparse predicates: most orders hit cross-product (selectivity 1)."""
    relations = [Relation(f"r{i}", float(50 + 13 * i)) for i in range(5)]
    predicates = [JoinPredicate(0, 1, 7.0, 5.0), JoinPredicate(3, 4, 9.0, 4.0)]
    return JoinGraph(relations, predicates, validate=False)


def _assert_all_permutations_match(graph, model):
    """Every permutation, invalid orders included, each priced from the
    previous one's prefix: the engine returns ``plan_cost``'s float, or
    raises the same :class:`CostOverflowError` with the same message.

    Returns ``(priced, overflowed)`` counts.
    """
    engine = IncrementalEvaluator(graph, model)
    priced = overflowed = 0
    for permutation in permutations(range(graph.n_relations)):
        order = JoinOrder(permutation)
        try:
            expected = model.plan_cost(order, graph)
        except CostOverflowError as full:
            with pytest.raises(CostOverflowError) as raised:
                engine.evaluate(order.positions)
            assert str(raised.value) == str(full), order
            overflowed += 1
            continue
        cost, _ = engine.evaluate(order.positions)
        assert cost == expected, order
        engine.commit(order.positions)
        priced += 1
    return priced, overflowed


class TestAdversarialShapes:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_huge_cardinalities(self, model):
        priced, overflowed = _assert_all_permutations_match(
            _huge_graph(), model
        )
        # Both the clamp and the non-finite product are reached.
        assert priced and overflowed

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_cross_product_steps(self, model):
        priced, overflowed = _assert_all_permutations_match(
            _cross_product_graph(), model
        )
        assert priced == 120 and not overflowed

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_distinct_above_effective_cardinality(self, model):
        graph = selected_graph()
        assert any(
            predicate.distinct_values(side) > graph.cardinality(side)
            for predicate in graph.predicates
            for side in predicate.endpoints
        )
        priced, overflowed = _assert_all_permutations_match(graph, model)
        assert priced == 24 and not overflowed

    @pytest.mark.parametrize(
        "model",
        (
            MainMemoryCostModel(build_cost=1e300, output_cost=1e300),
            DiskCostModel(cpu_weight=1e300),
        ),
        ids=lambda m: m.name,
    )
    def test_nonfinite_total(self, model):
        # Sizes stay finite; only the summed cost leaves the float range,
        # so both walks fail at their closing check.
        graph = _poisoned(_poisoned(chain_graph(), 0, 10.0**140), 2, 10.0**140)
        priced, overflowed = _assert_all_permutations_match(graph, model)
        assert overflowed == 120 and not priced


class TestEngineProtocol:
    def test_rejects_plan_cost_overriding_models(self):
        graph = chain_graph()
        static = StaticCostModel(MainMemoryCostModel())
        assert not supports_incremental(static)
        with pytest.raises(ValueError, match="overrides plan_cost"):
            QueryContext(graph, static)
        with pytest.raises(ValueError, match="overrides plan_cost"):
            DeltaEvaluator(graph, static, Budget.unlimited())

    def test_commit_requires_fully_evaluated_candidate(self):
        graph = chain_graph()
        engine = IncrementalEvaluator(graph, MainMemoryCostModel())
        with pytest.raises(ValueError, match="nothing to commit"):
            engine.commit()
        rng = random.Random(0)
        order = random_valid_order(graph, rng)
        engine.rebase(order.positions)
        # A pruned evaluation leaves nothing committable.
        neighbor = order.swap(0, 1)
        cost, _ = engine.evaluate(neighbor.positions, upper_bound=0.0)
        if cost is None:
            with pytest.raises(ValueError, match="nothing to commit"):
                engine.commit(neighbor.positions)

    def test_commit_order_mismatch_raises(self):
        graph = chain_graph()
        engine = IncrementalEvaluator(graph, MainMemoryCostModel())
        order = random_valid_order(graph, random.Random(0))
        engine.rebase(order.positions)
        neighbor = order.swap(1, 2)
        engine.evaluate(neighbor.positions)
        with pytest.raises(ValueError, match="mismatch"):
            engine.commit(order.swap(2, 3).positions)

    def test_stale_prefix_hint_is_only_advisory(self):
        """A wrong first_changed hint may cost speed, never correctness."""
        graph = star_graph()
        model = MainMemoryCostModel()
        engine = IncrementalEvaluator(graph, model)
        order = random_valid_order(graph, random.Random(1))
        engine.rebase(order.positions)
        neighbor = order.swap(1, 3)
        # Claim the order first changed at position 3 even though position
        # 1 differs: the engine must detect the true shared prefix.
        cost, _ = engine.evaluate(neighbor.positions, None, 3)
        assert cost == model.plan_cost(neighbor, graph)

    def test_anchor_evaluation_is_free(self):
        graph = chain_graph()
        engine = IncrementalEvaluator(graph, MainMemoryCostModel())
        order = random_valid_order(graph, random.Random(2))
        cost, joins = engine.rebase(order.positions)
        assert joins == graph.n_joins
        again, joins_again = engine.evaluate(order.positions)
        assert again == cost
        assert joins_again == 0


def _run_ii(evaluator, graph, seed):
    from repro.core.budget import BudgetExhausted

    rng = random.Random(seed)
    start = random_valid_order(graph, rng)
    try:
        return improvement_run(start, evaluator, MoveSet(), rng, patience=24)
    except BudgetExhausted:
        return evaluator.best


def _reference_optimize(monkeypatch, query, **kwargs):
    """``optimize`` with every search on the full-cost reference evaluator."""
    with monkeypatch.context() as patch:
        patch.setattr(state, "supports_incremental", lambda model: False)
        return optimize(query, **kwargs)


def _assert_same_result(delta, reference):
    assert delta.order == reference.order
    assert delta.cost == reference.cost
    assert delta.units_spent == reference.units_spent
    assert delta.n_evaluations == reference.n_evaluations
    assert delta.trajectory == reference.trajectory


class TestEndToEndEquivalence:
    """Search methods on DeltaEvaluator == reference Evaluator."""

    @pytest.mark.parametrize("method", ("II", "SA", "IAI", "WALK"))
    @pytest.mark.parametrize("n_joins", (8, 15))
    def test_optimize_bitwise_identical_orders(
        self, monkeypatch, method, n_joins
    ):
        graph = generate_query(
            DEFAULT_SPEC, n_joins=n_joins, seed=n_joins
        ).graph
        kwargs = dict(
            method=method, seed=13, time_factor=2.0, units_per_n2=10.0
        )
        reference = _reference_optimize(monkeypatch, graph, **kwargs)
        delta = optimize(graph, **kwargs)
        _assert_same_result(delta, reference)

    @pytest.mark.parametrize(
        "method",
        (
            "II", "SA", "SAA", "SAK", "IAI", "IKI", "IAL", "AGI", "KBI",
            "2PO", "RANDOM", "WALK",
        ),
    )
    def test_every_method_matches_full_evaluation(self, monkeypatch, method):
        # Default budget, so each method runs its full schedule.
        query = generate_query(DEFAULT_SPEC, n_joins=9, seed=21)
        kwargs = dict(method=method, seed=0, time_factor=2.0)
        reference = _reference_optimize(monkeypatch, query, **kwargs)
        delta = optimize(query, **kwargs)
        _assert_same_result(delta, reference)

    def test_improvement_run_identical_on_both_evaluators(self):
        graph = generate_query(DEFAULT_SPEC, n_joins=12, seed=3).graph
        model = MainMemoryCostModel()
        reference = _run_ii(
            Evaluator(graph, model, Budget.unlimited()), graph, seed=9
        )
        delta_eval = DeltaEvaluator(graph, model, Budget.unlimited())
        delta = _run_ii(delta_eval, graph, seed=9)
        assert delta.order == reference.order
        assert delta.cost == reference.cost
        # Pruning must have fired, and must have saved join evaluations.
        assert delta_eval.n_pruned > 0
        assert (
            delta_eval.n_joins_evaluated
            < delta_eval.n_evaluations * graph.n_joins
        )

    def test_disconnected_graphs_route_through_incremental(
        self, monkeypatch, two_components
    ):
        reference = _reference_optimize(
            monkeypatch, two_components, method="II", seed=2
        )
        delta = optimize(two_components, method="II", seed=2)
        assert delta.order == reference.order
        assert delta.cost == reference.cost


class TestBudgetAccounting:
    def test_per_plan_charges_match_reference(self):
        graph = generate_query(DEFAULT_SPEC, n_joins=9, seed=5).graph
        model = MainMemoryCostModel()
        budget_a, budget_b = Budget(limit=4000.0), Budget(limit=4000.0)
        _run_ii(Evaluator(graph, model, budget_a), graph, seed=1)
        _run_ii(DeltaEvaluator(graph, model, budget_b), graph, seed=1)
        assert budget_a.spent == budget_b.spent


class TestResilientPathStaysOnOracle:
    def test_resilient_optimize_never_instantiates_engine(
        self, monkeypatch, small_query
    ):
        """optimize(resilient=True) must use the full-cost oracle only."""
        instantiated = []
        original_init = IncrementalEvaluator.__init__

        def spying_init(self, graph, model):
            instantiated.append(type(model).__name__)
            original_init(self, graph, model)

        monkeypatch.setattr(IncrementalEvaluator, "__init__", spying_init)
        result = optimize(
            small_query.graph, method="II", seed=0, resilient=True
        )
        assert result.cost > 0
        assert instantiated == []

    def test_verification_gate_recomputes_with_full_oracle(self):
        """verify_plan goes through model.plan_cost, not the engine."""
        from repro.robustness.verify import verify_plan

        graph = chain_graph()
        model = MainMemoryCostModel()
        order = random_valid_order(graph, random.Random(0))
        engine_cost, _ = IncrementalEvaluator(graph, model).rebase(
            order.positions
        )
        report = verify_plan(order, engine_cost, graph, model)
        assert report.ok
