"""Incremental plan evaluation: prefix caching with bound pruning.

Every neighbor the combinatorial search visits differs from the current
order only from some position onward — a swap at positions ``(i, j)``
leaves the prefix before ``min(i, j)`` untouched, and so does an insert.
Re-deriving that unchanged prefix through
:meth:`~repro.cost.base.CostModel.plan_cost` is where the II/SA walks
spend most of their time.  This module removes the redundancy:

* :class:`QueryContext` precompiles one query's catalog — relation
  cardinalities and one per-edge table of distinct-value constants,
  flattened into index-keyed tuples — so the inner costing loop performs
  no dict or string lookups and never touches predicate objects.
* :class:`IncrementalEvaluator` keeps two numbers per position of an
  anchor order — the intermediate size and the cumulative cost — plus
  each relation's position in the anchor, and prices a candidate by
  recomputing only the suffix after the longest prefix it shares with
  the anchor.  An ``upper_bound`` makes the walk abort the moment its
  running total exceeds the bound — the incumbent's cost in iterative
  improvement, the accept-threshold in simulated annealing.

**Exactness.**  The walk keeps no distinct-value caps: it derives a
placed neighbor's cap from the cached sizes when it reads the edge.
``min`` and ``max`` only pick one of their operands, so every rounding
step sees the same floats in the same order as in the base
:meth:`~repro.cost.base.CostModel.plan_cost`, and a full (unaborted)
evaluation returns the *bitwise identical* float.  The differential
harness in ``tests/test_cost_incremental.py`` enforces this.

**Eligibility.**  The engine reproduces the semantics of the *base*
``plan_cost`` (propagating estimator + sum of ``join_cost``).  Models
that override ``plan_cost`` — :class:`~repro.cost.static.StaticCostModel`
(different estimator) and the fault-injection wrappers — must not be
routed through it; :func:`supports_incremental` is the gate the search
layer uses.

**Bound pruning contract.**  Aborts are decision-safe only because join
costs are non-negative: once the running total exceeds ``upper_bound``,
the final total can only be larger, so a strictly-less-than acceptance
test must reject.  Models with negative join costs are not eligible (the
stock models all price joins positively).
"""

from __future__ import annotations

import math
from math import ceil
from typing import Sequence

from repro.catalog.join_graph import JoinGraph
from repro.cost.base import CostModel
from repro.cost.cardinality import (
    MAX_CARDINALITY,
    CostOverflowError,
    clamp_cardinality,
)
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel

__all__ = [
    "QueryContext",
    "IncrementalEvaluator",
    "PrefixState",
    "supports_incremental",
    "start_state",
    "extend_state",
]


def supports_incremental(model: CostModel) -> bool:
    """True when ``model`` inherits the base ``plan_cost`` unchanged.

    A model that overrides ``plan_cost`` (a different estimator, a fault
    injector bypassing the overflow guard) defines its own plan semantics
    that the incremental walk would silently disagree with.
    """
    return type(model).plan_cost is CostModel.plan_cost


class QueryContext:
    """One query's catalog, precompiled for the incremental inner loop.

    ``adjacency[k]`` holds one ``(neighbor, distinct, floor)`` triple per
    edge, in ``graph.adjacency(k)`` order so the selectivity product stays
    bitwise identical to the full estimator's.  ``distinct`` is
    ``min(neighbor distinct, neighbor cardinality)``, the neighbor's cap
    before any join lowers it; ``floor`` is ``max(1.0, own distinct)``.

    Both stock models are compiled: the walk prices their joins inline,
    replicating ``join_cost`` term for term, instead of calling it.  The
    check is on the exact type, because a subclass may override
    ``join_cost``; any other model is priced through its own method.
    """

    __slots__ = (
        "graph",
        "model",
        "n_relations",
        "cardinalities",
        "adjacency",
        "degrees",
        "join_cost",
        "_memory_constants",
        "_disk_constants",
    )

    def __init__(self, graph: JoinGraph, model: CostModel) -> None:
        if not supports_incremental(model):
            raise ValueError(
                f"cost model {model!r} overrides plan_cost; the incremental "
                "engine would disagree with its semantics"
            )
        self.graph = graph
        self.model = model
        n = graph.n_relations
        self.n_relations = n
        self.cardinalities = [
            relation.cardinality for relation in graph.relations
        ]
        self.adjacency: list[tuple[tuple[int, float, float], ...]] = []
        self.degrees: list[int] = []
        for relation in range(n):
            entries = tuple(
                (
                    neighbor,
                    min(
                        predicate.distinct_values(neighbor),
                        self.cardinalities[neighbor],
                    ),
                    max(1.0, predicate.distinct_values(relation)),
                )
                for neighbor, predicate in graph.adjacency(relation).items()
            )
            self.adjacency.append(entries)
            self.degrees.append(len(entries))
        self.join_cost = model.join_cost
        self._memory_constants: tuple[float, float, float] | None = None
        self._disk_constants: (
            tuple[float, int, float, float, list[float], list[float]] | None
        ) = None
        if type(model) is MainMemoryCostModel:
            self._memory_constants = (
                model.build_cost,
                model.probe_cost,
                model.output_cost,
            )
        elif type(model) is DiskCostModel:
            inner_pages, io_factors = model.inner_terms(self.cardinalities)
            self._disk_constants = (
                model.tuples_per_page,
                model.memory_pages,
                model.io_cost,
                model.cpu_weight,
                inner_pages,
                io_factors,
            )


class IncrementalEvaluator:
    """Prefix-cached plan costing against an *anchor* order.

    Usage: :meth:`rebase` on the walk's current order, then
    :meth:`evaluate` each candidate (optionally with ``upper_bound``),
    and :meth:`commit` when a candidate is accepted — the candidate's
    sizes and costs, computed during its evaluation, become the new
    anchor without any re-walk.  The engine is pure costing: budget
    charging, best-plan tracking, and trajectory recording stay in
    :class:`repro.core.state.DeltaEvaluator`.
    """

    def __init__(self, graph: JoinGraph, model: CostModel) -> None:
        self.context = QueryContext(graph, model)
        n = self.context.n_relations
        # Anchor state: one entry per order position.
        self._positions: tuple[int, ...] | None = None
        self._sizes: list[float] = []  # intermediate size after position p
        self._costs: list[float] = []  # cumulative cost through position p
        self._total = 0.0
        # Each relation's position in the anchor order.
        self._at = [0] * n
        # Pending candidate (last successful evaluate), committable.
        self._pending: tuple | None = None
        # A relation placed in the current walk's suffix is marked
        # ``base + position``; every earlier walk's marks lie below the
        # current ``base``, so no O(n) clear is needed per candidate.
        self._marks = [0] * n
        self._base = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def anchor(self) -> tuple[int, ...] | None:
        """The order whose prefix states are cached (None before rebase)."""
        return self._positions

    @property
    def anchor_cost(self) -> float:
        """Total cost of the anchor order."""
        if self._positions is None:
            raise ValueError("no anchor order has been evaluated yet")
        return self._total

    def rebase(self, order: Sequence[int]) -> tuple[float, int]:
        """Make ``order`` the anchor; returns ``(cost, joins_evaluated)``.

        Reuses whatever prefix the new anchor shares with the old one, so
        re-anchoring after a small change is itself incremental.
        """
        cost, joins = self._walk(tuple(order), None, None)
        assert cost is not None  # unbounded walks never abort
        if self._pending is not None:
            # A walk of the anchor itself leaves nothing pending.
            self.commit()
        return cost, joins

    def evaluate(
        self,
        order: Sequence[int],
        upper_bound: float | None = None,
        prefix_hint: int | None = None,
    ) -> tuple[float | None, int]:
        """Price ``order`` against the anchor's cached prefix states.

        Returns ``(cost, joins_evaluated)``; ``cost`` is ``None`` when the
        running total exceeded ``upper_bound`` (the candidate is then not
        committable).  ``prefix_hint`` caps the prefix-sharing scan — an
        advisory bound (e.g. a move's first changed position), never
        trusted beyond the actual element-wise comparison, so a stale
        hint can cost speed but not correctness.
        """
        return self._walk(tuple(order), upper_bound, prefix_hint)

    def commit(self, order: Sequence[int] | None = None) -> None:
        """Adopt the last fully evaluated candidate as the new anchor.

        ``order``, when given, asserts which candidate the caller means —
        a mismatch (commit after an intervening evaluate) raises rather
        than silently anchoring the wrong order.  Committing the anchor
        itself is a no-op: evaluating an order identical to the anchor
        leaves nothing pending (there was nothing to recompute), yet the
        caller's accept-the-candidate flow is still satisfied.
        """
        pending = self._pending
        if pending is None:
            if order is not None and tuple(order) == self._positions:
                return
            raise ValueError(
                "nothing to commit: no candidate has been fully evaluated "
                "since the last commit"
            )
        positions, shared, sizes, costs, total = pending
        if order is not None and tuple(order) != positions:
            raise ValueError(
                f"commit order mismatch: last evaluated {positions}, "
                f"asked to commit {tuple(order)}"
            )
        at = self._at
        for position in range(shared, len(positions)):
            at[positions[position]] = position
        self._sizes = sizes
        self._costs = costs
        self._positions = positions
        self._total = total
        self._pending = None

    def prime(self, order: Sequence[int]) -> None:
        """Ensure ``order`` is the anchor; no-op when it already is."""
        positions = tuple(order)
        if positions != self._positions:
            self.rebase(positions)

    def joins_to_evaluate(self, order: Sequence[int]) -> int:
        """Joins a (full, unaborted) evaluation of ``order`` would walk."""
        positions = tuple(order)
        shared = self._shared_prefix(positions, None)
        if shared == len(positions):
            return 0
        return len(positions) - max(1, shared)

    # ------------------------------------------------------------------
    # The walk
    # ------------------------------------------------------------------

    def _shared_prefix(
        self, positions: tuple[int, ...], prefix_hint: int | None
    ) -> int:
        anchor = self._positions
        if anchor is None:
            return 0
        limit = min(len(anchor), len(positions))
        if prefix_hint is not None and prefix_hint < limit:
            limit = prefix_hint
        shared = 0
        while shared < limit and anchor[shared] == positions[shared]:
            shared += 1
        return shared

    def _walk(
        self,
        positions: tuple[int, ...],
        upper_bound: float | None,
        prefix_hint: int | None,
    ) -> tuple[float | None, int]:
        context = self.context
        n = len(positions)
        if n != context.n_relations:
            raise ValueError(
                f"order over {n} relations does not match graph with "
                f"{context.n_relations}"
            )
        shared = self._shared_prefix(positions, prefix_hint)
        if shared == n:
            # Identical to the anchor: nothing to recompute or commit.
            self._pending = None
            return self._total, 0

        cardinalities = context.cardinalities
        adjacency = context.adjacency
        join_cost = context.join_cost
        memory = context._memory_constants
        if memory is not None:
            build_cost, probe_cost, output_cost = memory
        disk = context._disk_constants
        if disk is not None:
            (
                tuples_per_page,
                memory_pages,
                io_cost,
                cpu_weight,
                inner_pages,
                io_factors,
            ) = disk

        # Relations before ``shared`` sit where the anchor put them; the
        # suffix is marked as the walk places it.  ``mins[q]`` is the
        # smallest size from position ``q`` on: the estimator's cap of a
        # relation placed at ``q``, before its cardinality is folded in.
        at = self._at
        marks = self._marks
        self._base += n
        base = self._base
        if shared == 0:
            first = positions[0]
            size = clamp_cardinality(
                cardinalities[first], f"relation {first}"
            )
            sizes = [size]
            costs = [0.0]
            marks[first] = base
            start = 1
        else:
            sizes = self._sizes[:shared]
            costs = self._costs[:shared]
            start = shared
        size = sizes[-1]
        running = costs[-1]
        mins = list(sizes)
        for earlier in range(start - 2, -1, -1):
            if mins[earlier + 1] < mins[earlier]:
                mins[earlier] = mins[earlier + 1]
        if disk is not None:
            # DiskCostModel.pages of the outer operand; each join's result
            # pages then become the next join's outer pages.
            outer_pages = float(ceil(size / tuples_per_page))
            if outer_pages < 1.0:
                outer_pages = 1.0

        joins = 0
        for position in range(start, n):
            inner = positions[position]
            selectivity = 1.0
            for neighbor, distinct, floor in adjacency[inner]:
                placed_at = at[neighbor]
                if placed_at >= shared:
                    placed_at = marks[neighbor] - base
                    if placed_at < 0:
                        continue  # not placed yet
                smallest = mins[placed_at]
                if smallest < distinct:
                    distinct = smallest
                selectivity *= 1.0 / (floor if floor > distinct else distinct)

            inner_size = cardinalities[inner]
            result = size * inner_size * selectivity
            if not (1.0 <= result <= MAX_CARDINALITY):
                result = clamp_cardinality(
                    result, f"joining relation {inner}"
                )

            if memory is not None:
                running += (
                    build_cost * inner_size
                    + probe_cost * size
                    + output_cost * result
                )
            elif disk is not None:
                # DiskCostModel.join_cost, term for term.
                result_pages = float(ceil(result / tuples_per_page))
                if result_pages < 1.0:
                    result_pages = 1.0
                io = io_factors[inner] * (outer_pages + inner_pages[inner])
                if result_pages > memory_pages:
                    io += 2 * result_pages
                running += io_cost * io + cpu_weight * (
                    size + inner_size + result
                )
                outer_pages = result_pages
            else:
                running += join_cost(size, inner_size, result)
            joins += 1
            if upper_bound is not None and running > upper_bound:
                # Every remaining join can only add cost, so the total
                # already exceeds the bound: a strictly-less acceptance
                # test must reject this candidate.  Abort — the candidate
                # can never be committed.
                self._pending = None
                return None, joins
            marks[inner] = base + position
            size = result
            sizes.append(size)
            costs.append(running)
            # mins is non-decreasing, so only a tail can exceed the result.
            lowered = position - 1
            while lowered >= 0 and mins[lowered] > result:
                mins[lowered] = result
                lowered -= 1
            mins.append(result)

        if not math.isfinite(running):
            # Formatted like JoinOrder, so the message matches plan_cost's.
            order = "(" + " ".join(str(p) for p in positions) + ")"
            raise CostOverflowError(
                f"{context.model.name} cost model produced non-finite plan "
                f"cost {running!r} for order {order}"
            )
        self._pending = (positions, shared, sizes, costs, running)
        return running, joins


# ----------------------------------------------------------------------
# Standalone prefix states (the branch-and-bound interface)
# ----------------------------------------------------------------------
#
# The anchor-relative engine above serves *trajectory* search: II/SA walk
# one order at a time.  A best-first branch-and-bound instead holds many
# incomparable prefixes alive at once, so it needs the walk's state as a
# value it can stash in a frontier and extend out of order.  PrefixState
# keeps PlanEstimator's caps, because dominance compares them;
# ``extend_state`` is PlanEstimator's step on the walk's per-edge table,
# so a chain of extensions yields the bitwise-identical cost
# ``plan_cost`` returns (enforced by tests/test_core_exact.py).


class PrefixState:
    """The propagating walk's state after placing a prefix of relations.

    ``mask`` is the placed-relation bitmask (order-independent), ``size``
    the current intermediate-result cardinality, ``cost`` the cumulative
    plan cost so far, and ``caps``/``unplaced`` the distinct-value caps
    and open-edge counts of :class:`~repro.cost.cardinality.PlanEstimator`.
    Treat instances as immutable: ``extend_state`` copies the dicts.
    """

    __slots__ = ("mask", "size", "cost", "caps", "unplaced")

    def __init__(
        self,
        mask: int,
        size: float,
        cost: float,
        caps: dict[int, float],
        unplaced: dict[int, int],
    ) -> None:
        self.mask = mask
        self.size = size
        self.cost = cost
        self.caps = caps
        self.unplaced = unplaced


def start_state(context: QueryContext, first: int) -> PrefixState:
    """The walk's state after placing ``first`` as the outermost relation.

    Mirrors the first-relation initialisation of the incremental walk
    (and of :class:`~repro.cost.cardinality.PlanEstimator`) exactly.
    """
    size = clamp_cardinality(
        context.cardinalities[first], f"relation {first}"
    )
    caps: dict[int, float] = {}
    unplaced: dict[int, int] = {}
    degree = context.degrees[first]
    if degree:
        caps[first] = size
        unplaced[first] = degree
    return PrefixState(1 << first, size, 0.0, caps, unplaced)


def extend_state(
    context: QueryContext, state: PrefixState, inner: int
) -> PrefixState:
    """``state`` with relation ``inner`` joined next.

    One :meth:`~repro.cost.cardinality.PlanEstimator.step` on
    ``context.adjacency``; a cap is never above its relation's
    cardinality, so the table's folded-in cardinality changes no
    operand and extension chains stay bitwise identical to
    ``plan_cost``.  Raises
    :class:`~repro.cost.cardinality.CostOverflowError` exactly where the
    full walk's clamp would.
    """
    mask = state.mask
    caps = state.caps.copy()
    unplaced = state.unplaced.copy()
    size = state.size
    selectivity = 1.0
    open_inner = 0
    for neighbor, distinct, floor in context.adjacency[inner]:
        if not (mask >> neighbor) & 1:
            open_inner += 1
            continue
        cap = caps.get(neighbor)
        if cap is not None and cap < distinct:
            distinct = cap
        selectivity *= 1.0 / (floor if floor > distinct else distinct)
        count = unplaced.get(neighbor, 0) - 1
        if count <= 0:
            unplaced.pop(neighbor, None)
            caps.pop(neighbor, None)
        else:
            unplaced[neighbor] = count

    inner_size = context.cardinalities[inner]
    result = size * inner_size * selectivity
    if not (1.0 <= result <= MAX_CARDINALITY):
        result = clamp_cardinality(result, f"joining relation {inner}")

    if open_inner:
        unplaced[inner] = open_inner
        caps[inner] = inner_size if inner_size < result else result
    for relation, cap in caps.items():
        if cap > result:
            caps[relation] = result

    memory = context._memory_constants
    if memory is not None:
        build_cost, probe_cost, output_cost = memory
        cost = state.cost + (
            build_cost * inner_size
            + probe_cost * size
            + output_cost * result
        )
    else:
        cost = state.cost + context.join_cost(size, inner_size, result)
    return PrefixState(mask | (1 << inner), result, cost, caps, unplaced)

