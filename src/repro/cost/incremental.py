"""Incremental plan evaluation: prefix caching with bound pruning.

Every neighbor the combinatorial search visits differs from the current
order only from some position onward — a swap at positions ``(i, j)``
leaves the prefix before ``min(i, j)`` untouched, and so does an insert.
Re-deriving that unchanged prefix through
:meth:`~repro.cost.base.CostModel.plan_cost` is where the II/SA walks
spend most of their time.  :class:`IncrementalEvaluator` removes the
redundancy.  It keeps two numbers per position of an anchor order — the
intermediate size and the cumulative cost — plus each relation's
position in the anchor, and prices a candidate by recomputing only the
suffix after the longest prefix it shares with the anchor.  An
``upper_bound`` makes the walk abort the moment its running total
exceeds the bound — the incumbent's cost in iterative improvement, the
accept-threshold in simulated annealing.  The walk reads the query
through a :class:`~repro.cost.cardinality.QueryContext`, so its inner
loop performs no dict or string lookups and never touches predicate
objects.

**Exactness.**  The walk is the one copy of the propagating recurrence
besides :func:`~repro.cost.cardinality.step`, which ``plan_cost`` folds.
It keeps no distinct-value caps: it derives a placed neighbor's cap from
the cached sizes when it reads the edge, so it can resume from any
shared prefix.  ``min`` and ``max`` only pick one of their operands, so
every rounding step sees the same floats in the same order as in
``plan_cost``, and a full (unaborted) evaluation returns the *bitwise
identical* float.  The differential harness in
``tests/test_cost_incremental.py`` enforces this.

**Eligibility.**  The engine reproduces the semantics of the *base*
``plan_cost``.  Models that override ``plan_cost`` —
:class:`~repro.cost.static.StaticCostModel` (different estimator) and
the fault-injection wrappers — must not be routed through it;
:func:`supports_incremental` is the gate the search layer uses.

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
    QueryContext,
    clamp_cardinality,
)

__all__ = ["IncrementalEvaluator", "supports_incremental"]


def supports_incremental(model: CostModel) -> bool:
    """True when ``model`` inherits the base ``plan_cost`` unchanged.

    A model that overrides ``plan_cost`` (a different estimator, a fault
    injector bypassing the overflow guard) defines its own plan semantics
    that the incremental walk would silently disagree with.
    """
    return type(model).plan_cost is CostModel.plan_cost


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
        if not supports_incremental(model):
            raise ValueError(
                f"cost model {model!r} overrides plan_cost; the incremental "
                "engine would disagree with its semantics"
            )
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
