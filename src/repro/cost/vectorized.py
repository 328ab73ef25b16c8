"""Vectorized batch plan costing: a struct-of-arrays hot path.

The scalar evaluators (:meth:`~repro.cost.base.CostModel.plan_cost` and the
prefix-cached :class:`~repro.cost.incremental.IncrementalEvaluator`) price
one candidate at a time, walking Python objects join by join.  The search
methods, however, naturally produce *batches* of candidates priced against
the same incumbent — an II rejection streak, an SA chain's proposals, a
local-improvement window's permutations.  This module prices such a batch
in one array sweep per join position instead of one object walk per plan.

**ArrayContext** compiles one ``(graph, model)`` pair into flat arrays:

========================  =====================================================
``cards[r]``              raw base cardinality of relation ``r`` (float64)
``first_sizes[r]``        clamped start size (``NaN`` when the raw value is
                          non-finite — the scalar walk would raise there)
``nbr[r, s]``             ``s``-th neighbor of ``r``, in the exact
                          ``graph.adjacency(r).items()`` order the scalar
                          estimator multiplies selectivities in
``d_out[r, s]``           predicate distinct count on the neighbor's side
``d_in[r, s]``            predicate distinct count on ``r``'s side
``slot_valid[r, s]``      whether slot ``s`` exists for ``r`` (rows are padded
                          to the maximum degree; padded slots multiply the
                          selectivity by exactly ``1.0``, a bit-exact identity)
========================  =====================================================

For the disk model, per-relation ``inner_pages[r]`` and ``io_factors[r]``
(``2 * passes + 1``) come from :meth:`~repro.cost.disk.DiskCostModel.inner_terms`,
the helper the scalar :class:`~repro.cost.incremental.QueryContext` also
compiles (the inner operand of an outer-linear plan is always a base
relation), so page rounding and the ``log``-based pass count agree with
the scalar walk to the last bit.

**Parity contract.**  ``batch_plan_cost(orders)[b]`` is bitwise equal to
``model.plan_cost(orders[b], graph)`` for every plan on which the scalar
walk succeeds: identical multiplication order (the slot loop multiplies
selectivity factors column by column, never via an axis reduction, because
reduction order is unspecified), identical clamp behaviour (the in-range
test mirrors ``1.0 <= result <= MAX_CARDINALITY`` before the slow path),
and identical distinct-value cap propagation (a dense ``[B, N]`` cap matrix
is read-equivalent to the scalar estimator's sparse dict: a cap the scalar
pops — or never registers — belongs to a relation all of whose neighbors
are placed, which no later join can read).

**Masked saturation.**  Where the scalar walk raises
:class:`~repro.cost.cardinality.CostOverflowError` (non-finite cardinality,
non-finite running total), the batch kernel instead *flags* the row and
sanitizes its lane so NaN/inf never contaminates the other rows of the
batch; flagged rows report ``+inf``.  Callers that need the genuine
exception (the evaluator layer does) re-dispatch flagged rows to the
scalar oracle.

numpy is an optional dependency (the ``[vector]`` extra).  Without it —
or for cost models other than the two built-in ones — ``batch_costs``
falls back to a per-row scalar ``plan_cost`` loop with the same
``(costs, saturated)`` interface, so callers never need to care.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.catalog.join_graph import JoinGraph
from repro.cost.base import CostModel
from repro.cost.cardinality import MAX_CARDINALITY, CostOverflowError
from repro.cost.disk import DiskCostModel
from repro.cost.incremental import supports_incremental
from repro.cost.memory import MainMemoryCostModel

try:  # pragma: no cover - exercised via the monkeypatched fallback tests
    import numpy
except ImportError:  # pragma: no cover - the [vector] extra is optional
    numpy = None  # type: ignore[assignment]

#: Whether the vectorized kernel is available at all.
HAVE_NUMPY = numpy is not None

#: Array annotations stay ``Any`` so the module typechecks without numpy.
FloatArray = Any
BoolArray = Any

__all__ = [
    "ArrayContext",
    "HAVE_NUMPY",
    "batch_plan_cost",
    "supports_vectorized",
]


def supports_vectorized(model: CostModel) -> bool:
    """Whether ``model`` is priced by the numpy kernel (not the fallback).

    The kernel inlines the two built-in models' ``join_cost`` arithmetic,
    so it requires their *exact* types — a subclass could override
    ``join_cost`` — plus numpy itself.  Ineligible models still work
    through :meth:`ArrayContext.batch_costs`; they just take the scalar
    per-row loop.
    """
    return HAVE_NUMPY and type(model) in (MainMemoryCostModel, DiskCostModel)


class ArrayContext:
    """Flat-array compilation of one ``(graph, model)`` pair.

    Build it once per search; :meth:`batch_costs` then prices whole
    candidate batches.  Only models eligible for incremental evaluation
    (those that keep the base ``plan_cost`` walk) are accepted — a model
    that overrides ``plan_cost`` defines its own plan semantics, which no
    shared kernel can reproduce.
    """

    def __init__(self, graph: JoinGraph, model: CostModel) -> None:
        if not supports_incremental(model):
            raise ValueError(
                f"cost model {model!r} overrides plan_cost and cannot be "
                "batch-costed; price it plan by plan instead"
            )
        self.graph = graph
        self.model = model
        self.n_relations = graph.n_relations
        #: True when batches run through the numpy kernel; False routes
        #: every batch through the scalar per-row fallback.
        self.vectorized = supports_vectorized(model)
        if self.vectorized:
            self._compile()

    # ------------------------------------------------------------------
    # Compilation

    def _compile(self) -> None:
        assert numpy is not None
        np = numpy
        graph, model = self.graph, self.model
        n = self.n_relations
        cards = [float(graph.cardinality(index)) for index in range(n)]
        self._cards = np.array(cards, dtype=np.float64)
        finite = np.isfinite(self._cards)
        with np.errstate(invalid="ignore"):
            self._first_sizes = np.where(
                finite, np.clip(self._cards, 1.0, MAX_CARDINALITY), np.nan
            )
        width = max((graph.degree(index) for index in range(n)), default=1)
        width = max(width, 1)
        self._width = width
        self._nbr = np.zeros((n, width), dtype=np.intp)
        self._d_out = np.ones((n, width), dtype=np.float64)
        self._d_in = np.ones((n, width), dtype=np.float64)
        self._slot_valid = np.zeros((n, width), dtype=bool)
        for index in range(n):
            adjacency = graph.adjacency(index)
            for slot, (neighbor, predicate) in enumerate(adjacency.items()):
                self._nbr[index, slot] = neighbor
                if neighbor == predicate.left:
                    self._d_out[index, slot] = predicate.left_distinct
                    self._d_in[index, slot] = predicate.right_distinct
                else:
                    self._d_out[index, slot] = predicate.right_distinct
                    self._d_in[index, slot] = predicate.left_distinct
                self._slot_valid[index, slot] = True
        if type(model) is MainMemoryCostModel:
            self._kind = "memory"
            self._build = model.build_cost
            self._probe = model.probe_cost
            self._output = model.output_cost
        else:
            assert type(model) is DiskCostModel
            self._kind = "disk"
            self._tuples_per_page = model.tuples_per_page
            self._memory_pages = float(model.memory_pages)
            self._io_cost = model.io_cost
            self._cpu_weight = model.cpu_weight
            # Inner pages and I/O factors come from the same helper the
            # scalar QueryContext compiles, so the kernel never re-derives
            # them.
            inner_pages, io_factors = model.inner_terms(cards)
            self._inner_pages = np.array(inner_pages, dtype=np.float64)
            self._io_factors = np.array(io_factors, dtype=np.float64)

    # ------------------------------------------------------------------
    # Batch pricing

    def batch_costs(
        self, orders: Sequence[Sequence[int]], validate: bool = True
    ) -> tuple[Any, Any]:
        """Price every row of ``orders``; return ``(costs, saturated)``.

        ``costs[b]`` equals ``model.plan_cost(orders[b], graph)`` bit for
        bit wherever the scalar walk succeeds; rows on which the scalar
        walk would raise :class:`CostOverflowError` carry ``saturated[b]
        == True`` and ``costs[b] == inf`` instead (masked saturation — a
        poisoned row never contaminates its batchmates).  With numpy both
        returns are arrays (float64[B], bool[B]); the fallback returns
        plain lists with the same semantics.

        ``validate=True`` checks each row is a permutation of the graph's
        relations; internal callers that construct rows from known-valid
        :class:`~repro.plans.join_order.JoinOrder` objects skip it.
        """
        if self.vectorized:
            return self._batch_costs_numpy(orders, validate)
        return self._batch_costs_python(orders, validate)

    def batch_plan_cost(self, orders: Sequence[Sequence[int]]) -> Any:
        """Costs only; saturated rows report ``+inf`` (see module docs)."""
        costs, _saturated = self.batch_costs(orders, validate=True)
        return costs

    def _batch_costs_python(
        self, orders: Sequence[Sequence[int]], validate: bool
    ) -> tuple[list[float], list[bool]]:
        """Scalar fallback: per-row ``plan_cost`` with exception masking.

        Parity with the oracle holds by construction; only the masked
        saturation of :class:`CostOverflowError` is layered on top.
        """
        graph, model = self.graph, self.model
        expected = frozenset(range(self.n_relations))
        costs: list[float] = []
        saturated: list[bool] = []
        for row in orders:
            positions = tuple(row)
            if validate and (
                len(positions) != self.n_relations
                or set(positions) != expected
            ):
                raise ValueError(
                    f"order {positions!r} is not a permutation of "
                    f"0..{self.n_relations - 1}"
                )
            try:
                cost = model.plan_cost(positions, graph)  # type: ignore[arg-type]
            except CostOverflowError:
                costs.append(math.inf)
                saturated.append(True)
            else:
                costs.append(cost)
                saturated.append(False)
        return costs, saturated

    def _batch_costs_numpy(
        self, orders: Sequence[Sequence[int]], validate: bool
    ) -> tuple[Any, Any]:
        assert numpy is not None
        np = numpy
        n = self.n_relations
        if len(orders) == 0:
            # An empty list has no second axis to shape-check against.
            return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=bool)
        array = np.asarray(
            [tuple(row) for row in orders]
            if not isinstance(orders, np.ndarray)
            else orders,
            dtype=np.intp,
        )
        if array.ndim != 2 or array.shape[1] != n:
            raise ValueError(
                f"orders must be [B, {n}]-shaped; got {array.shape}"
            )
        if validate and not bool(
            (np.sort(array, axis=1) == np.arange(n, dtype=np.intp)).all()
        ):
            raise ValueError(
                f"every row must be a permutation of 0..{n - 1}"
            )
        batch = array.shape[0]
        if batch == 0:
            empty = np.zeros(0, dtype=np.float64)
            return empty, np.zeros(0, dtype=bool)
        with np.errstate(
            over="ignore", invalid="ignore", divide="ignore"
        ):
            return self._kernel(np, array, batch, n)

    def _kernel(
        self, np: Any, orders: Any, batch: int, n: int
    ) -> tuple[Any, Any]:
        """One sweep per join position over the whole batch.

        Mirrors :class:`~repro.cost.cardinality.PlanEstimator` + the
        model's ``join_cost`` line by line; see the module docstring for
        why each construct is bit-exact.
        """
        rows = np.arange(batch)
        first = orders[:, 0]
        size = self._first_sizes[first].copy()
        saturated = np.isnan(size)
        if saturated.any():
            size[saturated] = 1.0
        caps = np.full((batch, n), np.inf, dtype=np.float64)
        caps[rows, first] = size
        placed = np.zeros((batch, n), dtype=bool)
        placed[rows, first] = True
        total = np.zeros(batch, dtype=np.float64)
        disk = self._kind == "disk"
        for position in range(1, n):
            inner = orders[:, position]
            # Selectivity: gather this position's adjacency rows once,
            # then multiply factors column by column (left to right, like
            # the scalar loop — reduction order must not be left to an
            # axis reduction, whose association is unspecified).
            neighbors = self._nbr[inner]
            d_out = self._d_out[inner]
            use = self._slot_valid[inner] & placed[rows[:, None], neighbors]
            capped = np.minimum(caps[rows[:, None], neighbors], d_out)
            larger = np.maximum(
                np.maximum(capped, self._d_in[inner]), 1.0
            )
            factor = np.where(use, 1.0 / larger, 1.0)
            sel = np.ones(batch, dtype=np.float64)
            for slot in range(self._width):
                sel = sel * factor[:, slot]
            inner_size = self._cards[inner]
            outer_size = size
            result = outer_size * inner_size * sel
            in_range = (1.0 <= result) & (result <= MAX_CARDINALITY)
            if not in_range.all():
                # Slow path, exactly like the scalar estimator: clamp
                # overflowing finite estimates, flag NaN/inf rows (where
                # the scalar raises CostOverflowError) and sanitize their
                # lanes so they cannot poison the rest of the batch.
                finite = np.isfinite(result)
                saturated |= ~finite
                result = np.clip(result, 1.0, MAX_CARDINALITY)
                result[~finite] = 1.0
            if disk:
                cost = self._disk_cost(np, outer_size, inner_size, result, inner)
            else:
                cost = (
                    self._build * inner_size
                    + self._probe * outer_size
                    + self._output * result
                )
            total = total + cost
            caps[rows, inner] = np.where(
                inner_size < result, inner_size, result
            )
            np.minimum(caps, result[:, None], out=caps)
            placed[rows, inner] = True
            size = result
        # plan_cost's closing check: a non-finite *total* (the costs were
        # finite join by join but their sum overflowed) also raises.
        saturated |= ~np.isfinite(total)
        costs = np.where(saturated, np.inf, total)
        return costs, saturated

    def _disk_cost(
        self, np: Any, outer_size: Any, inner_size: Any, result: Any, inner: Any
    ) -> Any:
        """Vector transcription of :meth:`DiskCostModel.join_cost`."""
        outer_pages = np.maximum(
            1.0, np.ceil(outer_size / self._tuples_per_page)
        )
        inner_pages = self._inner_pages[inner]
        io = self._io_factors[inner] * (outer_pages + inner_pages)
        result_pages = np.maximum(
            1.0, np.ceil(result / self._tuples_per_page)
        )
        io = io + np.where(
            result_pages > self._memory_pages, 2.0 * result_pages, 0.0
        )
        cpu = self._cpu_weight * (outer_size + inner_size + result)
        return self._io_cost * io + cpu


def batch_plan_cost(
    orders: Sequence[Sequence[int]], graph: JoinGraph, model: CostModel
) -> Any:
    """Price a batch of orders in one call (builds a throwaway context).

    Returns ``float64[B]`` (a list without numpy): element ``b`` is
    bitwise equal to ``model.plan_cost(orders[b], graph)``, except that
    rows on which the scalar walk raises
    :class:`~repro.cost.cardinality.CostOverflowError` report ``+inf``.
    Callers pricing many batches against one graph should build an
    :class:`ArrayContext` once and call :meth:`ArrayContext.batch_costs`.
    """
    return ArrayContext(graph, model).batch_plan_cost(orders)
