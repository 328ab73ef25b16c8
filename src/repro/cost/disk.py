"""Disk-based hash-join cost model (the paper's "similar to [Bra84]").

Bratbergsengen's cost formulas count page I/Os for hash-partitioned joins
(Grace hash join).  Joining an outer of ``P_o`` pages with an inner of
``P_i`` pages with ``M`` pages of memory:

* **In-memory join** (``P_i <= M``): read both operands once —
  ``P_o + P_i`` I/Os.
* **Partitioned join**: each partitioning pass reads and writes both
  operands; the final pass reads them once.  With a fanout of ``M - 1``
  buckets per pass, ``ceil(log_{M-1}(P_i / M))`` passes are needed —
  ``(2 * passes + 1) * (P_o + P_i)`` I/Os.

On top of the I/O count, a small CPU term (same shape as the memory model,
scaled down) keeps plans with equal I/O but different result sizes ordered;
intermediate results larger than memory are charged a write-out and a
re-read by the next join.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.cost.base import CostModel
from repro.utils.validation import check_positive


class DiskCostModel(CostModel):
    """Page-I/O cost of a Grace hash join plus a small CPU term.

    ``memory_pages`` must be at least 3: a partitioning pass splits the
    inner operand into ``memory_pages - 1`` buckets, and a fanout below 2
    would never make it fit.
    """

    name = "disk"

    def __init__(
        self,
        memory_pages: int = 64,
        tuples_per_page: float = 32.0,
        io_cost: float = 1.0,
        cpu_weight: float = 0.01,
    ) -> None:
        self.memory_pages = int(check_positive("memory_pages", memory_pages))
        if self.memory_pages < 3:
            raise ValueError(
                "memory_pages must be at least 3 (a partitioning fanout of "
                "memory_pages - 1 >= 2)"
            )
        self.tuples_per_page = check_positive("tuples_per_page", tuples_per_page)
        self.io_cost = check_positive("io_cost", io_cost)
        self.cpu_weight = check_positive("cpu_weight", cpu_weight)

    def pages(self, tuples: float) -> float:
        """Pages needed to hold ``tuples`` tuples (at least one).

        Normalized to float64: ``math.ceil`` returns an arbitrary-precision
        ``int``, whose exact integer arithmetic would silently diverge from
        the float64 page counts of
        :class:`~repro.cost.cardinality.QueryContext`'s inline disk pricing
        above 2**53 — a regime where page counts carry no ordering
        information anyway (cardinalities are clamped long before costs
        matter there).
        """
        return max(1.0, float(math.ceil(tuples / self.tuples_per_page)))

    def partition_passes(self, inner_pages: float) -> int:
        """Number of partitioning passes needed for the inner operand."""
        if inner_pages <= self.memory_pages:
            return 0
        fanout = self.memory_pages - 1
        return max(1, math.ceil(math.log(inner_pages / self.memory_pages, fanout)))

    def inner_terms(
        self, cardinalities: Sequence[float]
    ) -> tuple[list[float], list[float]]:
        """Per-relation ``(inner_pages, io_factors)`` for compiled walks.

        The inner operand of an outer-linear join is always a base
        relation, so its page count and the ``2 * passes + 1`` I/O
        multiplier of :meth:`join_cost` depend only on the catalog.  Both
        are derived with this model's own methods, so a compiled walk that
        reads them prices a join bitwise like :meth:`join_cost`.  A
        non-finite cardinality gets placeholder terms ``(1.0, 1.0)``: the
        propagating walk raises
        :class:`~repro.cost.cardinality.CostOverflowError` before it
        could price a join with that relation as the inner operand.
        """
        inner_pages: list[float] = []
        io_factors: list[float] = []
        for cardinality in cardinalities:
            pages = self.pages(cardinality) if math.isfinite(cardinality) else 1.0
            inner_pages.append(pages)
            io_factors.append(float(2 * self.partition_passes(pages) + 1))
        return inner_pages, io_factors

    def join_cost(
        self, outer_size: float, inner_size: float, result_size: float
    ) -> float:
        outer_pages = self.pages(outer_size)
        inner_pages = self.pages(inner_size)
        passes = self.partition_passes(inner_pages)
        io = (2 * passes + 1) * (outer_pages + inner_pages)
        result_pages = self.pages(result_size)
        if result_pages > self.memory_pages:
            # Materialise the intermediate: write it out and charge the
            # re-read here (the next join's outer arrives from disk).
            io += 2 * result_pages
        cpu = self.cpu_weight * (outer_size + inner_size + result_size)
        return self.io_cost * io + cpu

    def __repr__(self) -> str:
        return (
            f"DiskCostModel(memory_pages={self.memory_pages}, "
            f"tuples_per_page={self.tuples_per_page})"
        )
