"""The optimization clock: a deterministic substitute for CPU seconds.

The paper gives every method the same CPU-time limit, proportional to
``N^2`` (at ``9 N^2`` the limit for ``N = 50`` is 7.5 minutes on a 4-MIPS
workstation).  Wall-clock limits are machine-dependent and make experiments
irreproducible, so this library counts *work units* instead:

* **1 unit = 1 join-cost evaluation.**  Evaluating a full plan of ``N``
  joins therefore costs ``N`` units — the clock advances proportionally to
  the real work every method performs, which is dominated by cost
  evaluations exactly as in the paper's CPU-bound runs.
* Cheaper bookkeeping operations (scoring one candidate in the
  augmentation heuristic, one merge step in KBZ's algorithm R) are charged
  at :data:`CRITERION_CHARGE` / :data:`RANK_OP_CHARGE` units, preserving
  the paper's observation that KBZ pays much more per generated state than
  augmentation does.

A time limit of ``k * N^2`` paper-seconds maps to ``k * N^2 *
units_per_n2`` units.  The default calibration ``units_per_n2 = 30`` lets
iterative improvement complete a few dozen runs at the ``9 N^2`` limit for
``N = 50``, matching the scale of the paper's runs.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.utils.validation import check_positive

#: Budget units charged per candidate scored by the augmentation heuristic.
#: Scoring a candidate is one multiply/compare over precomputed statistics —
#: an order of magnitude cheaper than evaluating a join's cost.
CRITERION_CHARGE = 0.1

#: Budget units charged per merge/normalization step in KBZ's algorithm R
#: and per edge scored by algorithm G's spanning-tree growth.  These steps
#: compute ranks, combine ASI modules, and maintain ordered chains — work
#: comparable to a join-cost evaluation.  The paper stresses that KBZ "is a
#: complex heuristic that takes much longer to generate a single state than
#: the augmentation heuristic", which this charge preserves.
RANK_OP_CHARGE = 1.0

#: Default calibration: join-cost evaluations per ``N^2`` of paper time.
DEFAULT_UNITS_PER_N2 = 30.0


class BudgetExhausted(Exception):
    """Raised when an operation would exceed the optimization budget."""


@dataclass
class Budget:
    """A consumable allowance of work units.

    ``charge`` is called *before* performing the work it pays for; once the
    limit is reached it raises :class:`BudgetExhausted`, which optimizers
    catch at their loop boundaries to stop gracefully (they are anytime
    algorithms and return the best solution found so far).
    """

    limit: float
    spent: float = field(default=0.0)

    def __post_init__(self) -> None:
        check_positive("limit", self.limit)

    @classmethod
    def for_query(
        cls,
        n_joins: int,
        time_factor: float,
        units_per_n2: float = DEFAULT_UNITS_PER_N2,
    ) -> "Budget":
        """The paper's ``time_factor * N^2`` limit, in work units.

        The limit must be finite: an infinite one (``time_factor=inf``, or
        a product that overflows) would never stop the search.  Use
        :meth:`unlimited` to ask for that on purpose.
        """
        check_positive("n_joins", n_joins)
        check_positive("time_factor", time_factor)
        check_positive("units_per_n2", units_per_n2)
        limit = time_factor * n_joins * n_joins * units_per_n2
        if not math.isfinite(limit):
            raise ValueError(
                f"time limit {time_factor!r} * {n_joins}^2 * {units_per_n2!r} "
                "units is not finite"
            )
        return cls(limit=limit)

    @classmethod
    def unlimited(cls) -> "Budget":
        """A budget that never exhausts (tests, pure-heuristic calls)."""
        return cls(limit=math.inf)

    @property
    def remaining(self) -> float:
        return max(0.0, self.limit - self.spent)

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.limit

    def charge(self, units: float) -> None:
        """Consume ``units``; raise :class:`BudgetExhausted` at the limit."""
        if self.spent + units > self.limit:
            self.spent = self.limit
            raise BudgetExhausted(
                f"budget of {self.limit:.0f} units exhausted"
            )
        self.spent += units

    def can_afford(self, units: float) -> bool:
        """True when ``units`` more work fits within the limit."""
        return self.spent + units <= self.limit

    def hold_back(self, units: float) -> "Budget":
        """A fresh budget of what is left here less ``units`` (at least 1).

        Add its ``spent`` back here once the work charged to it is done.
        """
        return Budget(limit=max(1.0, self.remaining - units))

    def share(self, part: float, whole: float) -> "Budget":
        """A fresh budget of ``part / whole`` of what is left here (at least 1).

        The one way a sub-budget is cut from what remains; on an
        unlimited budget the share is unlimited too.  Add its ``spent``
        back here once the work charged to it is done.
        """
        return Budget(limit=max(1.0, self.remaining * part / whole))

    def share_used(self, part: float, whole: float) -> Callable[[], bool]:
        """A test that turns true once ``part / whole`` of what is left here
        now has been spent here.

        For a phase that charges this budget itself rather than a
        :meth:`share` of it: the test tells the phase when its share is
        gone, in this budget's own unit.
        """
        limit = self.spent + self.remaining * part / whole
        return lambda: self.spent >= limit

    def carve(self, fraction: float) -> "Budget":
        """A fresh budget of ``fraction`` of this budget's *original* limit.

        Used by the resilient fallback chain to grant each recovery stage a
        bounded, unspent allowance regardless of how much the failed attempt
        consumed (a crashed attempt may have drained everything).  The carve
        is intentionally not deducted from this budget: recovery overhead is
        bounded extra work, priced at ``fraction`` per stage.
        """
        check_positive("fraction", fraction)
        return Budget(limit=max(1.0, self.limit * fraction))


class WallClockBudget(Budget):
    """A budget bounded by elapsed wall-clock time instead of work units.

    For production-style use ("give the optimizer two seconds"), at the
    price of reproducibility — two runs with the same seed may stop at
    different points.  Work units are still counted in ``spent`` for
    reporting; exhaustion is purely time-based.  The clock is injectable
    for tests.
    """

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        super().__init__(limit=math.inf)
        self.seconds = check_positive("seconds", seconds)
        self._clock = clock
        self._start = clock()
        # Work units ``charge`` still lets through after the deadline.
        self._held = 0.0

    @property
    def elapsed(self) -> float:
        return self._clock() - self._start

    @property
    def exhausted(self) -> bool:
        return self.elapsed >= self.seconds

    @property
    def remaining(self) -> float:
        """Remaining *seconds* (unlike Budget, whose unit is work)."""
        return max(0.0, self.seconds - self.elapsed)

    def charge(self, units: float) -> None:
        if self.exhausted:
            if units > self._held:
                raise BudgetExhausted(
                    f"wall-clock budget of {self.seconds:g}s exhausted"
                )
            self._held -= units
        self.spent += units

    def can_afford(self, units: float) -> bool:
        """Always False: a wall clock cannot promise that any work fits."""
        return False

    def hold_back(self, units: float) -> "WallClockBudget":
        """The rest of this budget's time, on its clock and deadline.

        Time cannot be held back, so ``units`` are let through here after
        the deadline instead.
        """
        rest = copy.copy(self)
        rest.spent = 0.0
        rest._held = 0.0
        self._held = units
        return rest

    def share(self, part: float, whole: float) -> "WallClockBudget":
        """``part / whole`` of the seconds left here, on this clock, from now.

        Taken at or after the deadline, the share is already exhausted.
        """
        now = self._clock()
        sub = copy.copy(self)
        sub.spent = 0.0
        sub._held = 0.0
        sub._start = now
        sub.seconds = max(0.0, self.seconds - (now - self._start)) * part / whole
        return sub

    def share_used(self, part: float, whole: float) -> Callable[[], bool]:
        """A test that turns true once ``part / whole`` of the seconds left
        here now have passed on this clock."""
        now = self._clock()
        left = max(0.0, self.seconds - (now - self._start))
        deadline = now + left * part / whole
        return lambda: self._clock() >= deadline

    def carve(self, fraction: float) -> "WallClockBudget":
        """A fresh wall-clock allowance sharing this budget's clock."""
        check_positive("fraction", fraction)
        return WallClockBudget(self.seconds * fraction, clock=self._clock)
