"""The move set over valid join orders (from the paper's [SG88]).

A *move* perturbs one join order into an adjacent one.  Following SG88's
swap-based move set (restated by its successors, e.g. Ioannidis & Kang),
two move kinds are mixed:

* **swap** — exchange the relations at two random positions;
* **insert** — remove the relation at one position and reinsert it at
  another (a cyclic shift of the span between them).

Both kinds together make the whole valid space reachable.  A proposed
neighbor that would introduce a cross product is rejected and the draw is
retried; after ``max_tries`` failures the move generator gives up and
raises :class:`NoValidMove` (which only happens on degenerate graphs whose
valid space is a single order).

Proposals are judged by :func:`move_validity` before any neighbor is
built: on a connected graph it checks only the span a move permutes, and
a search carries one check per current order, advancing it with
``after`` when a move is accepted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from repro.catalog.join_graph import JoinGraph
from repro.plans.join_order import JoinOrder
from repro.plans.validity import is_valid_order
from repro.utils.validation import check_probability


class NoValidMove(Exception):
    """No valid neighbor could be generated within the retry limit."""


@dataclass(frozen=True)
class Move:
    """One structured perturbation: ``kind`` is ``"swap"`` or ``"insert"``.

    For swaps, ``i`` and ``j`` are the exchanged positions; for inserts,
    ``i`` is the source position and ``j`` the target.  Keeping the move
    structured (rather than only its resulting order) lets the search
    loops tell the delta evaluator where the order first changed, so only
    the suffix from that position is re-costed.
    """

    kind: str
    i: int
    j: int

    @property
    def first_changed(self) -> int:
        """First order position the move changes (prefix before it is intact)."""
        return self.i if self.i < self.j else self.j

    def apply(self, order: JoinOrder) -> JoinOrder:
        """The neighbor this move produces from ``order``."""
        if self.kind == "swap":
            return order.swap(self.i, self.j)
        return order.insert(self.i, self.j)

    def __str__(self) -> str:
        return f"{self.kind}({self.i},{self.j})"


class _SpanCheck:
    """Move validity from one order of a connected graph, span by span.

    A swap or insert at ``(i, j)`` permutes only the relations at
    positions ``lo = min(i, j)`` through ``hi = max(i, j)``.  Each
    position before ``lo`` keeps its relation and its predecessors; each
    position after ``hi`` keeps its relation and the *set* of its
    predecessors.  On a connected graph a position is valid when its
    relation joins some predecessor, so positions outside the span keep
    the verdict they have in the current order, and a move is valid iff
    no position outside its span is invalid now and every position of
    the permuted span joins what precedes it.

    One bitmask pass over the current order records, per position, the
    union of its predecessors' neighbor masks (``reach``) and the range
    of positions where the order itself is invalid, so the check is
    exact for any input order, valid or not.  :meth:`after` carries the
    table across an accepted move by redoing only the moved span.
    """

    __slots__ = ("positions", "masks", "reach", "first_bad", "last_bad")

    def __init__(self, order: JoinOrder, graph: JoinGraph) -> None:
        positions = order.positions
        if len(positions) != graph.n_relations:
            raise ValueError(
                f"order over {len(positions)} relations does not match graph "
                f"with {graph.n_relations}"
            )
        masks = graph.neighbor_masks
        reach: list[int] = []
        first_bad = len(positions)
        last_bad = -1
        mask = 0
        for position, relation in enumerate(positions):
            reach.append(mask)
            if position and not (mask >> relation) & 1:
                if last_bad < 0:
                    first_bad = position
                last_bad = position
            mask |= masks[relation]
        self.positions = positions
        self.masks = masks
        self.reach = reach
        self.first_bad = first_bad
        self.last_bad = last_bad

    def valid(self, swap: bool, i: int, j: int) -> bool:
        """Whether the swap (or insert) at ``(i, j)`` gives a valid order."""
        lo, hi = (i, j) if i < j else (j, i)
        if self.first_bad < lo or self.last_bad > hi:
            return False
        if lo == hi:
            # The order is unchanged: valid iff it has no invalid position.
            return self.last_bad < 0
        positions = self.positions
        masks = self.masks
        # The permuted span is ``head``, positions[start:stop], ``tail``.
        if swap:
            head, start, stop, tail = positions[hi], lo + 1, hi, positions[lo]
        elif i < j:
            head, start, stop, tail = positions[i + 1], i + 2, j + 1, positions[i]
        else:
            head, start, stop, tail = positions[i], j, i - 1, positions[i - 1]
        if lo:
            reach = self.reach[lo]
            if not (reach >> head) & 1:
                return False
            reach |= masks[head]
        else:
            # Position 0 has no predecessors to join.
            reach = masks[head]
        for relation in positions[start:stop]:
            if not (reach >> relation) & 1:
                return False
            reach |= masks[relation]
        return (reach >> tail) & 1 == 1

    def __call__(self, move: Move) -> bool:
        return self.valid(move.kind == "swap", move.i, move.j)

    def after(self, move: Move, neighbor: JoinOrder) -> "_SpanCheck":
        """The check for ``neighbor``, the order an accepted ``move`` gave.

        Only positions ``lo + 1 .. hi`` see a new predecessor set, so only
        their ``reach`` is recomputed; ``neighbor`` is valid, because this
        check accepted the move.
        """
        i, j = move.i, move.j
        lo, hi = (i, j) if i < j else (j, i)
        positions = neighbor.positions
        masks = self.masks
        reach = self.reach.copy()
        mask = reach[lo]
        for position in range(lo, hi):
            mask |= masks[positions[position]]
            reach[position + 1] = mask
        check = _SpanCheck.__new__(_SpanCheck)
        check.positions = positions
        check.masks = masks
        check.reach = reach
        check.first_bad = len(positions)
        check.last_bad = -1
        return check


class _FullCheck:
    """Move validity on a disconnected graph: build and check the neighbor.

    A disconnected graph's validity also depends on how whole components
    are laid out, so each proposal gets the full
    :func:`~repro.plans.validity.is_valid_order` check.
    """

    __slots__ = ("order", "graph")

    def __init__(self, order: JoinOrder, graph: JoinGraph) -> None:
        self.order = order
        self.graph = graph

    def valid(self, swap: bool, i: int, j: int) -> bool:
        return self(_move(swap, i, j))

    def __call__(self, move: Move) -> bool:
        return is_valid_order(move.apply(self.order), self.graph)

    def after(self, move: Move, neighbor: JoinOrder) -> "_FullCheck":
        return _FullCheck(neighbor, self.graph)


MoveCheck = _SpanCheck | _FullCheck


def move_validity(order: JoinOrder, graph: JoinGraph) -> MoveCheck:
    """A predicate telling whether ``move.apply(order)`` is a valid order.

    Connected graphs get the span check of :class:`_SpanCheck`, which
    builds no neighbor; disconnected graphs keep the full check of
    :class:`_FullCheck`.  Both also answer ``valid(swap, i, j)`` without a
    :class:`Move`, and ``after(move, neighbor)`` gives the check for the
    neighbor an accepted move produced.
    """
    if graph.is_connected:
        return _SpanCheck(order, graph)
    return _FullCheck(order, graph)


#: Largest population ``random.sample(population, 2)`` draws from a pool
#: list; above it, ``sample`` tracks its picks in a set.
_SAMPLE_POOL_MAX = 21


def _draw(rng: random.Random, swap_probability: float, n: int) -> tuple[bool, int, int]:
    """One random proposal ``(swap, i, j)`` over an order of ``n >= 2``.

    It takes the same draws from ``rng`` as ``random() < swap_probability``
    followed, for a swap, by ``sample(range(n), 2)`` or, for an insert,
    by ``randrange(n)`` and ``randrange(n - 1)``.  In CPython
    ``randbelow(m)`` draws ``getrandbits(m.bit_length())`` until the
    result is below ``m``.  From a pool list, ``sample``'s second pick is
    ``randbelow(n - 1)``, and ``n - 1`` stands in when that equals the
    first; from a set, it redraws ``randbelow(n)`` until the pick is new.
    ``tests/test_core_moves.py`` pins this against ``sample`` and
    ``randrange`` themselves on both sides of :data:`_SAMPLE_POOL_MAX`.
    """
    getrandbits = rng.getrandbits
    swap = rng.random() < swap_probability
    bits = n.bit_length()
    i = getrandbits(bits)
    while i >= n:
        i = getrandbits(bits)
    if swap and n > _SAMPLE_POOL_MAX:
        j = getrandbits(bits)
        while j >= n or j == i:
            j = getrandbits(bits)
        return swap, i, j
    below = n - 1
    bits = below.bit_length()
    j = getrandbits(bits)
    while j >= below:
        j = getrandbits(bits)
    if swap:
        if j == i:
            j = below
    elif j >= i:
        j += 1
    return swap, i, j


def _move(swap: bool, i: int, j: int) -> Move:
    return Move("swap" if swap else "insert", i, j)


def _format_moves(proposals: list[tuple[bool, int, int]], limit: int = 16) -> str:
    """Compact listing of rejected proposals for :class:`NoValidMove` messages."""
    shown = ", ".join(str(_move(*proposal)) for proposal in proposals[:limit])
    if len(proposals) > limit:
        shown += f", ... ({len(proposals) - limit} more)"
    return shown


class MoveSet:
    """Random valid-neighbor generation over join orders.

    ``swap_probability`` selects between the two move kinds (the default
    mixes them evenly); the remainder of the probability mass goes to
    insert moves.
    """

    def __init__(self, swap_probability: float = 0.5, max_tries: int = 64) -> None:
        self.swap_probability = check_probability(
            "swap_probability", swap_probability
        )
        if max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {max_tries}")
        self.max_tries = max_tries

    def propose_move(self, order: JoinOrder, rng: random.Random) -> Move:
        """One random perturbation as a structured :class:`Move`.

        Draws from ``rng`` in exactly the sequence the original
        order-returning :meth:`propose` used, so historical seeds keep
        producing the same walks.
        """
        n = len(order)
        if n < 2:
            raise NoValidMove("orders of length < 2 have no neighbors")
        return _move(*_draw(rng, self.swap_probability, n))

    def propose(self, order: JoinOrder, rng: random.Random) -> JoinOrder:
        """One random perturbation, not yet validity-checked."""
        return self.propose_move(order, rng).apply(order)

    def random_valid_move(
        self,
        order: JoinOrder,
        graph: JoinGraph,
        rng: random.Random,
        check: MoveCheck | None = None,
    ) -> tuple[Move, JoinOrder]:
        """A random move whose result is a *valid* neighbor of ``order``.

        Returns the move together with the neighbor it produces.  Invalid
        proposals are retried up to ``max_tries`` times; after a first
        burst of failures a deterministic ``has_any_valid_neighbor`` scan
        decides whether retrying can succeed at all, so degenerate graphs
        whose valid space is a single order fail fast instead of burning
        the full retry allowance.  The :class:`NoValidMove` message lists
        the rejected moves, making the degenerate neighborhood diagnosable.

        ``check`` is ``move_validity(order, graph)``, built here when not
        given.  A search keeps one for its current order and advances it
        with ``check.after(move, neighbor)`` when it accepts a move.
        """
        n = len(order)
        if n < 2:
            raise NoValidMove("orders of length < 2 have no neighbors")
        if check is None:
            check = move_validity(order, graph)
        valid = check.valid
        swap_probability = self.swap_probability
        rejected: list[tuple[bool, int, int]] = []
        fail_fast_after = min(8, self.max_tries)
        for attempt in range(1, self.max_tries + 1):
            proposal = _draw(rng, swap_probability, n)
            if valid(*proposal):
                move = _move(*proposal)
                return move, move.apply(order)
            rejected.append(proposal)
            if attempt == fail_fast_after and not self.has_any_valid_neighbor(
                order, graph
            ):
                raise NoValidMove(
                    f"order {order} has no valid neighbor (confirmed by "
                    f"exhaustive scan after {attempt} failed draws; "
                    f"rejected: {_format_moves(rejected)})"
                )
        raise NoValidMove(
            f"no valid neighbor found in {self.max_tries} tries; "
            f"rejected: {_format_moves(rejected)}"
        )

    def random_neighbor(
        self, order: JoinOrder, graph: JoinGraph, rng: random.Random
    ) -> JoinOrder:
        """A random *valid* neighbor of ``order``.

        Retries invalid proposals up to ``max_tries`` times.
        """
        _, candidate = self.random_valid_move(order, graph, rng)
        return candidate

    def has_any_valid_neighbor(self, order: JoinOrder, graph: JoinGraph) -> bool:
        """Whether any valid neighbor exists (deterministic, no rng draws).

        Stops at the first valid neighbor found, so on healthy graphs this
        is one or two validity checks; only truly degenerate orders pay
        for a full scan.
        """
        return next(self.neighbors(order, graph), None) is not None

    def neighbors(self, order: JoinOrder, graph: JoinGraph) -> Iterator[JoinOrder]:
        """Every distinct valid neighbor, swaps first, then inserts.

        A move with ``i != j`` always changes the order, so no neighbor
        equals ``order`` itself.
        """
        n = len(order)
        valid = move_validity(order, graph)
        seen: set[JoinOrder] = set()
        swaps = (Move("swap", i, j) for i in range(n) for j in range(i + 1, n))
        inserts = (
            Move("insert", source, target)
            for source in range(n)
            for target in range(n)
            if source != target
        )
        for move in chain(swaps, inserts):
            if valid(move):
                candidate = move.apply(order)
                if candidate not in seen:
                    seen.add(candidate)
                    yield candidate
