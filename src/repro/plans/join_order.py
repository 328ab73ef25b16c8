"""Join orders: immutable permutations of relation indices.

A :class:`JoinOrder` is the solution representation for the whole library.
It is a thin immutable wrapper around a tuple of relation indices with the
perturbation primitives (swap, insert) the move set is built from.
"""

from __future__ import annotations

from typing import Iterator, Sequence


class JoinOrder:
    """An immutable permutation of the relation indices of a join graph.

    Position 0 is the first (leftmost, outermost) relation; each subsequent
    relation is the inner operand of the next join.
    """

    __slots__ = ("_positions", "_hash")

    def __init__(self, positions: Sequence[int]) -> None:
        self._positions = tuple(positions)
        if len(set(self._positions)) != len(self._positions):
            raise ValueError(f"join order has duplicates: {self._positions}")
        self._hash = hash(self._positions)

    @classmethod
    def _permuted(cls, positions: list[int]) -> "JoinOrder":
        """An order over a rearrangement of an order's own positions.

        Skips the constructor's duplicate check: rearranging positions
        that hold no duplicate cannot create one.
        """
        order = cls.__new__(cls)
        order._positions = tuple(positions)
        order._hash = hash(order._positions)
        return order

    @property
    def positions(self) -> tuple[int, ...]:
        return self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def __iter__(self) -> Iterator[int]:
        return iter(self._positions)

    def __getitem__(self, index: int) -> int:
        return self._positions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinOrder):
            return NotImplemented
        return self._positions == other._positions

    def __hash__(self) -> int:
        return self._hash

    def index(self, relation: int) -> int:
        """Position of ``relation`` within the order."""
        return self._positions.index(relation)

    # ------------------------------------------------------------------
    # Perturbations (each returns a new JoinOrder)
    # ------------------------------------------------------------------

    def swap(self, i: int, j: int) -> "JoinOrder":
        """Exchange the relations at positions ``i`` and ``j``."""
        positions = list(self._positions)
        positions[i], positions[j] = positions[j], positions[i]
        return JoinOrder._permuted(positions)

    def insert(self, source: int, target: int) -> "JoinOrder":
        """Remove the relation at ``source`` and reinsert it at ``target``."""
        positions = list(self._positions)
        relation = positions.pop(source)
        positions.insert(target, relation)
        return JoinOrder._permuted(positions)

    def replace_segment(self, start: int, segment: Sequence[int]) -> "JoinOrder":
        """Return a copy with ``segment`` written at positions ``start..``.

        The segment must be a permutation of the relations currently in that
        window (checked by the duplicate guard in the constructor).
        """
        positions = list(self._positions)
        positions[start : start + len(segment)] = list(segment)
        return JoinOrder(positions)

    def prefix(self, length: int) -> tuple[int, ...]:
        """The first ``length`` relations."""
        return self._positions[:length]

    def __repr__(self) -> str:
        return f"JoinOrder({list(self._positions)})"

    def __str__(self) -> str:
        return "(" + " ".join(str(p) for p in self._positions) + ")"
