"""The join graph: relations as vertices, join predicates as edges.

The join graph is the optimizer's view of a query.  Vertices are relation
indices ``0 .. n_relations - 1``; each edge carries a
:class:`~repro.catalog.predicates.JoinPredicate`.  Parallel join predicates
between the same pair of relations are folded into a single edge whose
selectivity is the product of the individual selectivities (the standard
independence assumption); the folded edge keeps the distinct-value counts of
the most selective predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation


class JoinGraph:
    """An immutable join graph over a sequence of relations.

    Parameters
    ----------
    relations:
        The joining relations; their position is their vertex index.
    predicates:
        Join predicates.  At most one predicate per unordered pair is kept;
        duplicates raise ``ValueError`` (fold selectivities upstream).
    validate:
        When true (the default), statistics are sanity-checked at
        construction time: every relation must have a positive finite
        cardinality and no join column may claim more distinct values than
        its relation has rows.  ``validate=False`` skips only these
        statistical checks (structural checks always run) and exists for
        fault injection (the test suite's ``corrupt_catalog``), which
        deliberately builds graphs with corrupted statistics.
    """

    def __init__(
        self,
        relations: Sequence[Relation],
        predicates: Iterable[JoinPredicate],
        validate: bool = True,
    ) -> None:
        if len(relations) == 0:
            raise ValueError("a join graph needs at least one relation")
        self._relations = tuple(relations)
        self._validated = validate
        if validate:
            for index, relation in enumerate(self._relations):
                self._check_relation(index, relation)
        self._adjacency: dict[int, dict[int, JoinPredicate]] = {
            i: {} for i in range(len(self._relations))
        }
        self._predicates: list[JoinPredicate] = []
        for predicate in predicates:
            self._add_predicate(predicate, validate)
        self._predicates_tuple = tuple(self._predicates)
        self._components = self._compute_components()
        self._neighbor_masks = tuple(
            sum(1 << neighbor for neighbor in self._adjacency[vertex])
            for vertex in range(len(self._relations))
        )

    @staticmethod
    def _check_relation(index: int, relation: Relation) -> None:
        cardinality = relation.base_cardinality
        if not isinstance(cardinality, (int, float)) or isinstance(
            cardinality, bool
        ):
            raise ValueError(
                f"relation {relation.name!r} (vertex {index}) has a "
                f"non-numeric cardinality {cardinality!r}"
            )
        if not math.isfinite(cardinality) or cardinality <= 0:
            raise ValueError(
                f"relation {relation.name!r} (vertex {index}) has "
                f"invalid cardinality {cardinality!r}; cardinalities must "
                "be positive and finite"
            )

    def _add_predicate(self, predicate: JoinPredicate, validate: bool) -> None:
        n = len(self._relations)
        if predicate.left == predicate.right:
            raise ValueError(
                f"self-join edge on relation {predicate.left}; a relation "
                "cannot join with itself in the join graph"
            )
        if not (0 <= predicate.left < n and 0 <= predicate.right < n):
            raise ValueError(f"predicate {predicate} references unknown relation")
        if predicate.right in self._adjacency[predicate.left]:
            raise ValueError(
                f"duplicate edge between {predicate.left} and {predicate.right}; "
                "fold parallel predicates before building the graph"
            )
        if validate:
            for side in (predicate.left, predicate.right):
                distinct = predicate.distinct_values(side)
                rows = self._relations[side].base_cardinality
                if not math.isfinite(distinct) or distinct <= 0:
                    raise ValueError(
                        f"predicate {predicate} has invalid distinct-value "
                        f"count {distinct!r} on relation {side}"
                    )
                if distinct > rows:
                    raise ValueError(
                        f"predicate {predicate} claims {distinct:g} distinct "
                        f"values on relation {side}, which has only "
                        f"{rows} rows"
                    )
        self._adjacency[predicate.left][predicate.right] = predicate
        self._adjacency[predicate.right][predicate.left] = predicate
        self._predicates.append(predicate)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def relations(self) -> tuple[Relation, ...]:
        return self._relations

    @property
    def predicates(self) -> tuple[JoinPredicate, ...]:
        return self._predicates_tuple

    @property
    def n_relations(self) -> int:
        return len(self._relations)

    @property
    def n_joins(self) -> int:
        """The paper's ``N``: number of joins = number of relations - 1.

        This is the *query size* parameter the time limits scale with, not
        the number of join predicates (a cyclic graph has more predicates
        than joins performed).
        """
        return len(self._relations) - 1

    def relation(self, index: int) -> Relation:
        return self._relations[index]

    def cardinality(self, index: int) -> float:
        """Effective cardinality ``N_k`` of relation ``index``."""
        return self._relations[index].cardinality

    def neighbors(self, index: int) -> Iterator[int]:
        """Vertices joined to ``index`` by a predicate."""
        return iter(self._adjacency[index])

    def adjacency(self, index: int) -> dict[int, JoinPredicate]:
        """Neighbor → predicate map for ``index``.

        Returned for read-only use on hot paths; do not mutate.
        """
        return self._adjacency[index]

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Adjacency as bitmasks: bit ``k`` of entry ``v`` is set when
        ``v`` and ``k`` share a predicate."""
        return self._neighbor_masks

    def degree(self, index: int) -> int:
        """Degree of ``index`` in the join graph (the paper's ``deg(k)``)."""
        return len(self._adjacency[index])

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adjacency[a]

    def edge(self, a: int, b: int) -> JoinPredicate:
        """The predicate between ``a`` and ``b`` (KeyError if absent)."""
        return self._adjacency[a][b]

    def selectivity(self, a: int, b: int) -> float:
        """Join selectivity ``J_ab``; 1.0 when no predicate links a and b.

        A missing predicate means a cross product, whose "selectivity" is 1.
        """
        predicate = self._adjacency[a].get(b)
        return 1.0 if predicate is None else predicate.selectivity

    def edges_between(self, group: Iterable[int], vertex: int) -> list[JoinPredicate]:
        """All predicates linking ``vertex`` to any member of ``group``."""
        adjacency = self._adjacency[vertex]
        return [adjacency[g] for g in group if g in adjacency]

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def _compute_components(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        components: list[tuple[int, ...]] = []
        for start in range(self.n_relations):
            if start in seen:
                continue
            stack = [start]
            component: list[int] = []
            seen.add(start)
            while stack:
                vertex = stack.pop()
                component.append(vertex)
                for neighbor in self._adjacency[vertex]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            components.append(tuple(sorted(component)))
        return tuple(components)

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components, each as a sorted tuple of vertex indices."""
        return self._components

    @property
    def is_connected(self) -> bool:
        return len(self._components) == 1

    def subgraph(self, vertices: Sequence[int]) -> "JoinGraph":
        """The induced subgraph, with vertices renumbered ``0..len-1``.

        Used to optimize each connected component separately (the paper's
        postpone-cross-products heuristic).
        """
        index_of = {v: i for i, v in enumerate(vertices)}
        relations = [self._relations[v] for v in vertices]
        predicates = []
        for predicate in self._predicates:
            if predicate.left in index_of and predicate.right in index_of:
                predicates.append(
                    JoinPredicate(
                        index_of[predicate.left],
                        index_of[predicate.right],
                        predicate.left_distinct,
                        predicate.right_distinct,
                    )
                )
        return JoinGraph(relations, predicates, validate=self._validated)

    # ------------------------------------------------------------------
    # Spanning trees (used by the KBZ heuristic's algorithm G)
    # ------------------------------------------------------------------

    def spanning_tree_edges(
        self,
        weight: Callable[[JoinPredicate], float],
        start: int | None = None,
    ) -> list[JoinPredicate]:
        """Grow a minimum-weight spanning tree (Prim) over this graph.

        Requires a connected graph.  ``weight`` maps a predicate to its
        edge weight; ties break on (weight, left, right) so the result is
        deterministic.
        """
        if not self.is_connected:
            raise ValueError("spanning tree requires a connected join graph")
        if start is None:
            start = min(
                range(self.n_relations), key=lambda i: (self.cardinality(i), i)
            )
        in_tree = {start}
        tree: list[JoinPredicate] = []
        while len(in_tree) < self.n_relations:
            best: JoinPredicate | None = None
            best_key: tuple[float, int, int] | None = None
            for vertex in in_tree:
                for neighbor, predicate in self._adjacency[vertex].items():
                    if neighbor in in_tree:
                        continue
                    key = (weight(predicate), predicate.left, predicate.right)
                    if best_key is None or key < best_key:
                        best, best_key = predicate, key
            assert best is not None  # connected graph always yields an edge
            tree.append(best)
            in_tree.update(best.endpoints)
        return tree

    def __str__(self) -> str:
        return (
            f"JoinGraph({self.n_relations} relations, "
            f"{len(self._predicates_tuple)} predicates, "
            f"{len(self._components)} component(s))"
        )


@dataclass(frozen=True)
class Query:
    """A named join query: a join graph plus provenance metadata."""

    graph: JoinGraph
    name: str = "query"
    seed: int | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def n_joins(self) -> int:
        return self.graph.n_joins

    def __str__(self) -> str:
        return f"Query({self.name}, N={self.n_joins})"
