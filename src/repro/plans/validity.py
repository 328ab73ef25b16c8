"""Validity of join orders: no cross products within a component.

A join order is *valid* when every relation after the first joins (via at
least one predicate) with some relation earlier in the order.  For join
graphs with several connected components the paper postpones cross products
to the very end; a valid order for such a graph lists each component
contiguously, and validity is judged within each component's segment.
"""

from __future__ import annotations

import math
import random
from itertools import permutations
from typing import Iterator

from repro.catalog.join_graph import JoinGraph
from repro.plans.join_order import JoinOrder


def first_invalid_position(order: JoinOrder, graph: JoinGraph) -> int | None:
    """Position of the first relation introducing a premature cross product.

    Returns ``None`` for a valid order.  A relation at position ``p`` is
    acceptable if it joins with an earlier relation, or if it is the first
    relation of its connected component *and* its component's predecessors
    in the order are all from fully placed components (which is implied by
    every earlier relation of its component appearing before it — for the
    common single-component case this reduces to plain connectivity).
    """
    positions = order.positions
    if len(positions) != graph.n_relations:
        raise ValueError(
            f"order over {len(positions)} relations does not match graph "
            f"with {graph.n_relations}"
        )
    if len(graph.components) == 1:
        # Fast path for the common connected case: each relation after the
        # first must be adjacent to the already placed set.
        seen = {positions[0]}
        for position in range(1, len(positions)):
            relation = positions[position]
            if seen.isdisjoint(graph.adjacency(relation)):
                return position
            seen.add(relation)
        return None
    component_of = {}
    for component_id, component in enumerate(graph.components):
        for vertex in component:
            component_of[vertex] = component_id
    seen: set[int] = set()
    started: set[int] = set()
    open_component: int | None = None
    remaining_in_open = 0
    for position, relation in enumerate(positions):
        component_id = component_of[relation]
        if component_id in started:
            # Must continue the currently open component and connect to it.
            if component_id != open_component:
                return position
            if not any(n in seen for n in graph.neighbors(relation)):
                return position
            remaining_in_open -= 1
            if remaining_in_open == 0:
                open_component = None
        else:
            # Starting a new component is only legal when none is open.
            if open_component is not None:
                return position
            started.add(component_id)
            remaining_in_open = len(graph.components[component_id]) - 1
            open_component = component_id if remaining_in_open else None
        seen.add(relation)
    return None


def is_valid_order(order: JoinOrder, graph: JoinGraph) -> bool:
    """True when the order introduces no premature cross product."""
    return first_invalid_position(order, graph) is None


def random_valid_order(graph: JoinGraph, rng: random.Random) -> JoinOrder:
    """Sample a uniform-ish random valid order (the random state generator).

    Within each component the order is grown by repeatedly picking a random
    relation among those adjacent to the already placed set, matching the
    generator the paper's II/SA use for start states.  Components are
    emitted in a random order, each contiguously.
    """
    positions: list[int] = []
    components = list(graph.components)
    rng.shuffle(components)
    for component in components:
        component_list = list(component)
        first = rng.choice(component_list)
        placed = {first}
        positions.append(first)
        frontier = {n for n in graph.neighbors(first) if n in component}
        while len(placed) < len(component_list):
            candidates = sorted(frontier - placed)
            nxt = rng.choice(candidates)
            placed.add(nxt)
            positions.append(nxt)
            frontier.update(
                n for n in graph.neighbors(nxt) if n in component and n not in placed
            )
    return JoinOrder(positions)


def deterministic_fallback_order(graph: JoinGraph) -> JoinOrder:
    """A valid join order built without any search or random choice.

    Each component is grown greedily from its smallest relation, always
    placing the smallest-cardinality frontier relation next (ties break on
    vertex index); components are emitted smallest-first and contiguously.
    Valid by construction and stable across runs: the exact search's
    first incumbent, the orchestrator's pre-pass floor and the resilient
    path's last resort.
    """
    keys: list[tuple[float, int]] = []
    for vertex in range(graph.n_relations):
        cardinality = graph.cardinality(vertex)
        if not math.isfinite(cardinality):
            cardinality = math.inf
        keys.append((cardinality, vertex))
    size_key = keys.__getitem__
    positions: list[int] = []
    components = sorted(graph.components, key=lambda c: min(size_key(v) for v in c))
    for component in components:
        members = set(component)
        start = min(component, key=size_key)
        placed = [start]
        placed_set = {start}
        frontier = {n for n in graph.neighbors(start) if n in members}
        while len(placed) < len(component):
            nxt = min(frontier - placed_set, key=size_key)
            placed.append(nxt)
            placed_set.add(nxt)
            frontier.update(
                n
                for n in graph.neighbors(nxt)
                if n in members and n not in placed_set
            )
        positions.extend(placed)
    return JoinOrder(positions)


def valid_orders(graph: JoinGraph) -> Iterator[JoinOrder]:
    """Enumerate every valid order (exponential — tests and tiny graphs only)."""
    for permutation in permutations(range(graph.n_relations)):
        order = JoinOrder(permutation)
        if is_valid_order(order, graph):
            yield order


def count_valid_orders(graph: JoinGraph) -> int:
    """Number of valid orders (exponential — tests and tiny graphs only)."""
    return sum(1 for _ in valid_orders(graph))
