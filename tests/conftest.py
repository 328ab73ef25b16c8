"""Shared fixtures: small hand-built join graphs and generated queries.

Also auto-applies the ``fast`` marker to every test not marked ``slow``,
so the two tiers are selectable symmetrically (``-m fast`` / ``-m slow``)
without hand-marking hundreds of quick tests.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.catalog.join_graph import JoinGraph, Query


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.get_closest_marker("slow") is None:
            item.add_marker(pytest.mark.fast)
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query


def make_relations(cardinalities: list[int]) -> list[Relation]:
    return [
        Relation(f"R{i}", cardinality)
        for i, cardinality in enumerate(cardinalities)
    ]


def chain_graph(cardinalities: list[int] | None = None) -> JoinGraph:
    """R0 - R1 - R2 - ... (a chain), keys on the smaller side."""
    if cardinalities is None:
        cardinalities = [100, 1000, 50, 400, 800]
    relations = make_relations(cardinalities)
    predicates = [
        JoinPredicate(
            i,
            i + 1,
            left_distinct=max(1, cardinalities[i] // 2),
            right_distinct=max(1, cardinalities[i + 1] // 2),
        )
        for i in range(len(cardinalities) - 1)
    ]
    return JoinGraph(relations, predicates)


def star_graph(cardinalities: list[int] | None = None) -> JoinGraph:
    """R0 joined with every other relation (a star centred on R0)."""
    if cardinalities is None:
        cardinalities = [1000, 100, 200, 50, 400]
    relations = make_relations(cardinalities)
    predicates = [
        JoinPredicate(
            0,
            i,
            left_distinct=max(1, cardinalities[0] // 4),
            right_distinct=max(1, cardinalities[i] // 2),
        )
        for i in range(1, len(cardinalities))
    ]
    return JoinGraph(relations, predicates)


def cycle_graph(cardinalities: list[int] | None = None) -> JoinGraph:
    """A chain plus an edge closing the cycle (cyclic join graph)."""
    if cardinalities is None:
        cardinalities = [100, 1000, 50, 400]
    graph = chain_graph(cardinalities)
    last = len(cardinalities) - 1
    predicates = list(graph.predicates)
    predicates.append(
        JoinPredicate(
            0,
            last,
            left_distinct=max(1, cardinalities[0] // 3),
            right_distinct=max(1, cardinalities[last] // 3),
        )
    )
    return JoinGraph(graph.relations, predicates)


def two_component_graph() -> JoinGraph:
    """Two disjoint chains: {R0-R1} and {R2-R3-R4}."""
    relations = make_relations([100, 200, 300, 40, 500])
    predicates = [
        JoinPredicate(0, 1, 50, 100),
        JoinPredicate(2, 3, 150, 20),
        JoinPredicate(3, 4, 20, 250),
    ]
    return JoinGraph(relations, predicates)


def disjoint_union(*graphs: JoinGraph) -> JoinGraph:
    """The graphs side by side, renumbered in order: one component each."""
    relations: list[Relation] = []
    predicates: list[JoinPredicate] = []
    for index, graph in enumerate(graphs):
        offset = len(relations)
        relations.extend(
            replace(relation, name=f"g{index}_{relation.name}")
            for relation in graph.relations
        )
        predicates.extend(
            replace(
                predicate,
                left=predicate.left + offset,
                right=predicate.right + offset,
            )
            for predicate in graph.predicates
        )
    return JoinGraph(relations, predicates)


def selected_graph() -> JoinGraph:
    """Join columns with more distinct values than a selection leaves rows.

    ``r1`` keeps 10 of its 1000 rows and ``r3`` 30 of its 300, yet their
    join columns keep up to 600 and 250 distinct values.  The estimator
    caps those counts at the relations' effective cardinalities, so a
    walk that derives caps from sizes alone misprices some orders.
    """
    relations = [
        Relation("r0", 2000),
        Relation("r1", 1000).with_selections(0.01),
        Relation("r2", 5000),
        Relation("r3", 300).with_selections(0.1),
    ]
    predicates = [
        JoinPredicate(0, 1, 2.0, 2.0),
        JoinPredicate(1, 2, 500.0, 800.0),
        JoinPredicate(1, 3, 600.0, 200.0),
        JoinPredicate(2, 3, 900.0, 250.0),
    ]
    return JoinGraph(relations, predicates)


@pytest.fixture
def chain():
    return chain_graph()


@pytest.fixture
def star():
    return star_graph()


@pytest.fixture
def cycle():
    return cycle_graph()


@pytest.fixture
def two_components():
    return two_component_graph()


@pytest.fixture
def small_query() -> Query:
    """A generated 10-join query from the default benchmark."""
    return generate_query(DEFAULT_SPEC, n_joins=10, seed=42)


@pytest.fixture
def medium_query() -> Query:
    """A generated 20-join query from the default benchmark."""
    return generate_query(DEFAULT_SPEC, n_joins=20, seed=7)
