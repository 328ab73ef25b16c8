"""Tests for the estimation-error sensitivity analysis."""

import hashlib
import math
import random

import pytest

from repro.experiments.sensitivity import (
    SensitivityPoint,
    perturb_graph,
    sensitivity_analysis,
)
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query


@pytest.fixture
def query():
    return generate_query(DEFAULT_SPEC, n_joins=10, seed=6)


class TestPerturbGraph:
    def test_structure_preserved(self, query):
        graph = query.graph
        perturbed = perturb_graph(graph, random.Random(0), 5.0)
        assert perturbed.n_relations == graph.n_relations
        assert len(perturbed.predicates) == len(graph.predicates)
        for a, b in zip(graph.predicates, perturbed.predicates):
            assert (a.left, a.right) == (b.left, b.right)

    def test_factor_one_changes_little(self, query):
        graph = query.graph
        perturbed = perturb_graph(graph, random.Random(0), 1.0)
        for i in range(graph.n_relations):
            original = graph.relation(i).base_cardinality
            assert perturbed.relation(i).base_cardinality == pytest.approx(
                original, abs=1
            )

    def test_perturbation_bounded(self, query):
        graph = query.graph
        factor = 3.0
        perturbed = perturb_graph(graph, random.Random(1), factor)
        for i in range(graph.n_relations):
            original = graph.relation(i).base_cardinality
            new = perturbed.relation(i).base_cardinality
            assert original / factor - 1 <= new <= original * factor + 1

    def test_distinct_capped_by_cardinality(self, query):
        perturbed = perturb_graph(query.graph, random.Random(2), 10.0)
        for predicate in perturbed.predicates:
            for side in predicate.endpoints:
                assert (
                    predicate.distinct_values(side)
                    <= perturbed.relation(side).cardinality
                )

    def test_selections_kept(self, query):
        perturbed = perturb_graph(query.graph, random.Random(3), 2.0)
        for i in range(query.graph.n_relations):
            assert (
                perturbed.relation(i).selections
                == query.graph.relation(i).selections
            )

    def test_rejects_factor_below_one(self, query):
        with pytest.raises(ValueError):
            perturb_graph(query.graph, random.Random(0), 0.5)

    @pytest.mark.parametrize("factor", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_non_finite_and_non_positive_factors(self, query, factor):
        with pytest.raises(ValueError):
            perturb_graph(query.graph, random.Random(0), factor)


def _stats_digest(graph):
    text = repr(
        (
            [r.base_cardinality for r in graph.relations],
            [(p.left_distinct, p.right_distinct) for p in graph.predicates],
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _state_digest(rng):
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()


# Exact perturbed statistics and generator state after each call, for
# generate_query(DEFAULT_SPEC, 10, 6): a change to the draw, its order or
# its rounding moves a digest.
PERTURB_PINS = [
    (
        1.0,
        0,
        "aa048e2327e8f637fd9813811e242a1b5d922d8d27f5213e758b4fc2a31eb1f7",
        "46f264538534643a886ab78f16bc37e702ec6d58f1c40cc2c2c5607abc7b3900",
    ),
    (
        3.0,
        1,
        "860938e60489b4c524d7550a78eb42f263c692ad0eae4c538f62a9f304283547",
        "1777605022d64028c730d8e460a932dc4ff7024c2bc5afbf50c91e9d91f84c76",
    ),
    (
        10.0,
        2,
        "ace4c2dad39121563ca1913a2771daeb8a97370804e6b081c86eae0a2a6e1343",
        "b82c6043d4168986cefadc6b1c31f685b9f8d7a888c6ec3dc0decf5b71697f6a",
    ),
]


@pytest.mark.parametrize("factor,seed,stats_sha,state_sha", PERTURB_PINS)
def test_perturb_graph_pinned(query, factor, seed, stats_sha, state_sha):
    rng = random.Random(seed)
    perturbed = perturb_graph(query.graph, rng, factor)
    assert _stats_digest(perturbed) == stats_sha
    assert _state_digest(rng) == state_sha
    # One uniform per relation and two per predicate, none at factor 1.
    graph = query.graph
    draws = 0 if factor == 1.0 else graph.n_relations + 2 * len(graph.predicates)
    reference = random.Random(seed)
    for _ in range(draws):
        reference.random()
    assert rng.getstate() == reference.getstate()


class TestSensitivityAnalysis:
    @pytest.fixture(scope="class")
    def points(self):
        query = generate_query(DEFAULT_SPEC, n_joins=10, seed=6)
        return sensitivity_analysis(
            query,
            error_factors=(1.0, 4.0),
            n_trials=3,
            time_factor=1.0,
            units_per_n2=5,
            seed=1,
        )

    def test_one_point_per_factor(self, points):
        assert [p.error_factor for p in points] == [1.0, 4.0]
        assert all(isinstance(p, SensitivityPoint) for p in points)

    def test_no_error_means_no_degradation(self, points):
        # Factor 1.0 perturbs nothing: same statistics, near-same plans.
        assert points[0].mean_degradation == pytest.approx(1.0, abs=0.35)

    def test_degradation_at_least_epsilon_positive(self, points):
        for point in points:
            assert point.mean_degradation > 0
            assert point.worst_degradation >= point.mean_degradation - 1e-9

    def test_trial_count_recorded(self, points):
        assert all(p.n_trials == 3 for p in points)

    def test_rejects_zero_trials(self):
        query = generate_query(DEFAULT_SPEC, n_joins=8, seed=0)
        with pytest.raises(ValueError):
            sensitivity_analysis(query, n_trials=0)
