"""Tests for cost-based access-path selection."""

import pytest

from repro.engine.access import CorrelationMapScan, SeqScan, SortedIndexScan
from repro.engine.planner import FORCE_METHODS, Planner
from repro.engine.predicates import Between, Equals, InSet
from repro.engine.query import Query


def test_candidate_plans_include_all_applicable_structures(indexed_database):
    query = Query.select("items", Between("price", 1000, 1100))
    plans = indexed_database.explain(query)
    methods = {plan["method"] for plan in plans}
    assert "seq_scan" in methods
    assert "sorted_index_scan" in methods
    assert "cm_scan" in methods


def test_inapplicable_structures_are_skipped(indexed_database):
    # noise has no index and no CM: only the seq scan qualifies.
    query = Query.select("items", Equals("noise", 5))
    plans = indexed_database.explain(query)
    assert {plan["method"] for plan in plans} == {"seq_scan"}


def test_clustered_attribute_predicate_offers_clustered_scan(indexed_database):
    query = Query.select("items", Equals("catid", 42))
    methods = {plan["method"] for plan in indexed_database.explain(query)}
    assert "clustered_index_scan" in methods


def test_selective_query_does_not_choose_seq_scan(indexed_database):
    query = Query.select("items", Equals("cat2", "group7"))
    table = indexed_database.table("items")
    plan = indexed_database.planner.choose(table, query)
    assert plan.method != "seq_scan" or plan.estimated_cost_ms <= min(
        p["estimated_cost_ms"] for p in indexed_database.explain(query)
    )
    result = indexed_database.run_query(query)
    assert result.access_method in {"cm_scan", "sorted_index_scan", "clustered_index_scan"}


def test_force_methods_all_supported(indexed_database):
    query = Query.select("items", Between("price", 1000, 1050))
    for force in ["seq_scan", "sorted_index_scan", "pipelined_index_scan", "cm_scan"]:
        assert force in FORCE_METHODS
        result = indexed_database.run_query(query, force=force)
        assert result.access_method == force


def test_force_unknown_method_rejected(indexed_database):
    query = Query.select("items", Between("price", 1000, 1050))
    with pytest.raises(ValueError):
        indexed_database.run_query(query, force="hash_join")


def test_force_inapplicable_method_rejected(indexed_database):
    query = Query.select("items", Equals("noise", 1))
    with pytest.raises(ValueError):
        indexed_database.run_query(query, force="sorted_index_scan")
    with pytest.raises(ValueError):
        indexed_database.run_query(query, force="pipelined_index_scan")


def test_estimated_costs_are_positive_and_ordered(indexed_database):
    query = Query.select("items", InSet("price", [10.0, 20.0, 30.0]))
    plans = indexed_database.explain(query)
    assert all(plan["estimated_cost_ms"] > 0 for plan in plans)
    assert plans == sorted(plans, key=lambda p: p["estimated_cost_ms"])


def test_n_lookups_estimation(indexed_database):
    planner = indexed_database.planner
    table = indexed_database.table("items")
    from repro.engine.predicates import PredicateSet

    assert planner._estimate_n_lookups(table, PredicateSet.of(Equals("price", 5.0)), ["price"]) == 1
    assert (
        planner._estimate_n_lookups(
            table, PredicateSet.of(InSet("price", [1.0, 2.0, 3.0])), ["price"]
        )
        == 3
    )
    range_est = planner._estimate_n_lookups(
        table, PredicateSet.of(Between("price", 0, 5000)), ["price"]
    )
    assert range_est > 100  # about half the distinct prices
    assert (
        planner._estimate_n_lookups(table, PredicateSet.of(Equals("noise", 1)), ["price"]) == 1
    )


def test_cm_lookup_estimation_counts_buckets(indexed_database):
    planner = indexed_database.planner
    table = indexed_database.table("items")
    cm = table.correlation_maps["cm_price"]
    from repro.engine.predicates import PredicateSet

    narrow = planner._estimate_cm_lookups(cm, PredicateSet.of(Between("price", 1000, 1100)))
    wide = planner._estimate_cm_lookups(cm, PredicateSet.of(Between("price", 1000, 5000)))
    assert 1 <= narrow <= 5
    assert wide > narrow


class TestLimitAwareSelection:
    """Regression for the ROADMAP gap: selection used to ignore the LIMIT."""

    @pytest.fixture()
    def priced_database(self):
        from repro.bench.harness import ExperimentScale, build_ebay_database

        db, _rows = build_ebay_database(ExperimentScale(0.25))
        db.create_secondary_index("items", "price")
        return db

    QUERY_ARGS = (Between("price", 100_000, 110_000),)

    def test_tiny_limit_flips_the_plan_to_a_terminated_scan(self, priced_database):
        db = priced_database
        table = db.table("items")
        query = Query.select("items", *self.QUERY_ARGS)
        unlimited = db.planner.choose(table, query)
        limited = db.planner.choose(table, query, limit=1)
        # Unlimited, the index plan wins; for one row, its upfront descents
        # cost more than the fraction of a scan that produces one match.
        assert unlimited.method == "sorted_index_scan"
        assert limited.method == "seq_scan"
        assert limited.estimated_cost_ms < unlimited.estimated_cost_ms

    def test_run_query_passes_the_limit_into_selection(self, priced_database):
        db = priced_database
        query = Query.select("items", *self.QUERY_ARGS)
        result = db.run_query(query, limit=1)
        assert result.access_method == "seq_scan"
        assert result.rows_matched == 1
        # A limit larger than the result keeps the unlimited choice.
        roomy = db.run_query(query, limit=10_000_000)
        assert roomy.access_method == "sorted_index_scan"

    def test_explain_reflects_the_query_limit(self, priced_database):
        db = priced_database
        unlimited = db.explain(Query.select("items", *self.QUERY_ARGS))
        limited = db.explain(Query.select("items", *self.QUERY_ARGS, limit=1))
        assert unlimited[0]["method"] == "sorted_index_scan"
        assert limited[0]["method"] == "seq_scan"

    def test_limit_costing_scales_with_the_limit(self, priced_database):
        db = priced_database
        table = db.table("items")
        query = Query.select("items", *self.QUERY_ARGS)
        costs = [
            db.planner.choose(table, query, limit=limit, force="seq_scan").estimated_cost_ms
            for limit in (1, 10, 100)
        ]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]

    def test_zero_estimated_matches_keeps_full_costing(self, priced_database):
        # A LIMIT that can never be satisfied terminates nothing: candidates
        # must be costed as if the whole table were swept.
        db = priced_database
        table = db.table("items")
        query = Query.select("items", Between("price", -500, -100))
        limited = db.planner.choose(table, query, limit=1, force="seq_scan")
        unlimited = db.planner.choose(table, query, force="seq_scan")
        assert limited.estimated_cost_ms == unlimited.estimated_cost_ms
