"""Tests for access paths: all methods must agree on results; their I/O
patterns must differ in the way the paper describes."""

import pytest

from repro.engine.predicates import Between, Equals, ExpressionPredicate, InSet, PredicateSet
from repro.engine.query import Aggregate, Query


def run(db, query, force):
    return db.run_query(query, force=force, cold_cache=True)


def reference_answer(db, predicates):
    table = db.table("items")
    return [row for row in table.all_rows() if predicates.matches(row)]


class TestResultCorrectness:
    """Every access method returns exactly the rows a naive filter returns."""

    @pytest.mark.parametrize(
        "force", ["seq_scan", "sorted_index_scan", "pipelined_index_scan", "cm_scan"]
    )
    def test_range_predicate_all_methods_agree(self, indexed_database, force):
        predicates = PredicateSet.of(Between("price", 1000, 1100))
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        result = run(indexed_database, query, force)
        assert result.rows_matched == len(expected)
        assert sorted(r["itemid"] for r in result.rows) == sorted(
            r["itemid"] for r in expected
        )

    @pytest.mark.parametrize("force", ["seq_scan", "cm_scan"])
    def test_equality_on_cat2(self, indexed_database, force):
        predicates = PredicateSet.of(Equals("cat2", "group4"))
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        result = run(indexed_database, query, force)
        assert result.rows_matched == len(expected)

    def test_clustered_index_scan_on_catid(self, indexed_database):
        predicates = PredicateSet.of(InSet("catid", [3, 57, 91]))
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        result = run(indexed_database, query, "clustered_index_scan")
        assert result.rows_matched == len(expected)

    def test_additional_residual_predicates_applied(self, indexed_database):
        predicates = PredicateSet.of(
            Between("price", 1000, 2000),
            ExpressionPredicate("odd", lambda row: row["itemid"] % 2 == 1),
        )
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        for force in ["seq_scan", "sorted_index_scan", "cm_scan"]:
            assert run(indexed_database, query, force).rows_matched == len(expected)

    def test_empty_result(self, indexed_database):
        predicates = PredicateSet.of(Equals("price", -1.0))
        query = Query(table="items", predicates=predicates)
        for force in ["seq_scan", "sorted_index_scan", "cm_scan"]:
            assert run(indexed_database, query, force).rows_matched == 0

    def test_aggregate_value_matches(self, indexed_database):
        predicates = PredicateSet.of(Between("price", 500, 700))
        expected = reference_answer(indexed_database, predicates)
        query = Query(
            table="items", predicates=predicates, aggregate=Aggregate.avg("price")
        )
        result = run(indexed_database, query, "cm_scan")
        assert result.value == pytest.approx(
            sum(r["price"] for r in expected) / len(expected)
        )


class TestIOPatterns:
    def test_seq_scan_reads_every_page(self, indexed_database):
        table = indexed_database.table("items")
        query = Query.select("items", Between("price", 1000, 1100))
        result = run(indexed_database, query, "seq_scan")
        assert result.pages_visited == table.num_pages
        assert result.rows_examined == table.num_rows

    def test_sorted_scan_touches_few_pages_when_correlated(self, indexed_database):
        table = indexed_database.table("items")
        query = Query.select("items", Between("price", 1000, 1100))
        result = run(indexed_database, query, "sorted_index_scan")
        assert result.pages_visited < table.num_pages / 10

    def test_cm_scan_reads_superset_of_btree_pages(self, indexed_database):
        """Figure 4: the CM scans a superset of the B+Tree's heap pages."""
        query = Query.select("items", Between("price", 1000, 1100))
        btree = run(indexed_database, query, "sorted_index_scan")
        cm = run(indexed_database, query, "cm_scan")
        assert cm.pages_visited >= btree.pages_visited
        assert cm.rows_examined >= btree.rows_examined
        assert cm.rows_matched == btree.rows_matched
        assert cm.false_positive_rows >= 0

    def test_cm_scan_far_cheaper_than_seq_scan(self, indexed_database):
        query = Query.select("items", Between("price", 1000, 1100))
        seq = run(indexed_database, query, "seq_scan")
        cm = run(indexed_database, query, "cm_scan")
        assert cm.elapsed_ms < seq.elapsed_ms

    def test_pipelined_scan_costs_more_seeks_than_sorted(self, indexed_database):
        query = Query.select("items", InSet("price", []))
        # Use a set of existing price values for a fair comparison.
        prices = sorted({row["price"] for row in indexed_database.table("items").all_rows()})
        some = prices[:: len(prices) // 40][:40]
        query = Query.select("items", InSet("price", some))
        pipelined = run(indexed_database, query, "pipelined_index_scan")
        sorted_scan = run(indexed_database, query, "sorted_index_scan")
        assert pipelined.rows_matched == sorted_scan.rows_matched
        assert pipelined.io.seeks >= sorted_scan.io.seeks

    def test_cm_rewrite_sql_exposed(self, indexed_database):
        query = Query.select("items", Equals("cat2", "group2"))
        result = run(indexed_database, query, "cm_scan")
        assert result.rewritten_sql is not None
        assert "_cm_bucket IN" in result.rewritten_sql

    def test_uncorrelated_attribute_cm_reads_mostly_false_positives(self, indexed_database):
        """A CM on an uncorrelated attribute fetches far more rows than match.

        Each ``noise`` value occurs only a handful of times but is scattered
        across unrelated clustered buckets, so the CM scan reads whole buckets
        of false positives -- the behaviour that makes CMs unattractive
        without a correlation (Section 5.3).
        """
        indexed_database.create_correlation_map("items", ["noise"], name="cm_noise")
        query = Query.select("items", Equals("noise", 123))
        result = run(indexed_database, query, "cm_scan")
        assert result.pages_visited > 10
        assert result.rows_examined > 20 * max(1, result.rows_matched)


class TestTailCorrectness:
    """Rows inserted after clustering are still found by every method."""

    def test_all_methods_see_tail_rows(self, indexed_database):
        new_rows = [
            {"itemid": 10_000 + i, "catid": 5, "cat2": "group0", "price": 550.0 + i, "noise": 0}
            for i in range(20)
        ]
        indexed_database.insert("items", new_rows)
        predicates = PredicateSet.of(Between("price", 550.0, 570.0))
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        for force in ["seq_scan", "sorted_index_scan", "cm_scan"]:
            result = run(indexed_database, query, force)
            assert result.rows_matched == len(expected), force
