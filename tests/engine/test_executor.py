"""Tests for the streaming executor: iter_rows, LIMIT early termination,
projection, and the Database.run_query / stream entry points."""

import pytest

from repro.engine.executor import ExecutionContext
from repro.engine.predicates import Between, Equals, PredicateSet
from repro.engine.query import Aggregate, Query


ALL_METHODS = ["seq_scan", "sorted_index_scan", "pipelined_index_scan", "cm_scan"]


def planned_path(db, query, force):
    table = db.table(query.table)
    return db.planner.choose(table, query, force=force).path


class TestIterRows:
    @pytest.mark.parametrize("force", ALL_METHODS + ["clustered_index_scan"])
    def test_iter_rows_agrees_with_execute(self, indexed_database, force):
        if force == "clustered_index_scan":
            query = Query.select("items", Equals("catid", 42))
        else:
            query = Query.select("items", Between("price", 1000, 1100))
        path = planned_path(indexed_database, query, force)
        streamed = sorted(r["itemid"] for r in path.iter_rows())
        result = indexed_database.run_query(query, force=force)
        assert streamed == sorted(r["itemid"] for r in result.rows)
        assert streamed

    def test_execute_counters_match_context(self, indexed_database):
        query = Query.select("items", Between("price", 1000, 1100))
        path = planned_path(indexed_database, query, "sorted_index_scan")
        context = ExecutionContext()
        rows = list(path.iter_rows(context))
        result = indexed_database.run_query(query, force="sorted_index_scan")
        assert result.rows_examined == context.counters.rows_examined
        assert result.pages_visited == context.counters.pages_visited
        assert result.plan.total_counters().lookups == context.counters.lookups
        assert result.rows_matched == len(rows)


class TestLimit:
    def test_seq_scan_limit_stops_sweeping(self, indexed_database):
        table = indexed_database.table("items")
        query = Query.select("items", Between("price", 0, 20_000), limit=5)
        result = indexed_database.run_query(query, force="seq_scan")
        assert result.rows_matched == 5
        assert result.pages_visited < table.num_pages
        assert result.rows_examined < table.num_rows

    @pytest.mark.parametrize("force", ALL_METHODS)
    def test_limit_caps_rows_for_every_method(self, indexed_database, force):
        query = Query.select("items", Between("price", 1000, 1100))
        full = indexed_database.run_query(query, force=force, cold_cache=True)
        assert full.rows_matched > 3
        limited = indexed_database.run_query(
            query, force=force, cold_cache=True, limit=3
        )
        assert limited.rows_matched == 3
        assert limited.pages_visited <= full.pages_visited

    def test_limit_zero_reads_nothing(self, indexed_database):
        query = Query.select("items", Between("price", 0, 20_000), limit=0)
        result = indexed_database.run_query(query, force="seq_scan")
        assert result.rows_matched == 0
        assert result.pages_visited == 0

    def test_limit_beyond_matches_returns_all(self, indexed_database):
        query = Query.select("items", Equals("catid", 42))
        full = indexed_database.run_query(query)
        limited = indexed_database.run_query(query, limit=10_000_000)
        assert limited.rows_matched == full.rows_matched

    def test_query_level_limit_and_describe(self, indexed_database):
        query = Query.select("items", Equals("catid", 42), limit=2)
        assert query.describe().endswith("LIMIT 2")
        result = indexed_database.run_query(query)
        assert result.rows_matched == 2

    def test_limit_with_aggregate_rejected(self):
        with pytest.raises(ValueError):
            Query.select("items", Equals("catid", 1), aggregate=Aggregate.count(), limit=3)

    def test_run_query_override_with_aggregate_rejected(self, indexed_database):
        query = Query.select("items", Equals("catid", 1), aggregate=Aggregate.count())
        with pytest.raises(ValueError):
            indexed_database.run_query(query, limit=3)
        with pytest.raises(ValueError):
            indexed_database.run_query(query, projection=("catid",))


class TestProjection:
    def test_projection_trims_columns(self, indexed_database):
        query = Query.select(
            "items", Between("price", 1000, 1100), projection=("itemid", "price")
        )
        result = indexed_database.run_query(query, force="seq_scan")
        assert result.rows_matched > 0
        assert all(set(row) == {"itemid", "price"} for row in result.rows)

    def test_unknown_projection_column_rejected_up_front(self, indexed_database):
        query = Query.select("items", Between("price", 1000, 1100))
        with pytest.raises(ValueError, match="unknown column"):
            indexed_database.run_query(query, projection=("pricee",))
        with pytest.raises(ValueError, match="unknown column"):
            indexed_database.stream(query, projection=("nope",))

    def test_residual_predicates_see_unprojected_columns(self, indexed_database):
        # The predicate is on price, the projection drops it.
        query = Query.select("items", Between("price", 1000, 1100), projection=("itemid",))
        result = indexed_database.run_query(query, force="cm_scan")
        reference = indexed_database.run_query(
            Query.select("items", Between("price", 1000, 1100)), force="cm_scan"
        )
        assert result.rows_matched == reference.rows_matched
        assert all(set(row) == {"itemid"} for row in result.rows)


class TestStream:
    def test_stream_yields_matching_rows(self, indexed_database):
        query = Query.select("items", Between("price", 1000, 1100))
        streamed = sorted(r["itemid"] for r in indexed_database.stream(query))
        reference = indexed_database.run_query(query)
        assert streamed == sorted(r["itemid"] for r in reference.rows)

    def test_abandoned_stream_reads_fewer_pages(self, indexed_database):
        table = indexed_database.table("items")
        query = Query.select("items", Between("price", 0, 20_000))
        before = table.heap.logical_page_reads
        iterator = indexed_database.stream(query, force="seq_scan")
        for _ in range(3):
            next(iterator)
        iterator.close()
        assert table.heap.logical_page_reads - before < table.num_pages

    def test_abandoned_stream_still_charges_cpu_for_examined_rows(self, indexed_database):
        db = indexed_database
        query = Query.select("items", Between("price", 0, 20_000))
        before = db.disk.snapshot()
        iterator = db.stream(query, force="seq_scan")
        for _ in range(3):
            next(iterator)
        iterator.close()
        window = db.disk.window_since(before)
        assert window.cpu_tuples >= 3

    def test_both_streams_reject_scalar_aggregates_only(self, indexed_database, item_rows):
        """One rule for ``stream`` and ``stream_batches``: a scalar aggregate
        reduces the whole stream to one value and is refused; a grouped one
        streams its group rows (``stream`` used to refuse those too)."""
        db = indexed_database
        scalar = Query.select("items", Equals("catid", 1), aggregate=Aggregate.count())
        for surface in (db.stream, db.stream_batches):
            with pytest.raises(ValueError, match="does not support scalar aggregates"):
                surface(scalar)
        grouped = Query.select(
            "items", Between("catid", 1, 3), aggregate=Aggregate.count(alias="n")
        ).group_by("catid")
        expected = {
            catid: sum(1 for row in item_rows if row["catid"] == catid)
            for catid in (1, 2, 3)
        }
        assert {row["catid"]: row["n"] for row in db.stream(grouped)} == expected
        batches = db.stream_batches(grouped)
        assert {row["catid"]: row["n"] for batch in batches for row in batch} == expected
