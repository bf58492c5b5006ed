"""Tests for the Database facade: DDL, DML, maintenance accounting."""

import pytest

from repro.core.bucketing import WidthBucketer
from repro.engine.database import Database
from repro.engine.predicates import Between, Equals
from repro.engine.query import Aggregate, Query
from tests.engine.conftest import make_rows


class TestDDL:
    def test_create_table_variants(self):
        db = Database()
        db.create_table("a", columns=["x", "y"])
        db.create_table("b", sample_row={"x": 1, "name": "s"})
        from repro.engine.schema import TableSchema

        db.create_table("c", schema=TableSchema.from_columns("c", ["z"]))
        assert set(db.tables) == {"a", "b", "c"}

    def test_create_table_requires_some_definition(self):
        db = Database()
        with pytest.raises(ValueError):
            db.create_table("t")

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", columns=["x"])
        with pytest.raises(ValueError):
            db.create_table("t", columns=["x"])

    def test_unknown_table_rejected(self):
        db = Database()
        with pytest.raises(KeyError):
            db.table("missing")
        with pytest.raises(KeyError):
            db.load("missing", [])


class TestQueries:
    def test_query_returns_value_and_io(self, indexed_database):
        query = Query.select(
            "items", Between("price", 1000, 1100), aggregate=Aggregate.count()
        )
        result = indexed_database.run_query(query, cold_cache=True)
        assert result.value == result.rows_matched
        assert result.io.pages_read > 0
        assert result.elapsed_ms > 0
        assert result.estimated_cost_ms is not None

    def test_cold_cache_flag_affects_io(self, indexed_database):
        query = Query.select("items", Equals("cat2", "group1"), aggregate=Aggregate.count())
        warm_first = indexed_database.run_query(query, force="cm_scan", cold_cache=True)
        warm_second = indexed_database.run_query(query, force="cm_scan")
        assert warm_second.io.pages_read <= warm_first.io.pages_read
        cold_again = indexed_database.run_query(query, force="cm_scan", cold_cache=True)
        assert cold_again.io.pages_read == warm_first.io.pages_read

    def test_explain_lists_costs(self, indexed_database):
        query = Query.select("items", Between("price", 0, 100))
        plans = indexed_database.explain(query)
        assert len(plans) >= 2
        assert all("estimated_cost_ms" in plan for plan in plans)


class TestMaintenance:
    def test_insert_updates_query_results(self, indexed_database):
        before = indexed_database.run_query(
            Query.select("items", Equals("cat2", "group0"), aggregate=Aggregate.count()),
            force="seq_scan",
        ).value
        rows = [
            {"itemid": 50_000 + i, "catid": 1, "cat2": "group0", "price": 150.0, "noise": 0}
            for i in range(10)
        ]
        outcome = indexed_database.insert("items", rows)
        assert outcome.rows_affected == 10
        assert outcome.elapsed_ms > 0
        after = indexed_database.run_query(
            Query.select("items", Equals("cat2", "group0"), aggregate=Aggregate.count()),
            force="seq_scan",
        ).value
        assert after == before + 10

    def test_insert_batches_flush_log_per_batch(self, indexed_database):
        rows = make_rows(n=100, seed=9)
        outcome = indexed_database.insert("items", rows, batch_size=25)
        # 4 batches, two-phase commit: 2 flushes each.
        assert outcome.log_flushes == 8

    def test_insert_leaves_no_transaction_open(self, indexed_database):
        """Row counts on a batch boundary, and empty inputs, used to leak one."""
        db = indexed_database
        outcome = db.insert("items", make_rows(n=10, seed=9), batch_size=5)
        assert outcome.log_flushes == 4  # two 2PC batches, no third commit
        assert db.transactions.active == set()
        assert db.insert("items", []).log_flushes == 0
        assert db.transactions.active == set()

    def test_delete_commits_in_two_flushes(self, indexed_database):
        db = indexed_database
        before = db.table("items").num_rows
        outcome = db.delete("items", [Between("price", 0.0, 500.0)])
        assert outcome.rows_affected == before - db.table("items").num_rows > 0
        assert outcome.log_flushes == 2  # one 2PC commit: prepare, commit
        assert db.transactions.active == set()

    def test_more_indexes_cost_more_to_maintain(self, item_rows):
        """The Figure 8 mechanism: extra B+Trees slow down inserts."""

        def build(num_indexes):
            db = Database(buffer_pool_pages=300)
            db.create_table("items", sample_row=item_rows[0], tups_per_page=50)
            db.load("items", item_rows)
            db.cluster("items", "catid", pages_per_bucket=4)
            attrs = ["price", "noise", "itemid", "cat2"][:num_indexes]
            for attr in attrs:
                db.create_secondary_index("items", attr)
            db.drop_caches()
            db.reset_measurements()
            return db

        light = build(1)
        heavy = build(4)
        batch = make_rows(n=500, seed=3)
        light_cost = light.insert("items", batch).elapsed_ms
        heavy_cost = heavy.insert("items", batch).elapsed_ms
        assert heavy_cost > light_cost

    def test_cm_maintenance_cheaper_than_btree_maintenance(self, item_rows):
        """The headline maintenance result at toy scale: CMs beat B+Trees."""

        def build(kind):
            db = Database(buffer_pool_pages=300)
            db.create_table("items", sample_row=item_rows[0], tups_per_page=50)
            db.load("items", item_rows)
            db.cluster("items", "catid", pages_per_bucket=4)
            for attr in ["price", "noise", "itemid"]:
                if kind == "btree":
                    db.create_secondary_index("items", attr)
                else:
                    db.create_correlation_map(
                        "items",
                        [attr],
                        bucketers={attr: WidthBucketer(64)} if attr != "cat2" else None,
                    )
            db.drop_caches()
            db.reset_measurements()
            return db

        btree_db = build("btree")
        cm_db = build("cm")
        batch = make_rows(n=500, seed=4)
        btree_cost = btree_db.insert("items", batch).elapsed_ms
        cm_cost = cm_db.insert("items", batch).elapsed_ms
        assert cm_cost < btree_cost

    def test_delete_removes_rows_everywhere(self, indexed_database):
        outcome = indexed_database.delete("items", [Equals("cat2", "group9")])
        assert outcome.rows_affected > 0
        count = indexed_database.run_query(
            Query.select("items", Equals("cat2", "group9"), aggregate=Aggregate.count()),
            force="seq_scan",
        ).value
        assert count == 0
        # The CM no longer maps the deleted category.
        cm = indexed_database.table("items").correlation_maps["cm_cat2"]
        assert cm.lookup({"cat2": "group9"}) == []

    def test_maintenance_result_rates(self):
        from repro.engine.database import MaintenanceResult

        result = MaintenanceResult(rows_affected=100, elapsed_ms=2000.0)
        assert result.rows_per_second == pytest.approx(50.0)
        assert MaintenanceResult(rows_affected=1, elapsed_ms=0).rows_per_second == float("inf")


class TestMeasurementControl:
    def test_reset_and_elapsed(self, indexed_database):
        indexed_database.reset_measurements()
        assert indexed_database.elapsed_ms() == 0
        indexed_database.run_query(
            Query.select("items", Equals("cat2", "group1")), force="seq_scan"
        )
        assert indexed_database.elapsed_ms() > 0

    def test_checkpoint_flushes_dirty_pages(self, indexed_database):
        indexed_database.insert("items", make_rows(n=50, seed=11))
        written = indexed_database.checkpoint()
        assert written >= 0
        assert indexed_database.buffer_pool.dirty_pages == 0
