"""End-to-end integration tests: miniature versions of the paper's scenarios.

These tests exercise the whole stack together -- data generation, clustering,
index/CM creation, planning, execution, maintenance and the advisor -- on
small inputs, asserting the qualitative results the experiments rely on.
"""

import pytest

from repro import (
    Aggregate,
    Between,
    CMAdvisor,
    Database,
    Equals,
    InSet,
    Query,
    TableProfile,
    TrainingQuery,
    WidthBucketer,
)
from repro.datasets.ebay import EbayConfig, generate_items
from repro.datasets.sdss import SDSSConfig, generate_photoobj
from repro.datasets.tpch import TPCHConfig, generate_lineitem
from repro.datasets.workloads import (
    ebay_price_range_query,
    sdss_q2_query,
    tpch_shipdate_query,
)


@pytest.fixture(scope="module")
def tpch_db():
    rows = generate_lineitem(
        TPCHConfig(num_orders=6_000, num_parts=800, num_suppliers=50,
                   orderdate_span_days=200, seed=3)
    )
    db = Database(buffer_pool_pages=800)
    db.create_table("lineitem", sample_row=rows[0], tups_per_page=60)
    db.load("lineitem", rows)
    db.cluster("lineitem", "receiptdate", pages_per_bucket=5)
    db.create_secondary_index("lineitem", "shipdate")
    db.create_correlation_map("lineitem", ["shipdate"])
    return db, rows


class TestTPCHScenario:
    """The Figure 1/3 scenario: shipdate predicates under receiptdate clustering."""

    def test_all_access_paths_agree(self, tpch_db):
        db, rows = tpch_db
        query = tpch_shipdate_query(rows, 5, seed=1)
        answers = {}
        for force in ("seq_scan", "sorted_index_scan", "cm_scan"):
            result = db.run_query(query, force=force, cold_cache=True)
            answers[force] = (result.rows_matched, round(result.value or 0, 6))
        assert len(set(answers.values())) == 1

    def test_correlation_makes_index_and_cm_cheap(self, tpch_db):
        db, rows = tpch_db
        query = tpch_shipdate_query(rows, 5, seed=2)
        seq = db.run_query(query, force="seq_scan", cold_cache=True)
        btree = db.run_query(query, force="sorted_index_scan", cold_cache=True)
        cm = db.run_query(query, force="cm_scan", cold_cache=True)
        assert btree.pages_visited < seq.pages_visited / 4
        assert cm.pages_visited < seq.pages_visited / 2
        assert cm.rows_matched == btree.rows_matched

    def test_cost_model_prediction_is_reported(self, tpch_db):
        db, rows = tpch_db
        query = tpch_shipdate_query(rows, 3, seed=3)
        result = db.run_query(query, force="sorted_index_scan", cold_cache=True)
        assert result.estimated_cost_ms is not None
        assert result.estimated_cost_ms > 0


class TestEbayScenario:
    """The Experiment 1-3 scenario: price/category CMs on a catalog."""

    @pytest.fixture(scope="class")
    def ebay_db(self):
        rows = generate_items(EbayConfig(num_categories=150, items_per_category=(40, 80), seed=5))
        db = Database(buffer_pool_pages=600)
        db.create_table("items", sample_row=rows[0], tups_per_page=50)
        db.load("items", rows)
        db.cluster("items", "catid", pages_per_bucket=5)
        db.create_secondary_index("items", "price")
        db.create_correlation_map(
            "items", ["price"], bucketers={"price": WidthBucketer(4096.0)}, name="cm_price"
        )
        db.create_correlation_map("items", ["cat3"], name="cm_cat3")
        return db, rows

    def test_cm_answers_price_range_like_btree(self, ebay_db):
        db, _rows = ebay_db
        query = ebay_price_range_query(1_000, 5_000)
        cm = db.run_query(query, force="cm_scan", cold_cache=True)
        btree = db.run_query(query, force="sorted_index_scan", cold_cache=True)
        assert cm.value == btree.value
        assert cm.rows_matched == btree.rows_matched

    def test_cm_is_orders_of_magnitude_smaller(self, ebay_db):
        db, _rows = ebay_db
        table = db.table("items")
        cm = table.correlation_maps["cm_price"]
        btree = next(iter(table.secondary_indexes.values()))
        assert cm.size_bytes() * 20 < btree.size_bytes()

    def test_updates_keep_every_structure_consistent(self, ebay_db):
        db, rows = ebay_db
        new_rows = [
            {**rows[0], "itemid": 10_000_000 + i, "price": 1234.5 + i} for i in range(25)
        ]
        db.insert("items", new_rows, batch_size=10)
        query = Query.select(
            "items", Between("price", 1234.0, 1260.0), aggregate=Aggregate.count()
        )
        counts = {
            force: db.run_query(query, force=force, cold_cache=True).value
            for force in ("seq_scan", "sorted_index_scan", "cm_scan")
        }
        assert len(set(counts.values())) == 1
        db.delete("items", [Between("itemid", 10_000_000, None)])
        counts_after = {
            force: db.run_query(query, force=force, cold_cache=True).value
            for force in ("seq_scan", "sorted_index_scan", "cm_scan")
        }
        assert len(set(counts_after.values())) == 1
        assert counts_after["seq_scan"] == counts["seq_scan"] - 25


class TestSDSSScenario:
    """The Experiment 5 scenario: composite CM on (ra, dec)."""

    @pytest.fixture(scope="class")
    def sdss_db(self):
        rows = generate_photoobj(
            SDSSConfig(fields_ra=12, fields_dec=12, objects_per_field=15, seed=7)
        )
        db = Database(buffer_pool_pages=800)
        db.create_table("photoobj", sample_row=rows[0], tups_per_page=20)
        db.load("photoobj", rows)
        db.cluster("photoobj", "objid", pages_per_bucket=5)
        db.create_correlation_map(
            "photoobj",
            ["ra", "dec"],
            bucketers={"ra": WidthBucketer(2.0), "dec": WidthBucketer(1.0)},
            name="cm_radec",
        )
        db.create_secondary_index("photoobj", ["ra", "dec"], name="btree_radec")
        return db, rows

    def test_region_query_consistent_and_localized(self, sdss_db):
        db, rows = sdss_db
        query = sdss_q2_query(
            ra_range=(185.0, 186.5), dec_range=(2.0, 2.6), surface_range=(10.0, 60.0)
        )
        cm = db.run_query(query, force="cm_scan", cold_cache=True)
        btree = db.run_query(query, force="sorted_index_scan", cold_cache=True)
        seq = db.run_query(query, force="seq_scan", cold_cache=True)
        assert cm.value == btree.value == seq.value
        assert cm.pages_visited < seq.pages_visited / 2

    def test_composite_cm_smaller_than_composite_btree(self, sdss_db):
        db, _rows = sdss_db
        table = db.table("photoobj")
        cm = table.correlation_maps["cm_radec"]
        btree = table.secondary_indexes["btree_radec"]
        assert cm.size_bytes() * 10 < btree.size_bytes()


class TestAdvisorScenario:
    """The Section 6 scenario: the advisor finds the composite correlation."""

    def test_advisor_on_generated_sdss_finds_field_correlation(self):
        rows = generate_photoobj(
            SDSSConfig(fields_ra=10, fields_dec=10, objects_per_field=10, seed=9)
        )
        advisor = CMAdvisor(
            rows,
            "objid",
            table_profile=TableProfile(total_tups=len(rows), tups_per_page=20, btree_height=2),
            sample_size=8_000,
        )
        recommendation = advisor.recommend(TrainingQuery.over_attributes("fieldid"))
        assert recommendation.designs
        best = recommendation.designs_by_slowdown()[0]
        assert best.estimated_c_per_u < 4.0
