"""Tests for the workload/query generators."""

import pytest

from repro.core.advisor import TrainingQuery
from repro.datasets import workloads
from repro.datasets.ebay import EbayConfig, generate_items
from repro.datasets.sdss import SDSSConfig, generate_photoobj
from repro.datasets.tpch import TPCHConfig, generate_lineitem
from repro.engine.predicates import Between, ExpressionPredicate, InSet


@pytest.fixture(scope="module")
def sdss_rows():
    return generate_photoobj(SDSSConfig(fields_ra=8, fields_dec=8, objects_per_field=10))


@pytest.fixture(scope="module")
def ebay_rows():
    return generate_items(EbayConfig(num_categories=80, items_per_category=(10, 20)))


@pytest.fixture(scope="module")
def lineitem_rows():
    return generate_lineitem(TPCHConfig(num_orders=500, num_parts=100, num_suppliers=20))


def test_one_percent_range_hits_target_selectivity(sdss_rows):
    low, high = workloads.one_percent_range(sdss_rows, "psfmag_g", selectivity=0.01, seed=3)
    selected = sum(1 for row in sdss_rows if low <= row["psfmag_g"] <= high)
    assert 0.005 * len(sdss_rows) <= selected <= 0.05 * len(sdss_rows)
    with pytest.raises(ValueError):
        workloads.one_percent_range([], "x")


def test_tpch_shipdate_query(lineitem_rows):
    query = workloads.tpch_shipdate_query(lineitem_rows, 10, seed=1)
    predicate = query.predicates.on_attribute("shipdate")
    assert isinstance(predicate, InSet)
    assert len(predicate.values) == 10
    assert query.aggregate is not None
    # Values actually occur in the data.
    shipdates = {row["shipdate"] for row in lineitem_rows}
    assert set(predicate.values) <= shipdates


def test_ebay_price_range_and_category_queries():
    price_query = workloads.ebay_price_range_query(1000, 100)
    predicate = price_query.predicates.on_attribute("price")
    assert isinstance(predicate, Between)
    assert predicate.high == 1100
    cat_query = workloads.ebay_category_query("cat5", "toys/L4-3")
    assert cat_query.predicates.on_attribute("cat5") is not None
    assert cat_query.aggregate.kind == "avg"


def test_ebay_mixed_workload_structure(ebay_rows):
    steps = workloads.ebay_mixed_workload(
        ebay_rows, num_rounds=3, inserts_per_round=50, selects_per_round=5, seed=2
    )
    inserts = [step for step in steps if step[0] == "insert"]
    selects = [step for step in steps if step[0] == "select"]
    assert len(inserts) == 3
    assert len(selects) == 15
    batch = inserts[0][1]
    assert len(batch) == 50
    existing_ids = {row["itemid"] for row in ebay_rows}
    assert all(row["itemid"] not in existing_ids for row in batch)
    existing_catids = {row["catid"] for row in ebay_rows}
    assert all(row["catid"] in existing_catids for row in batch)


def test_ebay_cat_values_by_c_per_u(ebay_rows):
    chosen = workloads.ebay_cat_values_by_c_per_u(
        ebay_rows, "cat3", targets=(1, 5, 20)
    )
    assert len(chosen) == 3
    values = [value for value, _ in chosen]
    assert len(set(values)) == 3
    c_per_us = [c for _, c in chosen]
    assert c_per_us == sorted(c_per_us)


def test_sdss_sx6_query_and_training(sdss_rows):
    query = workloads.sdss_sx6_query([3, 7])
    assert isinstance(query.predicates.on_attribute("fieldid"), InSet)
    assert query.predicates.on_attribute("psfmag_g").high == 20.0
    training = workloads.sdss_sx6_training_query()
    assert isinstance(training, TrainingQuery)
    assert set(training.attributes) == {"fieldid", "mode", "type", "psfmag_g"}


def test_sdss_q2_query_matches_semantics(sdss_rows):
    query = workloads.sdss_q2_query(ra_range=(180, 200), dec_range=(0, 10),
                                    surface_range=(30, 60))
    matches = [row for row in sdss_rows if query.predicates.matches(row)]
    expected = [
        row
        for row in sdss_rows
        if 180 <= row["ra"] <= 200 and 0 <= row["dec"] <= 10 and 30 <= row["g"] + row["rho"] <= 60
    ]
    assert len(matches) == len(expected)
    assert any(isinstance(p, ExpressionPredicate) for p in query.predicates)
