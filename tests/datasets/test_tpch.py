"""Tests for the TPC-H lineitem generator."""

from collections import Counter

import pytest

from repro.core.statistics import exact_c_per_u
from repro.datasets.tpch import (
    TPCHConfig,
    expected_schema_columns,
    generate_lineitem,
    supplier_for_part,
)


SMALL = TPCHConfig(num_orders=2_000, num_parts=500, num_suppliers=40, seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        TPCHConfig(num_orders=0)
    with pytest.raises(ValueError):
        TPCHConfig(num_suppliers=2)


def test_schema_and_row_count():
    rows = generate_lineitem(SMALL)
    assert set(rows[0]) == set(expected_schema_columns())
    # 1-7 lineitems per order, so on average ~4.
    assert 2_000 <= len(rows) <= 7 * 2_000
    assert all(1 <= row["quantity"] <= 50 for row in rows[:100])


def test_dates_are_ordered_and_in_range():
    rows = generate_lineitem(SMALL)
    for row in rows[:500]:
        assert row["shipdate"] < row["receiptdate"]
        assert 0 <= row["shipdate"] <= 2406
        assert row["receiptdate"] - row["shipdate"] <= 30


def test_receipt_lag_bumps_at_2_4_5_days():
    """The BHUNT-style 'bumps' the paper describes for delivery lags."""
    rows = generate_lineitem(SMALL)
    lags = Counter(row["receiptdate"] - row["shipdate"] for row in rows)
    common = sum(lags[lag] for lag in (2, 4, 5))
    assert common / len(rows) > 0.8


def test_shipdate_strongly_correlated_with_receiptdate():
    """Receipt dates per ship date stay small even when ship dates are popular.

    Uses a larger generation so each ship date has enough rows for the
    comparison to be meaningful (the correlation only deduplicates when there
    are duplicates to remove).
    """
    rows = generate_lineitem(
        TPCHConfig(num_orders=20_000, num_parts=2_000, num_suppliers=100, seed=2)
    )
    correlated = exact_c_per_u(rows, "shipdate", "receiptdate")
    uncorrelated = exact_c_per_u(rows, "shipdate", "partkey")
    assert correlated < 15
    assert correlated < 0.5 * uncorrelated


def test_each_part_has_exactly_four_suppliers():
    for partkey in (1, 17, 499):
        suppliers = {supplier_for_part(partkey, i, 40) for i in range(4)}
        assert len(suppliers) == 4
        assert all(1 <= s <= 40 for s in suppliers)


def test_suppkey_correlated_with_partkey():
    rows = generate_lineitem(SMALL)
    c_per_u = exact_c_per_u(rows, "partkey", "suppkey")
    # Each part maps to at most its 4 suppliers.
    assert c_per_u <= 4.0
    # The reverse direction is much weaker (each supplier serves many parts).
    reverse = exact_c_per_u(rows, "suppkey", "partkey")
    assert reverse > 10


def test_orderkeys_are_dense_and_linenumbers_start_at_one():
    rows = generate_lineitem(SMALL)
    orderkeys = {row["orderkey"] for row in rows}
    assert orderkeys == set(range(1, 2_001))
    first_lines = [row["linenumber"] for row in rows if row["linenumber"] == 1]
    assert len(first_lines) == 2_000


def test_generation_is_deterministic():
    assert generate_lineitem(SMALL) == generate_lineitem(SMALL)
