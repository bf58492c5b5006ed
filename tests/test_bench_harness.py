"""Tests for the shared benchmark harness and reporting helpers."""

import pytest

from repro.bench.harness import (
    ExperimentScale,
    build_ebay_database,
    build_sdss_database,
    build_tpch_database,
    ebay_price_bucketer,
    scale_factor,
)
from repro.bench.reporting import format_series, format_table, print_header
from repro.datasets.workloads import (
    ebay_category_query,
    ebay_price_range_query,
    sdss_sx6_query,
    tpch_shipdate_query,
)


def test_scale_factor_from_environment(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert scale_factor() == 1.0
    monkeypatch.setenv("REPRO_SCALE", "2.5")
    assert scale_factor() == 2.5
    monkeypatch.setenv("REPRO_SCALE", "not-a-number")
    assert scale_factor() == 1.0
    monkeypatch.setenv("REPRO_SCALE", "0.0001")
    assert scale_factor() == 0.05  # clamped


def test_experiment_scale_rows():
    scale = ExperimentScale(factor=0.5)
    assert scale.rows(100) == 50
    assert scale.rows(1) == 1


def test_build_ebay_database_small():
    db, rows = build_ebay_database(
        ExperimentScale(0.1), num_categories=100, items_per_category=(5, 10)
    )
    table = db.table("items")
    assert table.is_clustered
    assert table.clustered_attribute == "catid"
    assert table.num_rows == len(rows)
    assert table.has_clustered_buckets


def test_build_tpch_database_small():
    db, rows = build_tpch_database(ExperimentScale(0.05), num_orders=2_000)
    table = db.table("lineitem")
    assert table.clustered_attribute == "receiptdate"
    assert table.num_rows == len(rows) > 0


def test_build_sdss_database_small():
    db, rows = build_sdss_database(
        ExperimentScale(0.25), fields_ra=8, fields_dec=8, objects_per_field=8
    )
    table = db.table("photoobj")
    assert table.clustered_attribute == "objid"
    assert table.num_rows == len(rows)


def test_ebay_queries_run_against_the_harness_table():
    db, rows = build_ebay_database(
        ExperimentScale(0.1), num_categories=100, items_per_category=(5, 10)
    )
    low = min(row["price"] for row in rows)
    result = db.run_query(ebay_price_range_query(low, 1_000))
    in_range = sum(low <= row["price"] <= low + 1_000 for row in rows)
    assert result.rows_matched == in_range
    result = db.run_query(ebay_category_query("catid", rows[0]["catid"]))
    assert result.rows_matched == sum(row["catid"] == rows[0]["catid"] for row in rows)


def test_tpch_query_runs_against_the_harness_table():
    db, rows = build_tpch_database(ExperimentScale(0.05), num_orders=2_000)
    query = tpch_shipdate_query(rows, 3, seed=1)
    dates = set(query.predicates.on_attribute("shipdate").values)
    result = db.run_query(query)
    assert result.rows_matched == sum(row["shipdate"] in dates for row in rows) > 0


def test_sdss_query_runs_against_the_harness_table():
    db, rows = build_sdss_database(
        ExperimentScale(0.25), fields_ra=8, fields_dec=8, objects_per_field=8
    )
    fields = sorted({row["fieldid"] for row in rows})
    query = sdss_sx6_query(fields[: len(fields) // 2])
    expected = sum(all(p.matches(row) for p in query.predicates) for row in rows)
    assert db.run_query(query).rows_matched == expected > 0


def test_ebay_price_bucketer_levels():
    assert ebay_price_bucketer(3).width == 8.0
    assert ebay_price_bucketer(13).width == 8192.0


def test_format_table_alignment():
    rows = [
        {"bucket": 1, "pages": 96, "cost_ms": 15.34},
        {"bucket": 40, "pages": 160, "cost_ms": 19.5},
    ]
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].startswith("bucket")
    assert len(lines) == 4
    assert "15.3" in text
    assert format_table([]) == "(no rows)"


def test_format_table_explicit_columns():
    rows = [{"a": 1, "b": 2}]
    text = format_table(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]


def test_format_series():
    text = format_series(
        {"CM": [1.0, 2.0], "B+Tree": [1.5, 2.5]},
        x_label="range",
        x_values=[10, 20],
    )
    assert text.splitlines()[0].split()[:3] == ["range", "CM", "B+Tree"]
    assert len(text.splitlines()) == 4


def test_print_header(capsys):
    print_header("Experiment 1")
    captured = capsys.readouterr().out
    assert "Experiment 1" in captured
    assert "=" in captured
