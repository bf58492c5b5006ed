"""Tests for CM-based query rewriting (predicate introduction)."""

import pytest

from repro.core.bucketing import WidthBucketer
from repro.core.composite import CompositeKeySpec, ValueConstraint
from repro.core.correlation_map import CorrelationMap
from repro.core.rewriter import QueryRewriter, RewrittenPredicate


def build_city_cm():
    rows = [
        {"city": "Boston", "state": "MA"},
        {"city": "Boston", "state": "NH"},
        {"city": "Springfield", "state": "MA"},
        {"city": "Springfield", "state": "OH"},
        {"city": "Toledo", "state": "OH"},
    ]
    return CorrelationMap("cm_city", CompositeKeySpec.build(["city"]), "state").build(rows)


def test_introduction_section1_example():
    """SELECT ... WHERE city='Boston' gains AND state IN ('MA','NH')."""
    rewriter = QueryRewriter(build_city_cm())
    rewritten = rewriter.rewrite({"city": ValueConstraint.equals("Boston")})
    assert rewritten.clustered_attribute == "state"
    assert rewritten.clustered_values == ("MA", "NH")
    assert not rewritten.is_empty
    sql = rewritten.to_sql("emp")
    assert "city = 'Boston'" in sql
    assert "state IN ('MA', 'NH')" in sql


def test_multiple_cities_union():
    rewriter = QueryRewriter(build_city_cm())
    rewritten = rewriter.rewrite(
        {"city": ValueConstraint.in_set(["Boston", "Springfield"])}
    )
    assert rewritten.clustered_values == ("MA", "NH", "OH")


def test_unknown_value_yields_empty_rewrite():
    rewriter = QueryRewriter(build_city_cm())
    rewritten = rewriter.rewrite({"city": ValueConstraint.equals("Lyon")})
    assert rewritten.is_empty


def test_not_applicable_without_cm_attribute_predicate():
    rewriter = QueryRewriter(build_city_cm())
    assert not rewriter.applicable({"salary": ValueConstraint.between(0, 10)})
    with pytest.raises(ValueError):
        rewriter.rewrite({"salary": ValueConstraint.between(0, 10)})


def test_non_cm_predicates_are_not_forwarded():
    rewriter = QueryRewriter(build_city_cm())
    rewritten = rewriter.rewrite(
        {
            "city": ValueConstraint.equals("Toledo"),
            "salary": ValueConstraint.between(0, 100),
        }
    )
    assert set(rewritten.residual_constraints) == {"city"}


def test_clustered_column_override_for_bucket_ids():
    """When the table stores bucket ids the IN list ranges over that column."""
    rows = [{"receiptdate": 10 + i, "shipdate": i, "_bucket": i // 5} for i in range(20)]
    cm = CorrelationMap(
        "cm",
        CompositeKeySpec.build(["receiptdate"]),
        "shipdate",
        target_of=lambda row: row["_bucket"],
    ).build(rows)
    rewriter = QueryRewriter(cm, clustered_column="_bucket")
    rewritten = rewriter.rewrite({"receiptdate": ValueConstraint.equals(12)})
    assert rewritten.clustered_attribute == "_bucket"
    assert rewritten.clustered_values == (0,)


def test_range_predicate_rewrite_tpch_style():
    rows = [{"receiptdate": i + 3, "shipdate": i} for i in range(100)]
    cm = CorrelationMap(
        "cm", CompositeKeySpec.build(["receiptdate"]), "shipdate",
        target_of=lambda row, b=WidthBucketer(10): b.bucket(row["shipdate"]),
    ).build(rows)
    rewriter = QueryRewriter(cm)
    rewritten = rewriter.rewrite({"receiptdate": ValueConstraint.between(20, 25)})
    assert rewritten.clustered_values == (10.0, 20.0)
    sql = rewritten.to_sql("lineitem")
    assert sql.startswith("SELECT * FROM lineitem WHERE")
    assert "BETWEEN 20 AND 25" in sql


def test_to_sql_open_ranges_and_strings():
    predicate = RewrittenPredicate(
        clustered_attribute="state",
        clustered_values=("MA",),
        residual_constraints={
            "low_only": ValueConstraint(low=5),
            "high_only": ValueConstraint(high=9),
            "nothing": ValueConstraint(),
            "quoted": ValueConstraint.equals("O'Brien"),
        },
    )
    sql = predicate.to_sql("t")
    assert "low_only >= 5" in sql
    assert "high_only <= 9" in sql
    assert "TRUE" in sql
    assert "O''Brien" in sql
