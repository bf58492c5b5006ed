"""Tests for query descriptions, aggregates and results."""

import pytest

from repro.engine.predicates import Equals, PredicateSet
from repro.engine.query import Aggregate, Query, QueryResult


ROWS = [
    {"cat": "a", "price": 10.0},
    {"cat": "a", "price": 30.0},
    {"cat": "b", "price": 50.0},
]


def evaluate(aggregate, rows):
    """Fold ``rows`` through the aggregate's streaming accumulator."""
    accumulator = aggregate.make_accumulator()
    accumulator.add_batch(rows)
    return accumulator.result()


def test_aggregate_count():
    assert evaluate(Aggregate.count(), ROWS) == 3


def test_aggregate_count_distinct():
    assert evaluate(Aggregate.count_distinct("cat"), ROWS) == 2


def test_aggregate_sum_and_avg():
    assert evaluate(Aggregate.sum("price"), ROWS) == 90.0
    assert evaluate(Aggregate.avg("price"), ROWS) == pytest.approx(30.0)
    assert evaluate(Aggregate.avg("price"), []) is None


def test_aggregate_with_expression_callable():
    agg = Aggregate.avg(lambda row: row["price"] * 2)
    assert evaluate(agg, ROWS) == pytest.approx(60.0)


def test_aggregate_validation():
    with pytest.raises(ValueError):
        Aggregate("median", "price")
    with pytest.raises(ValueError):
        Aggregate("avg")


def test_query_select_builder():
    query = Query.select("items", Equals("cat", "a"), aggregate=Aggregate.count())
    assert query.table == "items"
    assert isinstance(query.predicates, PredicateSet)
    assert "COUNT" in query.describe()
    assert "cat = 'a'" in query.describe()


def test_query_accepts_predicate_list():
    query = Query(table="items", predicates=[Equals("cat", "a")])
    assert isinstance(query.predicates, PredicateSet)


def test_query_result_summary_and_properties():
    query = Query.select("items", Equals("cat", "a"))
    result = QueryResult(
        query=query,
        access_method="cm_scan",
        rows=[ROWS[0]],
        rows_examined=10,
        rows_matched=1,
        pages_visited=3,
        elapsed_ms=1500.0,
    )
    assert result.false_positive_rows == 9
    assert "cm_scan" in result.summary()
    assert "3 pages" in result.summary()
