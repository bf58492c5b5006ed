"""A model of query evaluation: plain Python over lists of dicts.

The reference the execution tests compare the engine with.  It shares no
code with ``src/repro/engine`` beyond reading the fields of the declarative
:class:`~repro.engine.query.Query` value it is handed: no access path, no
plan node, no kernel, no sort helper.  Evaluation is the textbook pipeline,
written for obviousness, not speed:

    filter -> nested-loop equi-join (with the joined table's local filters)
    -> group / aggregate (a dict fold in input order) -> stable sort
    -> limit -> project

``evaluate`` returns the rows, the scalar aggregate value and the number of
rows the filter/join stage produced (what ``QueryResult.rows_matched``
reports for a scalar aggregate).  The comparison helpers encode how far an
engine result is *determined* by the query: exact order under a total
ORDER BY, the multiset otherwise, and under a LIMIT over a non-total order
the sort-key prefix plus containment in the unlimited result.  Float sums
compare with a last-ulp tolerance, because the engine may legitimately add
in another order (clustered heaps, partitions, parallel partial merges).

NULL and NaN follow PostgreSQL, written out here with plain comparisons:
NULL (or a missing column) matches no predicate; NaN equals NaN and sorts
above every number; ascending order is numbers, NaN, NULL, and descending
reverses it.
"""

import math
from dataclasses import dataclass
from functools import cmp_to_key

from repro.engine.predicates import Between, Equals, ExpressionPredicate, InSet


@dataclass
class ModelResult:
    rows: list
    value: object = None
    #: Rows leaving the filter/join stage, before any aggregation.
    matched: int = 0


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _rank(value):
    """Where a value sorts ascending: numbers 0, NaN 1, NULL 2."""
    if value is None:
        return 2
    return 1 if value != value else 0


def _before(a, b):
    """Whether ``a`` sorts strictly before ``b`` ascending."""
    if _rank(a) != _rank(b):
        return _rank(a) < _rank(b)
    return _rank(a) == 0 and a < b


def _equal(a, b):
    """SQL equality: NULL equals nothing, NaN equals NaN."""
    if a is None or b is None:
        return False
    return _rank(a) == _rank(b) and (_rank(a) == 1 or a == b)


def holds(predicate, row):
    """One predicate on one row, interpreted from the predicate's fields."""
    if isinstance(predicate, ExpressionPredicate):
        return bool(predicate.function(row))
    value = row.get(predicate.attribute)
    if isinstance(predicate, Equals):
        return _equal(value, predicate.value)
    if isinstance(predicate, InSet):
        return any(_equal(value, candidate) for candidate in predicate.values)
    if isinstance(predicate, Between):
        if value is None:
            return False
        if predicate.low is not None and _before(value, predicate.low):
            return False
        if predicate.high is not None and _before(predicate.high, value):
            return False
        return True
    raise TypeError(f"the model does not know predicate {predicate!r}")


def _filtered(rows, predicates):
    return [row for row in rows if all(holds(p, row) for p in predicates)]


def _joined(outer_rows, inner_rows, on):
    merged = []
    for outer in outer_rows:
        for inner in inner_rows:
            if all(_equal(outer[left], inner[right]) for left, right in on):
                merged.append({**outer, **inner})
    return merged


def _fold(aggregate, rows):
    """count / count_distinct / sum / avg over ``rows``, left to right."""
    if aggregate.kind == "count":
        return len(rows)
    expression = aggregate.expression
    values = [
        expression(row) if callable(expression) else row[expression] for row in rows
    ]
    if aggregate.kind == "count_distinct":
        return len(set(values))
    total = 0
    for value in values:
        total = total + value
    if aggregate.kind == "sum":
        return total
    return total / len(values) if values else None


def _grouped(rows, columns, aggregate):
    """One output row per distinct key, in first-seen order."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[column] for column in columns), []).append(row)
    return [
        {**dict(zip(columns, key)), aggregate.output_name: _fold(aggregate, members)}
        for key, members in groups.items()
    ]


def compare_rows(left, right, ordering):
    """ORDER BY comparison: numbers, NaN, NULL ascending; reversed descending."""
    for column, ascending in ordering:
        a, b = left[column], right[column]
        if _before(a, b):
            return -1 if ascending else 1
        if _before(b, a):
            return 1 if ascending else -1
    return 0


def stable_sorted(rows, ordering):
    return sorted(
        rows, key=cmp_to_key(lambda left, right: compare_rows(left, right, ordering))
    )


def evaluate(query, tables):
    """Evaluate ``query`` over ``tables`` (``{name: [row dict, ...]}``)."""
    rows = _filtered(tables[query.table], query.predicates)
    for spec in query.joins:
        rows = _joined(rows, _filtered(tables[spec.table], spec.predicates), spec.on)
    matched = len(rows)
    if query.aggregate is not None and not query.grouping:
        return ModelResult([], _fold(query.aggregate, rows), matched)
    if query.grouping:
        rows = _grouped(rows, query.grouping, query.aggregate)
    if query.ordering:
        rows = stable_sorted(rows, query.ordering)
    if query.limit is not None:
        rows = rows[: query.limit]
    if query.projection is not None:
        rows = [{column: row[column] for column in query.projection} for row in rows]
    return ModelResult([dict(row) for row in rows], None, matched)


# ---------------------------------------------------------------------------
# Comparing an engine result with the model
# ---------------------------------------------------------------------------

def values_close(left, right):
    """Exact for ints/strings/None; last-ulp tolerance for float sums; NaN
    matches NaN."""
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12) or (
            _rank(left) == _rank(right) == 1
        )
    return left == right


def user_columns(row):
    """Drop engine bookkeeping columns (clustering bucket, MVCC stamps)."""
    return {key: value for key, value in row.items() if not key.startswith("_")}


def _exact_part(row):
    """The non-float items of a row: what a float-tolerant match keys on."""
    return tuple(
        sorted(
            (key, value) for key, value in row.items() if not isinstance(value, float)
        )
    )


def same_row(left, right):
    """Same columns, every value equal up to :func:`values_close`."""
    return left.keys() == right.keys() and all(
        values_close(left[column], right[column]) for column in left
    )


def first_missing(rows, pool):
    """The first of ``rows`` with no partner of its own in ``pool``.

    Multiset containment under :func:`values_close`: every row consumes one
    matching pool row.  ``None`` when all of ``rows`` are contained.
    """
    by_exact = {}
    for candidate in pool:
        by_exact.setdefault(_exact_part(candidate), []).append(candidate)
    for row in rows:
        candidates = by_exact.get(_exact_part(row), [])
        for position, candidate in enumerate(candidates):
            if same_row(row, candidate):
                del candidates[position]
                break
        else:
            return row
    return None


def order_is_total(query, unique_columns):
    """Whether ORDER BY leaves no two result rows tied.

    Grouped rows are unique on their group columns; plain rows on any of
    ``unique_columns`` (columns unique in the driving table that an N:1
    join chain keeps unique).
    """
    ordered = {column for column, _ascending in query.ordering}
    if query.grouping:
        return set(query.grouping) <= ordered
    return bool(ordered & set(unique_columns))


#: Stands for every NaN in a sort key, so key sequences compare NaN-equal.
_NAN = object()


def sort_keys(rows, ordering):
    return [
        tuple(_NAN if _rank(row[column]) == 1 else row[column] for column, _a in ordering)
        for row in rows
    ]


def assert_matches_model(result, query, tables, *, unique_columns=(), context=""):
    """``result`` (a ``QueryResult``) is an answer to ``query`` the model allows."""
    expected = evaluate(query, tables)
    got = [user_columns(row) for row in result.rows]
    if query.aggregate is not None and not query.grouping:
        assert values_close(result.value, expected.value), (
            f"{context}: value {result.value!r}, model {expected.value!r}"
        )
        assert result.rows_matched == expected.matched, context
        assert got == [], context
        return
    assert len(got) == len(expected.rows), (
        f"{context}: {len(got)} rows, model {len(expected.rows)}"
    )
    if query.ordering and order_is_total(query, unique_columns):
        for position, (row, want) in enumerate(zip(got, expected.rows)):
            assert same_row(row, want), (
                f"{context}: row {position} is {row!r}, model {want!r}"
            )
        return
    visible = set(got[0]) if got else set()
    if query.ordering and all(column in visible for column, _a in query.ordering):
        # Ties may resolve either way, the sequence of sort keys may not.
        assert sort_keys(got, query.ordering) == sort_keys(
            expected.rows, query.ordering
        ), f"{context}: rows are not in the model's ORDER BY key sequence"
    pool = expected.rows
    if query.limit is not None:
        # Which tied (or, unordered, which first-seen) rows a LIMIT keeps is
        # the engine's choice; that they come from the full answer is not.
        pool = evaluate(query.with_limit(None), tables).rows
    missing = first_missing(got, pool)
    assert missing is None, f"{context}: {missing!r} is not a row of the model's answer"
