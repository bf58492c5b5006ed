"""NULL and NaN take one place in the value order, whatever the plan.

A correlation-map plan may read extra pages, never return another answer.
This differential holds every forced access path, ORDER BY in both
directions and top-k to the model (``tests/engine/model.py``, which writes
PostgreSQL's rule out with plain comparisons) over a column that holds NULL
and NaN and is predicated, clustered on, B+Tree-indexed, CM-keyed (plain and
``WidthBucketer``) and sorted by -- on a flat table and a 4-way
hash-partitioned one.  The maintenance half deletes the NULL- and NaN-keyed
rows and wants every index and CM to forget them.
"""

import math
import random

import pytest

from repro.core.bucketing import WidthBucketer
from repro.engine.database import Database
from repro.engine.partition import PartitionSpec
from repro.engine.planner import FORCE_METHODS
from repro.engine.predicates import Between, Equals, InSet, PredicateSet
from repro.engine.query import Query
from tests.engine.model import assert_matches_model

NAN = math.nan
NUM_ROWS = 600


def make_rows(nulls=True):
    """Every 23rd price is NULL and every 29th a NaN (a fresh object each);
    every 31st category NULL, every 37th NaN.  ``nulls=False`` keeps the NaNs
    alone: a table that engines without the value order could still build."""
    rows = []
    for i in range(NUM_ROWS):
        price = float((i * 37) % 1000)
        cat = float(int(price // 100))
        if i % 23 == 0 and nulls:
            price = None
        elif i % 29 == 0:
            price = float("nan")
        if i % 31 == 0 and nulls:
            cat = None
        elif i % 37 == 0:
            cat = float("nan")
        rows.append({"id": i, "cat": cat, "price": price, "qty": i % 7})
    return rows


def build(partitioned, nulls=True):
    rows = make_rows(nulls)
    db = Database(buffer_pool_pages=100)
    options = {"partition_by": PartitionSpec.by_hash("id", 4)} if partitioned else {}
    db.create_table("items", sample_row=rows[1], tups_per_page=12, **options)
    db.load("items", rows)
    db.cluster("items", "cat", pages_per_bucket=2)
    db.create_secondary_index("items", "price")
    db.create_correlation_map("items", ["price"], name="cm_plain")
    if nulls:
        db.create_correlation_map(
            "items",
            ["price"],
            bucketers={"price": WidthBucketer(64)},
            name="cm_width",
            use_clustered_buckets=False,
        )
    return db, rows


@pytest.fixture(scope="module", params=["flat", "hash4", "flat_nan_only"])
def loaded(request):
    return build(request.param == "hash4", nulls=request.param != "flat_nan_only")


PREDICATES = [
    Between("price", 100.0, 600.0),
    Between("price", 300.0, None),
    Between("price", None, 400.0),
    Equals("price", NAN),
    Equals("price", None),
    InSet("price", (NAN, None, 111.0)),
    Between("cat", 3.0, None),
    Equals("cat", NAN),
]


def run(db, query, force=None):
    """``run_query`` under ``force``; ``None`` when the path does not apply."""
    try:
        return db.run_query(query, force=force)
    except ValueError as error:
        if "applicable" in str(error) or "no secondary index" in str(error):
            return None
        raise


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.describe())
def test_every_forced_path_returns_the_models_rows(loaded, predicate):
    db, rows = loaded
    query = Query.select("items", predicate, order_by=["id"])
    ran = 0
    for force in (None, *FORCE_METHODS):
        result = run(db, query, force)
        if result is not None:
            ran += 1
            assert_matches_model(
                result, query, {"items": rows}, unique_columns=("id",), context=force
            )
    assert ran >= 3


@pytest.mark.parametrize("order_by", [["price", "id"], ["-price", "id"], ["-cat", "-id"]])
@pytest.mark.parametrize("limit", [None, 1, 9, 40])
def test_order_by_and_top_k_place_nulls_and_nans(loaded, order_by, limit):
    db, rows = loaded
    query = Query.select("items", order_by=order_by, limit=limit)
    assert_matches_model(
        db.run_query(query), query, {"items": rows}, unique_columns=("id",)
    )
    filtered = Query.select(
        "items", Between("price", 500.0, None), order_by=order_by, limit=limit
    )
    assert_matches_model(
        db.run_query(filtered), filtered, {"items": rows}, unique_columns=("id",)
    )


def test_a_nan_bound_is_refused():
    with pytest.raises(ValueError):
        Between("price", NAN, 5.0)
    with pytest.raises(ValueError):
        Between("price", None, NAN)


@pytest.mark.parametrize("partitioned", [False, True], ids=["flat", "hash4"])
def test_one_nan_does_not_widen_a_range_estimate(partitioned):
    """A NaN has no place on the number line, so the range's share of the
    domain is measured between the numeric bounds, with or without it."""

    def estimate(with_nan):
        rng = random.Random(7)
        rows = [
            {"id": i, "cat": rng.randrange(50), "price": round(rng.uniform(0, 1000), 2)}
            for i in range(4000)
        ]
        if with_nan:
            rows[2000]["price"] = NAN
        db = Database(buffer_pool_pages=200)
        options = {"partition_by": PartitionSpec.by_hash("id", 4)} if partitioned else {}
        db.create_table("items", sample_row=rows[0], tups_per_page=50, **options)
        db.load("items", rows)
        db.cluster("items", "cat", pages_per_bucket=4)
        db.create_secondary_index("items", "price")
        table = db.table("items")
        predicates = PredicateSet([Between("price", 100.0, 103.0)])
        return table.attribute_range("price"), db.planner._estimate_n_lookups(
            table, predicates, ["price"]
        )

    (low, high), plain = estimate(False)
    bounds, with_nan = estimate(True)
    assert bounds == (low, high)
    assert plain == 12
    assert abs(with_nan - plain) <= 1


def children(db):
    table = db.table("items")
    return getattr(table, "partitions", (table,))


@pytest.mark.parametrize("partitioned", [False, True], ids=["flat", "hash4"])
def test_deleting_null_and_nan_keyed_rows_leaves_no_entry_behind(partitioned):
    db, rows = build(partitioned)
    special_rows = [row for row in rows if row["price"] is None or math.isnan(row["price"])]
    db.delete("items", [Equals("price", NAN)])
    db.delete("items", PredicateSet([InSet("id", [row["id"] for row in special_rows])]))
    live = NUM_ROWS - len(special_rows)
    assert sum(child.num_rows for child in children(db)) == live
    for child in children(db):
        for index in child.secondary_indexes.values():
            assert index.num_entries == child.num_rows
            index.tree.check_invariants()
        for cm in child.correlation_maps.values():
            assert cm.total_rows_represented == child.num_rows
    for force in FORCE_METHODS:
        for predicate, expected in ((Between("price", 0.0, None), live), (Equals("price", NAN), 0)):
            result = run(db, Query.select("items", predicate), force)
            if result is not None:
                assert result.rows_matched == expected, force


# -- one family per column ------------------------------------------------------------


def state(db):
    """Everything a write could move, per child table: heap slots, index
    entries, CM maps and directories, statistics (reservoir, its random
    stream, bounds, sorted columns), column families."""
    table = db.table("items")
    snapshot = [dict(getattr(table, "families", {}))]
    for child in children(db):
        stats = child.statistics
        snapshot.append(
            (
                [[None if row is None else dict(row) for row in page.slots] for page in child.heap.pages],
                {name: list(index.tree.items()) for name, index in child.secondary_indexes.items()},
                {
                    name: (
                        [(key, dict(targets)) for key, targets in cm._mapping.items()],
                        None if cm._directory is None else list(cm._directory.items),
                    )
                    for name, cm in child.correlation_maps.items()
                },
                [id(row) for row in stats._reservoir._items],
                stats._reservoir._rng.getstate(),
                dict(stats._minmax),
                {name: list(run.items) for name, run in stats._sorted_columns.items()},
                stats.total_rows,
                dict(child.families),
            )
        )
    return snapshot


def same_state(left, right):
    """``left == right``, NaN equal to NaN: the snapshots share their NaN objects."""
    return repr(left) == repr(right)


BAD_VALUES = ["3.0", (1, 2)]  # another family; a type with no family


def writes(db):
    """name -> one write of a row whose price is ``bad``."""
    good = {"id": 10_000, "cat": 1.0, "price": 5.0, "qty": 1}
    return {
        "load": lambda bad: db.load("items", [good, {**good, "id": 10_001, "price": bad}]),
        "insert_row": lambda bad: db.insert("items", [{**good, "price": bad}]),
        "tx_insert": lambda bad: db.tx_insert(
            db.begin_transaction(), "items", [{**good, "price": bad}]
        ),
        "tx_update": lambda bad: db.tx_update(
            db.begin_transaction(), "items", [Between("price", 100.0, 200.0)], {"price": bad}
        ),
    }


@pytest.mark.parametrize("partitioned", [False, True], ids=["flat", "hash4"])
@pytest.mark.parametrize("write", ["load", "insert_row", "tx_insert", "tx_update"])
@pytest.mark.parametrize("bad", BAD_VALUES, ids=["str", "tuple"])
def test_a_value_of_another_family_is_refused_before_anything_moves(partitioned, write, bad):
    db, _rows = build(partitioned)
    # Build the sorted column and the CM directory, so the write could move them.
    db.run_query(Query.select("items", Between("price", 100.0, None)), force="cm_scan")
    before = state(db)
    expected = TypeError
    if partitioned and write.startswith("tx_"):
        expected = NotImplementedError  # MVCC writes refuse partitioned tables first
    with pytest.raises(expected) as error:
        writes(db)[write](bad)
    if expected is TypeError:
        assert "'items'" in str(error.value) and "'price'" in str(error.value)
    assert same_state(state(db), before)


def test_the_first_non_null_value_fixes_the_family():
    db = Database(buffer_pool_pages=20)
    db.create_table("t", sample_row={"k": 0, "v": None}, tups_per_page=4)
    db.load("t", [{"k": 0, "v": None}, {"k": 1, "v": None}])
    db.insert("t", [{"k": 2, "v": "x"}])
    with pytest.raises(TypeError, match="'t'.*'v'"):
        db.insert("t", [{"k": 3, "v": 1.5}])
    db.insert("t", [{"k": 4, "v": None}, {"k": 5, "v": "y"}])
    assert db.table("t").families == {"k": float, "v": str}
