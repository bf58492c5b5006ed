"""Plan enumeration must never touch the heap (counter-based, no wall clock).

The paper's point is that a CM keeps *lookups* cheap because the map is tiny
and memory-resident; a planner that scans the table to cost its candidates
defeats that on the hot path.  These guards assert -- via the heap's logical
page-read counter, which counts even accounting-free reads -- that
``Planner.candidate_plans`` and ``Planner.choose`` perform zero heap page
reads, including right after inserts and deletes invalidate the cached
statistics.  The same premise one level up: a *fresh range* predicate is
planned without evaluating a predicate per sampled row or per CM key (call
counters, no timer).
"""

import pytest

import repro.core.correlation_map as correlation_map
from repro.bench.harness import (
    ExperimentScale,
    build_ebay_database,
    ebay_price_bucketer,
)
from repro.engine.predicates import Between, Equals, InSet, PredicateSet
from repro.engine.query import Query


@pytest.fixture()
def planner_database():
    """A fresh (mutable) eBay-style database with an index and a CM on price."""
    db, rows = build_ebay_database(ExperimentScale(0.25))
    db.create_secondary_index("items", "price")
    db.create_correlation_map("items", ["price"], name="cm_price")
    return db, rows


QUERIES = [
    Query.select("items", Between("price", 1000, 1100)),
    Query.select("items", Equals("price", 1234.5)),
    Query.select("items", InSet("catid", [3, 57, 91])),
    Query.select("items", Equals("cat2", "group4")),
    Query.select("items", Between("price", 0, 9_000)),
]


def heap_reads(db):
    return db.table("items").heap.logical_page_reads


def plan_everything(db):
    table = db.table("items")
    for query in QUERIES:
        db.planner.candidate_plans(table, query)
        db.planner.choose(table, query)
        db.planner.choose(table, query, force="seq_scan")
        # LIMIT-aware selection estimates result sizes from the sample, so
        # it must stay off the heap too.
        db.planner.choose(table, query, limit=5)
    db.planner.choose(
        table, Query.select("items", Between("price", 1000, 1100)),
        force="pipelined_index_scan",
    )


def test_planning_performs_zero_heap_page_reads(planner_database):
    db, _rows = planner_database
    before_reads = heap_reads(db)
    before_io = db.disk.snapshot()
    plan_everything(db)
    assert heap_reads(db) == before_reads
    assert db.disk.window_since(before_io).pages_read == 0


def test_planning_after_updates_stays_off_the_heap(planner_database):
    """Inserts/deletes invalidate cached statistics; replanning must still be
    served from the incrementally-maintained sample, not a heap scan."""
    db, rows = planner_database
    table = db.table("items")
    template = dict(rows[0])
    inserted = []
    for i in range(25):
        row = dict(template)
        row["itemid"] = 90_000_000 + i
        inserted.append(table.insert_row(row, charge_io=False))
    before = heap_reads(db)
    plan_everything(db)
    assert heap_reads(db) == before

    for rid in inserted[:5]:
        table.delete_row(rid, charge_io=False)
    before = heap_reads(db)
    plan_everything(db)
    assert heap_reads(db) == before


#: ``(method, structure, est_rows, estimated_cost_ms)`` of the plan chosen
#: for each never-seen price window below, as recorded at the parent commit
#: (where every one of them swept the sample and walked the CM keys).
PINNED_FRESH_RANGE_PLANS = [
    ((1_000.0, 9_000.0), ("cm_scan", "cm_price", 335.0, 3.3552272727272734)),
    # ... after three inserts, then after one delete: the events that empty
    # the selectivity memo.
    ((1_050.0, 9_050.0), ("cm_scan", "cm_price", 337.99999999999994, 3.3854545454545457)),
    ((1_100.0, 9_100.0), ("cm_scan", "cm_price", 337.0, 3.3854545454545457)),
    # An inverted window matches nothing.
    ((500_000.0, 400_000.0), ("sorted_index_scan", "items__idx_price", 0.0, 0.8675727138504018)),
]


def test_planning_a_fresh_range_dispatches_no_per_row_predicate(monkeypatch):
    """``Planner.choose`` on a never-seen ``price BETWEEN``: no sweep, no key walk.

    On a ``cm_lookup``-shaped table (B+Tree and bucketed CM on ``price``, CMs
    on ``cat2..cat6``) the selectivity comes from two bisections of the
    sorted sample column and the CM's ``n_lookups`` from a bisection of its
    key directory: zero ``PredicateSet.matches`` / ``Between.matches`` calls
    (one per sampled row before) and zero ``key_matches`` calls (one per CM
    key before; a composite CM would still pay one per key *inside* the
    bisected slice for its non-leading positions -- here every CM has one
    attribute).  Plans and estimates are the parent's, before and after DML.
    """
    db, rows = build_ebay_database(ExperimentScale(0.25))
    db.create_secondary_index("items", "price")
    db.create_correlation_map(
        "items", ["price"], bucketers={"price": ebay_price_bucketer(12)}, name="cm_price"
    )
    for attribute in ("cat2", "cat3", "cat4", "cat5", "cat6"):
        db.create_correlation_map("items", [attribute])
    table = db.table("items")
    # A first range builds the two sorted structures (without the spies on).
    db.planner.choose(table, Query.select("items", Between("price", 0.0, 1.0)))

    calls = {"PredicateSet.matches": 0, "Between.matches": 0, "key_matches": 0}

    def counting(name, function):
        def spy(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return spy

    monkeypatch.setattr(
        PredicateSet, "matches", counting("PredicateSet.matches", PredicateSet.matches)
    )
    monkeypatch.setattr(Between, "matches", counting("Between.matches", Between.matches))
    monkeypatch.setattr(
        correlation_map, "key_matches", counting("key_matches", correlation_map.key_matches)
    )

    def assert_planned_as_pinned(step):
        (low, high), pinned = PINNED_FRESH_RANGE_PLANS[step]
        plan = db.planner.choose(table, Query.select("items", Between("price", low, high)))
        assert (
            plan.method, plan.structure, plan.est_rows, plan.estimated_cost_ms
        ) == pytest.approx(pinned, rel=1e-12)
        assert calls == dict.fromkeys(calls, 0), (low, high)

    assert_planned_as_pinned(0)
    inserted = []
    for i in range(3):
        row = {**rows[0], "itemid": 90_000_000 + i, "price": 5_000.0 + i}
        row.pop("_cm_bucket", None)
        inserted.append(table.insert_row(row, charge_io=False))
    assert_planned_as_pinned(1)
    table.delete_row(inserted[0], charge_io=False)
    assert_planned_as_pinned(2)
    assert_planned_as_pinned(3)
    # The spies do count: a conjunction still takes the sample sweep.
    db.planner.choose(
        table,
        Query.select("items", Between("price", 1_000.0, 9_000.0), Equals("cat2", "group4")),
    )
    assert calls["PredicateSet.matches"] == len(table.statistics.sample_rows)
    assert calls["Between.matches"] > 0
