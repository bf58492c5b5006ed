"""The pipelined join must plan off-heap, stream under LIMIT, and stay linear.

Guards for the lineitem-orders join workload (counter-based, no wall clock):

* join *planning* -- order enumeration, inner-strategy costing (including
  the hash and sort-merge candidates), join cardinality estimation --
  performs zero heap page reads, exactly like single-table planning (the
  statistics come from reservoir samples and the memory-resident CMs);
* the paper-shaped query (predicate on the correlated attribute ``shipdate``,
  equi-join to orders on ``orderkey``) streams the full result through a
  hash join in O(N + M) pages, and under a LIMIT flips back to the
  index-nested-loop pipeline (streaming probes beat the upfront hash build
  for a handful of rows) without exhausting the outer scan;
* with an *unindexed* inner -- the case that used to fall back to the
  quadratic nested-loop rescan -- the hash join reads O(N + M) heap pages
  where the forced nested-loop baseline reads O(N * M);
* the CM-guided inner path (orders clustered by ``orderdate``, CM on the
  correlated ``orderkey``) is still selected for probe-style plans when the
  clustered index no longer covers the join key.
"""

import zlib
from dataclasses import astuple

import pytest

from repro.bench.harness import ExperimentScale, build_tpch_join_database
from repro.engine.database import Database
from repro.engine.predicates import Between, PredicateSet
from repro.engine.query import Query


SHIPDATE_WINDOW = (100, 106)


def join_query(limit=None):
    low, high = SHIPDATE_WINDOW
    return Query.select("lineitem", Between("shipdate", low, high), limit=limit).join(
        "orders", on="orderkey"
    )


@pytest.fixture(scope="module")
def join_database():
    db, lineitem_rows, orders_rows = build_tpch_join_database(ExperimentScale(0.5))
    return db, lineitem_rows, orders_rows


@pytest.fixture(scope="module")
def unindexed_join_database():
    """lineitem + a bare-heap orders: no clustering, no index, no CM."""
    db, lineitem_rows, orders_rows = build_tpch_join_database(
        ExperimentScale(0.25), cluster_orders_on=None
    )
    return db, lineitem_rows, orders_rows


def total_heap_reads(db):
    return sum(table.heap.logical_page_reads for table in db.tables.values())


def expected_match_count(lineitem_rows):
    low, high = SHIPDATE_WINDOW
    return sum(1 for row in lineitem_rows if low <= row["shipdate"] <= high)


def test_join_planning_performs_zero_heap_page_reads(join_database):
    db, _lineitem, _orders = join_database
    query = join_query()
    before_reads = total_heap_reads(db)
    before_io = db.disk.snapshot()
    db.planner.candidate_join_plans(db.tables, query)
    db.planner.choose_join(db.tables, query)
    for strategy in ("nested_loop_join", "hash_join", "sort_merge_join"):
        db.planner.choose_join(db.tables, query, force_join=strategy)
    db.planner.choose_join(db.tables, query, limit=10)
    db.explain(query)
    assert total_heap_reads(db) == before_reads
    assert db.disk.window_since(before_io).pages_read == 0


def test_full_result_join_picks_hash_join(join_database):
    db, lineitem_rows, orders_rows = join_database
    result = db.run_query(join_query(), cold_cache=True)
    # The hash build reads each input once, so it beats per-row probing for
    # the full result; probe plans come back under a LIMIT (below).
    assert result.access_method == "hash_join"
    # The merged rows agree with a reference in-memory hash join.
    orders_by_key = {row["orderkey"]: row for row in orders_rows}
    assert result.rows_matched == expected_match_count(lineitem_rows)
    sample = result.rows[0]
    assert sample["orderdate"] == orders_by_key[sample["orderkey"]]["orderdate"]
    # The CM-driven outer path's rewritten SQL surfaces through the join.
    assert result.rewritten_sql is not None
    # One probe per probe-side row lands in the shared counters.
    assert result.join_probes > 0
    # O(N + M): both inputs read at most once.
    assert result.pages_visited <= (
        db.table("lineitem").num_pages + db.table("orders").num_pages
    )


def test_limit_flips_selection_back_to_index_nested_loop(join_database):
    db, _lineitem, _orders = join_database
    # The hash build is upfront work a tiny LIMIT cannot scale away, while
    # the probe pipeline streams -- so selection flips, exactly like the
    # single-table upfront-vs-streaming regression.
    plan = db.planner.choose_join(db.tables, join_query(), limit=10)
    assert plan.method == "index_nested_loop_join"


def test_join_limit_streams_without_exhausting_the_outer_scan(join_database):
    db, _lineitem, _orders = join_database
    lineitem = db.table("lineitem")

    # Unforced: LIMIT-aware selection picks a streaming probe pipeline, and
    # the outer sweep must stop early.
    before = lineitem.heap.logical_page_reads
    result = db.run_query(join_query(limit=10), cold_cache=True)
    outer_pages_read = lineitem.heap.logical_page_reads - before
    assert result.rows_matched == 10
    assert result.rows_emitted == 10
    assert outer_pages_read < lineitem.num_pages
    assert result.rows_examined < lineitem.num_rows
    # The shared counters cover both inputs: at least one probe per emitted
    # row plus the outer pages swept.
    assert result.pages_visited >= outer_pages_read

    # Forced onto the CM-driven index-nested-loop pipeline, the outer path
    # reads only the handful of bucket pages the 10 rows need.
    before = lineitem.heap.logical_page_reads
    result = db.run_query(
        join_query(limit=10),
        force="cm_scan",
        force_join="index_nested_loop_join",
        cold_cache=True,
    )
    outer_pages_read = lineitem.heap.logical_page_reads - before
    assert result.rows_matched == 10
    assert outer_pages_read < lineitem.num_pages // 10


def test_streaming_operators_beat_nested_loop_baseline(join_database):
    db, _lineitem, _orders = join_database
    nl = db.run_query(join_query(), force_join="nested_loop_join", cold_cache=True)
    assert nl.access_method == "nested_loop_join"
    for strategy in ("index_nested_loop_join", "hash_join", "sort_merge_join"):
        result = db.run_query(join_query(), force_join=strategy, cold_cache=True)
        assert result.access_method == strategy
        assert result.rows_matched == nl.rows_matched
        assert result.elapsed_ms < nl.elapsed_ms / 3
        assert result.pages_visited < nl.pages_visited


def test_unindexed_inner_join_reads_linear_not_quadratic_pages(
    unindexed_join_database,
):
    """The ISSUE's acceptance case: O(N + M) pages instead of O(N * M).

    ``orders`` is a bare heap -- no clustered index, no secondary index, no
    CM -- so before the hash/sort-merge operators existed the *only* plan
    was the nested-loop rescan, one full inner sweep per outer row.
    """
    db, lineitem_rows, _orders = unindexed_join_database
    linear_budget = db.table("lineitem").num_pages + db.table("orders").num_pages
    expected = expected_match_count(lineitem_rows)

    # Planning still performs zero heap reads with the new candidates.
    before_reads = total_heap_reads(db)
    plans = db.planner.candidate_join_plans(db.tables, join_query())
    best = db.planner.choose_join(db.tables, join_query())
    assert total_heap_reads(db) == before_reads
    # No probe structure exists, so every candidate is NLJ/HJ/SMJ-shaped.
    assert all("index_nested_loop_join" not in plan.structure for plan in plans)
    assert best.method == "hash_join"

    hash_result = db.run_query(join_query(), cold_cache=True)
    assert hash_result.access_method == "hash_join"
    assert hash_result.rows_matched == expected
    assert hash_result.pages_visited <= linear_budget

    merge_result = db.run_query(
        join_query(), force_join="sort_merge_join", cold_cache=True
    )
    assert merge_result.rows_matched == expected
    assert merge_result.pages_visited <= linear_budget

    nl_result = db.run_query(
        join_query(), force_join="nested_loop_join", cold_cache=True
    )
    assert nl_result.rows_matched == expected
    # The rescan reads the inner once per outer row: quadratic in the sense
    # of O(outer_rows * inner_pages), orders of magnitude past linear.
    assert nl_result.pages_visited > 10 * linear_budget
    assert nl_result.pages_visited > 0.5 * expected * db.table("orders").num_pages
    assert hash_result.elapsed_ms < nl_result.elapsed_ms / 10


def test_cm_guided_inner_path_when_join_key_correlates_with_clustering():
    """Orders clustered by orderdate: the CM on orderkey guides the probes."""
    db, lineitem_rows, _orders = build_tpch_join_database(
        ExperimentScale(0.5), cluster_orders_on="orderdate"
    )
    query = join_query()
    # Among probe-style plans the CM-guided inner wins outright...
    probe_plan = db.planner.choose_join(
        db.tables, query, force_join="index_nested_loop_join"
    )
    assert "cm_orderkey" in probe_plan.structure
    # ...and under a LIMIT the CM-guided probe pipeline wins cost-based
    # selection against the blocking hash build.
    limited = db.planner.choose_join(db.tables, query, limit=10)
    assert limited.method == "index_nested_loop_join"
    assert "cm_orderkey" in limited.structure
    result = db.run_query(query, force_join="index_nested_loop_join", cold_cache=True)
    assert result.rows_matched == expected_match_count(lineitem_rows)


#: ``(label, rows_examined, pages_visited, lookups, join_probes, rows_out)``
#: per plan node, then the whole-query figures, as measured at the commit
#: before the sweeps stopped dispatching predicates per row (PR 15) -- the
#: change must leave every one of them where it was.
PINNED_CM_PROBE_RUNS = {
    "limit_10": (
        dict(limit=10),
        [
            ("limit[10]", 0, 0, 0, 0, 10),
            ("index_nested_loop_join[orders(orderkey) via cm_orderkey]", 0, 0, 0, 10, 10),
            ("seq_scan(lineitem: heap)", 1813, 31, 0, 0, 10),
            ("inner_probe(orders(orderkey) via cm_orderkey)", 5240, 89, 10, 0, 10),
        ],
        dict(rows=10, digest=716501029, elapsed_ms=6.724600000000001,
             sequential_reads=63, random_reads=4, cpu_tuples=7053),
    ),
    "full_drain": (
        dict(force_join="index_nested_loop_join"),
        [
            ("index_nested_loop_join[orders(orderkey) via cm_orderkey]", 0, 0, 0, 166, 166),
            ("cm_scan(lineitem: cm_shipdate)", 1260, 21, 2, 0, 166),
            ("inner_probe(orders(orderkey) via cm_orderkey)", 100360, 1686, 166, 0, 166),
        ],
        dict(rows=166, digest=1194375479, elapsed_ms=25.036,
             sequential_reads=54, random_reads=5, cpu_tuples=101620),
    ),
}


@pytest.mark.parametrize("shape", sorted(PINNED_CM_PROBE_RUNS))
def test_cm_guided_probes_never_dispatch_predicates_per_row(shape, monkeypatch):
    """No ``PredicateSet.matches`` call while a CM-guided probe join executes.

    Every inner probe sweeps its clustered buckets through the lazy page
    sweep, which filters a page with one compiled-kernel pass; falling back
    to per-row predicate dispatch (one generator inside ``all()`` per live
    row) was half of ``tpch_join``'s time.  Planning still samples
    predicates row by row, so the spy only counts outside ``_prepare``.
    """
    db, _lineitem, _orders = build_tpch_join_database(
        ExperimentScale(0.25), cluster_orders_on="orderdate"
    )
    options, pinned_nodes, pinned = PINNED_CM_PROBE_RUNS[shape]
    planning, dispatched = [], []
    prepare, matches = Database._prepare, PredicateSet.matches

    def spied_prepare(self, *args, **kwargs):
        planning.append(True)
        try:
            return prepare(self, *args, **kwargs)
        finally:
            planning.pop()

    def spied_matches(self, row):
        if not planning:
            dispatched.append(self)
        return matches(self, row)

    monkeypatch.setattr(Database, "_prepare", spied_prepare)
    monkeypatch.setattr(PredicateSet, "matches", spied_matches)
    for batch_size in (None, 1, 256):
        db.batch_size = batch_size
        result = db.run_query(join_query(), cold_cache=True, **options)
        assert dispatched == [], (shape, batch_size)
        assert [
            (node.label(), *astuple(node.actual)) for node in result.plan.walk()
        ] == pinned_nodes, (shape, batch_size)
        digest = zlib.crc32(repr([sorted(row.items()) for row in result.rows]).encode())
        assert dict(
            rows=len(result.rows),
            digest=digest,
            elapsed_ms=result.elapsed_ms,
            sequential_reads=result.io.sequential_reads,
            random_reads=result.io.random_reads,
            cpu_tuples=result.io.cpu_tuples,
        ) == pinned, (shape, batch_size)
        assert result.pages_visited == sum(node[2] for node in pinned_nodes)
        assert result.rows_examined == sum(node[1] for node in pinned_nodes)
