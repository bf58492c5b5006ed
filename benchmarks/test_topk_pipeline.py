"""Top-k must ride the streaming layer: no extra pass, planner off-heap.

Guards for ORDER BY / top-k over the TPC-H lineitem workload (counter-based,
no wall clock):

* ``order_by(...).with_limit(k)`` executes via a bounded k-heap *inside* the
  pipeline: the plan reads exactly the pages the chosen scan reads for the
  same predicate -- no materialise-then-sort second pass over the heap;
* the k-heap agrees with the full sort (same rows, same order);
* planning ORDER BY / GROUP BY / top-k trees performs zero heap page reads,
  exactly like scan and join planning (ordering analysis and group-count
  estimation are served from the catalog and the reservoir samples);
* a free ORDER BY (the sort key is the clustered attribute, so every sweep
  path already streams in order) plans the Sort away entirely, letting the
  LIMIT terminate the scan early -- fewer pages than the full matching sweep;
* a top-k over a hash join, ordered by probe-side columns, merges only the
  rows it keeps: at most k probe rows' match lists, not the whole join.
"""

import pytest

from repro.bench.harness import ExperimentScale, build_tpch_database
from repro.datasets.ebay import EbayConfig, generate_items
from repro.engine.database import Database
from repro.engine.executor import HashJoin
from repro.engine.partition import PartitionSpec
from repro.engine.predicates import Between
from repro.engine.query import Aggregate, Query


SHIPDATE_WINDOW = (100, 130)
K = 10


@pytest.fixture(scope="module")
def topk_database():
    db, rows = build_tpch_database(ExperimentScale(0.5))
    db.create_correlation_map("lineitem", ["shipdate"], name="cm_shipdate")
    return db, rows


def base_query():
    low, high = SHIPDATE_WINDOW
    return Query.select("lineitem", Between("shipdate", low, high))


def heap_reads(db):
    return db.table("lineitem").heap.logical_page_reads


def test_topk_reads_no_more_pages_than_the_underlying_scan(topk_database):
    """The ISSUE's acceptance case: the k-heap adds zero page reads."""
    db, _rows = topk_database
    for method in ("cm_scan", "seq_scan"):
        before = heap_reads(db)
        plain = db.run_query(base_query(), force=method, cold_cache=True)
        plain_reads = heap_reads(db) - before

        before = heap_reads(db)
        topk = db.run_query(
            base_query().order_by("-extendedprice").with_limit(K),
            force=method,
            cold_cache=True,
        )
        topk_reads = heap_reads(db) - before

        assert topk.rows_matched == K
        assert topk_reads == plain_reads
        assert topk.pages_visited == plain.pages_visited
        assert topk.sort_stats == f"top-{K} heap over {plain.rows_matched} rows"


def test_topk_heap_agrees_with_full_sort(topk_database):
    db, _rows = topk_database
    ordered = base_query().order_by("-extendedprice", "orderkey")
    full = db.run_query(ordered)
    topk = db.run_query(ordered.with_limit(K))
    assert topk.rows == full.rows[:K]
    assert "sort buffered" in full.sort_stats
    assert "heap" in topk.sort_stats


def test_planning_order_by_and_group_by_stays_off_the_heap(topk_database):
    db, _rows = topk_database
    table = db.table("lineitem")
    queries = [
        base_query().order_by("extendedprice"),
        base_query().order_by("-extendedprice").with_limit(K),
        base_query().order_by("receiptdate").with_limit(K),
        Query.select(
            "lineitem", aggregate=Aggregate.sum("extendedprice")
        ).group_by("suppkey"),
    ]
    before_reads = heap_reads(db)
    before_io = db.disk.snapshot()
    for query in queries:
        db.planner.candidate_plans(table, query, limit=query.limit)
        db.planner.choose(table, query, limit=query.limit)
        db.explain(query)
    assert heap_reads(db) == before_reads
    assert db.disk.window_since(before_io).pages_read == 0


def test_free_order_by_on_the_clustered_key_terminates_early(topk_database):
    """Clustered-order sort keys skip the Sort node and keep LIMIT pushdown."""
    db, _rows = topk_database
    full = db.run_query(base_query(), force="cm_scan", cold_cache=True)
    limited = db.run_query(
        base_query().order_by("receiptdate").with_limit(K),
        force="cm_scan",
        cold_cache=True,
    )
    assert limited.sort_stats is None  # no Sort/TopK node was planned
    assert limited.rows_matched == K
    assert limited.pages_visited < full.pages_visited
    dates = [row["receiptdate"] for row in limited.rows]
    assert dates == sorted(dates)


@pytest.mark.parametrize("partitions", [None, 4])
def test_topk_over_a_hash_join_merges_only_its_winners(partitions, monkeypatch):
    """Top-10 by item price over a 3 000-row item probe joined to 1-3 label
    rows per category: the one merge step (``HashJoin._merge``) produces at
    most k x (longest match list) rows per top-k, flat or partition-wise --
    against 6 000 for the join drained.  Counted calls, no timer."""
    items = generate_items(
        EbayConfig(num_categories=15, items_per_category=(200, 200), seed=3)
    )
    labels = [
        {"catid": catid, "label": f"l{catid}.{n}"}
        for catid in range(15)
        for n in range(1 + catid % 3)
    ]
    longest = 3
    db = Database(buffer_pool_pages=200)
    spec = None if partitions is None else PartitionSpec.by_hash("catid", partitions)
    for name, rows in (("items", items), ("labels", labels)):
        db.create_table(name, sample_row=rows[0], tups_per_page=50, partition_by=spec)
        db.load(name, rows)
    join = Query.select("items").join("labels", "catid")
    drained = db.run_query(join, force_join="hash_join")
    assert len(items) == 3_000 and drained.rows_matched == 6_000

    merged: list[int] = []
    merge = HashJoin._merge

    def counted(self, probed):
        rows = merge(self, probed)
        merged.append(len(rows))
        return rows

    monkeypatch.setattr(HashJoin, "_merge", counted)
    ordered = join.order_by("-price", "itemid")
    result = db.run_query(ordered.with_limit(K), force_join="hash_join")
    joins = [node for node in result.plan.walk() if isinstance(node, HashJoin)]
    assert len(merged) == len(joins) == (partitions or 1)
    assert all(count <= K * longest for count in merged)
    assert sum(node.actual.rows_out for node in joins) == 6_000
    assert result.join_probes == drained.join_probes == 3_000

    monkeypatch.undo()
    full = db.run_query(ordered, force_join="hash_join")
    assert result.rows == full.rows[:K]
