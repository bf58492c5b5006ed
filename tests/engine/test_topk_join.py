"""A top-k above a hash join merges only the rows it keeps.

``HashJoin.top_k`` ranks the *matched probe rows* when no build row carries
an ORDER BY column, then joins just the winners; otherwise it ranks the
merged rows, as the drained join would feed them.  Nothing selects between
the two but the built rows, so these tests reach both through ordinary
queries (and hand-built trees, to pin each build side on a flat table) and
tell them apart by counting merged rows -- a spy on ``HashJoin._merge``, the
one merge step.

Every answer is checked three ways: exactly against the stable sort of the
engine's own drained join (the rows *and* their tie order), against the
plain-Python model (``tests/engine/model.py``), and by its counters, which
must be the drained join's plus the top-k's and the merge's comparisons.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.cost import merge_comparison_count, top_k_comparison_count
from repro.engine.access import SeqScan
from repro.engine.database import Database
from repro.engine.executor import ExecutionContext, HashJoin, ScanNode
from repro.engine.partition import PartitionSpec
from repro.engine.plan import TopKNode
from repro.engine.predicates import Between, Equals, PredicateSet
from repro.engine.query import Query

from tests.engine.model import (
    assert_matches_model,
    evaluate,
    stable_sorted,
    user_columns,
)

#: Probe-side orderings: total on the orders table, and tied across it.
BY_AMOUNT_THEN_ID = ("-amount", "orderid")
BY_AMOUNT = ("-amount",)


def order_rows():
    # custid 0..11; amounts repeat every ten orders, so ties abound.
    return [
        {"orderid": i, "custid": i % 12, "amount": float((i * 7) % 10)}
        for i in range(48)
    ]


def tag_rows():
    # custid % 4 tags per customer: 0 (an unmatched order), 1, 2 or 3 --
    # and custids 12..15 own tags but no orders.
    return [
        {"custid": custid, "tag": f"t{custid}.{n}"}
        for custid in range(16)
        for n in range(custid % 4)
    ]


TABLES = {"orders": order_rows(), "tags": tag_rows()}
#: The longest match list any probe row can have.
LONGEST = 3


def build_database(partitioned):
    db = Database(buffer_pool_pages=64)
    spec = PartitionSpec.by_hash("custid", 3) if partitioned else None
    for name, rows in TABLES.items():
        db.create_table(name, sample_row=rows[0], tups_per_page=8, partition_by=spec)
        db.load(name, rows)
    return db


@pytest.fixture(scope="module", params=["flat", "partitioned"])
def layout(request):
    return request.param, build_database(request.param == "partitioned")


#: The two driving orders.  The planner builds the smaller ``tags`` side:
#: as the inner (``build=inner``) when ``orders`` drives, as the outer
#: (``build=outer``) when ``tags`` drives (the flat planner may reorder the
#: first query into the second).  Either way ``orders`` is the probe side,
#: so an ORDER BY on its columns takes the late path.
JOINS = {
    "orders_first": Query.select("orders").join("tags", "custid"),
    "tags_first": Query.select("tags").join("orders", "custid"),
}


@pytest.fixture
def merged_rows(monkeypatch):
    """Rows each call of the one merge step produced, call by call."""
    counts = []
    merge = HashJoin._merge

    def counted(self, probed):
        rows = merge(self, probed)
        counts.append(len(rows))
        return rows

    monkeypatch.setattr(HashJoin, "_merge", counted)
    return counts


def hash_joins(plan):
    return [node for node in plan.walk() if isinstance(node, HashJoin)]


def run(db, query):
    db.reset_measurements()  # park every head: both runs start alike
    return db.run_query(query, force_join="hash_join", cold_cache=True)


def drained_join(query):
    return replace(query, ordering=(), limit=None)


def check_against_the_drained_join(db, query, result):
    """Rows, tie order and every counter, against the same join drained."""
    k = query.limit
    drained = run(db, drained_join(query))
    expected = stable_sorted(
        [user_columns(row) for row in drained.rows], query.ordering
    )[:k]
    assert [user_columns(row) for row in result.rows] == expected
    assert_matches_model(result, query, TABLES)

    cardinality = len(evaluate(drained_join(query), TABLES).rows)
    assert drained.rows_matched == cardinality
    joins = hash_joins(result.plan)
    assert sum(join.actual.rows_out for join in joins) == cardinality
    assert [join.actual.rows_out for join in joins] == [
        join.actual.rows_out for join in hash_joins(drained.plan)
    ]
    topks = [node for node in result.plan.walk() if isinstance(node, TopKNode)]
    assert [node.rows_in for node in topks] == [
        node.source.actual.rows_out for node in topks
    ]
    assert result.sort_stats == f"top-{k} heap over {topks[0].rows_in} rows"
    assert (result.join_probes, result.pages_visited, result.rows_examined) == (
        drained.join_probes,
        drained.pages_visited,
        drained.rows_examined,
    )
    # Simulated time: the drained join's I/O and CPU, plus the comparisons
    # of each top-k and of the merge exchange above a partitioned plan.
    extra = sum(int(top_k_comparison_count(node.rows_in, k)) for node in topks)
    if len(topks) > 1 and result.rows:
        extra += int(merge_comparison_count(len(result.rows), len(topks)))
    io = replace(drained.io, cpu_tuples=drained.io.cpu_tuples + extra)
    assert result.io == io
    assert result.elapsed_ms == io.elapsed_ms(db.disk.params)


@pytest.mark.parametrize("shape", sorted(JOINS))
@pytest.mark.parametrize("ordering", [BY_AMOUNT_THEN_ID, BY_AMOUNT])
def test_every_k_is_exact_and_merges_only_the_winners(
    layout, shape, ordering, merged_rows
):
    _label, db = layout
    join = JOINS[shape].order_by(*ordering)
    cardinality = len(evaluate(join, TABLES).rows)
    straddled = False
    for k in range(1, cardinality + 3):  # past the cardinality too
        merged_rows.clear()
        query = join.with_limit(k)
        result = run(db, query)
        joins = hash_joins(result.plan)
        assert len(result.rows) == min(k, cardinality)
        # The late path: each top-k merged its <= k winners' matches only.
        assert len(merged_rows) == len(joins)
        assert all(count <= k * LONGEST for count in merged_rows)
        straddled |= sum(merged_rows) > len(result.rows)
        check_against_the_drained_join(db, query, result)
    # Some k cut a probe row's match list in two.
    assert straddled


def test_partition_wise_plans_build_either_side():
    """The two shapes above reach both build sides under merge_exchange."""
    db = build_database(partitioned=True)
    sides = {}
    for shape, join in JOINS.items():
        plan = run(db, join.order_by(*BY_AMOUNT).with_limit(3)).plan
        assert [plan.name, *(node.name for node in plan.children)] == [
            "limit",
            "merge_exchange",
        ]
        sides[shape] = {node.build_side for node in hash_joins(plan)}
    assert sides == {"orders_first": {"inner"}, "tags_first": {"outer"}}


@pytest.mark.parametrize("shape", sorted(JOINS))
def test_an_order_by_column_the_build_rows_carry_falls_back(
    layout, shape, merged_rows
):
    """``custid`` is the join key, on both sides; ``tag`` is the build
    side's.  Either way the merged rows are ranked."""
    _label, db = layout
    for columns in (("custid", "-amount", "orderid"), ("tag", "-amount")):
        merged_rows.clear()
        query = JOINS[shape].order_by(*columns).with_limit(5)
        result = run(db, query)
        # Fallback: the merge step ran over every joined pair.
        assert sum(merged_rows) == len(evaluate(drained_join(query), TABLES).rows)
        check_against_the_drained_join(db, query, result)


@pytest.mark.parametrize("shape", sorted(JOINS))
def test_an_empty_build_side_reads_no_probe_row(layout, shape, merged_rows):
    _label, db = layout
    if shape == "orders_first":
        join = Query.select("orders").join("tags", "custid", Equals("tag", "none"))
    else:
        join = Query.select("tags", Equals("tag", "none")).join("orders", "custid")
    result = run(db, join.order_by(*BY_AMOUNT_THEN_ID).with_limit(3))
    assert result.rows == [] and merged_rows == []
    assert result.join_probes == 0
    assert all(node.actual.rows_out == 0 for node in hash_joins(result.plan))
    assert result.sort_stats == "top-3 heap over 0 rows"


def test_no_matched_probe_row(layout, merged_rows):
    """Build rows exist (custids 12..15) but no order matches one."""
    _label, db = layout
    query = (
        Query.select("orders")
        .join("tags", "custid", Between("custid", 12, 15))
        .order_by(*BY_AMOUNT_THEN_ID)
        .with_limit(3)
    )
    result = run(db, query)
    assert result.rows == [] and sum(merged_rows) == 0
    assert result.join_probes == len(TABLES["orders"])
    check_against_the_drained_join(db, query, result)


def test_k_zero_reads_nothing(layout, merged_rows):
    _label, db = layout
    result = run(db, JOINS["orders_first"].order_by(*BY_AMOUNT_THEN_ID).with_limit(0))
    assert result.rows == [] and merged_rows == []
    assert result.pages_visited == 0


@pytest.mark.parametrize("build_side", ["inner", "outer"])
@pytest.mark.parametrize("ordering", [BY_AMOUNT_THEN_ID, BY_AMOUNT, ("custid",)])
def test_hand_built_flat_trees_on_either_build_side(
    build_side, ordering, merged_rows
):
    """``tags`` builds and ``orders`` probes on a flat table, ``tags`` as
    the inner or as the outer input: the late path (and, ordered by the join
    key, the fallback) against the same tree drained, row for row and
    counter for counter."""
    db = build_database(partitioned=False)
    query = JOINS["orders_first"].order_by(*ordering)
    cardinality = len(evaluate(query, TABLES).rows)
    outer, inner = ("orders", "tags") if build_side == "inner" else ("tags", "orders")

    def execute(k):
        join = HashJoin(
            ScanNode(SeqScan(db.table(outer), PredicateSet())),
            ScanNode(SeqScan(db.table(inner), PredicateSet())),
            [("custid", "custid")],
            build_side=build_side,
        )
        root = join if k is None else TopKNode(join, query.ordering, k, disk=db.disk)
        db.reset_measurements()
        db.drop_caches()
        context = ExecutionContext()
        rows = [dict(row) for batch in root.iter_batches(context) for row in batch]
        return root, rows, root.total_counters(), db.disk.snapshot()

    _join, drained_rows, drained, drained_io = execute(None)
    assert len(drained_rows) == cardinality
    for k in (1, 2, 5, cardinality + 2):
        merged_rows.clear()
        root, rows, counters, io = execute(k)
        assert rows == stable_sorted(drained_rows, query.ordering)[:k]
        assert_matches_model(
            SimpleNamespace(rows=rows, value=None, rows_matched=len(rows)),
            query.with_limit(k),
            TABLES,
        )
        assert root.rows_in == root.source.actual.rows_out == cardinality
        assert (
            counters.join_probes,
            counters.pages_visited,
            counters.rows_examined,
        ) == (drained.join_probes, drained.pages_visited, drained.rows_examined)
        extra = int(top_k_comparison_count(cardinality, k))
        assert io == replace(drained_io, cpu_tuples=drained_io.cpu_tuples + extra)
        if ordering == ("custid",):
            assert sum(merged_rows) == cardinality  # the build rows carry it
        else:
            assert sum(merged_rows) <= k * LONGEST
