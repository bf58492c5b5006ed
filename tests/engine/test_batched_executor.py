"""Tests for the batch protocol (``iter_batches``) on curated shapes.

The protocol's contract is that the batch size is *invisible*: for any
query, every batch size and the one-row-at-a-time view report the same
rows, the same per-node actual counters, the same I/O breakdown and the
same simulated elapsed time (``tests.engine.runs.assert_batch_size_
invariant``), and those rows are the ones a plain-Python evaluation of the
query produces (``tests/engine/model.py``).  These tests pin that on every
access method, every join strategy, the decorator stack, and the
batch-boundary edge cases (LIMIT/TopK stopping mid-batch, empty batches
from selective filters, extreme batch sizes).  What the counters *are* is
pinned elsewhere: ``test_exec_goldens.py`` (recorded) and
``test_access.py::TestEarlyTerminationOracle`` (derived from page slots).
"""

from types import SimpleNamespace

import pytest

from repro.engine.access import InnerPathBuilder, SeqScan
from repro.engine.database import Database
from repro.engine.executor import (
    ExecutionContext,
    HashJoin,
    IndexNestedLoopJoin,
    NestedLoopJoin,
    RowBatch,
    ScanNode,
    SortMergeJoin,
)
from repro.engine.plan import LimitNode, SortNode
from repro.engine.predicates import Between, Equals, PredicateSet
from repro.engine.query import Aggregate, Query
from tests.engine.model import assert_matches_model
from tests.engine.runs import CURATED_SIZES, assert_batch_size_invariant, run_mode


ALL_METHODS = [
    "seq_scan",
    "sorted_index_scan",
    "pipelined_index_scan",
    "clustered_index_scan",
    "cm_scan",
]

JOIN_STRATEGIES = [
    "nested_loop_join",
    "index_nested_loop_join",
    "hash_join",
    "sort_merge_join",
]


def check(db, query, tables, **options):
    """Batch-size invariance, then the rows against the model; the result."""
    result = assert_batch_size_invariant(db, query, **options)
    assert_matches_model(result, query, tables, unique_columns=("itemid",))
    return result


@pytest.fixture
def tables(item_rows):
    """The loaded rows, as the plain lists the model evaluates over."""
    return {"items": item_rows}


class TestAccessMethodParity:
    @pytest.mark.parametrize("force", ALL_METHODS)
    def test_filtered_scan_parity(self, indexed_database, tables, force):
        if force == "clustered_index_scan":
            query = Query.select("items", Equals("catid", 42))
        else:
            query = Query.select("items", Between("price", 1000, 2500))
        result = check(indexed_database, query, tables, force=force)
        assert result.access_method == force
        assert result.rows_matched > 0

    def test_unfiltered_scan_parity(self, indexed_database, tables):
        result = check(indexed_database, Query.select("items"), tables)
        assert result.rows_matched == 5000

    def test_projection_parity(self, indexed_database, tables):
        query = Query.select(
            "items", Between("price", 1000, 2500), projection=("itemid", "price")
        )
        result = check(indexed_database, query, tables)
        assert all(set(row) == {"itemid", "price"} for row in result.rows)

    def test_batched_rows_are_private_copies(self, indexed_database):
        query = Query.select("items", Equals("catid", 42))
        result = indexed_database.run_query(query)
        result.rows[0]["itemid"] = -1
        again = indexed_database.run_query(query)
        assert again.rows[0]["itemid"] != -1


class TestDecoratorParity:
    @pytest.mark.parametrize(
        "query",
        [
            Query.select("items", Between("price", 0, 5000), limit=13),
            Query.select("items", Between("price", 1000, 2500), aggregate=Aggregate.count()),
            Query.select("items", aggregate=Aggregate.sum("price")),
            Query.select("items", aggregate=Aggregate.avg("price")),
            Query.select("items", aggregate=Aggregate.count_distinct("catid")),
            Query.select(
                "items", aggregate=Aggregate.count(alias="n")
            ).group_by("catid"),
            Query.select(
                "items", aggregate=Aggregate.sum("price", alias="s")
            ).group_by("cat2", "catid"),
            Query.select("items", Between("price", 4000, 4400)).order_by("-price"),
            Query.select("items", Between("price", 0, 5000))
            .order_by("-price")
            .with_limit(7),
            Query.select(
                "items", aggregate=Aggregate.count(alias="n")
            )
            .group_by("catid")
            .order_by("-n")
            .with_limit(3),
        ],
        ids=[
            "limit",
            "count",
            "sum",
            "avg",
            "count_distinct",
            "group_by",
            "group_by_multi",
            "order_by",
            "top_k",
            "group_order_limit",
        ],
    )
    def test_decorated_query_parity(self, indexed_database, tables, query):
        check(indexed_database, query, tables)


@pytest.fixture
def join_tables(item_rows):
    """items plus a categories table joinable on catid, as plain lists."""
    categories = [
        {"catid": catid, "label": f"cat-{catid}", "floor": catid * 100.0}
        for catid in range(101)
    ]
    return {"items": item_rows, "categories": categories}


@pytest.fixture
def join_database(indexed_database, join_tables):
    categories = join_tables["categories"]
    indexed_database.create_table(
        "categories", sample_row=categories[0], tups_per_page=50
    )
    indexed_database.load("categories", categories)
    return indexed_database


class TestJoinParity:
    @pytest.mark.parametrize("force_join", JOIN_STRATEGIES)
    def test_join_strategy_parity(self, join_database, join_tables, force_join):
        query = Query.select("items", Between("price", 1000, 2500)).join(
            "categories", on="catid"
        )
        if force_join == "index_nested_loop_join":
            join_database.cluster("categories", "catid")
        result = check(join_database, query, join_tables, force_join=force_join)
        assert result.access_method == force_join
        assert result.rows_matched > 0

    @pytest.mark.parametrize("force_join", ["hash_join", "index_nested_loop_join"])
    def test_join_with_limit_parity(self, join_database, join_tables, force_join):
        join_database.cluster("categories", "catid")
        query = (
            Query.select("items", Between("price", 0, 5000))
            .join("categories", on="catid")
            .with_limit(9)
        )
        result = check(join_database, query, join_tables, force_join=force_join)
        assert result.rows_matched == 9

    def test_join_aggregate_parity(self, join_database, join_tables):
        query = Query.select(
            "items", Between("price", 0, 5000), aggregate=Aggregate.count()
        ).join("categories", on="catid")
        check(join_database, query, join_tables)

    @pytest.mark.parametrize(
        "outer_join",
        ["hash_build_inner", "hash_build_outer", "sort_merge", "nested_loop"],
    )
    def test_probe_join_over_a_join_is_batch_size_invariant(self, outer_join):
        """An index-nested-loop join whose outer is itself a join.

        The probe join reads ``c`` between two outer rows, so where the
        head sits when it does depends on how far the outer join has read
        ahead.  Every pull must read the outer's pages in the same order
        relative to the probes: same rows, per-node counters, I/O breakdown
        and simulated time at every batch size and through ``iter_rows``,
        under a pool small enough that every probe evicts.  The flat planner
        does not pick this shape, so the tree is built by hand.
        """
        tables = {
            "a": [{"aid": i, "bid": i % 12, "cid": (i * 7) % 40} for i in range(240)],
            "b": [{"bid": j, "tag": f"b{j}"} for j in range(12)],
            "c": [{"cid": k, "label": f"c{k}"} for k in range(40)],
        }
        db = Database(buffer_pool_pages=4)
        for name, rows in tables.items():
            db.create_table(name, sample_row=rows[0], tups_per_page=8)
            db.load(name, rows)
        db.cluster("c", "cid")

        def scan(name):
            return ScanNode(SeqScan(db.table(name), PredicateSet()))

        def build():
            on = [("bid", "bid")]
            if outer_join == "sort_merge":
                outer = SortMergeJoin(scan("a"), scan("b"), on)
            elif outer_join == "nested_loop":
                probe = InnerPathBuilder(db.table("b"), on, PredicateSet(), "seq_scan")
                outer = NestedLoopJoin(scan("a"), probe)
            else:
                side = outer_join.rsplit("_", 1)[1]
                outer = HashJoin(scan("a"), scan("b"), on, build_side=side)
            probe = InnerPathBuilder(
                db.table("c"), [("cid", "cid")], PredicateSet(), "clustered_index_scan"
            )
            return IndexNestedLoopJoin(outer, probe, "clustered_index_scan")

        def execute(batch_size):
            root = build()
            db.reset_measurements()
            db.drop_caches()
            if batch_size is None:
                rows = list(root.iter_rows(ExecutionContext()))
            else:
                batches = root.iter_batches(ExecutionContext(), batch_size)
                rows = [row for batch in batches for row in batch]
            return {
                "rows": [dict(row) for row in rows],
                "nodes": [
                    (node.label(), node.total_counters()) for node in root.walk()
                ],
                "io": db.disk.snapshot(),
                "elapsed_ms": db.elapsed_ms(),
            }

        runs = {size: execute(size) for size in (*CURATED_SIZES, None)}
        reference = runs[CURATED_SIZES[0]]
        for size, run in runs.items():
            for field, value in run.items():
                assert value == reference[field], (size, field)
        query = Query.select("a").join("b", on="bid").join("c", on="cid")
        rows = reference["rows"]
        assert rows and reference["io"].random_reads > 0
        assert_matches_model(
            SimpleNamespace(rows=rows, value=None, rows_matched=len(rows)),
            query,
            tables,
        )


class TestBatchBoundaries:
    def test_limit_stops_mid_batch_without_extra_page_reads(self, indexed_database):
        """A LIMIT satisfied mid-batch must not read past the stopping page.

        Every row matches, so the first five rows of page 0 satisfy the
        LIMIT: exactly one page is read, whatever the batch size.
        """
        table = indexed_database.table("items")
        query = Query.select("items", Between("price", 0, 10_000), limit=5)
        for batch_size in (None, *CURATED_SIZES):
            before = table.heap.logical_page_reads
            result = run_mode(indexed_database, query, batch_size, force="seq_scan")
            assert result.rows_matched == 5
            assert table.heap.logical_page_reads - before == 1, batch_size

    def test_limit_zero_reads_nothing(self, indexed_database):
        query = Query.select("items", Between("price", 0, 10_000), limit=0)
        result = indexed_database.run_query(query, force="seq_scan")
        assert result.rows_matched == 0
        assert result.pages_visited == 0

    def test_topk_reads_no_extra_pages_over_plain_scan(self, indexed_database):
        """The top-k consumes batched input without extra page reads."""
        plain = indexed_database.run_query(
            Query.select("items", Between("price", 0, 10_000)),
            force="seq_scan",
            cold_cache=True,
        )
        topk = indexed_database.run_query(
            Query.select("items", Between("price", 0, 10_000))
            .order_by("-price")
            .with_limit(5),
            force="seq_scan",
            cold_cache=True,
        )
        assert topk.pages_visited == plain.pages_visited
        assert len(topk.rows) == 5

    def test_highly_selective_filter_yields_no_empty_batches(self, indexed_database):
        """Pages without matches contribute no batches, never empty ones."""
        query = Query.select("items", Equals("itemid", 4321))
        plan = indexed_database.planner.choose(
            indexed_database.table("items"), query, force="seq_scan"
        )
        batches = list(plan.iter_batches(ExecutionContext(), 64))
        assert all(len(batch) > 0 for batch in batches)
        assert sum(len(batch) for batch in batches) == 1

    def test_no_match_filter_yields_nothing_but_sweeps_all_pages(
        self, indexed_database
    ):
        query = Query.select("items", Equals("price", -1.0))
        result = assert_batch_size_invariant(
            indexed_database, query, force="seq_scan"
        )
        table = indexed_database.table("items")
        assert result.rows == []
        assert result.pages_visited == table.num_pages
        assert result.rows_examined == table.num_rows

    def test_batch_size_equivalence_on_joins_and_group_by(
        self, join_database, join_tables
    ):
        """Batch size 1 vs 10k: same rows, same counters, same simulated I/O."""
        join_query = Query.select("items", Between("price", 1000, 2500)).join(
            "categories", on="catid"
        )
        grouped = Query.select(
            "items", Between("price", 0, 3000), aggregate=Aggregate.count(alias="n")
        ).group_by("catid")
        for query in (join_query, grouped):
            check(join_database, query, join_tables, batch_sizes=(1, 7, 10_000))

    def test_scan_batches_are_page_aligned(self, database):
        """Unfiltered scan batches cover whole pages (50 tuples each here)."""
        plan = database.planner.choose(
            database.table("items"), Query.select("items"), force="seq_scan"
        )
        batches = list(plan.iter_batches(ExecutionContext(), 256))
        tups_per_page = database.table("items").tups_per_page
        for batch in batches[:-1]:
            assert len(batch) % tups_per_page == 0


class TestBatchProtocol:
    def test_iter_batches_rejects_bad_batch_size(self, database):
        plan = database.planner.choose(
            database.table("items"), Query.select("items"), force="seq_scan"
        )
        with pytest.raises(ValueError):
            next(plan.iter_batches(ExecutionContext(), 0))

    def test_database_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            Database(batch_size=0)

    def test_demand_truncates_and_stops(self, database):
        plan = database.planner.choose(
            database.table("items"), Query.select("items"), force="seq_scan"
        )
        batches = list(plan.iter_batches(ExecutionContext(), 64, demand=10))
        assert sum(len(batch) for batch in batches) == 10
        assert plan.actual.rows_out == 10

    def test_limit_over_sort_truncates_blocking_output(self, database, item_rows):
        """A blocking Sort under a Limit emits exactly k rows, pulled either way.

        The planner fuses ORDER BY + LIMIT into a TopK, so the Limit-over-
        Sort shape is exercised on a hand-built tree: the Sort must drain
        and sort its whole input, yet report only the consumed rows out.
        """
        table = database.table("items")

        def build():
            scan = ScanNode(SeqScan(table, PredicateSet()))
            sort = SortNode(scan, (("price", True),))
            return sort, LimitNode(sort, 4)

        cheapest = sorted(row["price"] for row in item_rows)[:4]

        sort, limit = build()
        batched_rows = [
            row for batch in limit.iter_batches(ExecutionContext(), 32) for row in batch
        ]
        assert [row["price"] for row in batched_rows] == cheapest
        assert limit.actual.rows_out == 4
        assert sort.actual.rows_out == 4
        assert sort.rows_in == table.num_rows

        view_sort, view_limit = build()
        view_rows = list(view_limit.iter_rows(ExecutionContext()))
        assert [row["price"] for row in view_rows] == cheapest
        assert view_sort.actual.rows_out == 4
        assert view_sort.rows_in == table.num_rows

    def test_batches_are_row_batches(self, database):
        plan = database.planner.choose(
            database.table("items"), Query.select("items"), force="seq_scan"
        )
        batch = next(plan.iter_batches(ExecutionContext()))
        assert isinstance(batch, RowBatch)
        assert isinstance(batch, list)

    def test_stream_batches_surface(self, indexed_database):
        query = Query.select("items", Between("price", 1000, 1500))
        streamed = [
            row
            for batch in indexed_database.stream_batches(query)
            for row in batch
        ]
        reference = indexed_database.run_query(query)
        assert streamed == reference.rows

    def test_stream_batches_abandoned_early_stops_reading(self, indexed_database):
        table = indexed_database.table("items")
        before = table.heap.logical_page_reads
        batches = indexed_database.stream_batches(
            Query.select("items", Between("price", 0, 10_000)), force="seq_scan",
            batch_size=50,
        )
        next(batches)
        batches.close()
        assert table.heap.logical_page_reads - before < table.num_pages

    def test_stream_batches_rejects_scalar_aggregates(self, indexed_database):
        query = Query.select("items", aggregate=Aggregate.count())
        with pytest.raises(ValueError):
            indexed_database.stream_batches(query)

    def test_add_batch_folds_left_to_right_across_batches(self):
        values = (1.5, 2.25, -3.0, 0.125, 2.25)
        rows = [{"x": value} for value in values]
        total = 0
        for value in values:
            total = total + value
        expected = {
            Aggregate.count(): 5,
            Aggregate.sum("x"): total,
            Aggregate.avg("x"): total / 5,
            Aggregate.count_distinct("x"): 4,
        }
        for aggregate, value in expected.items():
            accumulator = aggregate.make_accumulator()
            accumulator.add_batch(rows[:2])
            accumulator.add_batch(rows[2:])
            assert accumulator.result() == value
