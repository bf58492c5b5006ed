"""Tests for access paths: all methods must agree on results; their I/O
patterns must differ in the way the paper describes."""

from itertools import islice

import pytest

from repro.core.bucketing import WidthBucketer
from repro.engine.access import (
    ClusteredIndexScan,
    CorrelationMapScan,
    InnerPathBuilder,
    SeqScan,
    SortedIndexScan,
)
from repro.engine.database import Database
from repro.engine.executor import (
    ExecutionContext,
    HashJoin,
    IndexNestedLoopJoin,
    ScanNode,
)
from repro.engine.plan import LimitNode
from repro.engine.predicates import Between, Equals, ExpressionPredicate, InSet, PredicateSet
from repro.engine.query import Aggregate, Query


def run(db, query, force):
    return db.run_query(query, force=force, cold_cache=True)


def reference_answer(db, predicates):
    table = db.table("items")
    return [row for row in table.all_rows() if predicates.matches(row)]


class TestResultCorrectness:
    """Every access method returns exactly the rows a naive filter returns."""

    @pytest.mark.parametrize(
        "force", ["seq_scan", "sorted_index_scan", "pipelined_index_scan", "cm_scan"]
    )
    def test_range_predicate_all_methods_agree(self, indexed_database, force):
        predicates = PredicateSet.of(Between("price", 1000, 1100))
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        result = run(indexed_database, query, force)
        assert result.rows_matched == len(expected)
        assert sorted(r["itemid"] for r in result.rows) == sorted(
            r["itemid"] for r in expected
        )

    @pytest.mark.parametrize("force", ["seq_scan", "cm_scan"])
    def test_equality_on_cat2(self, indexed_database, force):
        predicates = PredicateSet.of(Equals("cat2", "group4"))
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        result = run(indexed_database, query, force)
        assert result.rows_matched == len(expected)

    def test_clustered_index_scan_on_catid(self, indexed_database):
        predicates = PredicateSet.of(InSet("catid", [3, 57, 91]))
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        result = run(indexed_database, query, "clustered_index_scan")
        assert result.rows_matched == len(expected)

    def test_additional_residual_predicates_applied(self, indexed_database):
        predicates = PredicateSet.of(
            Between("price", 1000, 2000),
            ExpressionPredicate("odd", lambda row: row["itemid"] % 2 == 1),
        )
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        for force in ["seq_scan", "sorted_index_scan", "cm_scan"]:
            assert run(indexed_database, query, force).rows_matched == len(expected)

    def test_empty_result(self, indexed_database):
        predicates = PredicateSet.of(Equals("price", -1.0))
        query = Query(table="items", predicates=predicates)
        for force in ["seq_scan", "sorted_index_scan", "cm_scan"]:
            assert run(indexed_database, query, force).rows_matched == 0

    def test_aggregate_value_matches(self, indexed_database):
        predicates = PredicateSet.of(Between("price", 500, 700))
        expected = reference_answer(indexed_database, predicates)
        query = Query(
            table="items", predicates=predicates, aggregate=Aggregate.avg("price")
        )
        result = run(indexed_database, query, "cm_scan")
        assert result.value == pytest.approx(
            sum(r["price"] for r in expected) / len(expected)
        )


class TestIOPatterns:
    def test_seq_scan_reads_every_page(self, indexed_database):
        table = indexed_database.table("items")
        query = Query.select("items", Between("price", 1000, 1100))
        result = run(indexed_database, query, "seq_scan")
        assert result.pages_visited == table.num_pages
        assert result.rows_examined == table.num_rows

    def test_sorted_scan_touches_few_pages_when_correlated(self, indexed_database):
        table = indexed_database.table("items")
        query = Query.select("items", Between("price", 1000, 1100))
        result = run(indexed_database, query, "sorted_index_scan")
        assert result.pages_visited < table.num_pages / 10

    def test_cm_scan_reads_superset_of_btree_pages(self, indexed_database):
        """Figure 4: the CM scans a superset of the B+Tree's heap pages."""
        query = Query.select("items", Between("price", 1000, 1100))
        btree = run(indexed_database, query, "sorted_index_scan")
        cm = run(indexed_database, query, "cm_scan")
        assert cm.pages_visited >= btree.pages_visited
        assert cm.rows_examined >= btree.rows_examined
        assert cm.rows_matched == btree.rows_matched
        assert cm.false_positive_rows >= 0

    def test_cm_scan_far_cheaper_than_seq_scan(self, indexed_database):
        query = Query.select("items", Between("price", 1000, 1100))
        seq = run(indexed_database, query, "seq_scan")
        cm = run(indexed_database, query, "cm_scan")
        assert cm.elapsed_ms < seq.elapsed_ms

    def test_pipelined_scan_costs_more_seeks_than_sorted(self, indexed_database):
        query = Query.select("items", InSet("price", []))
        # Use a set of existing price values for a fair comparison.
        prices = sorted({row["price"] for row in indexed_database.table("items").all_rows()})
        some = prices[:: len(prices) // 40][:40]
        query = Query.select("items", InSet("price", some))
        pipelined = run(indexed_database, query, "pipelined_index_scan")
        sorted_scan = run(indexed_database, query, "sorted_index_scan")
        assert pipelined.rows_matched == sorted_scan.rows_matched
        assert pipelined.io.seeks >= sorted_scan.io.seeks

    def test_cm_rewrite_sql_exposed(self, indexed_database):
        query = Query.select("items", Equals("cat2", "group2"))
        result = run(indexed_database, query, "cm_scan")
        assert result.rewritten_sql is not None
        assert "_cm_bucket IN" in result.rewritten_sql

    def test_uncorrelated_attribute_cm_reads_mostly_false_positives(self, indexed_database):
        """A CM on an uncorrelated attribute fetches far more rows than match.

        Each ``noise`` value occurs only a handful of times but is scattered
        across unrelated clustered buckets, so the CM scan reads whole buckets
        of false positives -- the behaviour that makes CMs unattractive
        without a correlation (Section 5.3).
        """
        indexed_database.create_correlation_map("items", ["noise"], name="cm_noise")
        query = Query.select("items", Equals("noise", 123))
        result = run(indexed_database, query, "cm_scan")
        assert result.pages_visited > 10
        assert result.rows_examined > 20 * max(1, result.rows_matched)


class TestTailCorrectness:
    """Rows inserted after clustering are still found by every method."""

    def test_all_methods_see_tail_rows(self, indexed_database):
        new_rows = [
            {"itemid": 10_000 + i, "catid": 5, "cat2": "group0", "price": 550.0 + i, "noise": 0}
            for i in range(20)
        ]
        indexed_database.insert("items", new_rows)
        predicates = PredicateSet.of(Between("price", 550.0, 570.0))
        expected = reference_answer(indexed_database, predicates)
        query = Query(table="items", predicates=predicates)
        for force in ["seq_scan", "sorted_index_scan", "cm_scan"]:
            result = run(indexed_database, query, force)
            assert result.rows_matched == len(expected), force


# ---------------------------------------------------------------------------
# Early termination against an oracle computed from the plain page contents
# ---------------------------------------------------------------------------

SWEEP_PATHS = ["seq_scan", "clustered_index_scan", "sorted_index_scan", "cm_scan"]


@pytest.fixture
def versioned_db():
    """120 rows on 8-tuple pages with holes and invisible versions.

    ``u`` follows the clustered ``c``.  Five rows are physically deleted
    (empty slots), four are MVCC-updated and committed (the old versions
    stay in their pages, invisible; the new ones land on the tail page), and
    two transactions stay open: one inserted rows nobody else may see, one
    delete-stamped a row everybody else still sees.
    """
    rows = [
        {"id": i, "c": i // 10, "u": (i // 10) * 10 + i % 7, "v": 0}
        for i in range(120)
    ]
    db = Database(buffer_pool_pages=100)
    db.create_table("t", sample_row=rows[0], tups_per_page=8)
    db.load("t", rows)
    db.cluster("t", "c", pages_per_bucket=2)
    db.create_secondary_index("t", "u")
    db.create_correlation_map(
        "t", ["u"], bucketers={"u": WidthBucketer(4)}, name="cm_u"
    )
    deleted = {21, 22, 40, 57, 83}
    db.delete("t", [InSet("id", sorted(deleted))])
    updated = {30, 31, 52, 75}
    update = db.begin_transaction()
    assert db.tx_update(update, "t", [InSet("id", sorted(updated))], {"v": 1}) == 4
    update.commit()
    open_insert = db.begin_transaction()
    db.tx_insert(
        open_insert,
        "t",
        [{"id": 1000 + i, "c": 3 + i, "u": 35 + 10 * i, "v": 0} for i in range(3)],
    )
    open_delete = db.begin_transaction()
    assert db.tx_delete(open_delete, "t", [Equals("id", 60)]) == 1
    # The logical table, kept as a plain list: what a fresh snapshot sees.
    db.logical_rows = [
        {**row, "v": 1 if row["id"] in updated else 0}
        for row in rows
        if row["id"] not in deleted
    ]
    return db


def sweep_query():
    # A predicate on the clustered attribute (for the clustered path) and one
    # on the indexed / CM attribute, so all four sweep paths apply.
    return Query.select("t", Between("c", 2, 9), Between("u", 25, 84))


def wanted(row):
    return 2 <= row["c"] <= 9 and 25 <= row["u"] <= 84


def sweep_path(db, name):
    table = db.table("t")
    predicates = sweep_query().predicates
    if name == "seq_scan":
        return SeqScan(table, predicates)
    if name == "clustered_index_scan":
        return ClusteredIndexScan(table, predicates)
    if name == "sorted_index_scan":
        (index,) = table.secondary_indexes.values()
        return SortedIndexScan(table, index, predicates)
    return CorrelationMapScan(table, table.correlation_maps["cm_u"], predicates)


def oracle(db, name, k, keep=wanted):
    """What a sweep stopping at its k-th match must have done.

    Walks the path's page enumeration over the raw page slots: a slot holds
    a *match* when it is the current version of a logical row that ``keep``
    accepts; every non-empty slot up to and including the k-th match was
    examined, every page up to and including its page was visited.
    """
    heap = db.table("t").heap
    current = {(row["id"], row["v"]) for row in db.logical_rows if keep(row)}
    pages = list(sweep_path(db, name)._target_pages(ExecutionContext()))
    matches, visited, examined = [], 0, 0
    for page_no in pages:
        visited += 1
        for row in heap.read_pages([page_no], charge_io=False)[0].slots:
            if row is None:
                continue
            examined += 1
            if (row["id"], row["v"]) in current:
                matches.append((row["id"], row["v"]))
                if len(matches) == k:
                    return matches, visited, examined
    return matches, visited, examined


def identities(rows):
    return [(row["id"], row["v"]) for row in rows]


class TestEarlyTerminationOracle:
    """LIMIT k leaves the counters of a sweep that stopped at its k-th match.

    The expectation comes from the page contents and the logical row list,
    not from another execution mode: the row sweep used to be the reference
    the batched sweep was compared with, and it is what changed.
    """

    @pytest.mark.parametrize("name", SWEEP_PATHS)
    def test_every_limit_on_every_surface(self, versioned_db, name):
        db = versioned_db
        heap = db.table("t").heap
        query = sweep_query()
        total = len(oracle(db, name, None)[0])
        assert total == sum(1 for row in db.logical_rows if wanted(row)) > 20
        for k in range(1, total + 2):
            rows, pages, examined = oracle(db, name, k)
            expected = (rows, pages, examined, examined)  # CPU tuples = examined

            # The bare access path, abandoned by the consumer after k rows.
            context = ExecutionContext(snapshot=db.transactions.snapshot())
            before = db.disk.snapshot()
            stream = sweep_path(db, name).iter_rows(context)
            pulled = identities(islice(stream, k))
            stream.close()
            assert (
                pulled,
                context.counters.pages_visited,
                context.counters.rows_examined,
                db.disk.window_since(before).cpu_tuples,
            ) == expected, (name, k, "iter_rows")

            # run_query: row mode and three batch sizes.
            for batch_size in (None, 1, 7, 256):
                db.batch_size = batch_size
                result = db.run_query(query.with_limit(k), force=name)
                assert result.access_method == name
                assert (
                    identities(result.rows),
                    result.pages_visited,
                    result.rows_examined,
                    result.io.cpu_tuples,
                ) == expected, (name, k, batch_size)

            # Database.stream, observed from outside the plan.
            reads = heap.logical_page_reads
            before = db.disk.snapshot()
            streamed = identities(db.stream(query, force=name, limit=k))
            assert (
                streamed,
                heap.logical_page_reads - reads,
                db.disk.window_since(before).cpu_tuples,
            ) == (rows, pages, examined), (name, k, "stream")

    @pytest.mark.parametrize("force_join", ["index_nested_loop_join", "hash_join"])
    def test_every_limit_over_a_join(self, versioned_db, force_join):
        """LIMIT k over a join stops the outer sweep at the row that made
        the k-th output, having probed once per outer row pulled.

        ``d`` holds one row per ``c`` on 4-tuple pages, clustered -- except
        ``c = 6``, which sits inside a page's key range: its probes read that
        page and find nothing, so outputs lag outer rows.  Expectations come
        from the raw slots of both heaps:

        * the outer sweep is the single-table oracle, stopped at the outer
          match that produced the k-th output (``pulled`` of them);
        * ``join_probes == pulled``, whichever operator runs;
        * the index-nested-loop join reads, per probe, the ``d`` pages whose
          key range covers the probed ``c``; every probe but the last drains
          them, the last stops *at* its match (positional charging);
        * the hash join reads all of ``d`` once, before the first outer page,
          and charges one CPU tuple per built and per probed row.
        """
        db = versioned_db
        dimension = [{"c": c, "label": f"c{c}"} for c in range(15) if c != 6]
        db.create_table("d", sample_row=dimension[0], tups_per_page=4)
        db.load("d", dimension)
        db.cluster("d", "c")
        d_heap = db.table("d").heap
        d_pages = [
            [row for row in d_heap.read_pages([page_no], charge_io=False)[0].slots if row]
            for page_no in range(d_heap.num_pages)
        ]
        d_rows = sum(len(live) for live in d_pages)
        label_of = {row["c"]: row["label"] for row in dimension}
        c_of = {(row["id"], row["v"]): row["c"] for row in db.logical_rows}
        outer_matches = oracle(db, "seq_scan", None)[0]
        total = sum(1 for match in outer_matches if c_of[match] in label_of)
        assert 20 < total < len(outer_matches)

        def probe(c, stop_at_match):
            """(pages, rows examined) of one clustered probe of ``d`` for ``c``."""
            pages = examined = 0
            for live in d_pages:
                if not live[0]["c"] <= c <= live[-1]["c"]:
                    continue
                pages += 1
                keys = [row["c"] for row in live]
                if stop_at_match and c in keys:
                    return pages, examined + keys.index(c) + 1
                examined += len(live)
            return pages, examined

        def build_plan(k):
            # Built by hand: the planner is free to drive the join from
            # ``d``, and this test is about the operators, not its choice.
            outer = ScanNode(SeqScan(db.table("t"), sweep_query().predicates))
            if force_join == "hash_join":
                inner = SeqScan(db.table("d"), PredicateSet())
                join = HashJoin(outer, inner, [("c", "c")], build_side="inner")
            else:
                strategy = "clustered_index_scan"
                builder = InnerPathBuilder(
                    db.table("d"), [("c", "c")], PredicateSet(), strategy
                )
                join = IndexNestedLoopJoin(outer, builder, strategy)
            return LimitNode(join, k)

        def pull_batches(plan, context, batch_size):
            return [
                row for batch in plan.iter_batches(context, batch_size) for row in batch
            ]

        surfaces = {
            "iter_rows": lambda plan, context: list(plan.iter_rows(context)),
            **{
                f"batch={size}": lambda plan, context, size=size: pull_batches(
                    plan, context, size
                )
                for size in (1, 7, 256)
            },
        }
        for k in range(1, total + 2):
            outputs, pulled = [], 0
            for match in outer_matches:
                pulled += 1
                if c_of[match] in label_of:
                    outputs.append((*match, label_of[c_of[match]]))
                    if len(outputs) == k:
                        break
            stopped = len(outputs) == k
            # An unsatisfied LIMIT drains the outer sweep to its last page.
            _matches, pages, examined = oracle(
                db, "seq_scan", pulled if stopped else None
            )
            if force_join == "hash_join":
                pages += len(d_pages)
                examined += d_rows
                cpu = examined + d_rows + pulled
            else:
                for position, match in enumerate(outer_matches[:pulled], start=1):
                    probe_pages, probe_examined = probe(
                        c_of[match], stop_at_match=stopped and position == pulled
                    )
                    pages += probe_pages
                    examined += probe_examined
                cpu = examined
            expected = (outputs, len(outputs), pulled, pages, examined, cpu)

            for surface, pull in surfaces.items():
                plan = build_plan(k)
                before = db.disk.snapshot()
                rows = pull(plan, ExecutionContext(snapshot=db.transactions.snapshot()))
                totals = plan.total_counters()
                assert (
                    [(row["id"], row["v"], row["label"]) for row in rows],
                    plan.source.actual.rows_out,
                    totals.join_probes,
                    totals.pages_visited,
                    totals.rows_examined,
                    db.disk.window_since(before).cpu_tuples,
                ) == expected, (force_join, k, surface)

    def test_predicate_raising_after_the_stop_does_not_fail_the_limit(
        self, versioned_db
    ):
        """Rows 36 and 37 share a page; the predicate cannot evaluate 37.

        A sweep that filters the whole page at once meets the error before
        it has yielded row 36 -- but a LIMIT satisfied by row 36 never
        needed row 37, and must succeed with the counters of a sweep that
        stopped there.  Pulling one row further surfaces the error.
        """
        db = versioned_db
        table = db.table("t")
        armed = []  # the planner samples predicates too; arm after planning

        def fragile(row):
            if armed and row["id"] == 37:
                raise ZeroDivisionError("cannot evaluate row 37")
            return row["id"] >= 34

        predicates = PredicateSet.of(
            Between("u", 25, 84), ExpressionPredicate("fragile", fragile)
        )
        # ids 34, 35, 36 precede the offender on its page.
        rows, pages, examined = oracle(
            db, "seq_scan", 3, keep=lambda row: 25 <= row["u"] <= 84 and row["id"] >= 34
        )
        assert rows == [(34, 0), (35, 0), (36, 0)]

        def snapshot_context():
            return ExecutionContext(snapshot=db.transactions.snapshot())

        armed.append(True)
        # Lazy rows, abandoned after the third.
        context = snapshot_context()
        stream = SeqScan(table, predicates).iter_rows(context)
        assert identities(islice(stream, 3)) == rows
        stream.close()
        assert (context.counters.pages_visited, context.counters.rows_examined) == (
            pages,
            examined,
        )
        # The batched protocol under a demand of three.
        for batch_size in (1, 7, 256):
            context = snapshot_context()
            before = db.disk.snapshot()
            batches = SeqScan(table, predicates).iter_batches(
                context, batch_size, demand=3
            )
            assert identities(row for batch in batches for row in batch) == rows
            assert (
                context.counters.pages_visited,
                context.counters.rows_examined,
                db.disk.window_since(before).cpu_tuples,
            ) == (pages, examined, examined)
        # One row further -- and a full drain, lazy or batched -- must fail.
        with pytest.raises(ZeroDivisionError, match="row 37"):
            list(islice(SeqScan(table, predicates).iter_rows(snapshot_context()), 4))
        with pytest.raises(ZeroDivisionError, match="row 37"):
            list(SeqScan(table, predicates).iter_rows(snapshot_context()))
        with pytest.raises(ZeroDivisionError, match="row 37"):
            list(SeqScan(table, predicates).iter_batches(snapshot_context()))
        # Through a planned LIMIT query (planned before the predicate arms).
        armed.clear()
        query = Query(table="t", predicates=predicates)
        limited = db.stream(query, force="seq_scan", limit=3)
        failing = db.stream(query, force="seq_scan", limit=4)
        armed.append(True)
        assert identities(limited) == rows
        with pytest.raises(ZeroDivisionError, match="row 37"):
            list(failing)

    def test_kernel_code_is_shared_per_shape_not_per_constants(self):
        """Every inner probe binds a fresh PredicateSet: same shape, new
        constants.  The compiled code is cached by source text; the
        constants travel in each kernel's own namespace."""
        rows = [{"a": a, "b": b} for a in range(4) for b in range(4)]
        low = PredicateSet.of(Equals("a", 1), Between("b", 0, 1))
        high = PredicateSet.of(Equals("a", 2), Between("b", 2, 3))
        other_shape = PredicateSet.of(Equals("a", 1), InSet("b", (0, 1)))
        assert low.batch_kernel().__code__ is high.batch_kernel().__code__
        assert low.batch_kernel().__code__ is not other_shape.batch_kernel().__code__
        assert low.batch_kernel()(rows) == [{"a": 1, "b": 0}, {"a": 1, "b": 1}]
        assert high.batch_kernel()(rows) == [{"a": 2, "b": 2}, {"a": 2, "b": 3}]
        assert other_shape.batch_kernel()(rows) == low.batch_kernel()(rows)
        # Projection is part of the shape; the column names are not.
        assert (
            low.batch_kernel(("a",)).__code__ is high.batch_kernel(("b",)).__code__
        )
        assert low.batch_kernel(("a",))(rows) == [{"a": 1}, {"a": 1}]
        assert high.batch_kernel(("b",))(rows) == [{"b": 2}, {"b": 3}]
