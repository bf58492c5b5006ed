"""QueryScheduler tests: fairness, one-batch quanta and admission control.

The scheduler's contract is cooperative round-robin at RowBatch granularity:
a quantum is one batch pull, yielding queries keep all execution state in
their suspended generator pipeline, and everything is deterministic.  These tests drive :meth:`QueryScheduler.step` directly to
observe individual quanta; the last test pins the shared-pool throughput
effect in simulated time, and ``perf/``'s ``concurrent_serving`` workload
records it in real seconds (``scheduler.shared_read_ratio``).
"""

import pytest

from repro.engine.database import Database
from repro.engine.executor import PlanNode
from repro.engine.predicates import Between, ExpressionPredicate
from repro.engine.query import Query
from repro.engine.scheduler import FAILED, FINISHED, QueryScheduler


NUM_ROWS = 2000


@pytest.fixture
def database():
    db = Database(buffer_pool_pages=400)
    db.create_table(
        "items",
        sample_row={"itemid": 0, "catid": 0, "price": 0.0},
        tups_per_page=20,
    )
    db.load(
        "items",
        [
            {"itemid": i, "catid": i % 50, "price": float(i)}
            for i in range(NUM_ROWS)
        ],
    )
    return db


FULL_SCAN = Query.select("items", name="long_scan")
POINT_LOOKUP = Query.select(
    "items", Between("itemid", 5, 5), name="lookup", limit=1
)


def test_fair_policy_long_scan_cannot_starve_point_lookup(database):
    """The lookup finishes after a handful of quanta, mid-way through the scan."""
    scheduler = QueryScheduler(database, policy="fair", batch_size=32)
    scan = scheduler.submit(FULL_SCAN, force="seq_scan")
    lookup = scheduler.submit(POINT_LOOKUP, force="seq_scan")
    steps = 0
    while not lookup.finished:
        assert scheduler.step() is not None
        steps += 1
        assert steps <= 10, "fair round-robin must reach the lookup immediately"
    assert not scan.finished  # the long scan is still mid-flight
    scheduler.run()
    assert scan.state == FINISHED
    assert scan.result.rows_matched == NUM_ROWS
    assert lookup.result.rows_matched == 1


def test_fair_policy_alternates_between_runnable_queries(database):
    scheduler = QueryScheduler(database, policy="fair", batch_size=32)
    scheduler.submit(FULL_SCAN, label="a", force="seq_scan")
    scheduler.submit(Query.select("items", name="b"), label="b", force="seq_scan")
    labels = [scheduler.step().label for _ in range(6)]
    assert labels == ["a", "b", "a", "b", "a", "b"]


def test_quantum_is_exactly_one_batch(database):
    scheduler = QueryScheduler(database, batch_size=32)
    entry = scheduler.submit(FULL_SCAN, force="seq_scan")
    for _ in range(5):
        report = scheduler.step()
        assert not report.finished
        # scans align batches to page boundaries: 32 rows round up to 2
        # pages of 20 tuples
        assert report.rows == 40
        assert report.pages == 2
    scheduler.run()
    # 50 two-page batches, then the pull that ends the scan
    assert entry.quanta == NUM_ROWS // 40 + 1


def test_a_quantum_walks_the_counter_tree_once(database, monkeypatch):
    walks = []
    total_counters = PlanNode.total_counters

    def counted(node):
        walks.append(node)
        return total_counters(node)

    monkeypatch.setattr(PlanNode, "total_counters", counted)
    scheduler = QueryScheduler(database, batch_size=32)
    entry = scheduler.submit(FULL_SCAN, force="seq_scan")
    for _ in range(5):
        walks.clear()
        assert not scheduler.step().finished
        assert walks == [entry.plan]


def test_interleaved_quanta_attribute_every_page_read_to_one_query(database):
    """Each quantum's I/O window goes to the query that ran it, so the
    per-query totals add up to exactly what the disk did."""
    database.reset_measurements()
    database.drop_caches()
    before = database.disk.snapshot()
    scheduler = QueryScheduler(database, batch_size=32)
    scan = scheduler.submit(FULL_SCAN, force="seq_scan")
    lookup = scheduler.submit(POINT_LOOKUP, force="seq_scan")
    scheduler.run()
    disk = database.disk.window_since(before)
    # The scan's first quantum read the lookup's page, so the lookup's
    # quanta found it cached and no read is counted twice.
    assert scan.io.pages_read == disk.pages_read > 0
    assert lookup.io.pages_read == 0
    assert scan.io.add(lookup.io) == disk


def test_budget_exhausted_query_yields_and_resumes_with_counters_intact(database):
    """A scan preempted after every batch reports exactly the serial run."""
    database.reset_measurements()
    database.drop_caches()
    serial = database.run_query(FULL_SCAN, force="seq_scan")

    database.reset_measurements()
    database.drop_caches()
    scheduler = QueryScheduler(database, batch_size=32)
    entry = scheduler.submit(FULL_SCAN, force="seq_scan")
    reports = []
    while not entry.finished:
        reports.append(scheduler.step())
    assert entry.quanta > 10  # genuinely preempted and resumed many times
    assert all(report.rows > 0 for report in reports[:-1])
    result = entry.result
    assert result.rows == serial.rows
    assert result.rows_examined == serial.rows_examined
    assert result.pages_visited == serial.pages_visited
    assert result.io == serial.io
    # Quantum page meters add up to the plan's total, so no work went
    # unattributed across the yield/resume boundaries.
    assert sum(report.pages for report in reports) == result.pages_visited


def test_admission_control_caps_active_queries(database):
    scheduler = QueryScheduler(database, max_concurrent=1, batch_size=32)
    first = scheduler.submit(POINT_LOOKUP, label="first", force="seq_scan")
    second = scheduler.submit(FULL_SCAN, label="second", force="seq_scan")
    assert scheduler.active == 1
    assert scheduler.pending == 1
    assert second.admitted_ms is None  # not admitted, so no snapshot pinned yet
    while not first.finished:
        scheduler.step()
    assert scheduler.active == 1  # the slot was handed straight to `second`
    assert scheduler.pending == 0
    assert second.admitted_ms is not None
    assert second.admitted_ms >= second.submitted_ms


def test_waiting_queries_pin_snapshots_at_admission_not_submission(database):
    """A commit that lands while a query waits for admission is visible to it."""
    scheduler = QueryScheduler(database, max_concurrent=1, batch_size=32)
    first = scheduler.submit(Query.select("items"), label="first", force="seq_scan")
    second = scheduler.submit(Query.select("items"), label="second", force="seq_scan")
    writer = database.begin_transaction()
    database.tx_insert(
        writer, "items", [{"itemid": 10_000, "catid": 0, "price": 0.0}]
    )
    writer.commit()
    scheduler.run()
    assert first.result.rows_matched == NUM_ROWS  # admitted before the commit
    assert second.result.rows_matched == NUM_ROWS + 1  # admitted after


def _armed_predicate():
    """A predicate that passes planning (stats sampling) but fails execution."""
    state = {"armed": False}

    def function(row):
        if state["armed"]:
            raise RuntimeError("boom")
        return True

    return ExpressionPredicate("boom", function), state


def test_failed_query_reports_its_error_and_frees_the_slot(database):
    predicate, state = _armed_predicate()
    boom = Query.select("items", predicate, name="boom")
    scheduler = QueryScheduler(database, max_concurrent=1, batch_size=32)
    failing = scheduler.submit(boom, force="seq_scan")
    healthy = scheduler.submit(POINT_LOOKUP, force="seq_scan")
    state["armed"] = True
    scheduler.run()
    assert failing.state == "failed"
    assert isinstance(failing.error, RuntimeError)
    assert healthy.state == FINISHED
    assert healthy.result.rows_matched == 1


def test_a_query_that_fails_mid_run_drops_its_rows(database):
    predicate, state = _armed_predicate()
    scheduler = QueryScheduler(database, batch_size=32)
    entry = scheduler.submit(Query.select("items", predicate), force="seq_scan")
    scheduler.step()
    scheduler.step()
    assert len(entry.rows) == 80
    state["armed"] = True
    report = scheduler.step()
    assert report.failed and entry.state == FAILED
    assert entry.rows == [] and entry.result is None


def test_run_returns_queries_in_submission_order(database):
    queries = [
        Query.select("items", Between("catid", c, c), name=f"q{c}")
        for c in range(6)
    ]
    scheduler = QueryScheduler(database, max_concurrent=3)
    for query in queries:
        scheduler.submit(query)
    results = [entry.result for entry in scheduler.run()]
    assert [r.query.name for r in results] == [q.name for q in queries]
    for c, result in enumerate(results):
        assert result.rows_matched == NUM_ROWS // 50
        assert all(row["catid"] == c for row in result.rows)


def test_a_query_that_cannot_be_planned_fails_without_stalling_the_rest(database):
    """Deferred and immediate admission alike: the failure lands on the entry.

    With one slot, the bad query is admitted by whichever ``step()`` frees
    it; its validation error must not escape from there (the healthy query
    behind it would never run) nor leave the entry waiting forever.
    """
    bad = Query.select("items", projection=["no_such_column"], name="bad")
    scheduler = QueryScheduler(database, max_concurrent=1, batch_size=256)
    first = scheduler.submit(FULL_SCAN)
    queued = scheduler.submit(bad)
    last = scheduler.submit(POINT_LOOKUP)
    assert queued.state != FAILED  # still waiting behind ``first``
    scheduler.run()
    assert first.state == FINISHED and last.state == FINISHED
    assert last.result.rows_matched == 1
    assert queued.state == FAILED and queued.result is None
    assert isinstance(queued.error, ValueError)
    assert "no_such_column" in str(queued.error)
    assert queued.finished_ms is not None and queued.admitted_ms is None
    assert scheduler.active == 0 and scheduler.pending == 0

    immediate = QueryScheduler(database, max_concurrent=1).submit(bad)
    assert immediate.state == FAILED and isinstance(immediate.error, ValueError)


def test_scheduler_rejects_bad_arguments(database):
    with pytest.raises(ValueError):
        QueryScheduler(database, max_concurrent=0)
    with pytest.raises(ValueError):
        QueryScheduler(database, policy="unfair")
    with pytest.raises(ValueError):
        QueryScheduler(database, policy="priority")


def test_interleaved_readers_share_the_pool_for_twice_the_throughput():
    """Eight identical full scans of a table 4x the buffer pool.

    Back to back, every query re-reads every page (the pool thrashes); under
    the fair scheduler the readers advance through the heap in lockstep, so
    one physical read serves all eight.  Simulated time only.
    """
    readers, num_rows = 8, 12_000
    db = Database(buffer_pool_pages=60)
    db.create_table(
        "items", sample_row={"itemid": 0, "price": 0.0}, tups_per_page=50
    )
    db.load("items", [{"itemid": i, "price": float(i)} for i in range(num_rows)])
    reader = Query.select("items", Between("price", 0, num_rows))

    db.reset_measurements()
    db.drop_caches()
    serial = [db.run_query(reader, force="seq_scan") for _ in range(readers)]
    serial_ms = db.elapsed_ms()

    db.reset_measurements()
    db.drop_caches()
    scheduler = QueryScheduler(db, max_concurrent=readers, policy="fair")
    for _ in range(readers):
        scheduler.submit(reader, force="seq_scan")
    scheduled = [entry.result for entry in scheduler.run()]
    scheduled_ms = db.elapsed_ms()

    assert [r.rows_matched for r in serial] == [num_rows] * readers
    assert [r.rows_matched for r in scheduled] == [num_rows] * readers
    assert sum(r.pages_visited for r in scheduled) == sum(
        r.pages_visited for r in serial
    )
    assert 2 * sum(r.io.pages_read for r in scheduled) <= sum(
        r.io.pages_read for r in serial
    )
    assert serial_ms >= 2 * scheduled_ms
