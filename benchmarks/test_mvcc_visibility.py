"""MVCC visibility is decided per page (call counters, no wall clock).

Every heap page carries a summary of the xids stamped on its slots, and a
snapshot that sees every creator on a page and no deleter sees every live
row on it (``Snapshot.sees_page``).  These guards assert -- with a spy on
``Snapshot.visible``, the per-row rule -- that a sweep under a snapshot
reaches the per-row check only on the pages where some snapshot could
disagree, that the writers' victim search does the same, and that none of
it moves a counter: rows examined, pages visited and simulated time are the
values recorded at the parent commit, where every row of every page paid
one ``Snapshot.visible`` call.
"""

import pytest

from repro.bench.harness import ExperimentScale, build_ebay_database
from repro.engine.database import Database
from repro.engine.partition import PartitionSpec
from repro.engine.predicates import Between, Equals, PredicateSet
from repro.engine.query import Query
from repro.engine.scheduler import QueryScheduler
from repro.engine.transactions import Snapshot

READERS = 8
MAX_CONCURRENT = 4
ROWS_PER_WRITE = 25
WRITE_AFTER_QUANTA = 12
SELECTIVITIES = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005)

#: ``(rows_matched, rows_examined, pages_visited, quanta)`` per reader and the
#: wave's simulated milliseconds, as recorded at the parent commit (where
#: the readers made 20 345 or 20 370 ``Snapshot.visible`` calls each).
PINNED_READERS = [
    (20345, 20345, 407, 69),
    (10172, 20345, 407, 28),
    (5086, 20345, 407, 15),
    (2034, 20345, 407, 7),
    (1018, 20370, 408, 5),
    (406, 20370, 408, 2),
    (203, 20370, 408, 2),
    (101, 20370, 408, 2),
]
PINNED_WAVE_SIM_MS = 272.03066666666666


@pytest.fixture()
def visible_calls(monkeypatch):
    """``Snapshot.visible`` calls so far, per snapshot (by identity)."""
    calls: dict[int, int] = {}
    original = Snapshot.visible

    def spy(snapshot, row):
        calls[id(snapshot)] = calls.get(id(snapshot), 0) + 1
        return original(snapshot, row)

    monkeypatch.setattr(Snapshot, "visible", spy)
    return calls


def test_a_wave_checks_rows_only_where_a_snapshot_could_disagree(visible_calls):
    """A ``concurrent_serving``-shaped wave: 20 k bulk-loaded rows, eight
    scheduled readers, one 25-row insert committed after 12 quanta."""
    db, rows = build_ebay_database(
        ExperimentScale(1.0), num_categories=100, buffer_pool_pages=100, seed=11
    )
    table = db.table("items")
    prices = sorted(row["price"] for row in rows)
    queries = []
    for position, share in enumerate(SELECTIVITIES):
        width = max(1, int(len(prices) * share))
        start = (position * 2477) % (len(prices) - width + 1)
        queries.append(
            Query.select("items", Between("price", prices[start], prices[start + width - 1]))
        )
    batch = [
        {**rows[i * 37], "itemid": 10_000_000 + i, "price": prices[(i * 811) % len(prices)]}
        for i in range(ROWS_PER_WRITE)
    ]

    scheduler = QueryScheduler(db, max_concurrent=MAX_CONCURRENT, policy="fair")
    entries = [
        scheduler.submit(query, label=str(position), projection=("itemid",))
        for position, query in enumerate(queries)
    ]
    pages_before = table.num_pages
    before = db.disk.snapshot()
    quanta = 0
    while True:
        if quanta == WRITE_AFTER_QUANTA:
            pinned_before = db.transactions.snapshot()
            writer = db.begin_transaction()
            rids = db.tx_insert(writer, "items", batch)
            writer.commit()
        if scheduler.step() is None:
            break
        quanta += 1
    wave_sim_ms = db.disk.window_since(before).elapsed_ms(db.disk.params)

    touched = {rid.page_no for rid in rids}
    live_on_touched = sum(table.heap.pages[page_no].num_tuples for page_no in touched)

    def oracle(snapshot, pages_visited):
        """One call per live row of a touched page the reader's snapshot
        does not see whole -- if its sweep got there at all (a scan that
        enumerated its pages before the insert never visits the new one)."""
        if snapshot.sees_xid(writer.xid) or pages_visited <= pages_before:
            return 0
        return live_on_touched

    after_commit = 0
    for entry, pinned in zip(entries, PINNED_READERS):
        result = entry.result
        assert (
            result.rows_matched, result.rows_examined, result.pages_visited, entry.quanta
        ) == pinned, entry.label
        made = visible_calls.get(id(entry.snapshot), 0)
        assert made == oracle(entry.snapshot, result.pages_visited), entry.label
        assert made <= live_on_touched
        if entry.snapshot.sees_xid(writer.xid):
            after_commit += 1
            assert made == 0, entry.label
    assert 0 < after_commit < READERS  # the commit fell inside the wave
    assert wave_sim_ms == PINNED_WAVE_SIM_MS

    # The spy does count: a reader pinned just before the commit that sweeps
    # the new page pays the per-row check there, and only there.
    late = db.run_query(queries[0], snapshot=pinned_before, projection=("itemid",))
    assert late.rows_matched == PINNED_READERS[0][0]
    assert late.pages_visited == pages_before + len(touched)
    assert visible_calls[id(pinned_before)] == oracle(pinned_before, late.pages_visited)
    assert visible_calls[id(pinned_before)] == live_on_touched == ROWS_PER_WRITE


def test_a_write_over_clean_pages_dispatches_nothing_per_row(visible_calls, monkeypatch):
    """``tx_update`` of three rows on a clean 15 k-row table: the victim
    search decides each page by its summary and filters it through the
    compiled kernel -- zero ``Snapshot.visible``, zero ``PredicateSet.matches``."""
    db, rows = build_ebay_database(
        ExperimentScale(1.0), num_categories=75, buffer_pool_pages=100, seed=11
    )
    table = db.table("items")
    assert 14_000 < table.num_rows < 16_000
    matches_calls = []
    original = PredicateSet.matches

    def spy(predicates, row):
        matches_calls.append(row)
        return original(predicates, row)

    monkeypatch.setattr(PredicateSet, "matches", spy)
    itemids = sorted(row["itemid"] for row in rows)
    low, high = itemids[5000], itemids[5002]
    reads_before = table.heap.logical_page_reads
    pages = table.num_pages

    writer = db.begin_transaction()
    assert db.tx_update(writer, "items", [Between("itemid", low, high)], {"price": 1.0}) == 3
    assert visible_calls == {}
    assert matches_calls == []
    # Every page of the search read once (and one accounting-free fetch per
    # victim as it is stamped), as at the parent.
    assert table.heap.logical_page_reads - reads_before == pages + 3

    # The update stamped pages; its own second write still finds its own
    # new versions (and not the ones it replaced), now row by row there.
    assert db.tx_update(writer, "items", [Between("itemid", low, high)], {"price": 2.0}) == 3
    assert visible_calls[id(writer.snapshot)] > 0
    writer.commit()
    updated = db.run_query(Query.select("items", Between("itemid", low, high)))
    assert sorted(row["price"] for row in updated.rows) == [2.0, 2.0, 2.0]


def _io(result, window):
    return (
        result.rows_affected,
        result.elapsed_ms,
        result.pages_written,
        result.log_flushes,
        window.sequential_reads,
        window.random_reads,
        window.random_writes,
        window.cpu_tuples,
    )


def test_a_plain_delete_dispatches_nothing_per_row(monkeypatch):
    """``Database.delete`` finds its victims through the writers' page walk:
    the compiled kernel once per page, zero ``PredicateSet.matches`` -- on a
    flat table and on a pruned hash-partitioned one -- with the maintenance
    result and the simulated I/O of the per-row search it replaced, which
    paid one ``matches`` call per row of every searched page."""
    matches_calls = []
    original = PredicateSet.matches

    def spy(predicates, row):
        matches_calls.append(row)
        return original(predicates, row)

    monkeypatch.setattr(PredicateSet, "matches", spy)

    db, rows = build_ebay_database(
        ExperimentScale(1.0), num_categories=75, buffer_pool_pages=100, seed=11
    )
    table = db.table("items")
    itemids = sorted(row["itemid"] for row in rows)
    reads_before = table.heap.logical_page_reads
    pages = table.num_pages
    before = db.disk.snapshot()
    result = db.delete("items", [Between("itemid", itemids[5000], itemids[5002])])
    assert matches_calls == []
    # Every page of the search read once, plus one accounting-free fetch per
    # victim as it is deleted.
    assert table.heap.logical_page_reads - reads_before == pages + 3
    assert _io(result, db.disk.window_since(before)) == (
        3, 24.601333333333333, 0, 2, 304, 2, 0, 0
    )

    part_rows = [
        {"itemid": i, "catid": (i * 11) % 64, "price": float((i * 37) % 10_000)}
        for i in range(4000)
    ]
    part = Database(buffer_pool_pages=600)
    partitioned = part.create_table(
        "items",
        sample_row=part_rows[0],
        tups_per_page=50,
        partition_by=PartitionSpec.by_hash("catid", 8),
    )
    part.load("items", part_rows)
    predicates = [Equals("catid", 7), Between("price", 0.0, 5000.0)]
    (searched,) = partitioned.prune(PredicateSet(predicates))
    reads_before = [p.heap.logical_page_reads for p in partitioned.partitions]
    pages = partitioned.partitions[searched].num_pages
    device_snaps = [(device, device.snapshot()) for device in partitioned.devices]
    before = part.disk.snapshot()
    result = part.delete("items", predicates)
    window = part.disk.window_since(before)
    for device, snap in device_snaps:
        window = window.add(device.window_since(snap))
    assert matches_calls == []
    assert [
        p.heap.logical_page_reads - reads
        for p, reads in zip(partitioned.partitions, reads_before)
    ] == [pages + 31 if i == searched else 0 for i in range(8)]
    assert _io(result, window) == (31, 17.28, 0, 2, 8, 1, 0, 0)
    assert partitioned.num_rows == partitioned.statistics.total_rows == 4000 - 31
    assert partitioned.num_rows == sum(
        p.statistics.total_rows for p in partitioned.partitions
    )
    assert part.run_query(Query.select("items", *predicates)).rows_matched == 0
