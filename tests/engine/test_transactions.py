"""Tests for transactional logging of maintenance operations."""

import pytest

from repro.engine.transactions import ABORTED, COMMITTED, TransactionManager
from repro.storage.disk import DiskModel
from repro.storage.wal import WriteAheadLog


def make_manager():
    disk = DiskModel()
    wal = WriteAheadLog(disk)
    return disk, wal, TransactionManager(wal)


def test_xids_are_unique_and_increasing():
    _disk, _wal, manager = make_manager()
    t1 = manager.begin()
    t2 = manager.begin()
    assert t2.xid > t1.xid


def test_log_records_tagged_with_xid():
    _disk, wal, manager = make_manager()
    transaction = manager.begin()
    transaction.log("insert", {"table": "items"})
    assert wal.records[-1].payload["xid"] == transaction.xid
    assert wal.records[-1].payload["table"] == "items"


def test_commit_costs_two_flushes():
    disk, _wal, manager = make_manager()
    transaction = manager.begin()
    transaction.log("cm_update")
    transaction.commit()
    assert disk.counters.log_flushes == 2
    assert manager.stats.transactions == 1
    assert manager.stats.flushes == 2


def test_closed_transaction_rejects_further_use():
    _disk, _wal, manager = make_manager()
    transaction = manager.begin()
    transaction.commit()
    with pytest.raises(RuntimeError):
        transaction.log("insert")
    with pytest.raises(RuntimeError):
        transaction.commit()


def test_abort_closes_without_flush():
    disk, wal, manager = make_manager()
    transaction = manager.begin()
    transaction.log("insert")
    transaction.abort()
    assert disk.counters.log_flushes == 0
    assert wal.records[-1].kind == "abort"
    with pytest.raises(RuntimeError):
        transaction.abort()


def test_stats_accumulate_across_transactions():
    _disk, _wal, manager = make_manager()
    for _ in range(3):
        transaction = manager.begin()
        transaction.log("insert")
        transaction.commit()
    assert manager.stats.transactions == 3
    assert manager.stats.records_logged == 3
    assert manager.stats.flushes == 6


def test_abort_counts_into_stats():
    """Regression: aborts must show up in the transaction totals.

    Historically only commits incremented ``stats.transactions``, so an
    abort-heavy (e.g. conflict-retry) workload under-reported its activity.
    """
    _disk, _wal, manager = make_manager()
    committed = manager.begin()
    committed.log("insert")
    committed.commit()
    for _ in range(2):
        aborted = manager.begin()
        aborted.log("insert")
        aborted.abort()
    assert manager.stats.transactions == 3
    assert manager.stats.aborts == 2
    assert manager.stats.commits == 1


def test_manager_tracks_active_and_final_status():
    _disk, _wal, manager = make_manager()
    t1 = manager.begin()
    t2 = manager.begin()
    assert manager.active == {t1.xid, t2.xid}
    t1.commit()
    t2.abort()
    assert manager.active == set()
    assert manager.status[t1.xid] == COMMITTED
    assert manager.status[t2.xid] == ABORTED


def test_snapshot_visibility_rules():
    _disk, _wal, manager = make_manager()
    committed = manager.begin()
    committed.commit()
    in_flight = manager.begin()
    snapshot = manager.snapshot()
    # Committed before the snapshot: visible.  In flight at snapshot time:
    # invisible, even after it later commits.  Born after: invisible.
    assert snapshot.sees_xid(committed.xid)
    assert not snapshot.sees_xid(in_flight.xid)
    in_flight.commit()
    assert not snapshot.sees_xid(in_flight.xid)
    late = manager.begin()
    late.commit()
    assert not snapshot.sees_xid(late.xid)


def test_own_transaction_sees_itself():
    _disk, _wal, manager = make_manager()
    transaction = manager.begin()
    assert transaction.snapshot.sees_xid(transaction.xid)
    assert not manager.snapshot().sees_xid(transaction.xid)


def test_row_version_visibility():
    _disk, _wal, manager = make_manager()
    writer = manager.begin()
    row = {"k": 1, "_xmin": writer.xid}
    assert not manager.snapshot().visible(row)
    writer.commit()
    assert manager.snapshot().visible(row)
    deleter = manager.begin()
    row["_xmax"] = deleter.xid
    before_delete = manager.snapshot()
    deleter.commit()
    assert before_delete.visible(row)
    assert not manager.snapshot().visible(row)
    # Unversioned (bulk-loaded) rows are visible to everyone.
    assert manager.snapshot().visible({"k": 2})


def test_aborted_versions_stay_invisible_without_undo():
    _disk, _wal, manager = make_manager()
    writer = manager.begin()
    row = {"k": 1, "_xmin": writer.xid}
    writer.abort()
    assert not manager.snapshot().visible(row)
    # A deletion by an aborted transaction is as good as no deletion.
    deleter = manager.begin()
    survivor = {"k": 2, "_xmax": deleter.xid}
    deleter.abort()
    assert manager.snapshot().visible(survivor)


def test_wal_records_for_xid_reconstruct_one_transaction():
    _disk, wal, manager = make_manager()
    first = manager.begin()
    second = manager.begin()
    first.log("insert_version", {"table": "items"})
    second.log("delete_version", {"table": "items"})
    first.commit()  # 2PC: prepare + commit_prepared, both tagged
    second.abort()
    assert [r.kind for r in wal.records_for_xid(first.xid)] == [
        "insert_version",
        "prepare",
        "commit_prepared",
    ]
    assert [r.kind for r in wal.records_for_xid(second.xid)] == [
        "delete_version",
        "abort",
    ]


def test_conflict_detection_is_first_updater_wins():
    _disk, _wal, manager = make_manager()
    first = manager.begin()
    second = manager.begin()
    # A deletion by a live or committed concurrent transaction conflicts;
    # one's own deletion and an aborted one's do not.
    assert manager.is_conflicting(first.xid, against=second.xid)
    assert not manager.is_conflicting(first.xid, against=first.xid)
    first.commit()
    assert manager.is_conflicting(first.xid, against=second.xid)
    second.abort()
    assert not manager.is_conflicting(second.xid, against=first.xid)
