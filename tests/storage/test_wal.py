"""Tests for the write-ahead log."""

import pytest

from repro.storage.disk import DiskModel
from repro.storage.wal import LogRecord, WriteAheadLog


def test_append_assigns_monotonic_lsns():
    wal = WriteAheadLog(DiskModel())
    r1 = wal.append("insert", {"table": "t"})
    r2 = wal.append("insert", {"table": "t"})
    assert r2.lsn == r1.lsn + 1


def test_append_does_no_io_until_flush():
    disk = DiskModel()
    wal = WriteAheadLog(disk)
    wal.append("insert")
    assert disk.counters.log_flushes == 0
    wal.flush()
    assert disk.counters.log_flushes == 1


def test_flush_pages_reflect_buffered_bytes():
    disk = DiskModel()
    wal = WriteAheadLog(disk)
    page = disk.params.page_size_bytes
    for _ in range(3):
        wal.append("insert", size_bytes=page)
    pages = wal.flush()
    assert pages == 3
    assert disk.counters.log_pages_written == 3


def test_group_commit_amortises_flushes():
    disk = DiskModel()
    wal = WriteAheadLog(disk)
    for _ in range(100):
        wal.append("insert", size_bytes=64)
    wal.flush()
    assert wal.flush_count == 1
    assert disk.counters.log_flushes == 1


def test_prepare_and_commit_prepared_flush_twice():
    disk = DiskModel()
    wal = WriteAheadLog(disk)
    wal.append("cm_update")
    wal.prepare()
    wal.commit_prepared()
    assert disk.counters.log_flushes == 2


def test_pending_records_tracking():
    wal = WriteAheadLog(DiskModel())
    wal.append("a")
    wal.append("b")
    assert wal.pending_records == 2
    wal.flush()
    assert wal.pending_records == 0


def test_truncate_clears_records():
    wal = WriteAheadLog(DiskModel())
    wal.append("a")
    wal.truncate()
    assert wal.records == []
    assert wal.pending_records == 0


def test_log_record_size_must_be_positive():
    with pytest.raises(ValueError):
        LogRecord(lsn=0, kind="x", size_bytes=0)
