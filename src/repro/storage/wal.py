"""Write-ahead log with group commit.

The paper's prototype keeps correlation maps in main memory and makes them
recoverable by writing their updates to a transaction log that is flushed
during two-phase commit with PostgreSQL.  Secondary B+Trees likewise pay WAL
costs for every page they dirty.  This module reproduces the accounting: log
records accumulate in a buffer and each flush (prepare / commit_prepared)
charges one fsync seek plus the sequential write of the buffered log pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.storage.disk import DiskModel


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One logical WAL record."""

    lsn: int
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("log record size must be positive")


class WriteAheadLog:
    """An append-only log shared by the engine's durable structures."""

    __slots__ = (
        "disk",
        "records",
        "_next_lsn",
        "_pending_bytes",
        "_flushed_lsn",
        "flush_count",
        "pages_written",
    )

    def __init__(self, disk: DiskModel) -> None:
        self.disk = disk
        self.records: list[LogRecord] = []
        self._next_lsn = 0
        self._pending_bytes = 0
        self._flushed_lsn = -1
        self.flush_count = 0
        self.pages_written = 0

    @property
    def page_size_bytes(self) -> int:
        return self.disk.params.page_size_bytes

    @property
    def pending_records(self) -> int:
        return self._next_lsn - (self._flushed_lsn + 1)

    def append(self, kind: str, payload: dict[str, Any] | None = None, *, size_bytes: int = 64) -> LogRecord:
        """Append a record to the in-memory log buffer (no I/O yet)."""
        record = LogRecord(
            lsn=self._next_lsn, kind=kind, payload=dict(payload or {}), size_bytes=size_bytes
        )
        self.records.append(record)
        self._next_lsn += 1
        self._pending_bytes += size_bytes
        return record

    def flush(self) -> int:
        """Force the buffered records to disk (fsync).  Returns pages written.

        A flush with an empty buffer still pays the fsync seek, matching the
        behaviour of a commit record that fits in an already-buffered page.
        """
        pages = max(1, -(-self._pending_bytes // self.page_size_bytes))
        self.disk.log_flush(pages)
        self.flush_count += 1
        self.pages_written += pages
        self._pending_bytes = 0
        self._flushed_lsn = self._next_lsn - 1
        return pages

    def prepare(self, payload: dict[str, Any] | None = None) -> None:
        """First phase of two-phase commit: persist the prepare record."""
        self.append("prepare", payload)
        self.flush()

    def commit_prepared(self, payload: dict[str, Any] | None = None) -> None:
        """Second phase of two-phase commit."""
        self.append("commit_prepared", payload)
        self.flush()

    def records_for_xid(self, xid: int) -> list[LogRecord]:
        """Every record tagged with transaction ``xid``, in LSN order.

        Transactional writers tag each record's payload with its xid (see
        :meth:`repro.engine.transactions.Transaction.log`): MVCC writes log
        ``insert_version`` / ``delete_version`` / ``update_version``,
        correlation-map maintenance logs ``cm_update``, and termination logs
        ``prepare`` + ``commit_prepared`` (2PC) or ``abort``.  Recovery-style
        inspection and the isolation tests use this to audit what one
        transaction durably claimed to have done.
        """
        return [record for record in self.records if record.payload.get("xid") == xid]

    def truncate(self) -> None:
        """Discard all records (checkpoint complete)."""
        self.records.clear()
        self._pending_bytes = 0
        self._flushed_lsn = self._next_lsn - 1
