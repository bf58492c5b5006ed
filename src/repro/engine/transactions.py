"""Transactional maintenance and snapshot isolation.

The paper's prototype keeps CMs in main memory but makes them recoverable by
logging their updates and flushing the log during two-phase commit with
PostgreSQL (Section 7.1).  The :class:`TransactionManager` reproduces that
protocol: every data/index/CM change appends a WAL record, and a batch commit
performs PREPARE COMMIT (flush) followed by COMMIT PREPARED (flush), so CM
durability costs are fully accounted in the maintenance experiments.

On top of the durability protocol this module provides the *visibility*
substrate for concurrent query serving: a :class:`Snapshot` captures, at one
instant, which transaction ids a reader is allowed to see.  Writers stamp row
versions with their xid (``_xmin`` on creation, ``_xmax`` on deletion -- see
:mod:`repro.engine.table`); readers pin a snapshot when they are admitted and
the scan kernels filter row versions against it, which yields snapshot
isolation without any read locks:

* a version is visible iff its creating xid is visible to the snapshot and
  its deleting xid (if any) is not;
* an xid is visible iff it is the reader's own transaction, or it committed
  before the snapshot was taken (allocated before the snapshot's horizon,
  not in-flight at snapshot time, and not aborted).

Every heap page carries a summary of the xids stamped on its slots, and one
page-level rule (:meth:`Snapshot.sees_page`) follows from the two above: a
snapshot that sees every creator on a page and no deleter sees every live
row on it, so the scan kernels skip the per-row check there.

Nothing is ever undone in place: an aborted transaction's versions simply
stay invisible to everyone, exactly as in PostgreSQL's MVCC.  Write-write
conflicts are detected eagerly (first-updater-wins): touching a version that
a live or committed concurrent transaction already deleted raises
:class:`SerializationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.storage.wal import WriteAheadLog

#: Hidden row column holding the creating transaction id of a version.
XMIN_COLUMN = "_xmin"
#: Hidden row column holding the deleting transaction id of a version.
XMAX_COLUMN = "_xmax"

#: Final transaction states kept by the manager (active xids live in a set).
COMMITTED = "committed"
ABORTED = "aborted"


class SerializationError(RuntimeError):
    """A write-write conflict under snapshot isolation (lost-update guard).

    Raised when a transaction tries to update or delete a row version that a
    *concurrent* transaction (still in flight, or already committed) has
    deleted.  First-updater-wins: the loser must abort and retry, it never
    silently overwrites the other writer's work.
    """


@dataclass
class TransactionStats:
    """Counters describing the transactional activity of a workload.

    ``transactions`` counts every *finished* transaction -- committed or
    aborted -- so abort-heavy workloads report honest totals; ``aborts``
    breaks out the aborted share and :attr:`commits` is the difference.
    """

    transactions: int = 0
    records_logged: int = 0
    flushes: int = 0
    aborts: int = 0

    @property
    def commits(self) -> int:
        return self.transactions - self.aborts


@dataclass(frozen=True)
class Snapshot:
    """One reader's frozen view of which transactions are visible.

    ``horizon`` is the next xid at the instant the snapshot was taken (every
    xid allocated later is invisible), ``active`` the xids in flight at that
    instant (invisible even if they commit afterwards), ``xid`` the owning
    transaction (its own uncommitted writes are visible to itself).
    ``status`` is the manager's final-status map; consulting it live is safe
    because a final status never changes and every xid whose status could
    still change sits in ``active`` or beyond ``horizon``.
    """

    horizon: int
    active: frozenset[int] = frozenset()
    xid: int | None = None
    status: Mapping[int, str] = field(default_factory=dict, repr=False)

    def sees_xid(self, xid: int) -> bool:
        """Whether a transaction's effects are visible to this snapshot."""
        if xid == self.xid:
            return True
        if xid >= self.horizon or xid in self.active:
            return False
        return self.status.get(xid) == COMMITTED

    def visible(self, row: Mapping[str, Any]) -> bool:
        """MVCC visibility of one row version.

        Unversioned rows (bulk loads, the non-transactional maintenance
        path) carry neither hidden column and are visible to everyone.
        """
        xmin = row.get(XMIN_COLUMN)
        if xmin is not None and not self.sees_xid(xmin):
            return False
        xmax = row.get(XMAX_COLUMN)
        return xmax is None or not self.sees_xid(xmax)

    def sees_page(self, creators: Iterable[int], deleters: Iterable[int]) -> bool:
        """The page rule: whether every live row of a page is visible.

        ``creators`` / ``deleters`` are a page's version summary
        (:class:`~repro.storage.page.Page`): a superset of the ``_xmin`` /
        ``_xmax`` stamps on its live slots.  A snapshot that sees every
        creator and no deleter would pass :meth:`visible` on each of those
        rows, so the per-row check can be skipped for the page; any other
        answer only means "check row by row" -- a stale-large summary costs
        time, never correctness.  A bulk-loaded page (both empty) is seen
        whole by every snapshot; a transaction sees its own xid, so its own
        inserts keep a page whole and its own deletes do not.
        """
        sees_xid = self.sees_xid
        for xid in creators:
            if not sees_xid(xid):
                return False
        for xid in deleters:
            if sees_xid(xid):
                return False
        return True


class Transaction:
    """One open transaction accumulating log records.

    ``snapshot`` is pinned at :meth:`TransactionManager.begin`, so every
    read a transaction performs sees the same frozen state whatever commits
    around it -- the defining property of snapshot isolation.
    """

    def __init__(
        self, manager: "TransactionManager", xid: int, snapshot: Snapshot
    ) -> None:
        self.manager = manager
        self.xid = xid
        self.snapshot = snapshot
        self.records = 0
        self.closed = False

    def log(self, kind: str, payload: dict[str, Any] | None = None, *, size_bytes: int = 64) -> None:
        if self.closed:
            raise RuntimeError("transaction already closed")
        payload = dict(payload or {})
        payload["xid"] = self.xid
        self.manager.wal.append(kind, payload, size_bytes=size_bytes)
        self.records += 1
        self.manager.stats.records_logged += 1

    def commit(self) -> None:
        """Commit through two-phase commit, the prototype's 2PC with PostgreSQL."""
        if self.closed:
            raise RuntimeError("transaction already closed")
        self.manager.wal.prepare({"xid": self.xid})
        self.manager.wal.commit_prepared({"xid": self.xid})
        self.manager.stats.flushes += 2
        self.closed = True
        self.manager._finish(self.xid, COMMITTED)
        self.manager.stats.transactions += 1

    def abort(self) -> None:
        """Abort: log the abort record and mark every version invisible.

        No data is undone -- versions stamped with this xid simply never
        become visible (the status map says ``aborted``).  Aborts count into
        :attr:`TransactionStats.transactions` exactly as commits do, so the
        stats stay honest under abort-heavy (e.g. conflict-retry) workloads.
        """
        if self.closed:
            raise RuntimeError("transaction already closed")
        self.manager.wal.append("abort", {"xid": self.xid})
        self.closed = True
        self.manager._finish(self.xid, ABORTED)
        self.manager.stats.transactions += 1
        self.manager.stats.aborts += 1


class TransactionManager:
    """Hands out transactions backed by one shared write-ahead log.

    Besides the WAL plumbing it is the system's xid authority: it knows
    which transactions are in flight (``active``) and how every finished
    one ended (``status``), which is all a :class:`Snapshot` needs.
    """

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal
        self.stats = TransactionStats()
        self._next_xid = 1
        #: Xids currently in flight.
        self.active: set[int] = set()
        #: Final status of every finished xid (``committed`` / ``aborted``).
        self.status: dict[int, str] = {}

    def begin(self) -> Transaction:
        xid = self._next_xid
        self._next_xid += 1
        self.active.add(xid)
        transaction = Transaction(self, xid, self.snapshot(xid=xid))
        return transaction

    def snapshot(self, *, xid: int | None = None) -> Snapshot:
        """A fresh snapshot of the current visibility state.

        Readers pin one at admission (``xid=None``: a pure reader sees no
        in-flight work, including work that commits later); a transaction's
        own snapshot carries its xid so it can read its own writes.
        """
        return Snapshot(
            horizon=self._next_xid,
            active=frozenset(self.active),
            xid=xid,
            status=self.status,
        )

    def is_conflicting(self, xid: int, *, against: int) -> bool:
        """Whether ``xid``'s deletion blocks a write by ``against``.

        First-updater-wins: a version deleted by another transaction that is
        still in flight or already committed cannot be deleted again; a
        deletion by an *aborted* transaction is as good as no deletion.
        """
        if xid == against:
            return False
        return xid in self.active or self.status.get(xid) == COMMITTED

    def _finish(self, xid: int, status: str) -> None:
        self.active.discard(xid)
        self.status[xid] = status
