"""Cooperative multi-query scheduling over one shared buffer pool.

The engine executes a query as a tree of batch-producing plan nodes
(:mod:`repro.engine.executor`); one ``RowBatch`` pull is therefore a natural
preemption point that needs no threads and no locks.  The
:class:`QueryScheduler` exploits it: it admits up to ``max_concurrent``
queries, gives each its own plan tree, :class:`ExecutionContext` and MVCC
snapshot (pinned at admission), and round-robins the *runnable* set one
scheduling quantum at a time.  A quantum is one batch pull from one query's
plan; the query then yields with all counters intact and resumes exactly
where it stopped, courtesy of the generator-based pipelines.

Everything physical is shared, so *cache interference is a first-class,
measurable effect*: all queries hit the same :class:`~repro.storage.
buffer_pool.BufferPool`, and each quantum's I/O window (a
:meth:`~repro.storage.disk.DiskModel.snapshot` diff) is attributed to the
query that ran it.  Interleaved readers of the same table advance through
the heap roughly in lockstep, so one query's physical page read serves the
others from cache -- the aggregate-throughput effect
``tests/engine/test_scheduler.py`` pins in simulated time and ``perf/``
records as ``scheduler.shared_read_ratio``.  Per-query latency is reported in
simulated milliseconds from submission to completion, so queueing delay and
interference are visible in the same unit as every other cost in the
repository.

The one scheduling policy is ``fair``: strict round-robin over the runnable
queries.  The next query to run is always the one that has waited longest,
so a long scan cannot starve a point lookup (it yields after every quantum).

The scheduler is deterministic: no wall clock and no randomness influence
any decision, so a given submission sequence replays the exact same
interleaving -- which is what the isolation-anomaly suite builds on
(:mod:`tests.engine.test_snapshot_isolation` drives :meth:`QueryScheduler.
step` directly from seeded scripts).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.engine.executor import ExecutionContext, RowBatch
from repro.engine.plan import exchange_devices
from repro.engine.query import Query, QueryResult
from repro.engine.transactions import Snapshot, Transaction
from repro.storage.disk import DiskModel, IOBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.database import Database

def _window_since(
    devices: Sequence[DiskModel], snapshots: Sequence[IOBreakdown]
) -> IOBreakdown:
    """Sum the I/O windows of ``devices`` since their paired ``snapshots``.

    Partitioned plans charge their reads to per-partition devices, not the
    shared disk, so a quantum's window must fold every device the plan can
    touch to attribute interleaved I/O correctly.
    """
    window = IOBreakdown()
    for device, snapshot in zip(devices, snapshots):
        window = window.add(device.window_since(snapshot))
    return window


#: Lifecycle states of a :class:`ScheduledQuery`.
WAITING = "waiting"
RUNNING = "running"
FINISHED = "finished"
FAILED = "failed"


@dataclass
class QuantumReport:
    """What one :meth:`QueryScheduler.step` call did (telemetry/tests)."""

    label: str
    rows: int
    pages: int
    finished: bool
    failed: bool = False


class ScheduledQuery:
    """One query's scheduling state, from submission to its result.

    Exposes the admission-to-completion timeline in simulated milliseconds
    (``submitted_ms`` / ``admitted_ms`` / ``finished_ms``) plus per-query
    totals: ``io`` accumulates the quantum I/O windows attributed to this
    query, ``quanta`` counts its turns and ``pages_visited`` the logical
    pages its plan has visited so far.  ``result`` is the ordinary
    :class:`~repro.engine.query.QueryResult` (built from this query's own
    counters and I/O) once the query finishes; ``error`` holds the raising
    exception if it failed.
    """

    def __init__(
        self,
        query: Query,
        *,
        label: str,
        run_kwargs: dict[str, Any],
        snapshot: Snapshot | None,
        transaction: Transaction | None,
    ) -> None:
        self.query = query
        self.label = label
        self.run_kwargs = run_kwargs
        self.state = WAITING
        #: The snapshot pinned at admission (or the one explicitly passed).
        self.snapshot = snapshot
        self.transaction = transaction
        self.plan = None
        self.context: ExecutionContext | None = None
        #: The shared disk plus the plan's partition devices, fixed at
        #: admission: the devices each quantum's I/O window folds.
        self.devices: tuple[DiskModel, ...] = ()
        self.rows: list[dict[str, Any]] = []
        self.result: QueryResult | None = None
        self.error: Exception | None = None
        self.io = IOBreakdown()
        self.quanta = 0
        self.pages_visited = 0
        self.submitted_ms: float = 0.0
        self.admitted_ms: float | None = None
        self.finished_ms: float | None = None
        self._iterator: Iterator[RowBatch] | None = None

    @property
    def finished(self) -> bool:
        return self.state in (FINISHED, FAILED)

    def describe(self) -> str:
        return f"{self.label}[{self.state}]"


class QueryScheduler:
    """Admits queries and round-robins them one batch quantum at a time.

    Parameters
    ----------
    database:
        The engine everything runs against; its buffer pool, disk model and
        transaction manager are shared by every admitted query.
    max_concurrent:
        Admission control: at most this many queries hold execution state at
        once; the rest wait in FIFO order and are admitted as slots free up
        (their snapshots are pinned at admission, not submission).
    policy:
        Only ``"fair"`` (see the module docstring).
    batch_size:
        Rows per scheduling quantum pull; defaults to the database's batch
        size.
    """

    def __init__(
        self,
        database: "Database",
        *,
        max_concurrent: int = 4,
        policy: str = "fair",
        batch_size: int | None = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be positive")
        if policy != "fair":
            raise ValueError(f"unknown policy {policy!r} (only 'fair')")
        self.database = database
        self.max_concurrent = max_concurrent
        self.batch_size = batch_size if batch_size is not None else database.batch_size
        self._waiting: deque[ScheduledQuery] = deque()
        self._runnable: deque[ScheduledQuery] = deque()
        self._all: list[ScheduledQuery] = []

    # -- submission and admission ---------------------------------------------

    def submit(
        self,
        query: Query,
        *,
        label: str | None = None,
        snapshot: Snapshot | None = None,
        transaction: Transaction | None = None,
        force: str | None = None,
        force_join: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> ScheduledQuery:
        """Queue a query; it is admitted as soon as a slot is free.

        ``snapshot``/``transaction`` override the snapshot otherwise pinned
        at admission.
        """
        entry = ScheduledQuery(
            query,
            label=label or f"q{len(self._all)}",
            run_kwargs={
                "force": force,
                "force_join": force_join,
                "limit": limit,
                "projection": projection,
            },
            snapshot=snapshot,
            transaction=transaction,
        )
        entry.submitted_ms = self.database.elapsed_ms()
        self._all.append(entry)
        self._waiting.append(entry)
        self._admit()
        return entry

    def _admit(self) -> None:
        db = self.database
        while self._waiting and len(self._runnable) < self.max_concurrent:
            entry = self._waiting.popleft()
            # Always pin a snapshot (unlike run_query's lazy attachment):
            # under concurrent writers the first row version may appear
            # *mid-scan*, and a reader admitted before it must not see it.
            if entry.snapshot is None:
                if entry.transaction is not None:
                    entry.snapshot = entry.transaction.snapshot
                else:
                    entry.snapshot = db.transactions.snapshot()
            try:
                entry.plan, entry.context = db._open(
                    entry.query, snapshot=entry.snapshot, **entry.run_kwargs
                )
            except Exception as exc:  # noqa: BLE001 - reported on the entry
                # A query that cannot be planned fails like one that cannot
                # run: recorded on the entry, its slot goes to the next one.
                entry.error = exc
                entry.state = FAILED
                entry.finished_ms = db.elapsed_ms()
                continue
            entry.devices = (db.disk, *exchange_devices(entry.plan))
            entry._iterator = db._batches(entry.plan, entry.context, self.batch_size)
            entry.admitted_ms = db.elapsed_ms()
            entry.state = RUNNING
            self._runnable.append(entry)

    # -- the scheduling loop ----------------------------------------------------

    @property
    def active(self) -> int:
        """Queries currently holding an execution slot."""
        return len(self._runnable)

    @property
    def pending(self) -> int:
        """Queries waiting for admission."""
        return len(self._waiting)

    @property
    def queries(self) -> list[ScheduledQuery]:
        """Every submitted query, in submission order."""
        return list(self._all)

    def step(self) -> QuantumReport | None:
        """Run one scheduling quantum; ``None`` when nothing is runnable.

        Deterministic: which query runs is fully decided by the submission/
        yield history, so a scripted interleaving replays identically -- the
        property the anomaly tests rely on.
        """
        if not self._runnable:
            return None
        entry = self._runnable.popleft()
        report = self._run_quantum(entry)
        if entry.finished:
            self._admit()
        else:
            self._runnable.append(entry)
        return report

    def run(self) -> list[ScheduledQuery]:
        """Drive :meth:`step` until every submitted query has finished."""
        while self._runnable or self._waiting:
            self.step()
        return list(self._all)

    def _run_quantum(self, entry: ScheduledQuery) -> QuantumReport:
        """Pull one batch from one query.

        The pull's I/O window is attributed to the query; ``pages`` counts
        the *logical* pages the pull visited (buffer-pool hits included).
        A query that finishes or fails drops the rows it collected: a
        finished one hands them to its result.
        """
        db = self.database
        assert entry._iterator is not None and entry.plan is not None
        entry.quanta += 1
        rows = 0
        finished = failed = False
        before = [device.snapshot() for device in entry.devices]
        try:
            batch = next(entry._iterator)
        except StopIteration:
            finished = True
        except Exception as exc:  # noqa: BLE001 - reported on the entry
            entry.error = exc
            failed = True
        else:
            rows = len(batch)
            entry.rows.extend(batch)
        entry.io = entry.io.add(_window_since(entry.devices, before))
        visited = entry.plan.total_counters().pages_visited
        pages = visited - entry.pages_visited
        entry.pages_visited = visited
        if finished:
            entry.result = db._build_result(
                entry.query, entry.plan, entry.rows, entry.context, entry.io
            )
            entry.state = FINISHED
        elif failed:
            entry.state = FAILED
            entry._iterator.close()
        if entry.finished:
            entry.rows = []
            entry.finished_ms = db.elapsed_ms()
            entry._iterator = None
        return QuantumReport(
            label=entry.label,
            rows=rows,
            pages=pages,
            finished=finished,
            failed=failed,
        )
