"""Simulated disk with the paper's cost parameters.

The reproduction replaces the paper's physical 7200 rpm SATA disk with an
accounting model.  Every page access issued by the storage engine is recorded
as either *sequential* (the page immediately follows the previously accessed
page of the same file) or *random* (anything else, which on a real disk incurs
a head seek).  Simulated elapsed time is derived from these counts using the
constants the paper measured on its experimental platform (Table 1):

* ``seek_cost``      -- 5.5 ms to seek to a random page and read it
* ``seq_page_cost``  -- 0.078 ms to read the next sequential page

Writes are charged with the same constants; a write-ahead-log flush is charged
as one seek plus the sequential write of the pending log pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class DiskParameters:
    """Hardware constants used to convert I/O counts into simulated time.

    The defaults are the measured values reported in Table 1 of the paper.
    """

    seek_cost_ms: float = 5.5
    seq_page_cost_ms: float = 0.078
    #: CPU cost charged per tuple that the executor materialises or filters.
    #: The paper's workloads are disk bound; this small constant only breaks
    #: ties (e.g. the CM's extra filtering of false-positive tuples).
    cpu_tuple_cost_ms: float = 0.0002
    page_size_bytes: int = 8192


@dataclass(slots=True)
class IOBreakdown:
    """A snapshot of I/O counters, used to report per-query statistics."""

    sequential_reads: int = 0
    random_reads: int = 0
    sequential_writes: int = 0
    random_writes: int = 0
    log_flushes: int = 0
    log_pages_written: int = 0
    cpu_tuples: int = 0

    @property
    def pages_read(self) -> int:
        return self.sequential_reads + self.random_reads

    @property
    def pages_written(self) -> int:
        return self.sequential_writes + self.random_writes

    @property
    def seeks(self) -> int:
        return self.random_reads + self.random_writes + self.log_flushes

    def elapsed_ms(self, params: DiskParameters) -> float:
        """Convert the recorded counts into simulated milliseconds."""
        read_ms = (
            self.random_reads * params.seek_cost_ms
            + self.sequential_reads * params.seq_page_cost_ms
        )
        write_ms = (
            self.random_writes * params.seek_cost_ms
            + self.sequential_writes * params.seq_page_cost_ms
        )
        log_ms = (
            self.log_flushes * params.seek_cost_ms
            + self.log_pages_written * params.seq_page_cost_ms
        )
        cpu_ms = self.cpu_tuples * params.cpu_tuple_cost_ms
        return read_ms + write_ms + log_ms + cpu_ms

    def subtract(self, other: "IOBreakdown") -> "IOBreakdown":
        """Return the difference ``self - other`` (used for windows)."""
        return IOBreakdown(
            sequential_reads=self.sequential_reads - other.sequential_reads,
            random_reads=self.random_reads - other.random_reads,
            sequential_writes=self.sequential_writes - other.sequential_writes,
            random_writes=self.random_writes - other.random_writes,
            log_flushes=self.log_flushes - other.log_flushes,
            log_pages_written=self.log_pages_written - other.log_pages_written,
            cpu_tuples=self.cpu_tuples - other.cpu_tuples,
        )

    def add(self, other: "IOBreakdown") -> "IOBreakdown":
        """Return the sum ``self + other`` (used to accumulate windows).

        The scheduler attributes each quantum's I/O window to the query that
        ran it; summing the windows rebuilds that query's total breakdown
        even though its execution was interleaved with other queries'.
        """
        return IOBreakdown(
            sequential_reads=self.sequential_reads + other.sequential_reads,
            random_reads=self.random_reads + other.random_reads,
            sequential_writes=self.sequential_writes + other.sequential_writes,
            random_writes=self.random_writes + other.random_writes,
            log_flushes=self.log_flushes + other.log_flushes,
            log_pages_written=self.log_pages_written + other.log_pages_written,
            cpu_tuples=self.cpu_tuples + other.cpu_tuples,
        )

    def copy(self) -> "IOBreakdown":
        return IOBreakdown(
            sequential_reads=self.sequential_reads,
            random_reads=self.random_reads,
            sequential_writes=self.sequential_writes,
            random_writes=self.random_writes,
            log_flushes=self.log_flushes,
            log_pages_written=self.log_pages_written,
            cpu_tuples=self.cpu_tuples,
        )


@dataclass(slots=True)
class IOTracker:
    """Accumulates I/O counts and decides sequential vs random accesses.

    The tracker keeps the identity of the last page touched on the (single)
    simulated disk.  An access is sequential only when it touches the next
    page of the same file; interleaved access to different files therefore
    costs seeks, exactly as it would on one spindle.
    """

    counters: IOBreakdown = field(default_factory=IOBreakdown)
    _last_file: str | None = field(default=None, repr=False)
    _last_page: int | None = field(default=None, repr=False)

    def _is_sequential(self, file_name: str, page_no: int) -> bool:
        return self._last_file == file_name and self._last_page is not None and (
            page_no == self._last_page + 1 or page_no == self._last_page
        )

    def record_read(self, file_name: str, page_no: int) -> None:
        if self._is_sequential(file_name, page_no):
            self.counters.sequential_reads += 1
        else:
            self.counters.random_reads += 1
        self._last_file = file_name
        self._last_page = page_no

    def record_read_run(self, file_name: str, start_page: int, count: int) -> None:
        """Record ``count`` consecutive page reads with one call.

        Equivalent to ``count`` :meth:`record_read` calls over
        ``start_page .. start_page + count - 1``: only the first page can be
        a seek (it is classified against the head position exactly as a
        single read would be), every following page of the run is sequential
        by construction.  The page sweep uses this to charge a
        page run it read back-to-back without paying ``count`` Python calls
        into the tracker.
        """
        if count <= 0:
            return
        if self._is_sequential(file_name, start_page):
            self.counters.sequential_reads += count
        else:
            self.counters.random_reads += 1
            self.counters.sequential_reads += count - 1
        self._last_file = file_name
        self._last_page = start_page + count - 1

    def record_write(self, file_name: str, page_no: int) -> None:
        if self._is_sequential(file_name, page_no):
            self.counters.sequential_writes += 1
        else:
            self.counters.random_writes += 1
        self._last_file = file_name
        self._last_page = page_no

    def record_log_flush(self, pages: int) -> None:
        """A log flush: one fsync seek plus ``pages`` sequential log writes."""
        self.counters.log_flushes += 1
        self.counters.log_pages_written += pages
        # The disk head is now at the log; the next data access seeks back.
        self._last_file = None
        self._last_page = None

    def record_cpu_tuples(self, count: int) -> None:
        self.counters.cpu_tuples += count

    def record_spill(self, file_name: str, pages: int) -> None:
        """One spill round-trip: stream ``pages`` out, then stream them back.

        Charged as a seek to the scratch file plus ``pages - 1`` sequential
        writes, then a rewind seek plus ``pages - 1`` sequential reads --
        the access pattern of a hash-repartition that writes each bucket
        run once and re-reads it once.  The head ends at the last scratch
        page, so the consumer's next data access pays its seek back.
        """
        if pages <= 0:
            return
        self.counters.random_writes += 1
        self.counters.sequential_writes += pages - 1
        self.counters.random_reads += 1
        self.counters.sequential_reads += pages - 1
        self._last_file = file_name
        self._last_page = pages - 1

    def head_position(self) -> tuple[str | None, int | None]:
        """The simulated head position ``(file, page)`` (``(None, None)`` parked)."""
        return (self._last_file, self._last_page)

    def set_head_position(self, file_name: str | None, page_no: int | None) -> None:
        """Restore a head position captured by :meth:`head_position`.

        Used when replaying I/O performed elsewhere (a forked parallel
        worker) onto this tracker: the counters are folded in separately,
        and the head must land where the replayed accesses left it so every
        *later* sequential/random classification matches a serial run.
        """
        self._last_file = file_name
        self._last_page = page_no

    def snapshot(self) -> IOBreakdown:
        return self.counters.copy()

    def reset(self) -> None:
        self.counters = IOBreakdown()
        self._last_file = None
        self._last_page = None


class DiskModel:
    """The simulated disk: cost parameters plus the global I/O tracker.

    All storage components (heap files, B+Tree index files, the WAL) share a
    single :class:`DiskModel`, mirroring the single-spindle experimental
    platform of the paper.
    """

    __slots__ = ("params", "tracker")

    def __init__(self, params: DiskParameters | None = None) -> None:
        self.params = params or DiskParameters()
        self.tracker = IOTracker()

    # -- accounting entry points used by the storage layer ------------------

    def read_page(self, file_name: str, page_no: int) -> None:
        self.tracker.record_read(file_name, page_no)

    def read_page_run(self, file_name: str, start_page: int, count: int) -> None:
        """Charge ``count`` consecutive page reads in one accounting call."""
        self.tracker.record_read_run(file_name, start_page, count)

    def write_page(self, file_name: str, page_no: int) -> None:
        self.tracker.record_write(file_name, page_no)

    def log_flush(self, pages: int) -> None:
        self.tracker.record_log_flush(pages)

    def charge_cpu_tuples(self, count: int) -> None:
        self.tracker.record_cpu_tuples(count)

    def charge_spill(self, file_name: str, pages: int) -> None:
        """Charge a spill round-trip (write out + read back) on a scratch file."""
        self.tracker.record_spill(file_name, pages)

    # -- reporting -----------------------------------------------------------

    @property
    def counters(self) -> IOBreakdown:
        return self.tracker.counters

    def elapsed_ms(self) -> float:
        """Total simulated time since the last reset."""
        return self.tracker.counters.elapsed_ms(self.params)

    def snapshot(self) -> IOBreakdown:
        return self.tracker.snapshot()

    def window_since(self, snapshot: IOBreakdown) -> IOBreakdown:
        """I/O performed since ``snapshot`` was taken."""
        return self.tracker.counters.subtract(snapshot)

    def absorb(
        self, window: IOBreakdown, head: tuple[str | None, int | None]
    ) -> None:
        """Fold I/O performed on a forked copy of this device back in.

        A process-parallel worker inherits this device by fork, performs its
        partition's accesses on the copy, and ships back the counter delta
        plus the final head position.  Replaying both here leaves the parent
        tracker exactly as if the accesses had run in this process.
        """
        self.tracker.counters = self.tracker.counters.add(window)
        self.tracker.set_head_position(*head)

    def reset(self) -> None:
        self.tracker.reset()
