"""Heap files: the on-disk tuple storage for a table.

A heap file is an ordered sequence of slotted pages.  Clustering a table
(PostgreSQL's ``CLUSTER`` command, which the paper uses to choose the
clustered attribute) sorts all tuples by the clustering key and rebuilds the
file, so that tuples with equal or adjacent key values become physically
co-located -- the property the correlation-aware access methods exploit.
"""

from __future__ import annotations

from functools import partial
from operator import is_not
from typing import Any, Callable, Iterator, Sequence

from repro.storage.buffer_pool import BufferPool
from repro.storage.page import Page, RID


#: Whether a slot holds a row (deleted slots hold ``None``).
_is_row = partial(is_not, None)


class HeapFile:
    """Tuple storage for one table, backed by the simulated disk.

    Parameters
    ----------
    name:
        File name used for I/O accounting (one file per table).
    tups_per_page:
        Page capacity; this is the ``tups_per_page`` statistic of the
        paper's cost model (Table 1).
    buffer_pool:
        Shared buffer pool through which every page access is charged.
    """

    __slots__ = (
        "name",
        "tups_per_page",
        "buffer_pool",
        "pages",
        "_num_tuples",
        "_min_append_page",
        "logical_page_reads",
    )

    def __init__(self, name: str, tups_per_page: int, buffer_pool: BufferPool) -> None:
        if tups_per_page <= 0:
            raise ValueError("tups_per_page must be positive")
        self.name = name
        self.tups_per_page = tups_per_page
        self.buffer_pool = buffer_pool
        self.pages: list[Page] = []
        self._num_tuples = 0
        #: Appends never reuse pages below this index (see :meth:`seal`).
        self._min_append_page = 0
        #: Count of every page whose tuples were read, including accounting-free
        #: reads (:meth:`all_rows`, ``charge_io=False`` scans).  Lets tests
        #: assert that a code path -- e.g. the planner -- never touches the
        #: heap at all, which buffer-pool counters alone cannot show.
        self.logical_page_reads = 0

    # -- basic properties ----------------------------------------------------

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def num_tuples(self) -> int:
        return self._num_tuples

    # -- writes ----------------------------------------------------------------

    def append(self, row: dict[str, Any], *, charge_io: bool = True) -> RID:
        """Append a tuple at the end of the file and return its RID.

        Appends dirty the last page; a new page is allocated when it fills.
        ``charge_io=False`` is used by bulk loads that account their own cost.
        """
        needs_new_page = (
            not self.pages
            or self.pages[-1].is_full
            or len(self.pages) - 1 < self._min_append_page
        )
        if needs_new_page:
            page = Page(page_no=len(self.pages), capacity=self.tups_per_page)
            self.pages.append(page)
            if charge_io:
                self.buffer_pool.create(self.name, page.page_no)
        else:
            page = self.pages[-1]
            if charge_io:
                self.buffer_pool.mark_dirty(self.name, page.page_no)
        slot = page.append(row)
        self._num_tuples += 1
        return RID(page.page_no, slot)

    def bulk_load(self, rows: list[dict[str, Any]]) -> None:
        """Load many rows without charging per-row buffer traffic.

        Bulk loads model the initial population of a table (the paper builds
        its data sets before measuring), so they bypass the buffer pool; the
        file simply exists on disk afterwards.  Every row lands where
        :meth:`append` with ``charge_io=False`` would put it: the open last
        page is topped up, then fresh pages take ``tups_per_page`` rows each.
        """
        pages, per = self.pages, self.tups_per_page
        start = 0
        if pages and len(pages) - 1 >= self._min_append_page:
            last = pages[-1]
            start = min(len(rows), last.capacity - len(last.slots))
            for row in rows[:start]:
                last.append(row)
        for offset in range(start, len(rows), per):
            pages.append(Page.filled(len(pages), per, rows[offset : offset + per]))
        self._num_tuples += len(rows)

    def seal(self) -> None:
        """Freeze the current pages: future appends start on a fresh page.

        Used after clustering so that newly inserted tuples land in a clearly
        delimited unclustered tail rather than in free space of sorted pages.
        """
        self._min_append_page = len(self.pages)

    def delete(self, rid: RID, *, charge_io: bool = True) -> dict[str, Any] | None:
        """Delete the tuple at ``rid``; the page becomes dirty."""
        page = self._page(rid.page_no)
        if charge_io:
            self.buffer_pool.access(self.name, rid.page_no, dirty=True)
        row = page.delete(rid.slot)
        if row is not None:
            self._num_tuples -= 1
        return row

    # -- reads -----------------------------------------------------------------

    def _page(self, page_no: int) -> Page:
        if page_no < 0 or page_no >= len(self.pages):
            raise IndexError(f"page {page_no} out of range in heap {self.name!r}")
        return self.pages[page_no]

    def fetch(self, rid: RID, *, charge_io: bool = True) -> dict[str, Any] | None:
        """Fetch a single tuple by RID (one page access)."""
        self.logical_page_reads += 1
        if charge_io:
            self.buffer_pool.access(self.name, rid.page_no)
        return self._page(rid.page_no).get(rid.slot)

    def scan(self, *, charge_io: bool = True) -> Iterator[tuple[RID, dict[str, Any]]]:
        """Every live ``(RID, row)`` in physical order (index and CM builds)."""
        for page in self.pages:
            self.logical_page_reads += 1
            if charge_io:
                self.buffer_pool.access(self.name, page.page_no)
            for slot, row in page.live_rows():
                yield RID(page.page_no, slot), row

    def read_pages(
        self, page_numbers: Sequence[int], *, charge_io: bool = True
    ) -> list[Page]:
        """Read a run of pages and return them, charging the run in one call.

        The one way a query or a write reads heap pages
        (:meth:`repro.engine.access.AccessPath._sweep` reads each run it
        sweeps through here): consecutive misses are charged through
        :meth:`BufferPool.access_run` -- identical counters to one
        buffer-pool access per page, fewer accounting calls.
        """
        pages = [self._page(page_no) for page_no in page_numbers]
        self.logical_page_reads += len(pages)
        if charge_io:
            self.buffer_pool.access_run(self.name, page_numbers)
        return pages

    def all_rows(self) -> Iterator[dict[str, Any]]:
        """Iterate every live row without any I/O accounting (internal use)."""
        for page in self.pages:
            self.logical_page_reads += 1
            yield from filter(_is_row, page.slots)

    # -- clustering ------------------------------------------------------------

    def rebuild_clustered(
        self, sort_key: Callable[[dict[str, Any]], Any]
    ) -> list[tuple[RID, dict[str, Any]]]:
        """Sort all tuples by ``sort_key`` and rebuild the file in that order.

        Returns the new ``(RID, row)`` assignment so that indexes and
        correlation maps can be rebuilt against the new physical layout.
        Cached pages of the old layout are dropped from the buffer pool.
        """
        rows = sorted(self.all_rows(), key=sort_key)
        self.buffer_pool.drop_file(self.name)
        self.pages = []
        self._num_tuples = 0
        self._min_append_page = 0
        self.bulk_load(rows)
        return [
            (RID(page.page_no, slot), row)
            for page in self.pages
            for slot, row in enumerate(page.slots)
        ]
