"""An LRU buffer pool with dirty-page write-back.

The buffer pool is central to the paper's maintenance experiments
(Experiment 3, Figures 8 and 9): inserting into many large secondary B+Trees
dirties leaf pages scattered across files far larger than RAM, so dirty pages
are continually evicted and written back with random I/O.  Correlation maps
are small enough to stay resident, which is exactly why their maintenance cost
stays flat.

Pages are identified by ``(file_name, page_no)``.  The pool does not hold the
page payloads themselves (the heap and index structures keep their own Python
objects); it models *residency*: which pages would be cached, which reads hit
the disk, and which evictions force a write.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.storage.disk import DiskModel

PageKey = tuple[str, int]


@dataclass(slots=True)
class BufferPoolStats:
    """Hit/miss/eviction counters, reported alongside query I/O."""

    hits: int = 0
    misses: int = 0
    dirty_evictions: int = 0
    clean_evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class BufferPool:
    """A fixed-capacity LRU cache of disk pages shared by all files.

    ``capacity_pages`` plays the role of the 1 GB of RAM in the paper's
    experimental platform (scaled down together with the data sets).
    """

    __slots__ = ("disk", "capacity_pages", "stats", "_frames")

    def __init__(self, disk: DiskModel, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("buffer pool capacity must be positive")
        self.disk = disk
        self.capacity_pages = capacity_pages
        self.stats = BufferPoolStats()
        #: LRU ordering: oldest first.  Value is the dirty flag.
        self._frames: OrderedDict[PageKey, bool] = OrderedDict()

    # -- internal helpers ----------------------------------------------------

    def _touch(self, key: PageKey, dirty: bool) -> None:
        already_dirty = self._frames.pop(key, False)
        self._frames[key] = already_dirty or dirty

    def _evict_if_needed(self) -> None:
        while len(self._frames) > self.capacity_pages:
            key, dirty = self._frames.popitem(last=False)
            if dirty:
                self.stats.dirty_evictions += 1
                self.disk.write_page(*key)
            else:
                self.stats.clean_evictions += 1

    # -- public API ----------------------------------------------------------

    def access(self, file_name: str, page_no: int, *, dirty: bool = False) -> bool:
        """Access a page, reading it from disk on a miss.

        Returns ``True`` on a buffer hit.  ``dirty=True`` marks the page
        modified so that a later eviction writes it back.
        """
        key = (file_name, page_no)
        if key in self._frames:
            self.stats.hits += 1
            self._touch(key, dirty)
            return True
        self.stats.misses += 1
        self.disk.read_page(file_name, page_no)
        self._touch(key, dirty)
        self._evict_if_needed()
        return False

    def access_run(self, file_name: str, page_nos: Iterable[int]) -> int:
        """Access a batch of pages, charging consecutive misses as one run.

        Behaviourally identical to calling :meth:`access` once per page --
        same hits/misses, same evictions in the same order, same
        sequential/random classification -- but misses of consecutive pages
        reach the disk tracker through a single
        :meth:`~repro.storage.disk.DiskModel.read_page_run` call -- in a
        full pool too.  Only a *dirty* eviction flushes the pending run
        first: its write-back is the one thing that moves the simulated head,
        so it must land between the same reads it would under per-page
        access, while a clean eviction touches no disk and leaves the run
        open.  Returns the number of buffer hits.
        """
        frames = self._frames
        stats = self.stats
        disk = self.disk
        capacity = self.capacity_pages
        hits = misses = clean_evictions = 0
        run_start = 0
        run_len = 0
        for page_no in page_nos:
            key = (file_name, page_no)
            if key in frames:
                # A hit never dirties: only its LRU position changes.
                frames.move_to_end(key)
                hits += 1
                continue
            misses += 1
            if run_len and page_no == run_start + run_len:
                run_len += 1
            else:
                if run_len:
                    disk.read_page_run(file_name, run_start, run_len)
                run_start, run_len = page_no, 1
            frames[key] = False
            while len(frames) > capacity:
                victim, dirty = frames.popitem(last=False)
                if not dirty:
                    clean_evictions += 1
                    continue
                if run_len:
                    disk.read_page_run(file_name, run_start, run_len)
                    run_len = 0
                stats.dirty_evictions += 1
                disk.write_page(*victim)
        if run_len:
            disk.read_page_run(file_name, run_start, run_len)
        stats.hits += hits
        stats.misses += misses
        stats.clean_evictions += clean_evictions
        return hits

    def create(self, file_name: str, page_no: int) -> None:
        """Register a freshly allocated page (no read I/O) as dirty."""
        key = (file_name, page_no)
        if key in self._frames:
            self._touch(key, True)
        else:
            self.stats.misses += 1
            self._touch(key, True)
            self._evict_if_needed()

    def mark_dirty(self, file_name: str, page_no: int) -> None:
        """Mark an already resident page dirty (reads it first otherwise)."""
        self.access(file_name, page_no, dirty=True)

    def contains(self, file_name: str, page_no: int) -> bool:
        return (file_name, page_no) in self._frames

    def is_dirty(self, file_name: str, page_no: int) -> bool:
        return self._frames.get((file_name, page_no), False)

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def dirty_pages(self) -> int:
        return sum(1 for dirty in self._frames.values() if dirty)

    def flush_all(self) -> int:
        """Write back every dirty page (checkpoint).  Returns pages written."""
        written = 0
        for key, dirty in list(self._frames.items()):
            if dirty:
                self.disk.write_page(*key)
                self._frames[key] = False
                written += 1
        return written

    def drop_file(self, file_name: str) -> None:
        """Discard all cached pages of ``file_name`` without writing them.

        Used when a file is rebuilt wholesale (e.g. re-clustering a heap).
        """
        for key in [key for key in self._frames if key[0] == file_name]:
            del self._frames[key]

    def clear(self) -> None:
        """Empty the pool without writing dirty pages back: the paper's
        cold-cache methodology of dropping OS and database caches between
        runs."""
        self._frames.clear()
