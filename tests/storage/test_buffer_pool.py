"""Tests for the LRU buffer pool with dirty write-back."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel


def make_pool(capacity=4):
    disk = DiskModel()
    return disk, BufferPool(disk, capacity_pages=capacity)


def test_capacity_must_be_positive():
    disk = DiskModel()
    with pytest.raises(ValueError):
        BufferPool(disk, capacity_pages=0)


def test_miss_then_hit():
    disk, pool = make_pool()
    assert pool.access("heap", 0) is False
    assert pool.access("heap", 0) is True
    assert pool.stats.hits == 1
    assert pool.stats.misses == 1
    assert disk.counters.pages_read == 1


def test_lru_eviction_order():
    disk, pool = make_pool(capacity=2)
    pool.access("f", 0)
    pool.access("f", 1)
    pool.access("f", 0)      # page 0 becomes most-recent
    pool.access("f", 2)      # evicts page 1
    assert pool.contains("f", 0)
    assert not pool.contains("f", 1)
    assert pool.contains("f", 2)


def test_dirty_eviction_writes_back():
    disk, pool = make_pool(capacity=1)
    pool.access("f", 0, dirty=True)
    pool.access("f", 1)      # evicts dirty page 0
    assert pool.stats.dirty_evictions == 1
    assert disk.counters.pages_written == 1


def test_clean_eviction_does_not_write():
    disk, pool = make_pool(capacity=1)
    pool.access("f", 0)
    pool.access("f", 1)
    assert pool.stats.clean_evictions == 1
    assert disk.counters.pages_written == 0


def test_dirty_flag_is_sticky_until_flush():
    disk, pool = make_pool()
    pool.access("f", 0, dirty=True)
    pool.access("f", 0)          # clean access must not clear the dirty bit
    assert pool.is_dirty("f", 0)
    written = pool.flush_all()
    assert written == 1
    assert not pool.is_dirty("f", 0)


def test_create_registers_new_page_without_read():
    disk, pool = make_pool()
    pool.create("f", 0)
    assert disk.counters.pages_read == 0
    assert pool.is_dirty("f", 0)


def test_drop_file_discards_only_that_file():
    disk, pool = make_pool()
    pool.access("a", 0, dirty=True)
    pool.access("b", 0)
    pool.drop_file("a")
    assert not pool.contains("a", 0)
    assert pool.contains("b", 0)
    # Dropped dirty pages are not written (the file was rebuilt).
    assert disk.counters.pages_written == 0


def test_clear_cold_cache():
    disk, pool = make_pool()
    pool.access("f", 0, dirty=True)
    pool.clear()
    assert pool.resident_pages == 0
    assert disk.counters.pages_written == 0


def test_hits_and_misses_are_counted():
    disk, pool = make_pool()
    pool.access("f", 0)
    pool.access("f", 0)
    pool.access("f", 1)
    assert (pool.stats.hits, pool.stats.misses, pool.stats.accesses) == (1, 2, 3)


def test_resident_and_dirty_page_counts():
    disk, pool = make_pool(capacity=10)
    pool.access("f", 0, dirty=True)
    pool.access("f", 1)
    pool.access("f", 2, dirty=True)
    assert pool.resident_pages == 3
    assert pool.dirty_pages == 2


class TestAccessRun:
    """access_run must behave exactly like per-page access() calls."""

    def _compare(self, page_lists, capacity=4, pre_dirty=()):
        """Drive both APIs through the same access pattern and diff them."""
        per_disk, per_pool = make_pool(capacity)
        run_disk, run_pool = make_pool(capacity)
        for file_name, page_no in pre_dirty:
            per_pool.access(file_name, page_no, dirty=True)
            run_pool.access(file_name, page_no, dirty=True)
        for file_name, pages in page_lists:
            hits = 0
            for page_no in pages:
                if per_pool.access(file_name, page_no):
                    hits += 1
            assert run_pool.access_run(file_name, pages) == hits
        assert run_disk.counters == per_disk.counters
        assert run_pool.stats == per_pool.stats
        assert run_pool._frames == per_pool._frames

    def test_consecutive_miss_run(self):
        self._compare([("f", [0, 1, 2, 3])])

    def test_run_with_hits_in_the_middle(self):
        self._compare([("f", [2]), ("f", [0, 1, 2, 3, 4])], capacity=10)

    def test_non_consecutive_pages_split_runs(self):
        self._compare([("f", [0, 1, 5, 6, 9])], capacity=10)

    def test_eviction_interleaves_identically(self):
        self._compare([("f", list(range(10)))], capacity=3)

    def test_dirty_eviction_write_lands_between_the_same_reads(self):
        # Dirty pages already resident are evicted (and written) mid-run;
        # the write must hit the disk tracker at the same point in the read
        # sequence as with per-page access, or head classification drifts.
        self._compare(
            [("f", list(range(10, 18)))],
            capacity=3,
            pre_dirty=[("g", 0), ("g", 1), ("g", 2)],
        )

    def test_runs_across_files_alternate(self):
        self._compare(
            [("a", [0, 1, 2]), ("b", [0, 1]), ("a", [3, 4])], capacity=20
        )

    def test_full_pool_charges_a_clean_chunk_as_one_run(self, monkeypatch):
        # A pool far smaller than the chunk evicts on every miss; clean
        # evictions touch no disk, so the whole chunk is one tracker call.
        disk, pool = make_pool(capacity=2)
        calls = []
        record = DiskModel.read_page_run

        def counted(self, *args):
            calls.append(args)
            record(self, *args)

        monkeypatch.setattr(DiskModel, "read_page_run", counted)
        pool.access_run("f", range(10))
        assert calls == [("f", 0, 10)]
        assert pool.stats.clean_evictions == 8
        assert disk.counters.random_reads == 1
        assert disk.counters.sequential_reads == 9


_FILES = ("f", "g")


@st.composite
def _access_histories(draw):
    """A pool size, pages to dirty first, then a list of access_run chunks."""
    page = st.tuples(st.sampled_from(_FILES), st.integers(0, 11))
    chunk = st.tuples(
        st.sampled_from(_FILES), st.lists(st.integers(0, 11), max_size=12)
    )
    return (
        draw(st.integers(1, 8)),
        draw(st.lists(page, max_size=6)),
        draw(st.lists(chunk, min_size=1, max_size=5)),
    )


@given(_access_histories())
@settings(max_examples=300, deadline=None)
def test_access_run_equals_per_page_access(history):
    """One access_run per chunk leaves what one access() per page leaves:
    the same stats, I/O counters, head position and LRU order (with dirty
    flags) -- whatever mix of repeats, hits, clean and dirty evictions."""
    capacity, pre_dirty, chunks = history
    per_disk, per_pool = make_pool(capacity)
    run_disk, run_pool = make_pool(capacity)
    for file_name, page_no in pre_dirty:
        per_pool.access(file_name, page_no, dirty=True)
        run_pool.access(file_name, page_no, dirty=True)
    for file_name, pages in chunks:
        hits = sum(per_pool.access(file_name, page_no) for page_no in pages)
        assert run_pool.access_run(file_name, pages) == hits
        assert run_pool.stats == per_pool.stats
        assert run_disk.counters == per_disk.counters
        assert run_disk.tracker.head_position() == per_disk.tracker.head_position()
        assert list(run_pool._frames.items()) == list(per_pool._frames.items())
