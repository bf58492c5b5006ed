"""Tests for heap files."""

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel
from repro.storage.heap import HeapFile
from repro.storage.page import RID


def make_heap(tups_per_page=4, capacity_pages=100):
    disk = DiskModel()
    pool = BufferPool(disk, capacity_pages=capacity_pages)
    return disk, pool, HeapFile("heap", tups_per_page, pool)


def test_tups_per_page_must_be_positive():
    disk = DiskModel()
    pool = BufferPool(disk, capacity_pages=10)
    with pytest.raises(ValueError):
        HeapFile("heap", 0, pool)


def test_append_allocates_pages_as_needed():
    _disk, _pool, heap = make_heap(tups_per_page=2)
    rids = [heap.append({"x": i}) for i in range(5)]
    assert heap.num_pages == 3
    assert heap.num_tuples == 5
    assert rids[0] == RID(0, 0)
    assert rids[2] == RID(1, 0)
    assert rids[4] == RID(2, 0)


def test_fetch_returns_the_right_tuple():
    _disk, _pool, heap = make_heap()
    rid = heap.append({"x": 42})
    assert heap.fetch(rid) == {"x": 42}


def test_bulk_load_charges_no_io():
    disk, pool, heap = make_heap(tups_per_page=2)
    heap.bulk_load([{"x": i} for i in range(10)])
    assert heap.num_tuples == 10
    assert disk.counters.pages_read == 0
    assert pool.stats.accesses == 0


def test_scan_visits_rows_in_physical_order():
    _disk, _pool, heap = make_heap(tups_per_page=3)
    heap.bulk_load([{"x": i} for i in range(7)])
    values = [row["x"] for _rid, row in heap.scan()]
    assert values == list(range(7))


def test_scan_charges_sequential_io():
    disk, _pool, heap = make_heap(tups_per_page=2)
    heap.bulk_load([{"x": i} for i in range(10)])  # 5 pages
    list(heap.scan())
    assert disk.counters.pages_read == 5
    assert disk.counters.sequential_reads == 4
    assert disk.counters.random_reads == 1


def test_delete_marks_slot_and_updates_count():
    _disk, _pool, heap = make_heap()
    rid = heap.append({"x": 1})
    heap.append({"x": 2})
    removed = heap.delete(rid)
    assert removed == {"x": 1}
    assert heap.num_tuples == 1
    assert heap.fetch(rid) is None


def test_rebuild_clustered_orders_rows_by_key():
    _disk, _pool, heap = make_heap(tups_per_page=2)
    heap.bulk_load([{"k": v} for v in [5, 3, 9, 1, 7, 2]])
    placed = heap.rebuild_clustered(lambda row: row["k"])
    values = [row["k"] for _rid, row in placed]
    assert values == [1, 2, 3, 5, 7, 9]
    # Physical order matches the returned order.
    assert [row["k"] for row in heap.all_rows()] == values
    # RIDs are re-assigned densely.
    assert placed[0][0] == RID(0, 0)


def test_appends_dirty_pages_in_buffer_pool():
    disk, pool, heap = make_heap(tups_per_page=2, capacity_pages=10)
    heap.append({"x": 1})
    assert pool.dirty_pages == 1


def test_fetch_out_of_range_raises():
    _disk, _pool, heap = make_heap()
    with pytest.raises(IndexError):
        heap.fetch(RID(5, 0))
