"""Tests for the clustered index."""

import pytest

from repro.index.clustered import ClusteredIndex
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel


def make_index(bounds):
    disk = DiskModel()
    pool = BufferPool(disk, capacity_pages=100)
    index = ClusteredIndex("clustered", "k", pool)
    index.build(bounds)
    return disk, pool, index


def test_pages_for_single_value():
    # Pages: [1..5], [5..9], [10..20]
    _disk, _pool, index = make_index([(1, 5), (5, 9), (10, 20)])
    assert index.pages_for_value(3) == [0]
    assert index.pages_for_value(5) == [0, 1]
    assert index.pages_for_value(15) == [2]


def test_pages_for_value_not_present_in_any_range():
    _disk, _pool, index = make_index([(1, 5), (10, 20)])
    # 7 falls between page bounds; the candidate page ends before it.
    assert index.pages_for_value(7) == []
    assert index.pages_for_value(0) == []
    assert index.pages_for_value(25) == []  # beyond the largest stored key


def test_pages_for_range_spans_pages():
    _disk, _pool, index = make_index([(1, 5), (5, 9), (10, 20), (21, 30)])
    assert index.pages_for_range(4, 12) == [0, 1, 2]
    assert index.pages_for_range(None, 6) == [0, 1]
    assert index.pages_for_range(22, None) == [3]


def test_empty_index_returns_no_pages():
    _disk, _pool, index = make_index([])
    assert index.pages_for_value(1) == []
    assert index.pages_for_range(1, 10) == []


def test_lookup_charges_descent_io():
    disk, pool, index = make_index([(i, i) for i in range(1000)])
    index.pages_for_value(3)
    assert pool.stats.accesses == index.btree_height
    assert index.btree_height >= 2


def test_range_and_bucket_lookups_charge_one_descent():
    _disk, pool, index = make_index([(i, i) for i in range(1000)])
    index.register_bucket(0, 0, 9)
    index.pages_for_range(10, 20)
    assert pool.stats.accesses == index.btree_height
    index.pages_for_bucket(0)
    assert pool.stats.accesses == 2 * index.btree_height
    # An unregistered bucket is answered without a descent.
    assert index.pages_for_bucket(99) == []
    assert pool.stats.accesses == 2 * index.btree_height


def test_bucket_registration_and_lookup():
    _disk, _pool, index = make_index([(1, 5), (5, 9), (10, 20), (21, 30)])
    index.register_bucket(0, 0, 1)
    index.register_bucket(1, 2, 3)
    assert index.pages_for_bucket(0) == [0, 1]
    assert index.pages_for_bucket(1) == [2, 3]
    assert index.pages_for_bucket(99) == []
    assert index.num_buckets == 2


def test_bucket_range_validation():
    _disk, _pool, index = make_index([(1, 5)])
    with pytest.raises(ValueError):
        index.register_bucket(0, 3, 1)


def test_height_grows_with_table_size():
    _d1, _p1, small = make_index([(i, i) for i in range(10)])
    _d2, _p2, large = make_index([(i, i) for i in range(100_000)])
    assert large.btree_height > small.btree_height
