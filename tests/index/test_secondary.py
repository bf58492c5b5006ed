"""Tests for secondary (unclustered) indexes."""

import pytest

from repro.index.secondary import SecondaryIndex
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel
from repro.storage.page import RID


def make_index(attributes=("city",), capacity_pages=1000, order=16):
    disk = DiskModel()
    pool = BufferPool(disk, capacity_pages=capacity_pages)
    return disk, pool, SecondaryIndex("idx", attributes, pool, order=order)


def test_requires_at_least_one_attribute():
    disk = DiskModel()
    pool = BufferPool(disk, capacity_pages=10)
    with pytest.raises(ValueError):
        SecondaryIndex("idx", (), pool)


def test_single_attribute_key_extraction():
    _disk, _pool, index = make_index(("city",))
    assert index.key_of({"city": "Boston", "state": "MA"}) == "Boston"


def test_composite_key_extraction_order():
    _disk, _pool, index = make_index(("ra", "dec"))
    assert index.key_of({"dec": 2.0, "ra": 1.0}) == (1.0, 2.0)


def test_build_and_probe():
    _disk, _pool, index = make_index()
    rows = [
        (RID(0, 0), {"city": "Boston"}),
        (RID(0, 1), {"city": "Springfield"}),
        (RID(1, 0), {"city": "Boston"}),
    ]
    index.build(rows)
    assert sorted(index.probe("Boston")) == [RID(0, 0), RID(1, 0)]
    assert index.probe("Toledo") == []
    assert index.num_entries == 3


def test_build_charges_no_io_but_probe_does():
    disk, pool, index = make_index()
    index.build([(RID(0, i), {"city": f"c{i}"}) for i in range(100)])
    assert disk.counters.pages_read == 0
    index.probe("c42")
    assert pool.stats.accesses >= index.btree_height


def test_insert_dirties_leaf_pages():
    _disk, pool, index = make_index()
    index.insert(RID(0, 0), {"city": "Boston"})
    assert pool.dirty_pages >= 1


def test_delete_removes_one_entry():
    _disk, _pool, index = make_index()
    index.build([(RID(0, 0), {"city": "Boston"}), (RID(0, 1), {"city": "Boston"})])
    index.delete(RID(0, 0), {"city": "Boston"})
    assert index.probe("Boston") == [RID(0, 1)]
    assert index.num_entries == 1


def test_delete_missing_entry_is_noop():
    disk, _pool, index = make_index()
    index.build([(RID(0, 0), {"city": "Boston"})])
    before = index.num_entries
    index.delete(RID(9, 9), {"city": "Toledo"})
    assert index.num_entries == before


def test_probe_range_returns_all_matching_rids():
    _disk, _pool, index = make_index(("price",))
    rows = [(RID(0, i), {"price": i * 10}) for i in range(20)]
    index.build(rows)
    rids = index.probe_range(25, 65)
    prices = sorted(r.slot * 10 for r in rids)
    assert prices == [30, 40, 50, 60]


def test_probe_range_charges_a_descent_and_the_leaves_walked():
    _disk, pool, index = make_index(order=16)
    index.build([(RID(i // 10, i % 10), {"city": i}) for i in range(200)])
    assert len(index.probe_range(0, 63)) == 64
    # 64 entries at 16 per leaf: four leaf pages after the descent.
    assert pool.stats.accesses == index.btree_height + 4


def test_probe_prefix_range_charges_a_descent_and_the_leaves_walked():
    _disk, pool, index = make_index(("ra", "dec"), order=16)
    index.build([(RID(i, 0), {"ra": i // 4, "dec": i % 4}) for i in range(200)])
    # Four ra values with four dec values each: one leaf page.
    assert len(index.probe_prefix_range(10, 13)) == 16
    assert pool.stats.accesses == index.btree_height + 1


def test_size_grows_with_entries():
    _disk, _pool, small = make_index()
    small.build([(RID(0, i), {"city": f"c{i}"}) for i in range(10)])
    _disk2, _pool2, large = make_index()
    large.build([(RID(0, i), {"city": f"c{i}"}) for i in range(1000)])
    assert large.size_bytes() > small.size_bytes() * 50
    assert large.size_pages() >= 1


def test_distinct_keys_sorted():
    _disk, _pool, index = make_index(("n",))
    index.build([(RID(0, i), {"n": v}) for i, v in enumerate([3, 1, 2, 1])])
    assert index.distinct_keys() == [1, 2, 3]
