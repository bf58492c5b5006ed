"""Tests for page bitmaps."""

import pytest

from repro.index.bitmap import PageBitmap


def test_add_and_iterate_sorted():
    bitmap = PageBitmap([5, 1, 3, 1])
    assert list(bitmap) == [1, 3, 5]
    assert len(bitmap) == 3


def test_negative_pages_rejected():
    with pytest.raises(ValueError):
        PageBitmap([-1])


def test_intersection():
    a = PageBitmap([1, 2, 3])
    b = PageBitmap([3, 4])
    assert a.intersection(b).pages() == [3]


def test_runs_detects_contiguous_groups():
    bitmap = PageBitmap([1, 2, 3, 7, 8, 12])
    assert bitmap.runs() == [(1, 3), (7, 8), (12, 12)]
    assert bitmap.num_runs == 3


def test_empty_bitmap():
    bitmap = PageBitmap()
    assert not bitmap
    assert bitmap.runs() == []
    assert bitmap.num_runs == 0


def test_membership():
    bitmap = PageBitmap([2])
    assert 2 in bitmap
    assert 3 not in bitmap
