"""Tests for pages and record identifiers."""

import pytest

from repro.storage.page import Page, RID


def test_append_and_get_round_trip():
    page = Page(page_no=0, capacity=3)
    slot = page.append({"a": 1})
    assert slot == 0
    assert page.get(0) == {"a": 1}
    assert page.num_tuples == 1


def test_page_capacity_enforced():
    page = Page(page_no=0, capacity=2)
    page.append({"a": 1})
    page.append({"a": 2})
    assert page.is_full
    with pytest.raises(ValueError):
        page.append({"a": 3})


def test_delete_keeps_slot_numbers_stable():
    page = Page(page_no=0, capacity=3)
    page.append({"a": 1})
    page.append({"a": 2})
    removed = page.delete(0)
    assert removed == {"a": 1}
    assert page.get(0) is None
    assert page.get(1) == {"a": 2}
    assert page.num_tuples == 1


def test_live_rows_skips_deleted_slots():
    page = Page(page_no=0, capacity=3)
    page.append({"a": 1})
    page.append({"a": 2})
    page.append({"a": 3})
    page.delete(1)
    assert list(page.live_rows()) == [(0, {"a": 1}), (2, {"a": 3})]


def test_get_out_of_range_raises():
    page = Page(page_no=0, capacity=2)
    with pytest.raises(IndexError):
        page.get(0)


def test_rids_are_ordered_and_hashable():
    assert RID(0, 1) < RID(1, 0)
    assert RID(2, 3) < RID(2, 4)
    assert len({RID(0, 0), RID(0, 0), RID(0, 1)}) == 2


def test_version_summary_starts_empty_and_only_grows():
    page = Page(page_no=0, capacity=3)
    page.append({"a": 1})
    # A page nobody stamped shares the one empty frozenset: no per-page cost.
    assert page.creators == page.deleters == frozenset()
    assert page.creators is Page(page_no=1, capacity=3).creators
    page.note_creator(7)
    page.note_creator(7)
    page.note_creator(9)
    page.note_deleter(8)
    assert page.creators == {7, 9}
    assert page.deleters == {8}
    # A physical delete leaves the summary a superset of the live stamps.
    page.delete(0)
    assert page.creators == {7, 9} and page.deleters == {8}
    # One page's summary is its own.
    assert Page(page_no=2, capacity=3).creators == frozenset()
