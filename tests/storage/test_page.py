"""Tests for pages and record identifiers."""

import pytest

from repro.engine.access import SeqScan
from repro.engine.database import Database
from repro.engine.executor import ExecutionContext
from repro.engine.predicates import Between, PredicateSet
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


class TestLiveList:
    """``Page.live``: built on first read, dropped -- never edited -- by a write."""

    def make_page(self):
        page = Page(page_no=0, capacity=4)
        for value in (1, 2, 3):
            page.append({"a": value})
        return page

    def test_built_once_and_shared_until_a_write(self):
        page = self.make_page()
        live = page.live
        assert live == [{"a": 1}, {"a": 2}, {"a": 3}]
        assert page.live is live

    def test_append_and_delete_drop_the_list(self):
        page = self.make_page()
        before = page.live
        page.append({"a": 4})
        after_append = page.live
        assert after_append is not before
        assert after_append == [{"a": 1}, {"a": 2}, {"a": 3}, {"a": 4}]
        page.delete(1)
        assert page.live is not after_append
        assert page.live == [{"a": 1}, {"a": 3}, {"a": 4}]

    def test_a_handed_out_list_never_changes(self):
        page = self.make_page()
        held = page.live
        rows = list(held)
        page.delete(0)
        page.append({"a": 4})
        page.delete(2)
        assert held == rows and all(a is b for a, b in zip(held, rows))

    def test_num_tuples_is_the_live_length(self):
        page = self.make_page()
        page.delete(1)
        assert page.num_tuples == len(page.live) == 2
        page.append({"a": 4})
        assert page.num_tuples == len(page.live) == 3
        assert [row for _slot, row in page.live_rows()] == page.live

    @pytest.mark.parametrize("predicates", [(), (Between("v", 0, 6),)])
    def test_lazy_sweep_interrupted_by_a_delete_on_its_page(self, predicates):
        """A delete mid-page does not reach the list the sweep holds: the
        sweep yields and charges that page exactly as read, and only a later
        read of the page sees the delete."""
        db = Database(buffer_pool_pages=10)
        db.create_table("t", columns=["v"], tups_per_page=4)
        db.load("t", [{"v": value} for value in range(8)])
        table = db.table("t")
        context = ExecutionContext()
        before = db.disk.snapshot()
        stream = SeqScan(table, PredicateSet(predicates)).iter_rows(context)
        assert next(stream) == {"v": 0}
        assert table.delete_row(RID(0, 2), charge_io=False) == {"v": 2}
        rest = [row["v"] for row in stream]
        assert rest == ([1, 2, 3, 4, 5, 6] if predicates else [1, 2, 3, 4, 5, 6, 7])
        counters = context.counters
        assert (counters.pages_visited, counters.rows_examined) == (2, 8)
        assert db.disk.window_since(before).cpu_tuples == 8
        assert [row["v"] for row in table.heap.pages[0].live] == [0, 1, 3]


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
