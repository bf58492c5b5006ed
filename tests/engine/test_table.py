"""Tests for Table: clustering, bucket assignment, index/CM lifecycle."""

import pytest

from repro.core.bucketing import WidthBucketer
from repro.engine.database import Database
from repro.engine.table import BUCKET_COLUMN, TAIL_BUCKET
from repro.engine.transactions import XMAX_COLUMN, XMIN_COLUMN
from tests.engine.conftest import make_rows


def test_load_and_row_counts(database):
    table = database.table("items")
    assert table.num_rows == 5000
    assert table.num_pages == 100  # 5000 rows at 50 per page
    assert "items" in table.describe()


def test_cluster_orders_heap_physically(database):
    table = database.table("items")
    catids = [row["catid"] for row in table.all_rows()]
    assert catids == sorted(catids)
    assert table.is_clustered
    assert table.clustered_attribute == "catid"
    assert not table.tail_pages()


def test_cluster_on_unknown_column_raises(database):
    with pytest.raises(KeyError):
        database.cluster("items", "nope")


def test_bucket_column_assigned_to_every_row(database):
    table = database.table("items")
    assert table.has_clustered_buckets
    assert table.schema.has_column(BUCKET_COLUMN)
    bucket_ids = [row[BUCKET_COLUMN] for row in table.all_rows()]
    assert all(isinstance(b, int) and b >= 0 for b in bucket_ids)
    # Bucket ids are non-decreasing in physical order and start at zero.
    assert bucket_ids == sorted(bucket_ids)
    assert bucket_ids[0] == 0
    # ~4 pages of 50 tuples per bucket.
    buckets = max(bucket_ids) + 1
    assert 20 <= buckets <= 30


def test_no_clustered_value_spans_two_buckets(database):
    table = database.table("items")
    value_to_buckets = {}
    for row in table.all_rows():
        value_to_buckets.setdefault(row["catid"], set()).add(row[BUCKET_COLUMN])
    assert all(len(buckets) == 1 for buckets in value_to_buckets.values())


def test_cluster_without_buckets(item_rows):
    db = Database(buffer_pool_pages=200)
    db.create_table("items", sample_row=item_rows[0], tups_per_page=50)
    db.load("items", item_rows)
    db.cluster("items", "catid")
    table = db.table("items")
    assert table.is_clustered
    assert not table.has_clustered_buckets
    assert not table.schema.has_column(BUCKET_COLUMN)


def test_create_secondary_index_and_duplicate_rejected(database):
    table = database.table("items")
    index = table.create_secondary_index("price")
    assert index.num_entries == table.num_rows
    with pytest.raises(ValueError):
        table.create_secondary_index("price")
    with pytest.raises(KeyError):
        table.create_secondary_index("nope")


def test_create_cm_requires_clustering(item_rows):
    db = Database(buffer_pool_pages=200)
    db.create_table("items", sample_row=item_rows[0])
    db.load("items", item_rows)
    with pytest.raises(RuntimeError):
        db.create_correlation_map("items", ["price"])


def test_create_cm_maps_to_bucket_ids(database):
    table = database.table("items")
    cm = table.create_correlation_map(["cat2"])
    assert table.cm_uses_buckets(cm.name)
    targets = cm.lookup({"cat2": "group3"})
    assert targets
    assert all(isinstance(t, int) for t in targets)


def test_create_cm_with_raw_clustered_values(database):
    table = database.table("items")
    cm = table.create_correlation_map(["cat2"], use_clustered_buckets=False, name="raw")
    assert not table.cm_uses_buckets("raw")
    targets = cm.lookup({"cat2": "group3"})
    # group3 rolls up catids 30..39.
    assert targets == list(range(30, 40))


def test_cm_duplicate_and_unknown_column_rejected(database):
    table = database.table("items")
    table.create_correlation_map(["price"], name="cm1")
    with pytest.raises(ValueError):
        table.create_correlation_map(["price"], name="cm1")
    with pytest.raises(KeyError):
        table.create_correlation_map(["nope"])


def test_drop_structures(database):
    table = database.table("items")
    table.create_correlation_map(["price"], name="cm")
    table.drop_correlation_map("cm")
    assert not table.correlation_maps


def test_insert_row_maintains_all_structures(database):
    table = database.table("items")
    index = table.create_secondary_index("price")
    cm = table.create_correlation_map(["price"], bucketers={"price": WidthBucketer(64)})
    new_row = {"itemid": 99999, "catid": 5, "cat2": "group0", "price": 550.0, "noise": 1}
    before_entries = index.num_entries
    rid = table.insert_row(new_row)
    assert table.num_rows == 5001
    assert index.num_entries == before_entries + 1
    assert rid.page_no in table.tail_pages()
    # The CM saw the row under the tail bucket.
    assert TAIL_BUCKET in cm.lookup({"price": 550.0})


def test_delete_row_maintains_all_structures(database):
    table = database.table("items")
    index = table.create_secondary_index("price")
    cm = table.create_correlation_map(["cat2"])
    rid, row = next(iter(table.heap.scan(charge_io=False)))
    assert table.delete_row(rid) == row
    assert table.num_rows == 4999
    assert index.num_entries == 4999
    assert table.delete_row(rid) is None  # already gone


def test_row_moving_across_bucket_boundary_updates_cm(database):
    """Delete + re-insert (the engine's update) moves a row's CM target from
    its old clustered bucket to the tail bucket; a lone key is evicted."""
    table = database.table("items")
    cm = table.create_correlation_map(["itemid"])
    rid, row = next(iter(table.heap.scan(charge_io=False)))
    old_bucket = row[BUCKET_COLUMN]
    assert cm.lookup({"itemid": row["itemid"]}) == [old_bucket]
    moved = dict(table.delete_row(rid))
    # itemid is unique, so dropping its only co-occurrence evicts the key.
    assert cm.lookup({"itemid": moved["itemid"]}) == []
    table.insert_row({k: v for k, v in moved.items() if k != BUCKET_COLUMN})
    assert cm.lookup({"itemid": moved["itemid"]}) == [TAIL_BUCKET]


def test_statistics_follow_inserts_and_deletes(database):
    table = database.table("items")
    stats = table.statistics
    assert stats.total_rows == table.num_rows
    assert stats.sample_is_complete
    low, high = table.attribute_range("price")
    assert low <= high
    rid = table.insert_row(
        {"itemid": 777_777, "catid": 5, "cat2": "group0", "price": 99_999.0, "noise": 0}
    )
    assert stats.total_rows == table.num_rows
    assert table.attribute_range("price")[1] == 99_999.0
    table.delete_row(rid)
    assert stats.total_rows == table.num_rows
    assert stats.sample_is_complete


def test_reclustering_rebuilds_indexes_and_cms(database):
    table = database.table("items")
    index = table.create_secondary_index("price")
    cm = table.create_correlation_map(["cat2"])
    table.cluster_on("itemid", pages_per_bucket=4)
    # Structures were rebuilt against the new physical layout.
    rebuilt_index = table.secondary_indexes[index.name]
    assert rebuilt_index.num_entries == table.num_rows
    rebuilt_cm = table.correlation_maps[cm.name]
    assert rebuilt_cm.clustered_attribute == "itemid"
    assert rebuilt_cm.total_rows_represented == table.num_rows


def test_table_profile_and_correlation_profile(database):
    table = database.table("items")
    profile = table.table_profile()
    assert profile.total_tups == 5000
    assert profile.tups_per_page == 50
    corr = table.correlation_profile("price")
    assert corr.c_per_u == pytest.approx(1.0, abs=0.01)  # price determines catid
    weak = table.correlation_profile("noise")
    assert weak.c_per_u > 3
    assert table.attribute_cardinality("cat2") == 10


def test_pages_for_targets_value_mode_includes_tail(database):
    table = database.table("items")
    table.insert_row(
        {"itemid": 1_000_000, "catid": 7, "cat2": "group0", "price": 1.0, "noise": 0}
    )
    pages = table.pages_for_targets([7], uses_buckets=False)
    assert set(table.tail_pages()) <= set(pages)


# -- the page version summary (what Snapshot.sees_page reads) ---------------------


def live_stamps(page):
    """The ``_xmin`` / ``_xmax`` values on a page's live slots."""
    rows = [row for _slot, row in page.live_rows()]
    return (
        {row[XMIN_COLUMN] for row in rows if XMIN_COLUMN in row},
        {row[XMAX_COLUMN] for row in rows if XMAX_COLUMN in row},
    )


def test_bulk_loaded_pages_have_an_empty_version_summary(database):
    table = database.table("items")
    table.insert_row({"itemid": 99999, "catid": 5, "cat2": "group0", "price": 1.0, "noise": 1})
    assert all(
        page.creators == page.deleters == frozenset() for page in table.heap.pages
    )


def test_version_stamps_dirty_their_heap_pages(database):
    """MVCC writes are charged like any heap write: the page a version
    lands on, and the page a delete stamp lands on, are dirty in the pool."""
    table = database.table("items")
    table.buffer_pool.clear()
    row = {"itemid": 99999, "catid": 5, "cat2": "group0", "price": 1.0, "noise": 1}
    created = table.insert_version(row, 7)
    assert table.buffer_pool.is_dirty(table.heap.name, created.page_no)
    victim, _row = next(iter(table.heap.scan(charge_io=False)))
    assert not table.buffer_pool.contains(table.heap.name, victim.page_no)
    table.mark_deleted(victim, 8)
    assert table.buffer_pool.is_dirty(table.heap.name, victim.page_no)


def test_stamping_sites_keep_the_page_summary(database):
    table = database.table("items")
    row = {"itemid": 99999, "catid": 5, "cat2": "group0", "price": 1.0, "noise": 1}
    created = table.insert_version(row, 7)
    page = table.heap.pages[created.page_no]
    assert page.creators == {7} and page.deleters == frozenset()
    # A delete stamp lands on the victim's page, not the writer's last one.
    victim, _row = next(iter(table.heap.scan(charge_io=False)))
    table.mark_deleted(victim, 8)
    assert table.heap.pages[victim.page_no].deleters == {8}
    assert table.heap.pages[victim.page_no].creators == frozenset()
    assert page.deleters == frozenset()
    # Re-stamping (the first deleter aborted) and a physical delete only
    # ever leave a superset of what the live slots carry.
    table.mark_deleted(victim, 9)
    assert table.heap.pages[victim.page_no].deleters == {8, 9}
    table.delete_row(created)
    assert page.creators == {7}
    for heap_page in table.heap.pages:
        xmins, xmaxes = live_stamps(heap_page)
        assert xmins <= heap_page.creators and xmaxes <= heap_page.deleters


def test_reclustering_carries_the_summary_to_the_new_pages(database):
    table = database.table("items")
    row = {"itemid": 99999, "catid": 5, "cat2": "group0", "price": 1.0, "noise": 1}
    table.insert_version(row, 7)
    victim, _row = next(iter(table.heap.scan(charge_io=False)))
    table.mark_deleted(victim, 8)
    table.cluster_on("catid", pages_per_bucket=4)
    stamped = [page for page in table.heap.pages if page.creators or page.deleters]
    assert 1 <= len(stamped) <= 2
    for page in table.heap.pages:
        # Fresh pages: exactly the stamps of the rows re-placed on them.
        assert (set(page.creators), set(page.deleters)) == live_stamps(page)
    assert {xid for page in stamped for xid in page.creators} == {7}
    assert {xid for page in stamped for xid in page.deleters} == {8}


def test_insert_row_never_keeps_or_mutates_the_callers_mapping(database):
    table = database.table("items")
    row = {"itemid": 99999, "catid": 5, "cat2": "group0", "price": 1.0, "noise": 1}
    for rid in (table.insert_row(row), table.insert_version(row, 7)):
        stored = table.heap.fetch(rid, charge_io=False)
        assert stored is not row
        assert stored[BUCKET_COLUMN] == TAIL_BUCKET
    assert row == {"itemid": 99999, "catid": 5, "cat2": "group0", "price": 1.0, "noise": 1}
    row["price"] = 2.0
    assert table.heap.fetch(rid, charge_io=False)["price"] == 1.0
