"""The build path makes one pass per structure (call counters, no wall clock).

Loading, CLUSTER, CREATE INDEX and CREATE CM each build in bulk: a load
fills heap pages a page at a time and observes its rows with one
``observe_rows``; CLUSTER refills the sorted heap the same way and rebuilds
every structure from the rows it placed; a CM counts its pairs in one
streamed pass.  None of them replays the per-row maintenance path, which
stays the insert path -- these guards spy on its three entry points
(``IncrementalTableStatistics.observe_insert``, ``CorrelationMap.insert``,
``HeapFile.append``) and expect zero calls through a whole set-up, flat and
partitioned, and exactly one each for an inserted row afterwards.  The
built structures must still be the recorded ones, pinned at the commit
where every build step ran per row.
"""

import pytest

from repro.bench.harness import ebay_price_bucketer
from repro.core.correlation_map import CorrelationMap
from repro.core.statistics import IncrementalTableStatistics
from repro.datasets.ebay import EbayConfig, generate_items
from repro.engine.database import Database
from repro.engine.partition import PartitionSpec
from repro.storage.heap import HeapFile

PER_ROW_PATHS = (
    (IncrementalTableStatistics, "observe_insert"),
    (CorrelationMap, "insert"),
    (HeapFile, "append"),
)


@pytest.fixture()
def per_row_calls(monkeypatch):
    """Calls so far into each per-row maintenance entry point, by name."""
    calls = {f"{owner.__name__}.{name}": 0 for owner, name in PER_ROW_PATHS}
    for owner, name in PER_ROW_PATHS:
        original = getattr(owner, name)

        def spy(*args, _original=original, _key=f"{owner.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


def _build(db, table):
    """The ``cm_lookup`` set-up: load, CLUSTER, CREATE INDEX, six CMs, re-CLUSTER."""
    rows = generate_items(EbayConfig(num_categories=40, items_per_category=(75, 125), seed=11))
    db.create_table(table, sample_row=rows[0], tups_per_page=50, **_layout(table))
    db.load(table, rows)
    db.cluster(table, "catid", pages_per_bucket=4)
    db.create_secondary_index(table, "price")
    db.create_correlation_map(
        table, ["price"], bucketers={"price": ebay_price_bucketer(12)}, name="cm_price"
    )
    for attribute in ("cat2", "cat3", "cat4", "cat5", "cat6"):
        db.create_correlation_map(table, [attribute])
    db.cluster(table, "catid", pages_per_bucket=4)  # rebuilds the index and CMs
    return rows


def _layout(table):
    return {"partition_by": PartitionSpec.by_hash("catid", 4)} if table == "parts" else {}


def test_building_dispatches_nothing_per_row(per_row_calls):
    db = Database(buffer_pool_pages=200)
    rows = _build(db, "items")
    assert per_row_calls == dict.fromkeys(per_row_calls, 0)

    items = db.table("items")
    assert (items.num_rows, items.num_pages) == (len(rows), 81) == (4014, 81)
    assert items.statistics.total_rows == len(rows)
    assert items.statistics.sample_is_complete
    assert items.attribute_range("price") == (293.41, 998155.27)
    assert items.attribute_range("_cm_bucket") == (0, 15)
    assert [
        (cm.distinct_keys, cm.total_entries, cm.size_bytes(), cm.total_rows_represented)
        for cm in items.correlation_maps.values()
    ] == [
        (43, 47, 1252, 4014),
        (5, 19, 337, 4014),
        (10, 23, 484, 4014),
        (9, 24, 474, 4014),
        (5, 19, 326, 4014),
        (3, 17, 260, 4014),
    ]
    (index,) = items.secondary_indexes.values()
    assert (index.tree.num_entries, index.tree.height, index.size_pages()) == (4014, 2, 14)

    db.insert("items", [dict(rows[0], itemid=-1)])
    assert per_row_calls == dict.fromkeys(per_row_calls, 1) | {
        "CorrelationMap.insert": len(items.correlation_maps)
    }


def test_building_a_partitioned_table_dispatches_nothing_per_row(per_row_calls):
    db = Database(buffer_pool_pages=200)
    rows = _build(db, "parts")
    assert per_row_calls == dict.fromkeys(per_row_calls, 0)

    parts = db.table("parts")
    assert parts.num_rows == parts.statistics.total_rows == len(rows) == 4014
    assert [partition.num_rows for partition in parts.partitions] == [913, 1083, 880, 1138]
    assert [partition.statistics.total_rows for partition in parts.partitions] == [
        913, 1083, 880, 1138
    ]
    assert parts.attribute_range("price") == (293.41, 998155.27)
    assert sum(
        cm.total_rows_represented
        for partition in parts.partitions
        for cm in partition.correlation_maps.values()
    ) == 6 * len(rows)
