"""Every bulk build path equals the per-row fold it replaces, bit for bit.

A load observes its rows with ``IncrementalTableStatistics.observe_rows``
(and a CLUSTER re-seeds with ``rebuild``), a CM is built with one counting
pass (``CorrelationMap.build``), a heap is filled page by page
(``HeapFile.bulk_load`` / ``rebuild_clustered``).  The oracle for each is
the per-row path that stays the insert path -- ``observe_insert``,
``CorrelationMap.insert``, ``HeapFile.append`` -- run on the very same row
objects, and the comparison is on the internal state itself: reservoir
contents and their order, the slot index, the random stream, the bounds and
their key order, the map's dict order and counters.
"""

import math
from operator import methodcaller

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketing import WidthBucketer
from repro.core.composite import BucketConstraint, CompositeKeySpec
from repro.core.correlation_map import CorrelationMap
from repro.core.statistics import IncrementalTableStatistics
from repro.engine.database import Database
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel
from repro.storage.heap import HeapFile
from repro.storage.page import RID

#: One NaN object shared by many rows besides fresh ones: the value order
#: places every NaN alike, whatever its identity.
SHARED_NAN = math.nan

numbers = st.one_of(
    st.integers(-5, 5),
    st.floats(-4, 4, allow_nan=False, width=16),
    st.sampled_from([SHARED_NAN, math.inf, -math.inf, True, False]),
    st.builds(float, st.just("nan")),
    st.none(),
)
#: Column -> its values: one family each, with NULLs (and NaN where numeric).
SCALARS = {
    "a": numbers,
    "b": st.one_of(st.sampled_from(["", "x", "y", "zz"]), st.none()),
    "c": numbers,
}
COLUMNS = tuple(SCALARS)


@st.composite
def row_batches(draw, max_size=50):
    """Rows over one column set (in any key order), or ragged rows."""
    if draw(st.booleans()):
        ragged = st.lists(st.sampled_from(COLUMNS), unique=True).flatmap(
            lambda chosen: st.fixed_dictionaries({c: SCALARS[c] for c in chosen})
        )
        return draw(st.lists(ragged, max_size=max_size))
    columns = draw(st.permutations(COLUMNS))
    rows = st.fixed_dictionaries({column: SCALARS[column] for column in columns})
    return draw(st.lists(rows, max_size=max_size))


def observed_state(stats):
    """Everything an observation moves, compared by identity where it can be."""
    reservoir = stats._reservoir
    return {
        "items": [id(row) for row in reservoir._items],
        "slot_of": list(reservoir._slot_of.items()),
        "seen": reservoir.items_seen,
        "rng": reservoir._rng.getstate(),
        "minmax": [
            (a, None if bounds is None else tuple(map(id, bounds)))
            for a, bounds in stats._minmax.items()
        ],
        "total_rows": stats.total_rows,
        "sorted_columns": {
            attribute: [id(value) for value in run.items]
            for attribute, run in stats._sorted_columns.items()
        },
        "caches": (
            dict(stats._profile_cache),
            dict(stats._cardinality_cache),
            dict(stats._selectivity_cache),
        ),
    }


def reference_rebuild(stats, rows):
    """The per-row re-seed ``rebuild`` replaced, written out."""
    stats._reset()
    for row in rows:
        stats._total_rows += 1
        stats._reservoir.add(row)
        for attribute, value in row.items():
            stats._observe_value(attribute, value)


class TestObserveRows:
    @given(
        before=row_batches(max_size=20),
        batch=row_batches(),
        capacity=st.integers(1, 40),
        sorted_column=st.sampled_from([None, *COLUMNS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_one_observe_insert_per_row(self, before, batch, capacity, sorted_column):
        bulk, folded = (
            IncrementalTableStatistics(sample_capacity=capacity) for _ in range(2)
        )
        for stats in (bulk, folded):
            for row in before:
                stats.observe_insert(row)
            if sorted_column is not None:
                stats.range_fraction(sorted_column, None, None)  # builds the column
            stats.match_fraction(lambda row: True, key="memo")
        bulk.observe_rows(batch)
        for row in batch:
            folded.observe_insert(row)
        assert observed_state(bulk) == observed_state(folded)

    @given(before=row_batches(max_size=20), rows=row_batches(), capacity=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_rebuild_equals_the_per_row_reseed(self, before, rows, capacity):
        bulk, folded = (
            IncrementalTableStatistics(sample_capacity=capacity) for _ in range(2)
        )
        for stats in (bulk, folded):
            for row in before:
                stats.observe_insert(row)
            stats.range_fraction("a", None, None)
        bulk.rebuild(iter(rows))
        reference_rebuild(folded, rows)
        assert observed_state(bulk) == observed_state(folded)

    def test_a_load_into_a_table_with_built_sorted_columns_follows_the_reservoir(self):
        """Past capacity a load evicts; a built sorted column follows each decision."""
        rows = [{"id": i, "v": (i * 7) % 11} for i in range(60)]

        def loaded(bulk):
            db = Database(buffer_pool_pages=50, stats_sample_size=16)
            db.create_table("t", sample_row=rows[0], tups_per_page=8)
            db.load("t", rows[:10])
            stats = db.table("t").statistics
            assert stats.range_fraction("v", 2, 6) is not None
            if bulk:
                db.load("t", rows[10:])
            else:
                for row in rows[10:]:
                    stored = dict(row)
                    db.table("t").heap.append(stored, charge_io=False)
                    stats.observe_insert(stored)
            return db, stats

        (_db_a, bulk), (_db_b, folded) = loaded(True), loaded(False)
        assert bulk._sorted_columns["v"].items == folded._sorted_columns["v"].items
        assert [row["id"] for row in bulk.sample_rows] == [
            row["id"] for row in folded.sample_rows
        ]
        assert bulk.range_fraction("v", 2, 6) == folded.range_fraction("v", 2, 6)
        assert bulk.attribute_range("v") == folded.attribute_range("v") == (0, 10)


# -- correlation maps ----------------------------------------------------------------

cm_values = st.one_of(
    st.integers(-20, 20),
    st.sampled_from([SHARED_NAN, None]),
    st.builds(float, st.just("nan")),
)

CM_SHAPES = {
    "plain": lambda: CorrelationMap("cm", CompositeKeySpec.build(["a"]), "c"),
    "composite": lambda: CorrelationMap("cm", CompositeKeySpec.build(["a", "b"]), "c"),
    "bucketed": lambda: CorrelationMap(
        "cm",
        CompositeKeySpec.build(["n"], {"n": WidthBucketer(4.0)}),
        "m",
        target_of=lambda row, b=WidthBucketer(3.0): b.bucket(row["m"]),
    ),
    "bucketed composite": lambda: CorrelationMap(
        "cm", CompositeKeySpec.build(["n", "a"], {"n": WidthBucketer(5.0)}), "c"
    ),
    "bucket ids": lambda: CorrelationMap(
        "cm",
        CompositeKeySpec.build(["a"]),
        "c",
        target_of=methodcaller("get", "_bucket", -1),
    ),
}


def cm_rows(max_size=60):
    return st.lists(
        st.fixed_dictionaries(
            {
                "a": cm_values,
                "b": st.sampled_from(["u", "v", "w"]),
                "c": cm_values,
                "n": st.integers(-30, 30),
                "m": st.floats(-9, 9, allow_nan=False, width=16),
            },
            optional={"_bucket": st.integers(0, 3)},
        ),
        max_size=max_size,
    )


def cm_state(cm):
    return {
        "mapping": [(key, list(targets.items())) for key, targets in cm._mapping.items()],
        "entries": cm.total_entries,
        "key_bytes": cm._key_bytes,
        "total_rows": cm.total_rows_represented,
        "directory": None if cm._directory is None else list(cm._directory.items),
    }


RANGES = [
    [BucketConstraint(0, None, -8, 8)],
    [BucketConstraint(0, None, None, 0)],
    [BucketConstraint(0, None, "p", None)],
    [BucketConstraint(0, None, 0, 12), BucketConstraint(1, None, "u", "u")],
]


class TestCorrelationMapBuild:
    @given(
        shape=st.sampled_from(sorted(CM_SHAPES)),
        before=cm_rows(max_size=15),
        rows=cm_rows(),
        directory=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_one_insert_per_row(self, shape, before, rows, directory):
        bulk, folded = CM_SHAPES[shape](), CM_SHAPES[shape]()
        for cm in (bulk, folded):
            for row in before:
                cm.insert(row)
            if directory:
                cm._key_directory()
        bulk.build(iter(rows))
        for row in rows:
            folded.insert(row)
        assert cm_state(bulk) == cm_state(folded)
        for constraints in RANGES:
            constraints = constraints[: len(bulk.key_spec)]
            try:
                expected = list(folded.matching_keys(constraints))
            except TypeError:  # a bound that does not compare with the keys
                continue
            assert list(bulk.matching_keys(constraints)) == expected


# -- heap pages ------------------------------------------------------------------------


def make_heap(tups_per_page):
    pool = BufferPool(DiskModel(), capacity_pages=8)
    return HeapFile("t", tups_per_page, pool)


def page_layout(heap):
    return [
        (
            page.page_no,
            page.capacity,
            [None if row is None else id(row) for row in page.slots],
            [id(row) for row in page.live],
            page.creators,
            page.deleters,
        )
        for page in heap.pages
    ]


class TestHeapBulkPaths:
    @given(
        tups_per_page=st.integers(1, 7),
        before=st.integers(0, 20),
        deletes=st.lists(st.integers(0, 19), max_size=6),
        sealed=st.booleans(),
        count=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_bulk_load_places_rows_where_append_would(
        self, tups_per_page, before, deletes, sealed, count
    ):
        rows = [{"x": i} for i in range(count)]
        prefix = [{"x": -i} for i in range(before)]
        heaps = [make_heap(tups_per_page) for _ in range(2)]
        for heap in heaps:
            rids = [heap.append(row, charge_io=False) for row in prefix]
            for position in deletes:
                if position < len(rids):
                    heap.delete(rids[position], charge_io=False)
            if sealed:
                heap.seal()
        bulk, folded = heaps
        bulk.bulk_load(list(rows))
        for row in rows:
            folded.append(row, charge_io=False)
        assert page_layout(bulk) == page_layout(folded)
        assert bulk.num_tuples == folded.num_tuples
        assert bulk.buffer_pool.stats.accesses == 0

    @given(
        tups_per_page=st.integers(1, 7),
        keys=st.lists(st.integers(0, 9), max_size=40),
        deletes=st.lists(st.integers(0, 39), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_rebuild_clustered_equals_sorted_appends(self, tups_per_page, keys, deletes):
        heap = make_heap(tups_per_page)
        rids = [heap.append({"k": key, "i": i}) for i, key in enumerate(keys)]
        for position in deletes:
            if position < len(rids):
                heap.delete(rids[position])
        live = list(heap.all_rows())

        placed = heap.rebuild_clustered(lambda row: row["k"])

        reference = make_heap(tups_per_page)
        expected = [
            (reference.append(row, charge_io=False), row)
            for row in sorted(live, key=lambda row: row["k"])
        ]
        assert [(rid, id(row)) for rid, row in placed] == [
            (rid, id(row)) for rid, row in expected
        ]
        assert page_layout(heap) == page_layout(reference)
        assert heap.num_tuples == len(live)
        assert all(isinstance(rid, RID) for rid, _row in placed)
