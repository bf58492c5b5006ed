"""Tables: heap file + clustered index + secondary indexes + correlation maps.

A :class:`Table` owns all physical structures for one relation and keeps them
consistent under loads, re-clustering, inserts and deletes.  Clustering a
table on an attribute (PostgreSQL's ``CLUSTER``) physically sorts the heap,
rebuilds the clustered index, optionally assigns clustered *bucket ids*
(Section 6.1.1 -- "the CM Advisor buckets the clustered attribute by adding a
new column to the table that represents the bucket ID"), and rebuilds every
secondary index and CM against the new layout.

Rows inserted after clustering are appended to the unclustered tail of the
heap, exactly as PostgreSQL would, and are tagged with a special tail bucket
id so that correlation-map scans still find them.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Any, Iterable, Mapping, Sequence

from repro.core.bucketing import Bucketer, assign_clustered_buckets
from repro.core.composite import CompositeKeySpec
from repro.core.correlation_map import CorrelationMap
from repro.core.model import CorrelationProfile, TableProfile
from repro.core.ordering import claim_families, columns, order_key, order_keys
from repro.core.statistics import DEFAULT_STATS_SAMPLE_SIZE, IncrementalTableStatistics
from repro.engine.predicates import Between, PredicateSet
from repro.engine.schema import TableSchema
from repro.engine.transactions import XMAX_COLUMN, XMIN_COLUMN
from repro.index.clustered import ClusteredIndex
from repro.index.secondary import SecondaryIndex
from repro.storage.buffer_pool import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.page import RID

#: Name of the derived column holding the clustered bucket id.
BUCKET_COLUMN = "_cm_bucket"
#: Bucket id given to rows appended after the last clustering.
TAIL_BUCKET = -1


def sample_selectivity(
    statistics: IncrementalTableStatistics, predicates: PredicateSet
) -> float:
    """Sample selectivity of a predicate set, by the cheapest exact route.

    A set that is exactly one ``Between`` is answered by order statistics
    (:meth:`IncrementalTableStatistics.range_fraction`, two bisections);
    everything else by the sample sweep, memoised per predicate set until
    the next insert/delete.  Both routes return the same float.  Shared by
    :class:`Table` and :class:`~repro.engine.partition.PartitionedTable`.
    """
    if len(predicates) == 1:
        (predicate,) = predicates
        if type(predicate) is Between:
            return statistics.range_fraction(
                predicate.attribute, predicate.low, predicate.high
            )
    return statistics.match_fraction(predicates.matches, key=tuple(predicates))


class Table:
    """One relation and all of its access structures."""

    def __init__(
        self,
        schema: TableSchema,
        buffer_pool: BufferPool,
        *,
        tups_per_page: int | None = None,
        stats_sample_size: int = DEFAULT_STATS_SAMPLE_SIZE,
    ) -> None:
        self.schema = schema
        self.buffer_pool = buffer_pool
        page_size = buffer_pool.disk.params.page_size_bytes
        self.tups_per_page = tups_per_page or schema.tups_per_page(page_size)
        self.heap = HeapFile(schema.name, self.tups_per_page, buffer_pool)

        self.clustered_attribute: str | None = None
        self.clustered_index: ClusteredIndex | None = None
        self.pages_per_bucket: int | None = None
        self._has_buckets = False
        self._clustered_until_page = 0

        self.secondary_indexes: dict[str, SecondaryIndex] = {}
        self.correlation_maps: dict[str, CorrelationMap] = {}
        #: CM name -> True when the CM maps to clustered bucket ids.
        self._cm_uses_buckets: dict[str, bool] = {}

        #: Planner statistics maintained incrementally under inserts/deletes;
        #: planning never scans the heap (see ARCHITECTURE.md).
        self.statistics = IncrementalTableStatistics(sample_capacity=stats_sample_size)

        #: column -> the value family its first non-NULL value fixed (see
        #: :meth:`admit`).
        self.families: dict[str, type] = {}

        #: True once any row carries MVCC version columns; while False the
        #: scan kernels skip visibility filtering entirely (the pre-MVCC
        #: fast path costs existing workloads nothing).
        self.mvcc_versioned = False

    # -- basic properties --------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        return self.heap.num_tuples

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    @property
    def is_clustered(self) -> bool:
        return self.clustered_index is not None

    @property
    def has_clustered_buckets(self) -> bool:
        return self._has_buckets

    def all_rows(self) -> Iterable[dict[str, Any]]:
        """Every live row, without I/O accounting (catalog / statistics use)."""
        return self.heap.all_rows()

    def tail_pages(self) -> list[int]:
        """Heap pages appended after the last clustering (unsorted region)."""
        return list(range(self._clustered_until_page, self.heap.num_pages))

    def stream_ordering(self) -> tuple[tuple[str, bool], ...]:
        """Columns an ascending page sweep of this heap is sorted by.

        A freshly clustered heap *is* sorted by the clustered attribute, so
        until an unsorted tail grows, any sweep that visits pages in
        ascending page order emits rows in clustered-attribute order.  The
        single source of that rule: access paths and the planner's
        free-ORDER-BY analysis both consult it.
        """
        if self.clustered_attribute is not None and not self.tail_pages():
            return ((self.clustered_attribute, True),)
        return ()

    # -- loading and clustering -----------------------------------------------------

    def admit(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Check ``rows`` against the column families before a write.

        A value of another family than its column's, or of a type with
        none, raises ``TypeError`` naming the table and the column before
        any structure changes (:func:`~repro.core.ordering.claim_families`).
        """
        claim_families(self.families, columns(rows), self.name)

    def load(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Bulk load rows (initial population; no buffer-pool traffic)."""
        stored = [dict(row) for row in rows]
        values = columns(stored)
        claim_families(self.families, values, self.name)
        self._fill(stored, values)
        return len(stored)

    def _fill(self, rows: list[dict[str, Any]], values: dict[str, list[Any]]) -> None:
        """Bulk load rows that passed :meth:`admit` and that this table owns;
        ``values`` are their :func:`~repro.core.ordering.columns`."""
        self.heap.bulk_load(rows)
        self.statistics.observe_rows(rows, values)

    def cluster_on(
        self, attribute: str, *, pages_per_bucket: int | None = None
    ) -> None:
        """Physically sort the heap by ``attribute`` and rebuild structures.

        ``pages_per_bucket`` enables clustered-attribute bucketing: roughly
        that many heap pages map to each bucket id, and every row gains a
        ``_cm_bucket`` column holding its bucket id.
        """
        if not self.schema.has_column(attribute):
            raise KeyError(f"unknown column {attribute!r} in table {self.name!r}")
        placed = self.heap.rebuild_clustered(lambda row: order_key(row[attribute]))
        if self.mvcc_versioned:
            self._note_versions(placed)
        self.clustered_attribute = attribute
        self.clustered_index = ClusteredIndex(
            f"{self.name}__clustered", attribute, self.buffer_pool
        )
        page_bounds = []
        for page in self.heap.pages:
            keys = order_keys([row[attribute] for row in page.slots])
            page_bounds.append((min(keys), max(keys)))
        self.clustered_index.build(page_bounds)
        self.heap.seal()
        self._clustered_until_page = self.heap.num_pages

        self.pages_per_bucket = pages_per_bucket
        self._has_buckets = False
        if pages_per_bucket is not None:
            self._assign_buckets(placed, attribute, pages_per_bucket)

        self._rebuild_secondary_structures(placed)
        # Clustering already rewrites the whole heap (and may add the bucket
        # column), so this is the one place statistics rebuild from the rows.
        self.statistics.rebuild(row for _rid, row in placed)

    def _note_versions(self, placed: Sequence[tuple[RID, dict[str, Any]]]) -> None:
        """Tell freshly built pages the stamps their re-placed rows carry."""
        pages = self.heap.pages
        for rid, row in placed:
            xmin, xmax = row.get(XMIN_COLUMN), row.get(XMAX_COLUMN)
            if xmin is not None:
                pages[rid.page_no].note_creator(xmin)
            if xmax is not None:
                pages[rid.page_no].note_deleter(xmax)

    def _assign_buckets(
        self,
        placed: Sequence[tuple[RID, dict[str, Any]]],
        attribute: str,
        pages_per_bucket: int,
    ) -> None:
        if pages_per_bucket <= 0:
            raise ValueError("pages_per_bucket must be positive")
        tuples_per_bucket = pages_per_bucket * self.tups_per_page
        keys = order_keys([row[attribute] for _rid, row in placed])
        ids, buckets = assign_clustered_buckets(keys, tuples_per_bucket)
        for (_rid, row), bucket_id in zip(placed, ids):
            row[BUCKET_COLUMN] = bucket_id
        self.schema = self.schema.with_column(BUCKET_COLUMN)
        assert self.clustered_index is not None
        for bucket in buckets:
            first_page = placed[bucket.first_row][0].page_no
            last_page = placed[bucket.last_row][0].page_no
            self.clustered_index.register_bucket(bucket.bucket_id, first_page, last_page)
        self._has_buckets = bool(buckets)

    def _rebuild_secondary_structures(
        self, placed: Sequence[tuple[RID, dict[str, Any]]]
    ) -> None:
        """Rebuild secondary indexes and CMs over a fresh physical layout.

        ``placed`` is every live ``(RID, row)`` in physical order -- what a
        heap scan of the rebuilt file would yield -- so no structure rescans.
        """
        for name, index in list(self.secondary_indexes.items()):
            rebuilt = SecondaryIndex(
                name, index.attributes, self.buffer_pool, order=index.tree.order
            )
            rebuilt.build(placed)
            self.secondary_indexes[name] = rebuilt
        for name, cm in list(self.correlation_maps.items()):
            self.correlation_maps[name] = self._build_cm(
                name,
                cm.key_spec,
                uses_buckets=self._cm_uses_buckets[name],
                rows=(row for _rid, row in placed),
            )

    # -- bucket helpers -----------------------------------------------------------------

    def pages_for_targets(self, targets: Iterable[Any], *, uses_buckets: bool) -> list[int]:
        """Heap pages to visit for a CM lookup result.

        ``targets`` are clustered bucket ids (when the CM maps to buckets) or
        clustered-attribute values.  Rows in the unclustered tail are covered
        either by the explicit :data:`TAIL_BUCKET` target or, for value-mapped
        CMs, by conservatively adding the tail pages.
        """
        if self.clustered_index is None:
            return list(range(self.heap.num_pages))
        pages: set[int] = set()
        include_tail = False
        for target in targets:
            if uses_buckets:
                if target == TAIL_BUCKET:
                    include_tail = True
                else:
                    pages.update(self.clustered_index.pages_for_bucket(target))
            else:
                pages.update(self.clustered_index.pages_for_value(target))
        if not uses_buckets and self.tail_pages():
            include_tail = True
        if include_tail:
            pages.update(self.tail_pages())
        return sorted(pages)

    # -- secondary indexes ------------------------------------------------------------------

    def create_secondary_index(
        self, attributes: Sequence[str] | str, *, name: str | None = None, order: int = 256
    ) -> SecondaryIndex:
        if isinstance(attributes, str):
            attributes = [attributes]
        for attribute in attributes:
            if not self.schema.has_column(attribute):
                raise KeyError(f"unknown column {attribute!r}")
        name = name or f"{self.name}__idx_{'_'.join(attributes)}"
        if name in self.secondary_indexes:
            raise ValueError(f"index {name!r} already exists")
        index = SecondaryIndex(name, attributes, self.buffer_pool, order=order)
        index.build(self.heap.scan(charge_io=False))
        self.secondary_indexes[name] = index
        return index

    # -- correlation maps -----------------------------------------------------------------------

    def create_correlation_map(
        self,
        attributes: Sequence[str] | str,
        *,
        bucketers: Mapping[str, Bucketer] | None = None,
        name: str | None = None,
        use_clustered_buckets: bool = True,
    ) -> CorrelationMap:
        """Create (and build) a CM over ``attributes``.

        ``use_clustered_buckets`` makes the CM map to clustered bucket ids when
        the table was clustered with ``pages_per_bucket``; otherwise it maps to
        raw clustered-attribute values.
        """
        if self.clustered_attribute is None:
            raise RuntimeError("cluster the table before creating correlation maps")
        if isinstance(attributes, str):
            attributes = [attributes]
        for attribute in attributes:
            if not self.schema.has_column(attribute):
                raise KeyError(f"unknown column {attribute!r}")
        name = name or f"{self.name}__cm_{'_'.join(attributes)}"
        if name in self.correlation_maps:
            raise ValueError(f"correlation map {name!r} already exists")
        key_spec = CompositeKeySpec.build(attributes, bucketers)
        uses_buckets = use_clustered_buckets and self.has_clustered_buckets
        cm = self._build_cm(name, key_spec, uses_buckets=uses_buckets)
        self.correlation_maps[name] = cm
        self._cm_uses_buckets[name] = uses_buckets
        return cm

    def _build_cm(
        self,
        name: str,
        key_spec: CompositeKeySpec,
        *,
        uses_buckets: bool,
        rows: Iterable[Mapping[str, Any]] | None = None,
    ) -> CorrelationMap:
        assert self.clustered_attribute is not None
        if uses_buckets:
            cm = CorrelationMap(
                name,
                key_spec,
                self.clustered_attribute,
                target_of=methodcaller("get", BUCKET_COLUMN, TAIL_BUCKET),
            )
        else:
            cm = CorrelationMap(name, key_spec, self.clustered_attribute)
        cm.build(self.heap.all_rows() if rows is None else rows)
        return cm

    def drop_correlation_map(self, name: str) -> None:
        del self.correlation_maps[name]
        del self._cm_uses_buckets[name]

    def cm_uses_buckets(self, name: str) -> bool:
        return self._cm_uses_buckets[name]

    # -- maintenance -----------------------------------------------------------------------------

    def insert_row(self, row: Mapping[str, Any], *, charge_io: bool = True) -> RID:
        """Insert one tuple, maintaining every index and CM.

        The heap stores a copy: the caller's mapping is never kept or mutated.
        """
        return self._place(dict(row), charge_io=charge_io)

    def _place(
        self, row: dict[str, Any], *, charge_io: bool, creator: int | None = None
    ) -> RID:
        """Put ``row`` -- a dict this table owns from here on -- in the heap.

        ``creator`` is the xid a version was stamped with; its page is told
        as soon as the row sits on it, before any other structure is touched.
        """
        self.admit((row,))
        if self.has_clustered_buckets:
            row[BUCKET_COLUMN] = TAIL_BUCKET
        rid = self.heap.append(row, charge_io=charge_io)
        if creator is not None:
            self.heap.pages[rid.page_no].note_creator(creator)
        for index in self.secondary_indexes.values():
            index.insert(rid, row, charge_io=charge_io)
        for cm in self.correlation_maps.values():
            cm.insert(row)
        self.statistics.observe_insert(row)
        return rid

    def delete_row(self, rid: RID, *, charge_io: bool = True) -> dict[str, Any] | None:
        """Delete the tuple at ``rid``, maintaining every index and CM."""
        row = self.heap.fetch(rid, charge_io=False)
        if row is None:
            return None
        self.heap.delete(rid, charge_io=charge_io)
        for index in self.secondary_indexes.values():
            index.delete(rid, row, charge_io=charge_io)
        for cm in self.correlation_maps.values():
            cm.delete(row)
        self.statistics.observe_delete(row)
        return row

    # -- MVCC version writes ---------------------------------------------------------------------

    def insert_version(self, row: Mapping[str, Any], xid: int) -> RID:
        """Insert a new row *version* stamped with its creating transaction.

        The row gains a hidden ``_xmin`` column and is placed like any
        inserted row, so secondary indexes, CMs and statistics all see
        it immediately -- index probes may surface versions invisible to a
        given snapshot, and the scan kernels' visibility filter drops them,
        exactly as residual predicates drop CM false positives.  The page
        it lands on records ``xid`` among its creators (the version summary
        ``Snapshot.sees_page`` reads).
        """
        versioned = dict(row)
        versioned[XMIN_COLUMN] = xid
        self.mvcc_versioned = True
        return self._place(versioned, charge_io=True, creator=xid)

    def mark_deleted(self, rid: RID, xid: int) -> dict[str, Any] | None:
        """MVCC delete: stamp the version at ``rid`` with a deleting xid.

        Nothing is physically removed -- the version stays in the heap (and
        in every index and CM) so concurrent snapshots that predate the
        deleting transaction keep seeing it; readers past it filter it out.
        The page is dirtied like any in-place write and records ``xid``
        among its deleters -- before the stamp lands, and for good: an
        aborted deleter stays in the summary, which no snapshot sees and so
        costs readers nothing.  Statistics are *not* adjusted here: the
        physical row count is unchanged until a future vacuum reclaims dead
        versions.
        """
        row = self.heap.fetch(rid, charge_io=False)
        if row is None:
            return None
        self.buffer_pool.access(self.heap.name, rid.page_no, dirty=True)
        self.heap.pages[rid.page_no].note_deleter(xid)
        row[XMAX_COLUMN] = xid
        self.mvcc_versioned = True
        return row

    # -- statistics --------------------------------------------------------------------------------

    def table_profile(self) -> TableProfile:
        height = self.clustered_index.btree_height if self.clustered_index else 3
        return TableProfile(
            total_tups=self.heap.num_tuples,
            tups_per_page=self.tups_per_page,
            btree_height=height,
        )

    def correlation_profile(
        self, unclustered: CompositeKeySpec | str | Sequence[str]
    ) -> CorrelationProfile:
        """Table 2 statistics of (Au, clustered attribute).

        Served from the incrementally-maintained sample: exact while the
        sample still holds every live row, estimated beyond that.  Never
        scans the heap.
        """
        if self.clustered_attribute is None:
            raise RuntimeError("the table is not clustered")
        if isinstance(unclustered, (list, tuple)):
            unclustered = CompositeKeySpec.build(unclustered)
        return self.statistics.correlation_profile(unclustered, self.clustered_attribute)

    def attribute_cardinality(self, attribute: str) -> int:
        return self.statistics.cardinality(attribute)

    def key_cardinality(self, attributes: Sequence[str] | str) -> int:
        """Distinct-value count of a (possibly composite) key, from the sample."""
        if isinstance(attributes, str):
            attributes = [attributes]
        return self.statistics.cardinality(CompositeKeySpec.build(attributes))

    def selectivity(self, predicates: PredicateSet) -> float:
        """Estimated fraction of live rows satisfying ``predicates``.

        The one selectivity entry point (see :func:`sample_selectivity`):
        served entirely from the reservoir sample, never from the heap.
        """
        return sample_selectivity(self.statistics, predicates)

    def estimate_matching_rows(self, predicates: PredicateSet) -> float:
        """Estimated rows satisfying ``predicates`` (sample selectivity x count).

        Used by LIMIT-aware plan selection and join-cardinality estimation.
        """
        return self.num_rows * self.selectivity(predicates)

    def attribute_range(self, attribute: str) -> tuple[Any, Any] | None:
        """Incrementally-maintained ``(min, max)`` of ``attribute``."""
        return self.statistics.attribute_range(attribute)

    def describe(self) -> str:
        parts = [
            f"table {self.name}: {self.num_rows} rows, {self.num_pages} pages",
            f"clustered on {self.clustered_attribute}" if self.is_clustered else "heap",
        ]
        if self.secondary_indexes:
            parts.append(f"{len(self.secondary_indexes)} secondary indexes")
        if self.correlation_maps:
            parts.append(f"{len(self.correlation_maps)} correlation maps")
        return ", ".join(parts)
