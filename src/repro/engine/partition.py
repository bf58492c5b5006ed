"""Partitioned tables: range/hash sharding across per-partition devices.

A :class:`PartitionedTable` sits between the catalog and the storage layer:
it owns one child :class:`~repro.engine.table.Table` per partition, and each
child owns its *own* simulated device -- a private
:class:`~repro.storage.disk.DiskModel` (I/O tracker and head position) behind
a private :class:`~repro.storage.buffer_pool.BufferPool`.  Per-partition
devices are what make execution order irrelevant to the simulated counters:
whether the partitions are drained serially, interleaved by the cooperative
scheduler, or on a ``multiprocessing`` pool, every access of partition *k*
lands on device *k* and classifies against device *k*'s head alone, so the
per-device counter streams -- and their fold into whole-query totals -- are
bit-identical across execution modes.

Partition routing and planner pruning share one rule, held by
:class:`PartitionSpec`:

* ``range`` partitioning orders the key domain by ascending ``boundaries``;
  partition *k* holds values ``boundaries[k-1] <= v < boundaries[k]`` (the
  first and last partitions are open-ended).  ``Equals``/``IN`` predicates
  prune to the partitions holding their values, ``BETWEEN`` prunes to the
  contiguous span covering its bounds.
* ``hash`` partitioning routes by a *stable* CRC32 hash of ``repr(value)``
  (immune to ``PYTHONHASHSEED``, identical across worker processes);
  ``Equals``/``IN`` prune to the hashed partitions, ranges cannot prune.

Pruning is purely static -- it consults the spec and the predicate set,
never a heap page -- so planning over partitioned tables keeps the planner's
zero-heap-reads guarantee.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.predicates import PredicateSet

from repro.core.bucketing import Bucketer
from repro.core.composite import CompositeKeySpec
from repro.core.model import TableProfile
from repro.core.ordering import claim_families, columns, order_key
from repro.core.statistics import DEFAULT_STATS_SAMPLE_SIZE, IncrementalTableStatistics
from repro.engine.predicates import Between, Equals, InSet
from repro.engine.schema import TableSchema
from repro.engine.table import Table, sample_selectivity
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel
from repro.storage.page import RID


def stable_partition_hash(value: Any) -> int:
    """A process-stable hash for partition routing.

    Python's builtin ``hash`` of strings varies per process
    (``PYTHONHASHSEED``), which would route rows differently in forked
    parallel workers than in the parent.  CRC32 over ``repr`` is cheap,
    deterministic everywhere, and good enough to spread key values.  Keys
    must be consistently typed: ``1`` and ``1.0`` compare equal but render
    differently, so a mixed-type key column would split equal values.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


@dataclass(frozen=True)
class PartitionSpec:
    """How one table's rows map to partitions (and how predicates prune).

    ``method`` is ``"range"`` or ``"hash"``.  For ``range``, ``boundaries``
    holds the ``num_partitions - 1`` ascending split points; partition *k*
    holds ``boundaries[k-1] <= value < boundaries[k]``.  For ``hash``,
    ``boundaries`` is empty and values route by
    ``stable_partition_hash(value) % num_partitions``.
    """

    key: str
    method: str
    num_partitions: int
    boundaries: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("a partition spec needs a key column")
        if self.method not in ("range", "hash"):
            raise ValueError(f"unknown partition method {self.method!r}")
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be at least 1")
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        if self.method == "range":
            if len(self.boundaries) != self.num_partitions - 1:
                raise ValueError(
                    "range partitioning needs num_partitions - 1 boundaries"
                )
            for lower, upper in zip(self.boundaries, self.boundaries[1:]):
                if not lower < upper:
                    raise ValueError("range boundaries must be strictly ascending")
        elif self.boundaries:
            raise ValueError("hash partitioning takes no boundaries")

    @classmethod
    def by_range(cls, key: str, boundaries: Sequence[Any]) -> "PartitionSpec":
        """Range-partition on ``key`` with the given ascending split points."""
        bounds = tuple(boundaries)
        return cls(key=key, method="range", num_partitions=len(bounds) + 1, boundaries=bounds)

    @classmethod
    def by_hash(cls, key: str, num_partitions: int) -> "PartitionSpec":
        """Hash-partition on ``key`` into ``num_partitions`` shards."""
        return cls(key=key, method="hash", num_partitions=num_partitions)

    def partition_of(self, value: Any) -> int:
        """The partition index a row with this key value routes to."""
        if self.method == "range":
            return bisect_right(self.boundaries, order_key(value))
        return stable_partition_hash(value) % self.num_partitions

    def prune(self, predicates: "PredicateSet") -> tuple[int, ...]:
        """Partition indices that may hold matching rows (ascending).

        Static and conservative: driven by the tightest indexable predicate
        on the partition key (a necessary condition for any row to match, so
        a partition it rules out holds no matching rows).
        """
        every = tuple(range(self.num_partitions))
        predicate = predicates.on_attribute(self.key)
        if predicate is None:
            return every
        if isinstance(predicate, Equals):
            return (self.partition_of(predicate.value),)
        if isinstance(predicate, InSet):
            return tuple(sorted({self.partition_of(v) for v in predicate.values}))
        if isinstance(predicate, Between) and self.method == "range":
            low = 0 if predicate.low is None else self.partition_of(predicate.low)
            high = (
                self.num_partitions - 1
                if predicate.high is None
                else self.partition_of(predicate.high)
            )
            return tuple(range(low, high + 1))
        return every

    def layout_compatible_with(self, other: "PartitionSpec") -> bool:
        """Whether two specs shard their key domains identically.

        Equal method, partition count and boundaries mean partition *k* of
        one table can only join partition *k* of the other on the paired
        keys -- the condition for a partition-wise (co-partitioned) join.
        The key *names* may differ (``catid`` joining ``id``); only the
        value-to-partition mapping must agree.
        """
        return (
            self.method == other.method
            and self.num_partitions == other.num_partitions
            and self.boundaries == other.boundaries
        )

    def describe(self) -> str:
        return f"{self.method}({self.key}) x {self.num_partitions}"


class PartitionedTable:
    """One relation sharded over per-partition child tables and devices.

    Presents the same planner surface as :class:`~repro.engine.table.Table`
    (row counts, statistics-driven estimates, profiles) while physically
    owning ``spec.num_partitions`` children named ``{name}::p{k}``, each on
    its own simulated device.  Global statistics are maintained on top of
    the per-child ones so whole-table selectivity estimates do not depend
    on the partitioning.
    """

    def __init__(
        self,
        schema: TableSchema,
        spec: PartitionSpec,
        shared_disk: DiskModel,
        *,
        buffer_pool_pages: int,
        tups_per_page: int | None = None,
        stats_sample_size: int = DEFAULT_STATS_SAMPLE_SIZE,
    ) -> None:
        if not schema.has_column(spec.key):
            raise KeyError(
                f"partition key {spec.key!r} is not a column of table {schema.name!r}"
            )
        self.schema = schema
        self.spec = spec
        #: The database-wide device; decorator CPU above the exchange node is
        #: charged here, exactly as for unpartitioned plans.
        self.disk = shared_disk
        partitions: list[Table] = []
        devices: list[DiskModel] = []
        for index in range(spec.num_partitions):
            device = DiskModel(shared_disk.params)
            pool = BufferPool(device, buffer_pool_pages)
            child_schema = replace(schema, name=f"{schema.name}::p{index}")
            partitions.append(
                Table(
                    child_schema,
                    pool,
                    tups_per_page=tups_per_page,
                    stats_sample_size=stats_sample_size,
                )
            )
            devices.append(device)
        self.partitions: tuple[Table, ...] = tuple(partitions)
        self.devices: tuple[DiskModel, ...] = tuple(devices)
        self.tups_per_page = self.partitions[0].tups_per_page
        #: column -> value family, over every partition
        #: (:func:`~repro.core.ordering.claim_families`).
        self.families: dict[str, type] = {}
        #: Whole-table planner statistics (the children keep their own).
        self.statistics = IncrementalTableStatistics(sample_capacity=stats_sample_size)

    # -- basic properties --------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        return sum(partition.num_rows for partition in self.partitions)

    @property
    def num_pages(self) -> int:
        return sum(partition.num_pages for partition in self.partitions)

    @property
    def is_clustered(self) -> bool:
        return all(partition.is_clustered for partition in self.partitions)

    @property
    def clustered_attribute(self) -> str | None:
        return self.partitions[0].clustered_attribute

    @property
    def mvcc_versioned(self) -> bool:
        return any(partition.mvcc_versioned for partition in self.partitions)

    def all_rows(self) -> Iterable[dict[str, Any]]:
        """Every live row across all partitions (catalog / statistics use)."""
        for partition in self.partitions:
            yield from partition.all_rows()

    def prune(self, predicates: "PredicateSet") -> tuple[int, ...]:
        """Partition indices that may hold rows matching ``predicates``."""
        return self.spec.prune(predicates)

    # -- loading and physical design ---------------------------------------------

    def load(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Bulk load rows, routing each to its partition by the key."""
        key, partition_of = self.spec.key, self.spec.partition_of
        stored = [dict(row) for row in rows]
        values = columns(stored)
        claim_families(self.families, values, self.name)
        grouped: list[list[dict[str, Any]]] = [[] for _ in self.partitions]
        for row in stored:
            grouped[partition_of(row[key])].append(row)
        self.statistics.observe_rows(stored, values)
        for partition, chunk in zip(self.partitions, grouped):
            if chunk:
                # Checked above, over the whole table.  Each partition
                # copies its rows, so they sit together in memory.
                copies = [dict(row) for row in chunk]
                partition._fill(copies, columns(copies))
        return len(stored)

    def cluster_on(
        self, attribute: str, *, pages_per_bucket: int | None = None
    ) -> None:
        """Cluster every partition on ``attribute`` (per-partition heaps).

        Global statistics are left as loaded: clustering reorders rows
        without changing their user-column content, so whole-table
        selectivity estimates are unaffected.
        """
        for partition in self.partitions:
            partition.cluster_on(attribute, pages_per_bucket=pages_per_bucket)

    def create_secondary_index(
        self,
        attributes: Sequence[str] | str,
        *,
        name: str | None = None,
        order: int = 256,
    ) -> None:
        """Create the same secondary index on every partition.

        ``name``, when given, is suffixed with the partition index (index
        names are per-child and must be unique).
        """
        for index, partition in enumerate(self.partitions):
            child_name = f"{name}::p{index}" if name is not None else None
            partition.create_secondary_index(attributes, name=child_name, order=order)

    def create_correlation_map(
        self,
        attributes: Sequence[str] | str,
        *,
        bucketers: Mapping[str, Bucketer] | None = None,
        name: str | None = None,
        use_clustered_buckets: bool = True,
    ) -> None:
        """Create the same correlation map on every (clustered) partition."""
        for index, partition in enumerate(self.partitions):
            child_name = f"{name}::p{index}" if name is not None else None
            partition.create_correlation_map(
                attributes,
                bucketers=bucketers,
                name=child_name,
                use_clustered_buckets=use_clustered_buckets,
            )

    # -- maintenance --------------------------------------------------------------

    def insert_row(self, row: Mapping[str, Any], *, charge_io: bool = True) -> RID:
        """Insert one tuple into the partition its key routes to."""
        stored = dict(row)
        claim_families(self.families, columns((stored,)), self.name)
        index = self.spec.partition_of(stored[self.spec.key])
        rid = self.partitions[index].insert_row(stored, charge_io=charge_io)
        self.statistics.observe_insert(stored)
        return rid

    def delete_in_partition(self, index: int, rid: RID) -> dict[str, Any] | None:
        """Delete one tuple of partition ``index``, updating global statistics."""
        row = self.partitions[index].delete_row(rid)
        if row is not None:
            self.statistics.observe_delete(row)
        return row

    def drop_caches(self) -> None:
        """Empty every partition's buffer pool (cold-cache methodology)."""
        for partition in self.partitions:
            partition.buffer_pool.clear()

    def reset_devices(self) -> None:
        """Reset every partition device's counters and head position."""
        for device in self.devices:
            device.reset()

    # -- statistics ----------------------------------------------------------------

    def table_profile(self) -> TableProfile:
        height = max(
            (
                p.clustered_index.btree_height
                for p in self.partitions
                if p.clustered_index is not None
            ),
            default=3,
        )
        return TableProfile(
            total_tups=self.num_rows,
            tups_per_page=self.tups_per_page,
            btree_height=height,
        )

    def attribute_cardinality(self, attribute: str) -> int:
        return self.statistics.cardinality(attribute)

    def key_cardinality(self, attributes: Sequence[str] | str) -> int:
        if isinstance(attributes, str):
            attributes = [attributes]
        return self.statistics.cardinality(CompositeKeySpec.build(attributes))

    def selectivity(self, predicates: "PredicateSet") -> float:
        """Whole-table estimated fraction of rows satisfying ``predicates``."""
        return sample_selectivity(self.statistics, predicates)

    def estimate_matching_rows(self, predicates: "PredicateSet") -> float:
        """Whole-table estimated matching rows (sample selectivity x count)."""
        return self.num_rows * self.selectivity(predicates)

    def attribute_range(self, attribute: str) -> tuple[Any, Any] | None:
        return self.statistics.attribute_range(attribute)

    def describe(self) -> str:
        return (
            f"table {self.name}: {self.num_rows} rows, {self.num_pages} pages, "
            f"partitioned {self.spec.describe()}"
        )
