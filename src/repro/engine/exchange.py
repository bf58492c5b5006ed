"""Partition-wise join plumbing: merge, broadcast and repartition nodes.

Three plan nodes let joins and ORDER BY compose with partitioned storage:

``MergeExchangeNode``
    An exchange whose children each stream in a known order (per-partition
    Sort or TopK subtrees); instead of concatenating them it k-way heap
    merges the streams, so a partitioned ORDER BY never sorts the
    concatenation and a partitioned ORDER BY + LIMIT reduces to bounded
    per-partition top-k plus a merge the LIMIT stops after ``k`` pops.

``BroadcastNode``
    Replicates one small *flat* input to every partition's join subtree
    through a shared row cache: the held source plan is drained exactly
    once (by the first subtree to run, or by :meth:`prepare` in the parent
    before a fork), and every per-partition hash join builds from the
    cached rows at pure CPU cost.

``RepartitionNode``
    Hash-splits one stream into per-partition buckets by the join key,
    using the *outer* table's :class:`~repro.engine.partition.PartitionSpec`
    routing, so a join side partitioned incompatibly (or not at all) can
    still feed a partition-wise join.  The split is charged as one routing
    CPU tuple per row plus a modeled spill round-trip on the shared device
    (:meth:`~repro.storage.disk.DiskModel.charge_spill`).

All three keep the PR 9 parity contract: every fill happens exactly once at
a deterministic point of the shared-device access sequence (first pull
serially, :meth:`prepare` in the parent before a parallel fork), per-row
work inside a partition subtree is charged to that partition's private
device via the ``cpu_disk`` hook, and the merge re-merges worker-shipped
per-partition row lists (:meth:`MergeExchangeNode.set_replay_parts`)
exactly as it merged the live streams.
"""

from __future__ import annotations

import heapq
from math import ceil
from typing import TYPE_CHECKING, Any, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.partition import PartitionSpec
    from repro.storage.disk import DiskModel

from repro.core.cost import merge_comparison_count
from repro.engine.executor import (
    ExecutionContext,
    PlanNode,
    RowBatch,
    _chunk_rows,
    _sliced,
)
from repro.engine.plan import ExchangeNode, _ordering_text, sort_key_function


class MergeExchangeNode(ExchangeNode):
    """Exchange that k-way merges per-partition ordered streams.

    Each child must stream in :attr:`ordering` (the planner wraps every
    child in a Sort or TopK before building this node).  The children are
    drained **fully, in ascending partition order** before the first merged
    row is emitted -- they are blocking sort subtrees, so this adds no page
    reads, and it is what keeps serial, cooperative and process-parallel
    runs bit-identical even under a LIMIT above the merge: every mode
    drains every child completely, then merging and early termination are
    pure parent-side memory work.

    Ties across children resolve by ascending partition index -- the
    concatenation order -- which is exactly the row a stable sort of the
    concatenation would have ranked first, so merge output matches
    sort-the-concatenation row for row.

    The merge CPU (one ``log2 k`` heap operation per emitted row, the same
    count :func:`repro.core.cost.merge_comparison_count` prices) is charged
    to the shared device when the merge finishes or is abandoned, in both
    the live and the replay path.
    """

    name = "merge_exchange"

    __slots__ = ("ordering", "disk", "_replay_parts")

    def __init__(
        self,
        sources: Sequence[PlanNode],
        *,
        devices: Sequence["DiskModel | Sequence[DiskModel]"],
        partition_key: str,
        partition_method: str,
        partitions_total: int,
        ordering: Sequence[tuple[str, bool]],
        disk: "DiskModel | None" = None,
    ) -> None:
        super().__init__(
            sources,
            devices=devices,
            partition_key=partition_key,
            partition_method=partition_method,
            partitions_total=partitions_total,
        )
        self.ordering = tuple(ordering)
        self.disk = disk
        self._replay_parts: list[list[dict[str, Any]]] | None = None

    def set_replay_parts(self, parts: Sequence[Sequence[dict[str, Any]]]) -> None:
        """Merge these per-partition row lists instead of draining children.

        The parallel runner ships each worker's (already ordered) partition
        output back and hands the lists over in partition order; re-merging
        them here reproduces the serial merge bit for bit, including the
        merge CPU charge.
        """
        self._replay_parts = [list(part) for part in parts]
        self.partitions_scanned = len(self.sources)

    def _gather_parts(
        self, context: ExecutionContext, batch_size: int
    ) -> list[list[dict[str, Any]]]:
        """The per-partition ordered row lists: the replayed ones, else
        every child drained fully, in ascending partition order."""
        if self._replay_parts is not None:
            return self._replay_parts
        parts: list[list[dict[str, Any]]] = []
        self.partitions_scanned = 0
        for source in self.sources:
            self.partitions_scanned += 1
            rows: list[dict[str, Any]] = []
            for batch in source.iter_batches(context.child(), batch_size):
                rows.extend(batch)
            parts.append(rows)
        return parts

    def _merged(
        self, parts: list[list[dict[str, Any]]]
    ) -> Iterator[dict[str, Any]]:
        key_of = sort_key_function(self.ordering)
        emitted = 0
        try:
            for row in heapq.merge(*parts, key=key_of):
                emitted += 1
                yield row
        finally:
            if self.disk is not None and emitted:
                self.disk.charge_cpu_tuples(
                    int(merge_comparison_count(emitted, len(parts)))
                )

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # The children are blocking Sort/TopK subtrees, drained in full
        # before the first merged row whatever the consumer wants: an eager
        # pull.  Only the merge above them is demand-limited (closing it
        # early charges the merge CPU for the rows emitted so far).
        parts = self._gather_parts(context, batch_size)
        yield from _chunk_rows(self._merged(parts), batch_size, demand)

    def describe_detail(self) -> str:
        return f"merge[{_ordering_text(self.ordering)}], " + super().describe_detail()


class _BroadcastCache:
    """Rows of a broadcast input, shared by its per-partition nodes."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] | None = None


class BroadcastNode(PlanNode):
    """Replicate one flat input to every partition's join subtree.

    The planner creates one instance per surviving partition, all sharing a
    :class:`_BroadcastCache`; only the **first** instance holds the source
    scan plan as its child, so the source appears exactly once in the plan
    walk and its pages are charged exactly once.  The first drain (or
    :meth:`prepare`, called in the parent before a parallel fork) fills the
    cache with private row copies; every instance then emits the cached
    rows.  Per-instance consumer CPU (the hash build over the emitted rows)
    is routed to the instance's partition device through the ``cpu_disk``
    hook, which is what lets forked workers ship it back per partition.
    """

    name = "broadcast"
    produces_fresh_rows = True

    __slots__ = ("source", "cpu_disk", "table_name", "_cache")

    def __init__(
        self,
        cache: _BroadcastCache,
        *,
        cpu_disk: "DiskModel",
        table_name: str,
        source: PlanNode | None = None,
    ) -> None:
        super().__init__()
        self._cache = cache
        #: The partition device join CPU over this instance's rows lands on.
        self.cpu_disk = cpu_disk
        self.table_name = table_name
        self.source = source

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,) if self.source is not None else ()

    def prepare(self, context: ExecutionContext) -> None:
        """Fill the shared cache by draining the held source plan once."""
        if self._cache.rows is None and self.source is not None:
            self._cache.rows = [
                dict(row)
                for batch in self.source.iter_batches(context.child())
                for row in batch
            ]

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        self.prepare(context)
        rows = self._cache.rows
        if rows is None:
            raise RuntimeError(
                "broadcast cache was never filled: the source-holding node "
                "must run (or be prepared) first"
            )
        return _sliced(rows, batch_size)

    def describe_detail(self) -> str:
        return f"{self.table_name} to all partitions"


class _RepartitionCache:
    """Per-partition row buckets of a repartitioned input."""

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: list[list[dict[str, Any]]] | None = None


class RepartitionNode(PlanNode):
    """Hash-split one input stream into the outer table's partition layout.

    One instance per surviving outer partition, all sharing a
    :class:`_RepartitionCache`; the **first** instance holds the source
    plan (a flat scan, or an exchange over an incompatibly partitioned
    table) as its child.  Filling routes every source row with the outer
    spec's ``partition_of`` over ``route_column`` -- the stable-hash /
    range routing forked workers reproduce identically -- and charges one
    routing CPU tuple per row plus one spill round-trip for the bucket
    pages on the shared device.  Rows routed to pruned outer partitions
    are parked in their (never-read) buckets: they could only ever join
    outer rows the pruning already proved non-matching.
    """

    name = "repartition"
    produces_fresh_rows = True

    __slots__ = (
        "source",
        "cpu_disk",
        "spec",
        "route_column",
        "partition_index",
        "table_name",
        "disk",
        "tups_per_page",
        "_cache",
    )

    def __init__(
        self,
        cache: _RepartitionCache,
        *,
        partition_index: int,
        spec: "PartitionSpec",
        route_column: str,
        table_name: str,
        cpu_disk: "DiskModel",
        disk: "DiskModel | None",
        tups_per_page: int,
        source: PlanNode | None = None,
    ) -> None:
        super().__init__()
        self._cache = cache
        self.partition_index = partition_index
        self.spec = spec
        self.route_column = route_column
        self.table_name = table_name
        #: The partition device join CPU over this bucket's rows lands on.
        self.cpu_disk = cpu_disk
        #: The shared device the routing CPU and spill round-trip charge to.
        self.disk = disk
        self.tups_per_page = max(1, tups_per_page)
        self.source = source

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,) if self.source is not None else ()

    def prepare(self, context: ExecutionContext) -> None:
        """Drain the source once, routing every row to its outer partition."""
        if self._cache.buckets is not None or self.source is None:
            return
        spec = self.spec
        column = self.route_column
        buckets: list[list[dict[str, Any]]] = [
            [] for _ in range(spec.num_partitions)
        ]
        count = 0
        for batch in self.source.iter_batches(context.child()):
            count += len(batch)
            for row in batch:
                buckets[spec.partition_of(row[column])].append(dict(row))
        if self.disk is not None:
            self.disk.charge_cpu_tuples(count)
            self.disk.charge_spill(
                f"{self.table_name}::repart",
                ceil(count / self.tups_per_page),
            )
        self._cache.buckets = buckets

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        self.prepare(context)
        buckets = self._cache.buckets
        if buckets is None:
            raise RuntimeError(
                "repartition buckets were never filled: the source-holding "
                "node must run (or be prepared) first"
            )
        return _sliced(buckets[self.partition_index], batch_size)

    def describe_detail(self) -> str:
        return (
            f"{self.table_name} by {self.spec.method}({self.route_column}) "
            f"-> p{self.partition_index}"
        )


def prepare_plan(root: PlanNode, context: ExecutionContext) -> None:
    """Run every fill hook of the tree in the current process.

    Broadcast and repartition caches fill lazily on first pull, which is
    the right point serially; a process-parallel run must fill them in the
    *parent* before forking, so every worker inherits the filled cache and
    the shared-device charges happen exactly once.  Walk order is the plan's
    deterministic pre-order, the same order the first serial pull would
    trigger the fills in.
    """
    for node in root.walk():
        prepare = getattr(node, "prepare", None)
        if prepare is not None:
            prepare(context)
