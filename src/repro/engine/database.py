"""The Database facade: the public entry point of the execution engine.

A :class:`Database` plays the role of the PostgreSQL instance plus the
Java front-end in the paper's prototype (Figure 5): it owns the simulated
disk, the buffer pool, the WAL, all tables with their indexes and correlation
maps, rewrites and executes queries, and maintains every structure under
inserts and deletes with transactional logging.

Typical use::

    db = Database(buffer_pool_pages=2_000)
    db.create_table("items", columns=["catid", "price", "itemid"])
    db.load("items", rows)
    db.cluster("items", "catid", pages_per_bucket=10)
    db.create_correlation_map("items", ["price"], bucketers={"price": WidthBucketer(64)})
    result = db.run_query(Query.select("items", Between("price", 1000, 1100)))
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.bucketing import Bucketer
from repro.core.model import HardwareParameters
from repro.core.statistics import DEFAULT_STATS_SAMPLE_SIZE
from repro.engine.access import visible_matches
from repro.engine.executor import (
    DEFAULT_BATCH_SIZE,
    LAZY_UNBOUNDED,
    ExecutionContext,
    PlanNode,
    RowBatch,
)
from repro.engine.partition import PartitionedTable, PartitionSpec
from repro.engine.planner import Planner
from repro.engine.predicates import Predicate, PredicateSet
from repro.engine.query import Query, QueryResult
from repro.engine.schema import TableSchema
from repro.engine.table import BUCKET_COLUMN, Table
from repro.engine.transactions import (
    XMAX_COLUMN,
    XMIN_COLUMN,
    SerializationError,
    Snapshot,
    Transaction,
    TransactionManager,
)
from repro.index.secondary import SecondaryIndex
from repro.core.correlation_map import CorrelationMap
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel, DiskParameters, IOBreakdown
from repro.storage.page import RID
from repro.storage.wal import WriteAheadLog

#: Default buffer pool size (in pages).  Scaled down together with the data
#: sets from the paper's 1 GB of RAM over multi-gigabyte tables.
DEFAULT_BUFFER_POOL_PAGES = 2_000


@dataclass
class MaintenanceResult:
    """Outcome of a batch of inserts or deletes."""

    rows_affected: int = 0
    elapsed_ms: float = 0.0
    pages_written: int = 0
    log_flushes: int = 0
    dirty_evictions: int = 0

    @property
    def rows_per_second(self) -> float:
        if self.elapsed_ms <= 0:
            return float("inf")
        return self.rows_affected / (self.elapsed_ms / 1000.0)


class Database:
    """An in-process analytical database engine with correlation maps."""

    def __init__(
        self,
        *,
        disk_params: DiskParameters | None = None,
        buffer_pool_pages: int = DEFAULT_BUFFER_POOL_PAGES,
        stats_sample_size: int = DEFAULT_STATS_SAMPLE_SIZE,
        batch_size: int | None = DEFAULT_BATCH_SIZE,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive (or None for one row at a time)")
        self.disk = DiskModel(disk_params)
        #: Rows per batch pulled through the plan tree (scans align batches
        #: to page boundaries); every value reports the same rows and
        #: bit-identical simulated statistics.  ``None`` selects no code of
        #: its own: :meth:`_batches` pulls the same protocol one row at a
        #: time.  It stays accepted only because ``perf/``'s ``analytic_scan``
        #: probe assigns it (ROADMAP: re-point the probe, remove the value).
        self.batch_size = batch_size
        self.buffer_pool = BufferPool(self.disk, capacity_pages=buffer_pool_pages)
        self.wal = WriteAheadLog(self.disk)
        self.transactions = TransactionManager(self.wal)
        self.hardware = HardwareParameters.from_disk(self.disk.params)
        self.planner = Planner(self.hardware)
        self.stats_sample_size = stats_sample_size
        self.tables: dict[str, Table | PartitionedTable] = {}

    # -- DDL ---------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        *,
        columns: Sequence[str] | None = None,
        schema: TableSchema | None = None,
        sample_row: Mapping[str, Any] | None = None,
        tups_per_page: int | None = None,
        partition_by: PartitionSpec | None = None,
    ) -> Table | PartitionedTable:
        """Create a table from a schema, a column list, or an example row.

        ``partition_by`` creates the table range- or hash-partitioned on the
        spec's key instead: one child heap per partition, each on its own
        simulated device (see :class:`~repro.engine.partition.
        PartitionedTable`).  Queries over it plan through partition pruning
        and an exchange fan-out; loads and inserts route rows by the key.
        """
        if name in self.tables:
            raise ValueError(f"table {name!r} already exists")
        if schema is None:
            if sample_row is not None:
                schema = TableSchema.infer(name, sample_row)
            elif columns is not None:
                schema = TableSchema.from_columns(name, columns)
            else:
                raise ValueError("provide a schema, columns, or a sample row")
        if partition_by is not None:
            partitioned = PartitionedTable(
                schema,
                partition_by,
                self.disk,
                buffer_pool_pages=self.buffer_pool.capacity_pages,
                tups_per_page=tups_per_page,
                stats_sample_size=self.stats_sample_size,
            )
            self.tables[name] = partitioned
            return partitioned
        table = Table(
            schema,
            self.buffer_pool,
            tups_per_page=tups_per_page,
            stats_sample_size=self.stats_sample_size,
        )
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table | PartitionedTable:
        if name not in self.tables:
            raise KeyError(f"unknown table {name!r}")
        return self.tables[name]

    def load(self, name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Bulk load rows into a table (initial population)."""
        return self.table(name).load(rows)

    def cluster(
        self, name: str, attribute: str, *, pages_per_bucket: int | None = None
    ) -> None:
        """CLUSTER the table on ``attribute`` (optionally assigning bucket ids)."""
        self.table(name).cluster_on(attribute, pages_per_bucket=pages_per_bucket)

    def create_secondary_index(
        self, table: str, attributes: Sequence[str] | str, *, name: str | None = None
    ) -> SecondaryIndex | None:
        """Create a secondary index (``None`` return for partitioned tables,
        which build one per-partition index instead of a single object)."""
        return self.table(table).create_secondary_index(attributes, name=name)

    def create_correlation_map(
        self,
        table: str,
        attributes: Sequence[str] | str,
        *,
        bucketers: Mapping[str, Bucketer] | None = None,
        name: str | None = None,
        use_clustered_buckets: bool = True,
    ) -> CorrelationMap | None:
        """Create a correlation map (``None`` return for partitioned tables,
        which build one per-partition CM instead of a single object)."""
        return self.table(table).create_correlation_map(
            attributes,
            bucketers=bucketers,
            name=name,
            use_clustered_buckets=use_clustered_buckets,
        )

    # -- queries -----------------------------------------------------------------------

    def run_query(
        self,
        query: Query,
        *,
        force: str | None = None,
        force_join: str | None = None,
        cold_cache: bool = False,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
        snapshot: Snapshot | None = None,
        transaction: Transaction | None = None,
        parallel: int | None = None,
    ) -> QueryResult:
        """Plan and execute a query, returning rows/value plus I/O statistics.

        ``force`` pins the access method (one of the names in
        :data:`repro.engine.planner.FORCE_METHODS`); for a join query it pins
        the driving table's access path, and ``force_join`` pins the join
        strategy (:data:`repro.engine.planner.FORCE_JOIN_METHODS`).
        ``cold_cache=True`` empties the buffer pool first, matching the
        paper's methodology of dropping caches between measured runs.
        ``limit``/``projection`` override the query's own values; a satisfied
        LIMIT stops the plan's Limit node from pulling, which abandons every
        upstream generator so the remaining heap pages are never read.

        ``snapshot`` pins the MVCC visibility state the scan kernels filter
        against; ``transaction`` reads under that transaction's own snapshot
        (seeing its uncommitted writes).  With neither, a query over tables
        holding versioned rows runs under a fresh latest-committed snapshot
        -- and over unversioned tables the filter is skipped entirely, so
        pre-MVCC behaviour (and cost) is unchanged.

        Plan *selection* is LIMIT-aware: fully streaming candidates are
        costed for producing ``min(limit, estimated_result_rows)`` rows, so
        a very small LIMIT prefers a limit-terminated scan over a plan that
        pays many index descents up front.  A scalar aggregate consumes the
        whole matching stream (streamingly -- only the accumulator state is
        held), so ``limit``/``projection`` cannot combine with it; grouped
        aggregates accept both (the LIMIT caps the number of groups).

        ``parallel=N`` (N >= 2) executes the per-partition subtrees of a
        partitioned plan on a pool of N forked worker processes (see
        :mod:`repro.engine.parallel`); all simulated statistics stay
        bit-identical to the serial drain.  Plans the parallel path cannot
        reproduce exactly (no exchange node, fewer than two surviving
        partitions, or a LIMIT's early termination) fall back to serial.
        """
        from repro.engine.parallel import maybe_run_parallel
        from repro.engine.plan import exchange_devices

        if parallel is not None and parallel < 1:
            raise ValueError("parallel must be a positive worker count")
        plan, context = self._open(
            query,
            force=force,
            force_join=force_join,
            limit=limit,
            projection=projection,
            snapshot=snapshot,
            transaction=transaction,
        )
        if cold_cache:
            self.drop_caches()
        devices = exchange_devices(plan)
        device_snaps = [(device, device.snapshot()) for device in devices]
        before = self.disk.snapshot()
        rows: list[dict[str, Any]] | None = None
        if parallel is not None and parallel > 1:
            rows = maybe_run_parallel(self, plan, context, workers=parallel)
        if rows is None:
            rows = self._drain(plan, context)
        io = self.disk.window_since(before)
        for device, snap in device_snaps:
            io = io.add(device.window_since(snap))
        return self._build_result(query, plan, rows, context, io)

    def _open(
        self,
        query: Query,
        *,
        snapshot: Snapshot | None = None,
        transaction: Transaction | None = None,
        **planning: Any,
    ) -> tuple[PlanNode, ExecutionContext]:
        """Plan ``query`` and pin what it will see: the one open step.

        Every way of running a query -- :meth:`run_query`, :meth:`stream`,
        :meth:`stream_batches`, the scheduler's admission -- builds its plan
        (``planning``: the arguments of :meth:`_prepare`), snapshot and
        context here, then pulls :meth:`_batches`.
        """
        plan = self._prepare(query, **planning)
        visible = self._effective_snapshot(snapshot, transaction, query)
        return plan, ExecutionContext(snapshot=visible)

    def _batches(
        self, plan: PlanNode, context: ExecutionContext, batch_size: int | None
    ) -> Iterator[RowBatch]:
        """The plan's output as batches of rows the caller owns.

        Rows leaving a scan-rooted plan are live heap-page dicts, so they
        are copied here.  ``batch_size=None`` is the ``PlanNode.iter_rows``
        view: one-row batches under the lazy, unbounded demand.
        """
        size, demand = (1, LAZY_UNBOUNDED) if batch_size is None else (batch_size, None)
        batches = plan.iter_batches(context, size, demand)
        if plan.produces_fresh_rows:
            return batches
        return (RowBatch(map(dict, batch)) for batch in batches)

    def _drain(self, plan: PlanNode, context: ExecutionContext) -> list[dict[str, Any]]:
        """Pull every output row of ``plan`` at the database's batch size."""
        rows: list[dict[str, Any]] = []
        for batch in self._batches(plan, context, self.batch_size):
            rows.extend(batch)
        return rows

    def _prepare(
        self,
        query: Query,
        *,
        force: str | None,
        force_join: str | None,
        limit: int | None,
        projection: Sequence[str] | None,
    ) -> PlanNode:
        """The planning half of :meth:`_open`: coalesce overrides, validate, plan."""
        limit = query.limit if limit is None else limit
        projection = query.projection if projection is None else tuple(projection)
        scalar_aggregate = query.aggregate is not None and not query.grouping
        if scalar_aggregate and (limit is not None or projection is not None):
            raise ValueError(
                "limit/projection cannot be combined with a scalar aggregate: "
                "it reduces the full matching row stream to one value"
            )
        self._validate_query(query, projection)
        choose, _candidates, target = self._planner_route(query)
        if query.joins:
            return choose(
                target, query, force=force, force_join=force_join, limit=limit,
                projection=projection,
            )
        if force_join is not None:
            raise ValueError("force_join only applies to queries with joins")
        return choose(target, query, force=force, limit=limit, projection=projection)

    def _effective_snapshot(
        self,
        snapshot: Snapshot | None,
        transaction: Transaction | None,
        query: Query,
    ) -> Snapshot | None:
        """The snapshot one execution filters visibility against.

        An explicit snapshot wins; a transaction reads under its own pinned
        snapshot; otherwise queries over versioned tables get a fresh
        latest-committed snapshot and fully unversioned queries get ``None``
        (no filtering -- the pre-MVCC fast path).
        """
        if snapshot is not None and transaction is not None:
            raise ValueError("pass either snapshot or transaction, not both")
        if snapshot is not None:
            return snapshot
        if transaction is not None:
            return transaction.snapshot
        if any(self.table(name).mvcc_versioned for name in query.tables):
            return self.transactions.snapshot()
        return None

    def _build_result(
        self,
        query: Query,
        plan: PlanNode,
        rows: list[dict[str, Any]],
        context: ExecutionContext,
        io: IOBreakdown,
    ) -> QueryResult:
        """Fold an executed plan tree into a :class:`QueryResult`."""
        from repro.engine.plan import AggregateNode, find_node, sort_stats

        totals = plan.total_counters()
        value = None
        rows_matched = len(rows)
        if query.aggregate is not None and not query.grouping:
            aggregate_node = find_node(plan, AggregateNode)
            value = aggregate_node.value
            #: The scalar aggregate's single synthetic row is not a result
            #: row; ``rows_matched`` reports the matching rows it consumed.
            rows_matched = aggregate_node.rows_in
            rows = []
        return QueryResult(
            query=query,
            access_method=plan.method,
            rows=rows,
            value=value,
            rows_examined=totals.rows_examined,
            rows_matched=rows_matched,
            pages_visited=totals.pages_visited,
            join_probes=totals.join_probes,
            rows_emitted=plan.actual.rows_out,
            io=io,
            elapsed_ms=io.elapsed_ms(self.disk.params),
            estimated_cost_ms=plan.estimated_cost_ms,
            rewritten_sql=context.rewritten_sql,
            sort_stats=sort_stats(plan),
            plan=plan,
        )

    def stream(
        self,
        query: Query,
        *,
        force: str | None = None,
        force_join: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
        snapshot: Snapshot | None = None,
        transaction: Transaction | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Plan a query and yield matching rows as they are produced.

        The one-row-at-a-time view of :meth:`stream_batches`: nothing is
        materialised -- for joins, merged rows are produced as the outer
        scan and the inner probes interleave -- and abandoning the iterator
        after any row stops every stage (pages past the last consumed row
        are never read).  A Sort/TopK/GroupBy in the plan buffers
        internally, but the surface stays the same generator.
        """
        batches = self._stream(
            "stream",
            query,
            None,
            force=force,
            force_join=force_join,
            limit=limit,
            projection=projection,
            snapshot=snapshot,
            transaction=transaction,
        )
        return (row for batch in batches for row in batch)

    def stream_batches(
        self,
        query: Query,
        *,
        force: str | None = None,
        force_join: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
        batch_size: int | None = None,
        snapshot: Snapshot | None = None,
        transaction: Transaction | None = None,
    ) -> Iterator[RowBatch]:
        """Plan a query and yield its output as :class:`RowBatch` objects.

        Batches flow straight out of the plan's ``iter_batches`` pipeline
        and abandoning the iterator stops every stage.  Rows of scan-rooted
        plans are copied before they leave, so callers may keep or mutate
        them freely.  ``batch_size`` overrides the database default for this
        stream.  A grouped aggregate streams its group rows; a *scalar*
        aggregate is rejected -- it reduces the whole matching stream to one
        value; use :meth:`run_query`.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive")
        return self._stream(
            "stream_batches",
            query,
            batch_size or self.batch_size or DEFAULT_BATCH_SIZE,
            force=force,
            force_join=force_join,
            limit=limit,
            projection=projection,
            snapshot=snapshot,
            transaction=transaction,
        )

    def _stream(
        self, surface: str, query: Query, batch_size: int | None, **options: Any
    ) -> Iterator[RowBatch]:
        """Open ``query`` for one of the two streaming surfaces."""
        if query.aggregate is not None and not query.grouping:
            raise ValueError(f"{surface}() does not support scalar aggregates")
        plan, context = self._open(query, **options)
        return self._batches(plan, context, batch_size)

    def _planner_route(
        self, query: Query
    ) -> tuple[Callable[..., PlanNode], Callable[..., list[PlanNode]], Any]:
        """The planner entry points serving ``query``, shared by plan and explain.

        Returns the ``choose*`` method, its ``candidate_*`` twin and their
        first argument -- the table, or for joins the catalog the planner
        resolves table names against.
        A join touching any partitioned table plans partition-wise
        (co-partitioned, broadcast or repartition exchange shapes);
        genuinely unsupported layouts are rejected there with an actionable
        error.
        """
        planner = self.planner
        # self.table() raises the canonical unknown-table error.
        chain = [self.table(name) for name in query.tables]
        partitioned = any(isinstance(table, PartitionedTable) for table in chain)
        if query.joins:
            catalog = dict(self.tables)
            if partitioned:
                return (
                    planner.choose_partitioned_join,
                    planner.candidate_partitioned_join_plans,
                    catalog,
                )
            return planner.choose_join, planner.candidate_join_plans, catalog
        if partitioned:
            return planner.choose_partitioned, planner.candidate_partitioned_plans, chain[0]
        return planner.choose, planner.candidate_plans, chain[0]

    def _validate_query(self, query: Query, projection: Sequence[str] | None) -> None:
        """Check table names, column collisions and the projection.

        Merged join rows are ``{**outer, **inner}``, so a column name shared
        by two tables in the chain would silently resolve to the inner
        table's value unless it is a same-named join key (where both sides
        agree by construction).  Rather than corrupt results quietly, any
        other collision is rejected here with the ambiguous columns named;
        engine-internal columns (the clustered bucket id) are exempt.
        """
        chain = [self.table(name) for name in query.tables]
        seen_columns = set(chain[0].schema.columns)
        for table, spec in zip(chain[1:], query.joins):
            if any(
                left not in seen_columns or not table.schema.has_column(right)
                for left, right in spec.on
            ):
                # An unresolvable join column: skip collision detection for
                # this step and let the planner's _join_edges raise its
                # canonical unknown-column error during planning.
                seen_columns.update(table.schema.columns)
                continue
            shared_keys = {right for left, right in spec.on if left == right}
            ambiguous = sorted(
                column
                for column in table.schema.columns
                if column in seen_columns
                and column not in shared_keys
                and column != BUCKET_COLUMN
            )
            if ambiguous:
                raise ValueError(
                    f"ambiguous columns {ambiguous} joining {spec.table!r}: "
                    "they exist on both sides but are not same-named join "
                    "keys, so merged rows would silently take the inner "
                    "table's value; rename the columns or join on them"
                )
            seen_columns.update(table.schema.columns)
        def known(column: str) -> bool:
            return any(table.schema.has_column(column) for table in chain)

        tables_text = ", ".join(table.name for table in chain)
        for column in query.grouping:
            if not known(column):
                raise ValueError(
                    f"unknown column {column!r} in GROUP BY (tables: {tables_text})"
                )
        # Grouped queries sort/project over the *grouped* rows: the group
        # columns plus the aggregate's output column.
        grouped_output = (
            set(query.grouping) | {query.aggregate.output_name}
            if query.grouping
            else None
        )
        for column, _ascending in query.ordering:
            if grouped_output is not None:
                if column not in grouped_output:
                    raise ValueError(
                        f"unknown column {column!r} in ORDER BY: grouped rows "
                        f"carry only {sorted(grouped_output)}"
                    )
            elif not known(column):
                raise ValueError(
                    f"unknown column {column!r} in ORDER BY (tables: {tables_text})"
                )
        for column in projection or ():
            if grouped_output is not None:
                if column not in grouped_output:
                    raise ValueError(
                        f"unknown column {column!r} in projection: grouped rows "
                        f"carry only {sorted(grouped_output)}"
                    )
            elif not known(column):
                raise ValueError(
                    f"unknown column {column!r} in projection (tables: {tables_text})"
                )

    def explain(self, query: Query) -> list[dict[str, Any]]:
        """The planner's candidate plans and estimated costs (for inspection).

        Join queries list one candidate per (join order, strategy shape);
        ``structure`` spells out the left-deep pipeline, e.g.
        ``lineitem[cm_scan:cm_shipdate] -> index_nested_loop_join[orders
        (orderkey) via clustered(orderkey)]``.  The query's own LIMIT is
        honoured, so the ranking matches what :meth:`run_query` selects --
        including its validation: a query :meth:`run_query` would reject
        (ambiguous columns, unknown projection) fails here the same way.
        """
        self._validate_query(query, query.projection)
        _choose, candidates, target = self._planner_route(query)
        plans = candidates(target, query, limit=query.limit)
        return [
            {
                "method": plan.method,
                "structure": plan.structure,
                "estimated_cost_ms": plan.estimated_cost_ms,
            }
            # The planner's rank, not raw cost: ties break by structure
            # preference, so the first entry is the plan selection picks.
            for plan in sorted(plans, key=self.planner.plan_rank)
        ]

    def explain_analyze(
        self,
        query: Query,
        *,
        force: str | None = None,
        force_join: str | None = None,
        cold_cache: bool = False,
    ) -> str:
        """Execute ``query`` and render its plan tree with per-node counters.

        One line per :class:`~repro.engine.executor.PlanNode`, showing the
        planner's estimated rows/pages next to the node's actual counters
        (each node reports only its *own* work, so the columns sum to the
        whole-query totals) plus the node's estimated cost split total.  A
        footer line repeats the totals and the simulated elapsed time::

            >>> from repro.engine.database import Database
            >>> from repro.engine.query import Query
            >>> db = Database()
            >>> _ = db.create_table("t", columns=["x"])
            >>> _ = db.load("t", [{"x": i} for i in range(100)])
            >>> print(db.explain_analyze(Query.select("t", limit=3)))  # doctest: +SKIP
            limit[3]  (rows est=3 act=3, ...)
            └─ seq_scan(t: heap)  (rows est=100 act=3, ...)
            totals: 1 pages, 3 rows examined, ... ms simulated (estimated ... ms)
        """
        from repro.engine.plan import render_plan

        result = self.run_query(
            query, force=force, force_join=force_join, cold_cache=cold_cache
        )
        footer = (
            f"totals: {result.pages_visited} pages, "
            f"{result.rows_examined} rows examined, "
            f"{result.elapsed_ms:.1f} ms simulated "
            f"(estimated {result.estimated_cost_ms:.1f} ms)"
        )
        return f"{render_plan(result.plan)}\n{footer}"

    # -- DML with maintenance --------------------------------------------------------------

    def insert(
        self,
        table: str,
        rows: Iterable[Mapping[str, Any]],
        *,
        batch_size: int | None = None,
    ) -> MaintenanceResult:
        """Insert rows, maintaining heap, secondary indexes, CMs and the WAL.

        Rows are committed in batches (``batch_size=None`` commits once at the
        end), which is the data-warehouse loading pattern of Experiment 3.

        On a partitioned table each row routes to its partition's heap (and
        device); WAL maintenance logs the routed partition's CM updates,
        and per-partition device windows fold into the reported statistics.
        """
        target = self.table(table)
        rows = list(rows)
        before = self.disk.snapshot()
        device_snaps = self._device_snapshots(target)
        pool_before = self.buffer_pool.stats.dirty_evictions
        affected = 0
        # Begun with the first row of each batch, so no transaction is left
        # open when the input is empty or ends exactly on a batch boundary.
        transaction: Transaction | None = None
        for row in rows:
            rid = target.insert_row(row)
            if transaction is None:
                transaction = self.transactions.begin()
            transaction.log("insert", {"table": table, "rid": (rid.page_no, rid.slot)})
            for cm in self._maintained_cms(target, row):
                transaction.log("cm_update", {"cm": cm.name}, size_bytes=32)
            affected += 1
            if batch_size and affected % batch_size == 0:
                transaction.commit()
                transaction = None
        if transaction is not None:
            transaction.commit()
        io = self._fold_device_windows(self.disk.window_since(before), device_snaps)
        return MaintenanceResult(
            rows_affected=affected,
            elapsed_ms=io.elapsed_ms(self.disk.params),
            pages_written=io.pages_written,
            log_flushes=io.log_flushes,
            dirty_evictions=self.buffer_pool.stats.dirty_evictions - pool_before,
        )

    def _device_snapshots(
        self, target: Table | PartitionedTable
    ) -> list[tuple[DiskModel, IOBreakdown]]:
        """Per-partition device snapshots (empty for a plain table)."""
        if isinstance(target, PartitionedTable):
            return [(device, device.snapshot()) for device in target.devices]
        return []

    @staticmethod
    def _fold_device_windows(
        io: IOBreakdown, device_snaps: Sequence[tuple[DiskModel, IOBreakdown]]
    ) -> IOBreakdown:
        for device, snap in device_snaps:
            io = io.add(device.window_since(snap))
        return io

    @staticmethod
    def _maintained_cms(
        target: Table | PartitionedTable, row: Mapping[str, Any]
    ) -> Sequence[CorrelationMap]:
        """The CMs one inserted/deleted row touches (its partition's only)."""
        if isinstance(target, PartitionedTable):
            partition = target.partitions[
                target.spec.partition_of(row[target.spec.key])
            ]
            return list(partition.correlation_maps.values())
        return list(target.correlation_maps.values())

    def delete(
        self,
        table: str,
        predicates: PredicateSet | Sequence[Predicate],
    ) -> MaintenanceResult:
        """Delete every row matching ``predicates``.

        Victims are found by the writers' page walk
        (:func:`~repro.engine.access.visible_matches` without a snapshot):
        one charged read per searched page and the compiled predicate
        kernel once per page.  On a partitioned table the walk runs one
        partition heap at a time (static pruning narrows it to the
        partitions the partition-key predicate allows) and each victim is
        deleted through its partition, which keeps the global statistics.
        """
        target = self.table(table)
        if not isinstance(predicates, PredicateSet):
            predicates = PredicateSet(predicates)
        before = self.disk.snapshot()
        device_snaps = self._device_snapshots(target)
        transaction = self.transactions.begin()
        sources: list[tuple[Table, Callable[[RID], dict[str, Any] | None]]]
        if isinstance(target, PartitionedTable):
            sources = [
                (target.partitions[index], partial(target.delete_in_partition, index))
                for index in target.prune(predicates)
            ]
        else:
            sources = [(target, target.delete_row)]
        affected = 0
        for source, delete in sources:
            victims = [rid for rid, _row in visible_matches(source, predicates, None)]
            for rid in victims:
                if delete(rid) is None:
                    continue
                transaction.log(
                    "delete", {"table": table, "rid": (rid.page_no, rid.slot)}
                )
                for cm in source.correlation_maps.values():
                    transaction.log("cm_update", {"cm": cm.name}, size_bytes=32)
                affected += 1
        transaction.commit()
        io = self._fold_device_windows(self.disk.window_since(before), device_snaps)
        return MaintenanceResult(
            rows_affected=affected,
            elapsed_ms=io.elapsed_ms(self.disk.params),
            pages_written=io.pages_written,
            log_flushes=io.log_flushes,
        )

    # -- snapshot-isolated transactions ------------------------------------------------------

    def begin_transaction(self) -> Transaction:
        """Open a transaction with a pinned snapshot (snapshot isolation).

        All reads through ``run_query(..., transaction=tx)`` see the state
        as of this call plus the transaction's own writes; writes go through
        :meth:`tx_insert` / :meth:`tx_update` / :meth:`tx_delete` and become
        visible to others only after ``tx.commit()`` (2PC through the WAL).
        ``tx.abort()`` discards them without undo: aborted versions simply
        never become visible.
        """
        return self.transactions.begin()

    def _versioned_table(self, name: str) -> Table:
        """The plain table MVCC writes target (partitioned: unsupported)."""
        target = self.table(name)
        if isinstance(target, PartitionedTable):
            raise NotImplementedError(
                f"table {name!r} is partitioned: MVCC writes over partitioned "
                "tables are not supported yet"
            )
        return target

    def tx_insert(
        self, transaction: Transaction, table: str, rows: Iterable[Mapping[str, Any]]
    ) -> list[RID]:
        """Insert row versions stamped with the transaction's xid."""
        target = self._versioned_table(table)
        rows = list(rows)
        target.admit(rows)
        rids = []
        for row in rows:
            rid = target.insert_version(row, transaction.xid)
            transaction.log(
                "insert_version", {"table": table, "rid": (rid.page_no, rid.slot)}
            )
            for cm in target.correlation_maps.values():
                transaction.log("cm_update", {"cm": cm.name}, size_bytes=32)
            rids.append(rid)
        return rids

    def tx_delete(
        self,
        transaction: Transaction,
        table: str,
        predicates: PredicateSet | Sequence[Predicate],
    ) -> int:
        """MVCC delete: stamp matching visible versions with a deleting xid.

        Targets are found under the transaction's snapshot; a version whose
        current deleter is a live or committed concurrent transaction raises
        :class:`~repro.engine.transactions.SerializationError` before
        anything is stamped (first-updater-wins, so lost updates surface as
        errors instead of silently vanishing).
        """
        target = self._versioned_table(table)
        victims = self._victims(transaction, target, predicates)
        for rid, _row in victims:
            target.mark_deleted(rid, transaction.xid)
            transaction.log(
                "delete_version", {"table": table, "rid": (rid.page_no, rid.slot)}
            )
            for cm in target.correlation_maps.values():
                transaction.log("cm_update", {"cm": cm.name}, size_bytes=32)
        return len(victims)

    def tx_update(
        self,
        transaction: Transaction,
        table: str,
        predicates: PredicateSet | Sequence[Predicate],
        updates: Mapping[str, Any],
    ) -> int:
        """MVCC update: delete-stamp the old version, insert the new one.

        Both versions coexist in the heap; which one a reader sees depends
        entirely on its snapshot.  Conflict detection is the same
        first-updater-wins check as :meth:`tx_delete`, applied to every
        target before any is written, so a conflicting update changes
        nothing.
        """
        target = self._versioned_table(table)
        victims = self._victims(transaction, target, predicates)
        hidden = (XMIN_COLUMN, XMAX_COLUMN, BUCKET_COLUMN)
        if victims:  # the rest of each new version passed when it was written
            target.admit((updates,))
        for rid, row in victims:
            fresh = {
                column: value for column, value in row.items() if column not in hidden
            }
            fresh.update(updates)
            target.mark_deleted(rid, transaction.xid)
            new_rid = target.insert_version(fresh, transaction.xid)
            transaction.log(
                "update_version",
                {
                    "table": table,
                    "old": (rid.page_no, rid.slot),
                    "new": (new_rid.page_no, new_rid.slot),
                },
            )
            for cm in target.correlation_maps.values():
                transaction.log("cm_update", {"cm": cm.name}, size_bytes=32)
        return len(victims)

    def _victims(
        self,
        transaction: Transaction,
        target: Table,
        predicates: PredicateSet | Sequence[Predicate],
    ) -> list[tuple[RID, dict[str, Any]]]:
        """The versions a write targets, each conflict-checked as it is found.

        Visible to the writer's snapshot and matching, located a page at a
        time (:func:`~repro.engine.access.visible_matches`).  The list is
        complete before the caller stamps anything, so a conflicting write
        changes nothing and a write never chases its own new versions.
        """
        if not isinstance(predicates, PredicateSet):
            predicates = PredicateSet(predicates)
        victims = []
        for rid, row in visible_matches(target, predicates, transaction.snapshot):
            self._check_write_conflict(row, transaction, target.name)
            victims.append((rid, row))
        return victims

    def _check_write_conflict(
        self, row: Mapping[str, Any], transaction: Transaction, table: str
    ) -> None:
        xmax = row.get(XMAX_COLUMN)
        if xmax is not None and self.transactions.is_conflicting(
            xmax, against=transaction.xid
        ):
            raise SerializationError(
                f"write-write conflict on {table!r}: the version is already "
                f"deleted by concurrent transaction {xmax}"
            )

    # -- cache and measurement control -------------------------------------------------------

    def drop_caches(self) -> None:
        """Cold-cache every buffer pool (the paper's drop_caches between runs).

        Covers the shared pool and every partition's private pool, so a
        cold run over a partitioned table starts every device cold.
        """
        self.buffer_pool.clear()
        for table in self.tables.values():
            if isinstance(table, PartitionedTable):
                table.drop_caches()

    def checkpoint(self) -> int:
        """Flush all dirty pages and truncate the log; returns pages written."""
        written = self.buffer_pool.flush_all()
        self.wal.flush()
        self.wal.truncate()
        return written

    def elapsed_ms(self) -> float:
        """Total simulated time since the last reset, across every device."""
        total = self.disk.elapsed_ms()
        for table in self.tables.values():
            if isinstance(table, PartitionedTable):
                total += sum(device.elapsed_ms() for device in table.devices)
        return total

    def reset_measurements(self) -> None:
        self.disk.reset()
        for table in self.tables.values():
            if isinstance(table, PartitionedTable):
                table.reset_devices()
