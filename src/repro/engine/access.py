"""Access paths: how a selection actually reads the table.

Four access methods are implemented, mirroring Sections 3 and 5 of the paper:

``SeqScan``
    Read every heap page sequentially and filter.

``PipelinedIndexScan``
    Probe the secondary B+Tree per predicated value and fetch each matching
    tuple immediately, in index order -- one random heap page read per tuple.
    This is the access pattern whose cost explodes without correlations.

``SortedIndexScan``
    PostgreSQL's bitmap heap scan (the paper's "sorted index scan"): probe the
    secondary B+Tree for all predicated values, collect the RIDs, sort them
    into a page bitmap and sweep the heap in page order.

``CorrelationMapScan``
    The CM-based plan: look up the predicated values in the CM, rewrite the
    query into clustered-index lookups on the returned clustered values (or
    clustered bucket ids), sweep those page ranges and re-apply the original
    predicate to drop false positives.

Every path runs through :meth:`AccessPath.iter_batches` -- the one execution
protocol of :mod:`repro.engine.executor` -- under an
:class:`~repro.engine.executor.ExecutionContext` that carries the counters
and the MVCC snapshot.  Rows are the live heap-page dicts.

**One page sweep.**  Every charged heap walk -- a query's scan and a
writer's victim search alike -- reads pages through one kernel,
:meth:`AccessPath._sweep`: the path's pages
(:meth:`AccessPath._target_pages`), read in runs through
:meth:`~repro.storage.heap.HeapFile.read_pages`, each counted in
``pages_visited`` and its live list filtered once through
:meth:`AccessPath._page_filter` (under a snapshot the page rule over the
page's version summary, the per-row visibility filter only where that rule
does not settle the page, then the compiled predicate kernel: no predicate
dispatch per row).  It yields ``(page, live, survivors)`` and charges no
row.  Its consumers differ in delivery and charging only, and the demand
alone picks one: an eager pull (``demand=None``) and the fused projection
take runs of whole pages and charge each page's ``len(live)``, once per
run (:meth:`AccessPath._page_batches`); a lazy pull -- a LIMIT above, either
side of a probe join, :meth:`AccessPath.iter_rows` -- takes one page per
read and charges each survivor by its *position in the unfiltered live
list* (:meth:`AccessPath._stream`), so abandoning it after any row leaves
the counters of a row-by-row loop stopped there, and later pages are never
read.  The writers' victim search (:func:`visible_matches`) turns
survivors into RIDs and charges no row.

The live list every consumer reads is the page's own
:attr:`~repro.storage.page.Page.live`: built on the first read of the
page, shared by every later one until a write.  No sweep copies it and
nothing mutates it -- ``Page.append`` / ``Page.delete`` drop it and the
next read builds a fresh one -- so a lazy sweep holding a page's list while
its consumer deletes from that page still walks, yields and charges the
rows it was handed, and its identity walk stays exact.

Join operators reuse the same paths for their inner side:
:class:`InnerPathBuilder` binds one outer row's join-key values into
``Equals`` predicates and instantiates a fresh access path per probe, so an
index-nested-loop join is nothing more than a stream of tiny single-table
queries against the inner table.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.correlation_map import CorrelationMap
from repro.core.rewriter import QueryRewriter
from repro.engine.executor import (
    DEFAULT_BATCH_SIZE,
    ExecutionContext,
    RowBatch,
    _chunk_rows,
    _truncated_batches,
)
from repro.engine.predicates import Between, Equals, InSet, PredicateSet
from repro.engine.table import BUCKET_COLUMN, Table
from repro.engine.transactions import Snapshot
from repro.index.bitmap import PageBitmap
from repro.index.secondary import SecondaryIndex
from repro.storage.page import RID, Page


#: One page's rows: the live list a sweep reads, or what a filter keeps of it.
_Rows = list[dict[str, Any]]


def _keep_all(live: _Rows) -> _Rows:
    """The page filter of a sweep with no predicate and no snapshot."""
    return live


def _one_by_one(
    page_filter: Callable[..., _Rows], live: _Rows, page: Page | None
) -> Iterator[dict[str, Any]]:
    """``page_filter`` applied lazily, one live row per pull."""
    for row in live:
        yield from page_filter([row]) if page is None else page_filter([row], page)


class AccessPath:
    """Base class for executable access paths."""

    name = "access"

    def __init__(self, table: Table, predicates: PredicateSet) -> None:
        self.table = table
        self.predicates = predicates

    # -- streaming interface ----------------------------------------------------

    def iter_rows(self, context: ExecutionContext | None = None) -> Iterator[dict[str, Any]]:
        """Matching rows one at a time: the lazy pull, without the batches.

        What a probe join runs per outer row.  Equivalent to flattening
        ``iter_batches(context, 1, LAZY_UNBOUNDED)``.
        """
        yield from self._stream(context or ExecutionContext())

    def _stream(self, context: ExecutionContext) -> Iterator[dict[str, Any]]:
        """This path's row generator: the lazy delivery of :meth:`_sweep`.

        One page per read; each page's survivors leave one at a time, and
        each is charged on its way out by its position in the **unfiltered**
        live list: yielding the row at live position ``p`` brings the page's
        ``rows_examined`` share to ``p + 1``, and a page swept to its end
        charges ``len(live)``.  A consumer that abandons the generator after
        its k-th match (a LimitNode, a probe join under a demand) therefore
        leaves exactly the counters a row-at-a-time loop would have left --
        every live row up to and including that match examined, later pages
        never read.  Position is by *identity* (the survivors are the live
        list's own dicts), never by dict equality.
        """
        counters = context.counters
        for _page, live, survivors in self._sweep(context, 1):
            position = charged = 0
            try:
                for row in survivors:
                    while live[position] is not row:
                        position += 1
                    position += 1
                    counters.rows_examined += position - charged
                    charged = position
                    yield row
                counters.rows_examined += len(live) - charged
                charged = len(live)
            finally:
                # CPU is charged once per page (the counter is purely additive
                # so the total matches per-tuple charging); the finally makes
                # the charge land even when the consumer abandons the stream
                # mid-page.
                self._charge_cpu(charged)

    def _target_pages(self, context: ExecutionContext) -> Sequence[int]:
        """The heap pages this path sweeps, in sweep order.

        The single per-path enumeration :meth:`_sweep` reads; any upfront
        work (index probes, CM rewrites, descent charges) happens here,
        once, whichever delivery runs.
        """
        raise NotImplementedError

    def iter_batches(
        self,
        context: ExecutionContext | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        demand: int | None = None,
    ) -> Iterator[RowBatch]:
        """Stream matching rows as page-aligned batches.

        Semantics of ``demand`` follow
        :meth:`repro.engine.executor.PlanNode.iter_batches`: an eager pull
        reads pages in runs of up to ``batch_size`` rows' worth, a lazy pull
        one page at a time.  Scan batches hold the live heap-page dicts; copy
        before mutating.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        context = context or ExecutionContext()
        if demand is not None and demand <= 0:
            return
        stream = self._stream_batches(context, batch_size, demand)
        yield from _truncated_batches(stream, demand)

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # A lazy pull carries per-row semantics: serve it through the lazy
        # delivery (rows produced one at a time, delivered in batches),
        # whose positional charging is exact wherever the consumer stops.
        if demand is not None:
            yield from _chunk_rows(self._stream(context), batch_size, demand)
            return
        yield from self._page_batches(context, batch_size)

    def project_batches(
        self, context: ExecutionContext, batch_size: int, columns: Sequence[str]
    ) -> Iterator[RowBatch]:
        """Fused scan→filter→project batch production.

        The eager delivery with the projection folded into the compiled
        per-page kernel (see
        :meth:`~repro.engine.predicates.PredicateSet.batch_kernel`), so a
        ProjectNode sitting directly on a scan materialises no intermediate
        full-width batch; predicates still see the full rows.
        """
        yield from self._page_batches(context, batch_size, tuple(columns))

    def _page_batches(
        self,
        context: ExecutionContext,
        batch_size: int,
        project: tuple[str, ...] | None = None,
    ) -> Iterator[RowBatch]:
        """The eager delivery of :meth:`_sweep`: whole pages per batch.

        Pages are read in runs sized to round ``batch_size`` up to whole
        pages; each run is charged the sum of its pages' ``len(live)`` (every
        page is swept to its end, so that is the total the lazy delivery
        reaches when drained), also when a filter raises mid-run, and a batch
        leaves between runs once it holds ``batch_size`` rows.  Reading ahead
        is safe because nothing pulls eagerly from beneath an operator that
        issues I/O between two rows: a probe join pulls its outer lazily.
        """
        counters = context.counters
        pages_per_read = max(1, -(-batch_size // max(1, self.table.heap.tups_per_page)))
        batch = RowBatch()
        examined = 0
        swept = self._sweep(context, pages_per_read, project)
        try:
            for count, (_page, live, survivors) in enumerate(swept, 1):
                examined += len(live)
                batch.extend(survivors)
                # Every run but the last holds exactly ``pages_per_read`` pages.
                if count % pages_per_read:
                    continue
                counters.rows_examined += examined
                self._charge_cpu(examined)
                examined = 0
                if len(batch) >= batch_size:
                    yield batch
                    batch = RowBatch()
        finally:
            if examined:
                counters.rows_examined += examined
                self._charge_cpu(examined)
        if batch:
            yield batch

    def output_ordering(self) -> tuple[tuple[str, bool], ...]:
        """Columns the emitted stream is sorted by, as ``(column, ascending)``.

        Every sweep-style path (sequential, sorted-index/bitmap, clustered,
        CM) visits heap pages in ascending page order, so its output carries
        the heap's :meth:`~repro.engine.table.Table.stream_ordering` -- the
        clustered attribute, while no unsorted tail has grown.  The planner
        uses this to plan ``ORDER BY`` sorts away (and
        :class:`PipelinedIndexScan` overrides it: that path emits in
        index-probe order, not heap order).
        """
        return self.table.stream_ordering()

    # -- the one page sweep -----------------------------------------------------

    def _visibility(
        self, context: ExecutionContext
    ) -> Callable[[Mapping[str, Any]], bool] | None:
        """The MVCC row filter for this sweep, or ``None`` when not needed.

        ``None`` -- the pre-MVCC fast path -- whenever the context carries no
        snapshot, so existing workloads pay nothing (``Database.run_query``
        only attaches a snapshot once a table holds versioned rows; the
        scheduler always attaches one, because versions may first appear
        *mid-scan* under concurrent writers, and unversioned rows pass the
        filter trivially).  The sweep applies the same filter inside
        :meth:`_page_filter`, and only on a page whose version summary the
        snapshot does not see whole; the per-tuple fetch path applies it to
        every row it fetches.  All of them count examined rows over the
        unfiltered rows: an invisible version costs exactly what a
        non-matching row costs, so a lazy and an eager pull keep reporting
        the same counters under MVCC.
        """
        snapshot = context.snapshot
        if snapshot is None:
            return None
        return snapshot.visible

    def _page_filter(
        self, context: ExecutionContext, project: tuple[str, ...] | None = None
    ) -> Callable[..., _Rows]:
        """The one per-page filter step :meth:`_sweep` applies to a live list.

        Three stages, cheapest first.  The *page rule*
        (:meth:`~repro.engine.transactions.Snapshot.sees_page` over the
        page's version summary): a page the snapshot sees whole -- every
        bulk-loaded page, for every snapshot -- skips the next stage.  The
        *per-row filter* (``Snapshot.visible``, see :meth:`_visibility`)
        on any other page.  Then the compiled
        :meth:`~repro.engine.predicates.PredicateSet.batch_kernel` -- one
        C-driven pass over the page, no per-row predicate dispatch.

        Without a snapshot there is nothing to decide per page and the
        result *is* the kernel, called as ``page_filter(live)``; with one it
        is called as ``page_filter(live, page)``.  Without ``project`` the
        survivors are the *same dict objects*, in live-list order, which is
        what lets the lazy delivery charge them by position and the victim
        search find their slots.  Consumers count ``rows_examined`` over the
        list passed in, never over what comes back (REPRO102).
        """
        if self.predicates or project is not None:
            kernel = self.predicates.batch_kernel(project)
        else:
            kernel = _keep_all
        snapshot = context.snapshot
        if snapshot is None:
            return kernel
        sees_page, visible = snapshot.sees_page, snapshot.visible

        def filter_page(live: _Rows, page: Page) -> _Rows:
            if not sees_page(page.creators, page.deleters):
                live = [row for row in live if visible(row)]
            return kernel(live)

        return filter_page

    def _sweep(
        self,
        context: ExecutionContext,
        pages_per_read: int,
        project: tuple[str, ...] | None = None,
    ) -> Iterator[tuple[Page, _Rows, Iterable[dict[str, Any]]]]:
        """The one page sweep: ``(page, live, survivors)`` per page read.

        Reads this path's pages (:meth:`_target_pages`) in runs of up to
        ``pages_per_read`` through one
        :meth:`~repro.storage.heap.HeapFile.read_pages` call per run, counts
        each page in ``pages_visited`` and filters its live list *once*
        through :meth:`_page_filter`.  It charges no row and no CPU: the
        consumer charges over ``live`` -- the unfiltered list -- as its
        delivery requires.

        A predicate that raises somewhere on a page would, evaluated page at
        a time, fail a consumer that never needed that row; on a filter
        exception the page is re-run one row at a time, lazily, so the error
        surfaces only if the consumer actually pulls past the offending row.
        """
        heap = self.table.heap
        counters = context.counters
        page_filter = self._page_filter(context, project)
        by_page = context.snapshot is not None
        pages = self._target_pages(context)
        for start in range(0, len(pages), pages_per_read):
            for page in heap.read_pages(pages[start : start + pages_per_read]):
                counters.pages_visited += 1
                live = page.live
                survivors: Iterable[dict[str, Any]]
                try:
                    survivors = page_filter(live, page) if by_page else page_filter(live)
                except Exception:
                    survivors = _one_by_one(page_filter, live, page if by_page else None)
                yield page, live, survivors

    def _charge_cpu(self, rows_examined: int) -> None:
        self.table.buffer_pool.disk.charge_cpu_tuples(rows_examined)


class SeqScan(AccessPath):
    """Full sequential scan with a residual filter."""

    name = "seq_scan"

    def _target_pages(self, context: ExecutionContext) -> Sequence[int]:
        return range(self.table.heap.num_pages)


def visible_matches(
    table: Table, predicates: PredicateSet, snapshot: Snapshot | None
) -> Iterator[tuple[RID, dict[str, Any]]]:
    """``(RID, row)`` of every matching version ``snapshot`` sees.

    The writers' victim search, and with ``snapshot=None`` (every live row)
    a plain delete's.  It is a consumer of the one sweep
    (:meth:`AccessPath._sweep`) over the whole heap, one page per read, so
    a caller that stops early -- a write conflict -- leaves the rest
    unread.  A write is priced by its page traffic and its log, so it
    charges no row counter and no CPU tuple.  The survivors are the page's
    own dicts, so their identity in its slot list gives the RID.
    """
    sweep = SeqScan(table, predicates)._sweep(ExecutionContext(snapshot=snapshot), 1)
    for page, _live, survivors in sweep:
        slots = page.slots
        slot = 0
        for row in survivors:
            while slots[slot] is not row:
                slot += 1
            yield RID(page.page_no, slot), row


def _lookup_values_for_index(
    index: SecondaryIndex, predicates: PredicateSet
) -> tuple[list[Any], list[tuple[Any, Any]]]:
    """Values and ranges an index scan should probe for ``predicates``.

    Returns ``(point_keys, ranges)``.  For composite indexes only equality
    predicates over every attribute produce point keys; otherwise the scan
    falls back to a range over the first (prefix) attribute -- the limitation
    Experiment 5 highlights for B+Tree(ra, dec).
    """
    attrs = index.attributes
    # Most selective predicate per attribute: an inner-probe equality beats a
    # local range filter on the same column.
    predicates_by_attr = predicates.best_by_attribute()
    if all(
        isinstance(predicates_by_attr.get(attr), (Equals, InSet)) for attr in attrs
    ):
        value_lists = [list(predicates_by_attr[attr].lookup_values) for attr in attrs]
        keys = [
            combo[0] if len(attrs) == 1 else tuple(combo)
            for combo in product(*value_lists)
        ]
        return keys, []
    prefix = attrs[0]
    predicate = predicates_by_attr.get(prefix)
    if predicate is None:
        raise ValueError(
            f"index on {attrs} is not applicable: no predicate on prefix {prefix!r}"
        )
    if isinstance(predicate, (Equals, InSet)):
        if len(attrs) == 1:
            return list(predicate.lookup_values), []
        return [], [(value, value) for value in predicate.lookup_values]
    if isinstance(predicate, Between):
        return [], [(predicate.low, predicate.high)]
    raise ValueError(f"unsupported predicate {predicate!r} for an index scan")


def _probe_index(
    index: SecondaryIndex, predicates: PredicateSet
) -> tuple[list[RID], int]:
    """All RIDs matching the indexable predicates, plus the lookup count."""
    keys, ranges = _lookup_values_for_index(index, predicates)
    rids: list[RID] = []
    lookups = 0
    for key in keys:
        rids.extend(index.probe(key))
        lookups += 1
    for low, high in ranges:
        lookups += 1
        # Composite keys can only use their leading attribute for a range
        # predicate; the remaining attributes are residual filters.
        rids.extend(index.probe_prefix_range(low, high))
    return rids, lookups


class SortedIndexScan(AccessPath):
    """Bitmap heap scan driven by a secondary B+Tree (Section 3.2)."""

    name = "sorted_index_scan"

    def __init__(
        self, table: Table, index: SecondaryIndex, predicates: PredicateSet
    ) -> None:
        super().__init__(table, predicates)
        self.index = index

    def _target_pages(self, context: ExecutionContext) -> Sequence[int]:
        rids, lookups = _probe_index(self.index, self.predicates)
        context.counters.lookups += lookups
        bitmap = PageBitmap(rid.page_no for rid in rids)
        return bitmap.pages()


class PipelinedIndexScan(AccessPath):
    """Per-tuple random fetches in index order (Section 3.1)."""

    name = "pipelined_index_scan"

    def output_ordering(self) -> tuple[tuple[str, bool], ...]:
        """Rows come back in index-probe order, not heap (clustered) order."""
        return ()

    def __init__(
        self, table: Table, index: SecondaryIndex, predicates: PredicateSet
    ) -> None:
        super().__init__(table, predicates)
        self.index = index

    def _stream(self, context: ExecutionContext) -> Iterator[dict[str, Any]]:
        rids, lookups = _probe_index(self.index, self.predicates)
        context.counters.lookups += lookups
        visible = self._visibility(context)
        visited_pages: set[int] = set()
        for rid in rids:
            row = self.table.heap.fetch(rid)
            if rid.page_no not in visited_pages:
                visited_pages.add(rid.page_no)
                context.counters.pages_visited += 1
            if row is None:
                continue
            context.counters.rows_examined += 1
            self._charge_cpu(1)
            if visible is not None and not visible(row):
                continue
            if self.predicates.matches(row):
                yield row

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # Per-tuple random fetches have no page runs to exploit and a heap
        # fetch between any two output rows: eager or lazy, the one body is
        # the row generator, delivered in batches.
        return _chunk_rows(self._stream(context), batch_size, demand)

    #: Probe-order fetches have no page sweep to fuse a projection into.
    project_batches = None  # type: ignore[assignment]


class ClusteredIndexScan(AccessPath):
    """A range/equality scan on the clustered attribute itself."""

    name = "clustered_index_scan"

    def _target_pages(self, context: ExecutionContext) -> Sequence[int]:
        clustered_attr = self.table.clustered_attribute
        index = self.table.clustered_index
        if clustered_attr is None or index is None:
            raise RuntimeError("table is not clustered")
        predicate = self.predicates.on_attribute(clustered_attr)
        if predicate is None:
            raise ValueError(f"no predicate on the clustered attribute {clustered_attr!r}")
        pages: set[int] = set()
        if isinstance(predicate, Between):
            pages.update(index.pages_for_range(predicate.low, predicate.high))
            context.counters.lookups += 1
        else:
            for value in predicate.lookup_values or ():
                pages.update(index.pages_for_value(value))
                context.counters.lookups += 1
        pages.update(self.table.tail_pages())
        return sorted(pages)


class CorrelationMapScan(AccessPath):
    """The CM-driven plan (Section 5.2 and the Figure 4 walk-through)."""

    name = "cm_scan"

    def __init__(self, table: Table, cm: CorrelationMap, predicates: PredicateSet) -> None:
        super().__init__(table, predicates)
        self.cm = cm
        self.uses_buckets = table.cm_uses_buckets(cm.name)

    def _target_pages(self, context: ExecutionContext) -> Sequence[int]:
        clustered_column = BUCKET_COLUMN if self.uses_buckets else None
        rewriter = QueryRewriter(self.cm, clustered_column=clustered_column)
        constraints = self.predicates.constraints()
        rewritten = rewriter.rewrite(constraints)
        if context.report_rewritten_sql:
            context.rewritten_sql = rewritten.to_sql(self.table.name)
        context.counters.lookups += len(rewritten.clustered_values)
        if rewritten.is_empty:
            return ()
        pages = self.table.pages_for_targets(
            rewritten.clustered_values, uses_buckets=self.uses_buckets
        )
        # One clustered-index descent per contiguous group of targets.
        if self.table.clustered_index is not None:
            self.table.clustered_index.charge_descents(PageBitmap(pages).num_runs)
        return pages


#: Inner-path strategies a join planner may select (builder ``strategy=``).
INNER_STRATEGIES = (
    "seq_scan",
    "clustered_index_scan",
    "sorted_index_scan",
    "cm_scan",
)


class InnerPathBuilder:
    """Builds, per outer row, a fresh inner access path with join keys bound.

    A join operator calls :meth:`bind` once per outer row; the builder turns
    the outer row's join-key values into ``Equals`` predicates, appends them
    to the joined table's local predicates, and instantiates the access path
    the planner selected:

    * ``seq_scan`` -- a full inner sweep per probe (nested-loop join); the
      bound equalities act purely as residual filters;
    * ``clustered_index_scan`` -- the inner table is clustered on the join
      key, so each probe is a clustered-index range lookup;
    * ``sorted_index_scan`` -- probe a secondary B+Tree on the join key and
      sweep the matching pages in order;
    * ``cm_scan`` -- look the join value up in a correlation map and sweep
      the co-occurring clustered buckets (the CM-guided inner path; cheap
      when the join key correlates with the inner clustered key).

    Because the bound equalities are ordinary predicates, every strategy
    verifies the join condition itself -- false positives from a CM's bucket
    granularity are dropped by the shared residual filter, exactly as in the
    single-table case.
    """

    def __init__(
        self,
        table: Table,
        join_on: Sequence[tuple[str, str]],
        predicates: PredicateSet,
        strategy: str,
        *,
        index: SecondaryIndex | None = None,
        cm: CorrelationMap | None = None,
    ) -> None:
        if strategy not in INNER_STRATEGIES:
            raise ValueError(f"unknown inner strategy {strategy!r}")
        if strategy == "sorted_index_scan" and index is None:
            raise ValueError("sorted_index_scan inner paths need an index")
        if strategy == "cm_scan" and cm is None:
            raise ValueError("cm_scan inner paths need a correlation map")
        self.table = table
        self.join_on = tuple(join_on)
        self.predicates = predicates
        self.strategy = strategy
        self.index = index
        self.cm = cm

    def bind(self, outer_row: Mapping[str, Any]) -> AccessPath:
        """The inner access path for one outer row's join-key values."""
        bound = tuple(
            Equals(inner_column, outer_row[outer_column])
            for outer_column, inner_column in self.join_on
        )
        predicates = PredicateSet(tuple(self.predicates) + bound)
        if self.strategy == "clustered_index_scan":
            return ClusteredIndexScan(self.table, predicates)
        if self.strategy == "sorted_index_scan":
            assert self.index is not None
            return SortedIndexScan(self.table, self.index, predicates)
        if self.strategy == "cm_scan":
            assert self.cm is not None
            return CorrelationMapScan(self.table, self.cm, predicates)
        return SeqScan(self.table, predicates)

    def describe(self) -> str:
        keys = ", ".join(inner for _outer, inner in self.join_on)
        if self.strategy == "clustered_index_scan":
            via = f"clustered({self.table.clustered_attribute})"
        elif self.strategy == "sorted_index_scan":
            assert self.index is not None
            via = self.index.name
        elif self.strategy == "cm_scan":
            assert self.cm is not None
            via = self.cm.name
        else:
            via = "seq"
        return f"{self.table.name}({keys}) via {via}"
