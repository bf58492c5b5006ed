"""Pipeline decorator nodes of the physical plan tree, plus its rendering.

The planner composes every query into one tree of
:class:`~repro.engine.executor.PlanNode` operators.  The *input* of the tree
-- scans and join operators -- lives in :mod:`repro.engine.access` and
:mod:`repro.engine.executor`; this module provides the decorators stacked on
top, bottom-up in this order:

``AggregateNode`` / ``GroupByNode``
    Streaming scalar aggregation (count/sum/avg reduce the row stream with
    O(1) state, count_distinct keeps only the distinct-value set) and hash
    aggregation with one output row per group.

``SortNode`` / ``TopKNode``
    Explicit ORDER BY.  A full sort buffers and sorts the input; combined
    with a LIMIT the planner fuses both into a TopK node that keeps only the
    best k rows seen so far instead -- the input is still read exactly once
    and only k rows (plus one batch) are ever retained.  When the chosen
    input already streams in the requested order the planner plans the sort
    away entirely.

``LimitNode`` / ``ProjectNode``
    LIMIT stops pulling from its child once the budget is spent, which
    abandons every upstream generator mid-sweep (remaining heap pages are
    never read); projection trims emitted rows to the requested columns
    (residual predicates below still see whole rows).

Values order by :mod:`repro.core.ordering`, PostgreSQL's rule: numbers,
then NaN, then NULL ascending, reversed descending.  Ties under a LIMIT
resolve by input order (the sort is stable; the top-k keeps the first-seen
row of a tied key), so a top-k is exactly the prefix of the stable full
sort.

:func:`render_plan` walks an executed tree and prints one line per node with
the planner's estimates next to the node's actual counters -- the
``Database.explain_analyze`` surface.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

if TYPE_CHECKING:
    from repro.storage.disk import DiskModel

from repro.core.cost import sort_comparison_count, top_k_comparison_count
from repro.core.ordering import NULL_KEY, order_key, order_keys
from repro.engine.executor import (
    ExecutionContext,
    HashJoin,
    PlanNode,
    RowBatch,
    ScanNode,
    _sliced,
)
from repro.engine.query import Aggregate


# ---------------------------------------------------------------------------
# Sort keys: the value order, in either direction
# ---------------------------------------------------------------------------

class SortKey:
    """One row's value under one ORDER BY column, in the value order.

    Holds the value's order key (:func:`~repro.core.ordering.order_key`), so
    NULLs rank last ascending and first descending with NaN next to them,
    and a descending column simply inverts the comparison -- which keeps
    multi-column keys with mixed directions a plain tuple comparison.
    """

    __slots__ = ("value", "ascending")

    def __init__(self, value: Any, ascending: bool) -> None:
        self.value = order_key(value)
        self.ascending = ascending

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SortKey) and self.value == other.value

    def __lt__(self, other: "SortKey") -> bool:
        if self.ascending:
            return self.value < other.value
        return other.value < self.value

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortKey({self.value!r}, {'asc' if self.ascending else 'desc'})"


def sort_key_function(
    ordering: Sequence[tuple[str, bool]],
) -> Callable[[Mapping[str, Any]], tuple[SortKey, ...]]:
    """A row -> comparable-key function for ``((column, ascending), ...)``."""
    ordering = tuple(ordering)

    def key_of(row: Mapping[str, Any]) -> tuple[SortKey, ...]:
        return tuple(SortKey(row[column], ascending) for column, ascending in ordering)

    return key_of


def columnar_sort(
    rows: list[dict[str, Any]], ordering: Sequence[tuple[str, bool]]
) -> None:
    """Sort ``rows`` in place by ``ordering``, one C-driven pass per column.

    The decorate-sort-undecorate replacement for the per-row
    ``tuple(SortKey(...))`` key of :func:`sort_key_function`: exploiting sort
    stability, one stable pass per ordering column from the least to the
    most significant reproduces the lexicographic multi-column order.  A
    column without NULL or NaN sorts on raw values (``itemgetter`` key);
    any other on order keys.  Either way ``reverse=not ascending`` -- which
    keeps equal elements in order, preserving stability.
    """
    for column, ascending in reversed(tuple(ordering)):
        values = [row[column] for row in rows]
        raw = order_keys(values) is values
        key = itemgetter(column) if raw else lambda row: order_key(row[column])
        rows.sort(key=key, reverse=not ascending)


def _encode_sort_column(values: list[Any], ascending: bool) -> list[Any]:
    """A directly comparable sort-key vector for one ORDER BY column.

    Order keys for an ascending column; negated values for a descending
    column without NULL or NaN over a negatable type; :class:`SortKey`
    wrapping otherwise.  Each encoding orders *and* equates values exactly
    as ``SortKey(value, ascending)`` does, so separately encoded batches
    rank rows identically -- as long as any one comparison only ever sees
    keys from the same encoding call (guaranteed by encoding each top-k
    merge's candidate set afresh).
    """
    if ascending:
        return order_keys(values)
    if order_keys(values) is values:
        try:
            return [-value for value in values]
        except TypeError:
            pass
    return [SortKey(value, ascending) for value in values]


def _not_worse_mask(
    batch: Sequence[Mapping[str, Any]],
    column: str,
    ascending: bool,
    threshold: Any,
) -> list[bool]:
    """Per row of ``batch``: is ``row[column]`` *not* strictly worse than
    ``threshold`` under ``SortKey(_, ascending)``?

    The top-k prefilter: ``threshold`` is the leading ORDER BY value of the
    current k-th row, and only rows marked ``True`` can still displace it
    (equals stay -- later columns and arrival order decide them).  It
    compares in the value order: a NULL ranks last ascending (kept only
    against a NULL threshold) and first descending; a raw NaN compares false
    with a number, so it is kept (the merge ranks it), and a sentinel ranks
    a raw NaN as :data:`~repro.core.ordering.NAN_KEY`.
    """
    threshold = order_key(threshold)
    if ascending:
        null = threshold is NULL_KEY
        return [not threshold < v if (v := row[column]) is not None else null for row in batch]
    return [not v < threshold if (v := row[column]) is not None else True for row in batch]


def _ordering_text(ordering: Sequence[tuple[str, bool]]) -> str:
    return ", ".join(
        column if ascending else f"{column} DESC" for column, ascending in ordering
    )


# ---------------------------------------------------------------------------
# Decorator nodes
# ---------------------------------------------------------------------------

class DecoratorNode(PlanNode):
    """A single-child pipeline node stacked above the scan/join input tree."""

    is_decorator = True

    __slots__ = ("source", "disk")

    def __init__(self, source: PlanNode, *, disk: DiskModel | None = None) -> None:
        super().__init__()
        self.source = source
        #: The simulated disk to charge in-operator CPU work to (optional so
        #: hand-built trees stay runnable without a database).
        self.disk = disk

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,) if isinstance(self.source, PlanNode) else ()

    @property
    def source_fresh(self) -> bool:
        return getattr(self.source, "produces_fresh_rows", True)

    def _charge_cpu(self, tuples: float) -> None:
        if self.disk is not None and tuples > 0:
            self.disk.charge_cpu_tuples(int(tuples))

    def _source_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None = None
    ) -> Iterator[RowBatch]:
        """Pull batches from the child under a child context."""
        return self.source.iter_batches(context.child(), batch_size, demand)


class SortNode(DecoratorNode):
    """Full in-memory ORDER BY: buffer the input, sort, re-emit.

    Stable, so ties keep their input order.  ``rows_in`` records how many
    rows were buffered (surfaced by ``QueryResult.summary()``); the
    comparison CPU is charged to the simulated disk with the same
    ``n log2 n`` count the cost model prices.
    """

    name = "sort"

    __slots__ = ("ordering", "rows_in")

    def __init__(
        self,
        source: PlanNode,
        ordering: Sequence[tuple[str, bool]],
        *,
        disk: DiskModel | None = None,
    ) -> None:
        super().__init__(source, disk=disk)
        self.ordering = tuple(ordering)
        self.rows_in = 0

    @property
    def produces_fresh_rows(self) -> bool:  # type: ignore[override]
        return self.source_fresh

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # Blocking: the input is drained and sorted in full whatever the
        # consumer's demand, so demand only caps the output -- which the
        # iter_batches wrapper enforces.
        rows: list[dict[str, Any]] = []
        for batch in self._source_batches(context, batch_size):
            rows.extend(batch)
        self.rows_in = len(rows)
        self._charge_cpu(sort_comparison_count(len(rows)))
        columnar_sort(rows, self.ordering)
        yield from _sliced(rows, batch_size)

    def describe_detail(self) -> str:
        return _ordering_text(self.ordering)

    def stats(self) -> str:
        return f"sort buffered {self.rows_in} rows"


class TopKNode(DecoratorNode):
    """ORDER BY + LIMIT k fused into a bounded top-k (no full sort).

    The input streams through a candidate list of at most ``k`` rows: a row
    stays only while it ranks among the k best seen so far, so memory stays
    O(k + batch) and the charged comparison work is the ``n log2 k`` of a
    bounded heap -- while the input is still read exactly once (a TopK adds
    zero page reads over its child).  Ties keep the first-seen row, so the
    output is exactly the first k rows of the stable full sort.

    Over a :class:`~repro.engine.executor.HashJoin` the same ranking loop
    (:meth:`_rank`) runs inside :meth:`HashJoin.top_k
    <repro.engine.executor.HashJoin.top_k>`, which feeds it the matched
    probe rows whenever the ORDER BY columns are the probe side's and joins
    only the winners; ``rows_in`` is the join cardinality either way.
    """

    name = "topk"

    __slots__ = ("ordering", "k", "rows_in")

    def __init__(
        self,
        source: PlanNode,
        ordering: Sequence[tuple[str, bool]],
        k: int,
        *,
        disk: DiskModel | None = None,
    ) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        super().__init__(source, disk=disk)
        self.ordering = tuple(ordering)
        self.k = k
        self.rows_in = 0

    @property
    def produces_fresh_rows(self) -> bool:  # type: ignore[override]
        return self.source_fresh

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # Blocking: the whole input flows through whatever the demand, pulled
        # eagerly.  Over a hash join the join feeds the ranking loop itself
        # and merges only what it keeps (HashJoin.top_k); the rows and every
        # counter are those of ranking the drained join.
        if self.k == 0:
            return
        source = self.source
        if isinstance(source, HashJoin):
            top_rows, rows_in = source.top_k(
                context.child(), batch_size, self.ordering, self.k, self._rank
            )
        else:
            top_rows, rows_in = self._rank(self._source_batches(context, batch_size))
        self.rows_in = rows_in
        self._charge_cpu(top_k_comparison_count(rows_in, self.k))
        yield from _sliced(top_rows, batch_size)

    def _rank(
        self, batches: Iterable[RowBatch]
    ) -> tuple[list[dict[str, Any]], int]:
        """The ranking loop: the first k rows of ``batches`` under the
        ordering (ties in arrival order), and how many rows it saw."""
        # Columnar top-k: merge each batch with the current top-k candidates
        # through one C-driven sort over decorated (*encoded_keys, seq, row)
        # tuples, keeping the k smallest (key, seq) pairs seen so far.  The
        # unique seq breaks key ties by arrival order -- first-seen wins, the
        # stable sort's tie rule -- and guarantees the row dicts themselves
        # are never compared.  Key columns are re-encoded per merge
        # (:func:`_encode_sort_column`), so mixed encodings never meet in
        # one comparison.
        #
        # Once k rows are held, a newcomer whose leading ORDER BY value is
        # strictly worse than the k-th row's can never enter, whatever its
        # later columns and seq say, so it is dropped before the merge
        # (:func:`_not_worse_mask`); a batch with no survivor skips the
        # sort altogether.  Survivors keep their arrival seq.
        ordering = self.ordering
        k = self.k
        lead, lead_ascending = ordering[0]
        top_rows: list[dict[str, Any]] = []
        top_seqs: list[int] = []
        seq = 0
        for batch in batches:
            rows: list[dict[str, Any]] = batch
            seqs: Iterable[int] = range(seq, seq + len(batch))
            seq += len(batch)
            if len(top_rows) == k:
                mask = _not_worse_mask(
                    batch, lead, lead_ascending, top_rows[-1][lead]
                )
                survivors = mask.count(True)
                if not survivors:
                    continue
                if survivors < len(batch):
                    rows = list(compress(batch, mask))
                    seqs = compress(seqs, mask)
            candidate_rows = top_rows + rows
            candidate_seqs = [*top_seqs, *seqs]
            key_columns = [
                _encode_sort_column(
                    [row[column] for row in candidate_rows], ascending
                )
                for column, ascending in ordering
            ]
            decorated = sorted(zip(*key_columns, candidate_seqs, candidate_rows))
            del decorated[k:]
            top_seqs = [entry[-2] for entry in decorated]
            top_rows = [entry[-1] for entry in decorated]
        return top_rows, seq

    def describe_detail(self) -> str:
        return f"{_ordering_text(self.ordering)}, k={self.k}"

    def stats(self) -> str:
        return f"top-{self.k} heap over {self.rows_in} rows"


class AggregateNode(DecoratorNode):
    """Streaming scalar aggregation: reduce the input to one value.

    count/sum/avg hold O(1) running state; count_distinct holds the distinct
    value set (the only part of the stream it must remember).  Emits exactly
    one row ``{aggregate.output_name: value}`` once the input is exhausted;
    the value is also kept on :attr:`value` for ``QueryResult``.
    """

    name = "aggregate"

    __slots__ = ("aggregate", "rows_in", "value")

    def __init__(
        self,
        source: PlanNode,
        aggregate: Aggregate,
        *,
        disk: DiskModel | None = None,
    ) -> None:
        super().__init__(source, disk=disk)
        self.aggregate = aggregate
        self.rows_in = 0
        self.value: Any = None

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        accumulator = self.aggregate.make_accumulator()
        add_batch = accumulator.add_batch
        rows_in = 0
        for batch in self._source_batches(context, batch_size):
            add_batch(batch)
            rows_in += len(batch)
        self.rows_in = rows_in
        self._charge_cpu(rows_in)
        self.value = accumulator.result()
        yield RowBatch(({self.aggregate.output_name: self.value},))

    def describe_detail(self) -> str:
        return self.aggregate.output_name


class GroupByNode(DecoratorNode):
    """Hash aggregation: one accumulator per distinct group-key combination.

    Output rows hold the group columns plus the aggregate value under
    :attr:`Aggregate.output_name`, in first-seen group order (deterministic
    for a deterministic input stream).  Only the accumulators are buffered,
    never the input rows.
    """

    name = "hash_group"

    __slots__ = ("group_columns", "aggregate", "rows_in", "groups_out")

    def __init__(
        self,
        source: PlanNode,
        group_columns: Sequence[str],
        aggregate: Aggregate,
        *,
        disk: DiskModel | None = None,
    ) -> None:
        super().__init__(source, disk=disk)
        self.group_columns = tuple(group_columns)
        self.aggregate = aggregate
        self.rows_in = 0
        self.groups_out = 0

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # Blocking: every input row lands in an accumulator whatever the
        # demand; a LIMIT above only caps how many *group* rows leave.
        # Columnar hash aggregation: extract the whole batch's group keys
        # with one itemgetter pass, then fold them through per-kind batch
        # kernels (:class:`~repro.engine.query.GroupedAccumulators`) instead
        # of dispatching per row into per-group accumulators.
        columns = self.group_columns
        single = columns[0] if len(columns) == 1 else None
        key_of = itemgetter(*columns)
        grouped = self.aggregate.make_grouped()
        add_batch = grouped.add_batch
        rows_in = 0
        for batch in self._source_batches(context, batch_size):
            rows_in += len(batch)
            add_batch(list(map(key_of, batch)), batch)
        self.rows_in = rows_in
        self.groups_out = len(grouped)
        self._charge_cpu(rows_in)
        output_name = self.aggregate.output_name
        out = RowBatch()
        for key, value in grouped.results():
            if single is not None:
                merged = {single: key}
            else:
                merged = dict(zip(columns, key))
            merged[output_name] = value
            out.append(merged)
            if len(out) >= batch_size:
                yield out
                out = RowBatch()
        if out:
            yield out

    def describe_detail(self) -> str:
        return f"{', '.join(self.group_columns)}: {self.aggregate.output_name}"


class LimitNode(DecoratorNode):
    """Stop pulling from the child once ``k`` rows have been emitted.

    Closing the child generator mid-stream abandons every upstream pipeline
    at its current yield point, so heap pages past the last consumed row are
    never read.
    """

    name = "limit"

    __slots__ = ("k",)

    def __init__(
        self, source: PlanNode, k: int, *, disk: DiskModel | None = None
    ) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        super().__init__(source, disk=disk)
        self.k = k

    @property
    def produces_fresh_rows(self) -> bool:  # type: ignore[override]
        return self.source_fresh

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # The origin of the demand budget: the child receives k (or less) as
        # its demand.  Streaming children produce lazily, stopping exactly;
        # blocking children ignore the budget, as they must.
        if self.k == 0:
            return
        child_demand = self.k if demand is None else min(self.k, demand)
        yield from self._source_batches(context, batch_size, child_demand)

    def describe_detail(self) -> str:
        return str(self.k)


class ProjectNode(DecoratorNode):
    """Trim emitted rows to the requested columns (applied at the top, so
    residual predicates and sort keys below still see whole rows)."""

    name = "project"

    __slots__ = ("columns",)

    def __init__(
        self, source: PlanNode, columns: Sequence[str], *, disk: DiskModel | None = None
    ) -> None:
        super().__init__(source, disk=disk)
        self.columns = tuple(columns)

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # Row-count preserving and free of I/O/charging, so a finite demand
        # forwards to the child unchanged and the projection stays a
        # C-driven list comprehension per batch.
        columns = self.columns
        source = self.source
        if demand is None and isinstance(source, ScanNode):
            # Scan→filter→project fusion: drive the scan's access path with
            # the projection folded into its compiled per-page kernel, so no
            # intermediate full-width batch is ever materialised.  The scan
            # work lands on the scan node's counters (adopted child
            # context), and its rows_out is bumped here, per batch -- a
            # projection preserves the row count, so the totals equal the
            # unfused pipeline's.
            fused = getattr(source.path, "project_batches", None)
            if fused is not None:
                scan_actual = source.actual
                scan_context = source.adopt(context.child())
                for batch in fused(scan_context, batch_size, columns):
                    scan_actual.rows_out += len(batch)
                    yield batch
                return
        for batch in self._source_batches(context, batch_size, demand):
            yield RowBatch(
                [{column: row[column] for column in columns} for row in batch]
            )

    def describe_detail(self) -> str:
        return ", ".join(self.columns)


class ExchangeNode(PlanNode):
    """Fan-out/union over the surviving partitions of a partitioned table.

    One child scan subtree per partition that survived static pruning; the
    node streams them in ascending partition order, which concatenates the
    per-partition row streams into one.  Every child reads through its own
    partition's private device, so the simulated counters of each subtree
    are independent of whatever interleaving the consumer imposes -- the
    property that keeps cooperative (quantum-interleaved) and
    process-parallel execution bit-identical to this serial concatenation.

    For process-parallel runs the owning database executes the children out
    of line and hands the collected rows back via :meth:`set_replay`; the
    node then emits those rows without touching its children (whose
    counters were already folded in from the workers).

    ``partitions_total``/``partitions_pruned`` record the static pruning
    decision; :attr:`partitions_scanned` counts the children actually
    started at runtime (a LIMIT above may stop the concatenation early),
    which is the ``act`` half of the EXPLAIN ANALYZE rendering.
    """

    name = "exchange"
    produces_fresh_rows = False

    __slots__ = (
        "sources",
        "devices",
        "device_groups",
        "partition_key",
        "partition_method",
        "partitions_total",
        "partitions_pruned",
        "partitions_scanned",
        "_replay",
    )

    def __init__(
        self,
        sources: Sequence[PlanNode],
        *,
        devices: Sequence["DiskModel | Sequence[DiskModel]"],
        partition_key: str,
        partition_method: str,
        partitions_total: int,
    ) -> None:
        super().__init__()
        self.sources: tuple[PlanNode, ...] = tuple(sources)
        #: Per-child device groups: every private device one child subtree
        #: reads through.  A plain scan child has a one-device group; a
        #: partition-wise join child groups its outer partition's device with
        #: its inner partition's.  Each entry of ``devices`` may therefore be
        #: a single :class:`DiskModel` or a sequence of them.
        groups: list[tuple["DiskModel", ...]] = []
        for entry in devices:
            if isinstance(entry, (tuple, list)):
                groups.append(tuple(entry))
            else:
                groups.append((entry,))
        self.device_groups: tuple[tuple["DiskModel", ...], ...] = tuple(groups)
        #: The distinct per-partition devices of the surviving children, in
        #: child order.  The database snapshots these around execution to
        #: fold the partitions' I/O into the query's reported breakdown, so
        #: no device may appear twice (its window would be folded twice).
        flat: dict[int, "DiskModel"] = {}
        for group in self.device_groups:
            for device in group:
                flat.setdefault(id(device), device)
        self.devices: tuple["DiskModel", ...] = tuple(flat.values())
        if len(self.device_groups) != len(self.sources):
            raise ValueError("one device per partition subtree is required")
        self.partition_key = partition_key
        self.partition_method = partition_method
        self.partitions_total = partitions_total
        self.partitions_pruned = partitions_total - len(self.sources)
        self.partitions_scanned = 0
        self._replay: list[dict[str, Any]] | None = None

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return self.sources

    def set_replay(self, rows: list[dict[str, Any]]) -> None:
        """Emit ``rows`` instead of draining the children (parallel runs).

        The caller has already executed the child subtrees elsewhere and
        folded their counters and device windows in; this node only has to
        reproduce the serial concatenation's output stream (the rows are
        private dicts, so no defensive copies are taken).
        """
        self._replay = rows
        self.partitions_scanned = len(self.sources)

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        if self._replay is not None:
            yield from _sliced(self._replay, batch_size)
            return
        self.partitions_scanned = 0
        remaining = demand
        for source in self.sources:
            self.partitions_scanned += 1
            # Each child receives the *remaining* demand, so across the
            # concatenation exactly as many rows are produced -- and exactly
            # as many pages swept -- as the consumer's LIMIT allows.
            for batch in source.iter_batches(context.child(), batch_size, remaining):
                yield batch
                if remaining is not None:
                    remaining -= len(batch)
            if remaining is not None and remaining <= 0:
                return

    def describe_detail(self) -> str:
        return (
            f"{self.partition_method}({self.partition_key}), "
            f"partitions scanned est={len(self.sources)} "
            f"act={self.partitions_scanned}, "
            f"pruned={self.partitions_pruned}/{self.partitions_total}"
        )


def exchange_devices(root: PlanNode) -> list["DiskModel"]:
    """Every partition device referenced by exchange nodes of this tree.

    The database snapshots these (next to the shared device) around a run so
    per-partition I/O folds into the query's reported breakdown; the
    scheduler does the same per quantum.
    """
    devices: list["DiskModel"] = []
    for node in root.walk():
        if isinstance(node, ExchangeNode):
            devices.extend(node.devices)
    return devices


def find_node(root: PlanNode, node_type: type) -> Any:
    """The first node of ``node_type`` in the tree (pre-order), or ``None``."""
    for node in root.walk():
        if isinstance(node, node_type):
            return node
    return None


def sort_stats(root: PlanNode) -> str | None:
    """The Sort/TopK work a plan performed, for ``QueryResult.summary()``."""
    for node in root.walk():
        if isinstance(node, (SortNode, TopKNode)):
            return node.stats()
    return None


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE rendering
# ---------------------------------------------------------------------------

def _format_count(value: float | int | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return str(int(round(value)))
    return str(value)


def _node_line(node: PlanNode) -> str:
    # An inner node shows its *own* cost (the raw formula split); a node
    # carrying a planner-stamped `est_cost_ms` shows that instead -- the
    # clamped, LIMIT-aware figure, which on a node with children is the
    # whole-subtree total and is labelled as such to keep the column
    # honestly non-additive.
    if node.est_cost_ms is not None:
        label = "est_ms_total" if node.children else "est_ms"
        cost = f"{label}={node.est_cost_ms:.2f}"
    elif node.cost_split is not None:
        cost = f"est_ms={node.cost_split.total_ms:.2f}"
    else:
        cost = "est_ms=-"
    return (
        f"{node.label()}  "
        f"(rows est={_format_count(node.est_rows)} act={node.actual.rows_out}, "
        f"pages est={_format_count(node.est_pages)} act={node.actual.pages_visited}, "
        f"{cost})"
    )


def render_plan(root: PlanNode) -> str:
    """One line per node: label, estimated vs actual rows/pages, node cost.

    Children are indented with tree guides; the per-node ``act`` counters
    cover only that node's own work, so summing a column reproduces the
    whole-query totals of :meth:`PlanNode.total_counters`.
    """
    lines: list[str] = []

    def emit(node: PlanNode, prefix: str, connector: str, child_prefix: str) -> None:
        lines.append(f"{prefix}{connector}{_node_line(node)}")
        children = node.children
        for position, child in enumerate(children):
            last = position == len(children) - 1
            emit(
                child,
                child_prefix,
                "└─ " if last else "├─ ",
                child_prefix + ("   " if last else "│  "),
            )

    emit(root, "", "", "")
    return "\n".join(lines)
