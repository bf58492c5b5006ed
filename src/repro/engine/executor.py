"""The execution layer: plan nodes, contexts, counters, joins.

Query execution runs a tree of :class:`PlanNode` operators: leaf ``Scan``
nodes wrap access paths, join operators compose them into left-deep chains,
and the pipeline decorators of :mod:`repro.engine.plan` (Sort, TopK,
GroupBy, Aggregate, Limit, Project) sit on top.  Every node owns its *own*
:class:`ExecutionCounters`, so an executed plan reports per-node actual rows
and pages (the EXPLAIN ANALYZE surface) while
:meth:`PlanNode.total_counters` folds the tree back into whole-query totals.

**One protocol.**  A node runs in exactly one way:
:meth:`PlanNode.iter_batches` ``(context, batch_size, demand)``
pulls :class:`RowBatch` objects (plain lists of row dicts) through the tree.
Batching amortises interpreter overhead and changes no number: every batch
size reports bit-identical rows, per-node counters, I/O breakdown and
simulated time.  Two rules make that hold:

* **demand** says how the consumer pulls.  ``None`` is an *eager* pull: the
  consumer takes everything, so the operator may read ahead and vectorise.
  An integer is a *lazy* pull: the consumer may stop after any row (at the
  latest after ``demand`` of them -- a ``LimitNode`` budget, or
  :data:`LAZY_UNBOUNDED`), and wherever it stops, the counters must be those
  of a loop that produced exactly the rows taken.  A node that drains its
  inputs before its first output (Sort/TopK/Aggregate/GroupBy, the merge
  exchange, a hash build) pulls them eagerly whatever its own demand; the
  ``iter_batches`` wrapper truncates, so ``rows_out`` is what was consumed.
  A :class:`ProbeJoin` issues I/O per outer row, so it always pulls its
  outer lazily: no page is read ahead of the probe that follows it.
* **additive charging**: per-page/per-batch counter increments replace
  per-row ones only where the totals are provably equal.

**Where a row generator lives.**  Only where stopping between two output
rows must leave different counters than stopping a batch later -- where I/O
or fan-out happens *between* consecutive output rows -- and then as the lazy
branch *inside* the operator's ``_stream_batches`` (delivered through
:func:`_chunk_rows`), never as a second protocol.  There are five: the
page sweep's lazy delivery (:meth:`repro.engine.access.AccessPath._stream`
over the one sweep, and the pipelined index scan's per-tuple fetch),
:class:`ProbeJoin` (its only
body), :class:`SortMergeJoin`'s merge, :class:`HashJoin`'s lazy probe and
the merge exchange's heap merge.  Everything else has one body serving both
pulls.
:meth:`PlanNode.iter_rows` is a *view*, defined once: the flattening of
``iter_batches(context, 1, LAZY_UNBOUNDED)``.  ARCHITECTURE.md ("One
execution protocol") has the long form; ``repro-lint`` REPRO102 keeps a
``_stream`` method or an ``iter_rows`` override off plan nodes.

An :class:`ExecutionContext` travels down the pipeline carrying the
counters to charge, the MVCC snapshot and the per-query shared state:

* pulling from a *child node* re-homes the context onto that node's
  counters (:meth:`PlanNode.adopt`) -- the child's work lands on the child;
* *intra-node* sub-pipelines (the per-outer-row probe paths of a nested-
  loop join, a hash join's build scan) run under
  :meth:`ExecutionContext.child` contexts that share the operator's
  counters (probe work is routed to the join's ``inner_probe`` leaf).

Two join families exist: *tuple-at-a-time* probes (:class:`NestedLoopJoin`,
:class:`IndexNestedLoopJoin`) bind each outer row's join-key values into a
fresh inner access path; *set-at-a-time* operators (:class:`HashJoin`,
:class:`SortMergeJoin`) read the inner input once -- a hash-table build, or
an ordered merge -- turning the quadratic unindexed fallback into O(N + M)
page reads.  LIMIT and projection live in the plan tree only.  Rows leaving
a scan are live heap-page dicts (:attr:`PlanNode.produces_fresh_rows`);
``Database`` copies them at the plan root before they reach a caller.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cost import CostSplit
    from repro.engine.transactions import Snapshot

#: Default number of rows per :class:`RowBatch` pulled through a plan (the
#: ``Database(batch_size=...)`` default).  Scans align batches to page
#: boundaries, so actual batches round up to whole pages.
DEFAULT_BATCH_SIZE = 256

#: The ``demand`` of a consumer that may stop after any row and names no
#: bound: a lazy pull without a LIMIT (see the module docstring).
LAZY_UNBOUNDED = sys.maxsize


class RowBatch(list):
    """One batch of rows flowing between plan nodes.

    A plain ``list`` subclass (C-speed append/extend/iteration, no wrapper
    indirection on the hot path) whose type marks the batch boundary of the
    protocol.  Scan batches hold *live* heap-page dicts -- consumers that
    keep or mutate rows must copy them (``Database`` copies at the plan root
    before handing rows to callers).

    The row-dict view is the source of truth; per-column vectors are
    *lazily materialised* by :meth:`column` with one
    C-driven pass when a kernel wants columnar input (sort keys, group
    keys, join keys).  Vectors are never cached on the batch: batches are
    consumed exactly once, and caching would tax the append/extend hot
    path of every producer for a view most batches never need.
    """

    __slots__ = ()

    def column(self, name: str) -> list[Any]:
        """This batch's values for one column, as a fresh list."""
        return [row[name] for row in self]


@dataclass(slots=True)
class ExecutionCounters:
    """Counters charged by one plan node (or one standalone execution).

    Under a plan tree each node owns an instance, so per-node actual work is
    observable after a run; access paths executed outside a tree charge the
    single instance their context carries, exactly as before.  ``slots=True``
    because counter attribute bumps sit on the per-row/per-page hot path.
    """

    rows_examined: int = 0
    pages_visited: int = 0
    lookups: int = 0
    #: Inner-path probes performed by join operators (one per outer row per
    #: join step).
    join_probes: int = 0
    #: Rows this node produced to its consumer (the EXPLAIN ANALYZE
    #: ``actual rows``); maintained by :meth:`PlanNode.iter_batches`.
    rows_out: int = 0


@dataclass(slots=True)
class SharedQueryState:
    """Per-execution state shared by every context of one plan tree."""

    rewritten_sql: str | None = None


@dataclass(slots=True)
class ExecutionContext:
    """Per-execution state threaded through a plan's row pipelines."""

    counters: ExecutionCounters = field(default_factory=ExecutionCounters)
    #: False on join inner-probe contexts, whose rewritten SQL nobody reads
    #: -- lets the CM scan skip rendering it once per probe.
    report_rewritten_sql: bool = True
    #: State shared by every context of one execution (a child or adopted
    #: context sees the same object), e.g. the CM scan's rewritten SQL.
    shared: SharedQueryState = field(default_factory=SharedQueryState)
    #: MVCC snapshot the scan kernels filter row versions against (``None``
    #: = no visibility filtering; the pre-MVCC fast path).  Pinned once per
    #: query and inherited by every child/adopted context so all scans of
    #: one execution -- including join inner probes -- see the same state.
    snapshot: "Snapshot | None" = None

    @property
    def rewritten_sql(self) -> str | None:
        """The CM scan's rewritten SQL (shared across the whole plan)."""
        return self.shared.rewritten_sql

    @rewritten_sql.setter
    def rewritten_sql(self, value: str | None) -> None:
        self.shared.rewritten_sql = value

    def child(self) -> "ExecutionContext":
        """A context for a sub-pipeline feeding a parent operator.

        The child shares the parent's :class:`ExecutionCounters` (work of an
        intra-node pipeline lands on the operator that caused it; a child
        *node* re-homes the context onto its own counters via
        :meth:`PlanNode.adopt`).
        """
        return ExecutionContext(
            counters=self.counters,
            shared=self.shared,
            snapshot=self.snapshot,
        )


def _chunk_rows(
    rows: Iterator[dict[str, Any]],
    batch_size: int,
    demand: int | None = None,
) -> Iterator[RowBatch]:
    """Deliver a row generator as batches, pulling at most ``demand`` rows.

    How a lazy branch hands its rows on: they are produced one at a time by
    the underlying generator (so its accounting -- page reads, CPU charges,
    early-termination points -- is exact wherever the consumer stops) and
    only *delivered* in batches.  The source generator is closed
    deterministically when the budget is met or the consumer stops, which
    runs the upstream ``finally`` charges.
    """
    remaining = demand
    close = getattr(rows, "close", None)
    try:
        if remaining is not None and remaining <= 0:
            return
        batch = RowBatch()
        append = batch.append
        for row in rows:
            append(row)
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    break
            if len(batch) >= batch_size:
                yield batch
                batch = RowBatch()
                append = batch.append
        if batch:
            yield batch
    finally:
        if close is not None:
            close()


def _truncated_batches(
    stream: Iterator[RowBatch], demand: int | None
) -> Iterator[RowBatch]:
    """Guard a batch stream: drop empties, cap total rows at ``demand``.

    Central enforcement point shared by every ``iter_batches`` wrapper: a
    blocking node (Sort, TopK, GroupBy) can ignore its demand entirely --
    its internal work is the same full drain either way -- and still never
    over-produce, so per-node ``rows_out`` equals what the consumer took.
    """
    produced = 0
    try:
        for batch in stream:
            if not batch:
                continue
            if demand is not None and produced + len(batch) > demand:
                batch = RowBatch(batch[: demand - produced])
            produced += len(batch)
            yield batch
            if demand is not None and produced >= demand:
                return
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()


def _sliced(rows: Sequence[dict[str, Any]], batch_size: int) -> Iterator[RowBatch]:
    """Deliver an already-materialised row list as batches."""
    for start in range(0, len(rows), batch_size):
        yield RowBatch(rows[start : start + batch_size])


class RowSource(Protocol):
    """Anything that produces rows under an :class:`ExecutionContext`.

    Access paths and plan nodes both satisfy this protocol, which is what
    lets join operators nest into left-deep chains.
    """

    name: str

    def iter_batches(
        self,
        context: ExecutionContext | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        demand: int | None = None,
    ) -> Iterator[RowBatch]: ...  # pragma: no cover - protocol

    def iter_rows(
        self, context: ExecutionContext | None = None
    ) -> Iterator[dict[str, Any]]: ...  # pragma: no cover - protocol


class PlanNode:
    """One operator of a physical plan tree.

    Every node is a row source with two faces:

    * an *execution* face: :meth:`iter_batches` streams the node's output,
      charging physical work to the node's own :attr:`actual` counters (the
      context is re-homed via :meth:`adopt`, so a parent pulling from a
      child automatically attributes the child's work to the child);
    * a *planning* face: the planner stamps per-node estimates --
      :attr:`est_rows`, :attr:`est_pages`, :attr:`cost_split` (this node's
      own upfront/streaming cost) -- and the plan root additionally carries
      :attr:`est_cost_ms` (the whole tree) and :attr:`structure` (the
      pipeline rendering shown by ``Database.explain``).

    ``EXPLAIN ANALYZE`` is nothing more than walking an executed tree and
    printing both faces side by side (:func:`repro.engine.plan.render_plan`).
    """

    name = "node"
    #: True for pipeline decorators (Sort/TopK/GroupBy/Aggregate/Limit/
    #: Project) that plan ranking and result labelling look through: the
    #: ``method`` of a decorated plan is the underlying scan's or join's.
    is_decorator = False
    #: Whether rows leaving this node are private dicts.  False for scans
    #: (and whatever passes their rows through), whose rows are live
    #: heap-page dicts: ``Database`` copies them at the plan root.
    produces_fresh_rows = True

    __slots__ = (
        "actual",
        "est_rows",
        "est_pages",
        "cost_split",
        "est_cost_ms",
        "structure",
    )

    def __init__(self) -> None:
        #: Runtime counters of *this node's own* work, filled by execution.
        self.actual = ExecutionCounters()
        #: Planner estimate of the rows this node produces.
        self.est_rows: float | None = None
        #: Planner estimate of the heap pages this node reads itself.
        self.est_pages: float | None = None
        #: This node's own cost, split for LIMIT-aware selection.
        self.cost_split: "CostSplit | None" = None
        #: Whole-subtree estimated cost; set by the planner on plan roots.
        self.est_cost_ms: float | None = None
        #: The pipeline rendering (plan roots; ``Database.explain`` shows it).
        self.structure: str = ""

    # -- streaming interface --------------------------------------------------

    def iter_batches(
        self,
        context: ExecutionContext | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        demand: int | None = None,
    ) -> Iterator[RowBatch]:
        """Stream output as :class:`RowBatch` objects: how a plan node runs.

        Parameters
        ----------
        batch_size:
            Target rows per batch.  Page-producing scans align batches to
            page boundaries, so batches may round up to whole pages.
        demand:
            ``None`` for an eager pull (the consumer drains everything), or
            an upper bound on the rows a lazy consumer will take (a
            ``LimitNode`` budget, or :data:`LAZY_UNBOUNDED`).  A lazy pull
            makes streaming operators produce row by row, so that stopping
            anywhere leaves exact counters; the wrapper also hard-truncates,
            so no node ever over-reports ``rows_out``.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        context = self.adopt(context or ExecutionContext())
        if demand is not None and demand <= 0:
            return
        actual = self.actual
        stream = self._stream_batches(context, batch_size, demand)
        for batch in _truncated_batches(stream, demand):
            actual.rows_out += len(batch)
            yield batch

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        """This operator's batches (the one body every subclass provides)."""
        raise NotImplementedError(f"{type(self).__name__} produces no batches")

    def iter_rows(
        self, context: ExecutionContext | None = None
    ) -> Iterator[dict[str, Any]]:
        """The one-row-at-a-time view of :meth:`iter_batches`.

        Defined here and nowhere else: one-row batches under the lazy,
        unbounded demand, flattened.  Abandoning it after any row leaves the
        counters of a pipeline that produced exactly the rows taken.
        """
        for batch in self.iter_batches(context, 1, LAZY_UNBOUNDED):
            yield from batch

    def adopt(self, context: ExecutionContext) -> ExecutionContext:
        """``context`` re-homed onto this node's counters (same flags)."""
        if context.counters is self.actual:
            return context
        return ExecutionContext(
            counters=self.actual,
            report_rewritten_sql=context.report_rewritten_sql,
            shared=context.shared,
            snapshot=context.snapshot,
        )

    # -- tree structure -------------------------------------------------------

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def walk(self) -> Iterator["PlanNode"]:
        """This node and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_counters(self) -> ExecutionCounters:
        """Whole-subtree totals (the old shared-counter view of a run)."""
        total = ExecutionCounters()
        for node in self.walk():
            total.rows_examined += node.actual.rows_examined
            total.pages_visited += node.actual.pages_visited
            total.lookups += node.actual.lookups
            total.join_probes += node.actual.join_probes
        total.rows_out = self.actual.rows_out
        return total

    # -- planner-facing views -------------------------------------------------

    @property
    def estimated_cost_ms(self) -> float:
        """The planner's whole-tree estimate (plan roots)."""
        return self.est_cost_ms if self.est_cost_ms is not None else 0.0

    @property
    def method(self) -> str:
        """The plan's engine: the topmost non-decorator node's name."""
        node: PlanNode = self
        while node.is_decorator:
            node = node.source  # type: ignore[attr-defined]
        return node.name

    def join_steps(self) -> list["JoinOperator"]:
        """The join operators of this plan, root first (empty for scans)."""
        node: PlanNode = self
        while node.is_decorator:
            node = node.source  # type: ignore[attr-defined]
        steps: list[JoinOperator] = []
        while isinstance(node, JoinOperator):
            steps.append(node)
            node = node.source  # type: ignore[assignment]
        return steps

    # -- display --------------------------------------------------------------

    def describe_detail(self) -> str:
        """The inner summary shown inside EXPLAIN labels (may be empty)."""
        return ""

    def label(self) -> str:
        """One-line operator label for the EXPLAIN ANALYZE tree."""
        detail = self.describe_detail()
        return f"{self.name}[{detail}]" if detail else self.name


class ScanNode(PlanNode):
    """Leaf node wrapping one executable access path."""

    produces_fresh_rows = False

    __slots__ = ("path",)

    def __init__(self, path: "RowSource") -> None:
        super().__init__()
        self.path = path

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.path.name

    @property
    def table(self) -> Any:
        """The scanned table (lets shared CPU-charging helpers reach the disk)."""
        return self.path.table  # type: ignore[attr-defined]

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # The access path's own batch production, bypassing its public
        # wrapper: truncation and rows_out accounting happen once, in this
        # node's iter_batches.
        return self.path._stream_batches(  # type: ignore[attr-defined]
            context, batch_size, demand
        )

    def label(self) -> str:
        table = getattr(self.path, "table", None)
        where = f"{table.name}: " if table is not None else ""
        detail = self.structure or self.path.__class__.__name__
        return f"{self.name}({where}{detail})"


class ProbeNode(PlanNode):
    """The repeatedly re-bound inner side of a tuple-at-a-time join.

    Not independently streamable (it has no ``_stream_batches``): the owning
    :class:`ProbeJoin` binds a fresh inner access path per outer row and
    runs it under this node's counters, so per-probe pages and rows show up as this leaf's actuals in
    EXPLAIN ANALYZE.
    """

    name = "inner_probe"
    produces_fresh_rows = False

    __slots__ = ("probe",)

    def __init__(self, probe: "InnerProbe") -> None:
        super().__init__()
        self.probe = probe

    def label(self) -> str:
        return f"{self.name}({self.probe.describe()})"


class JoinOperator(PlanNode):
    """Base streaming equi-join operator: a plan node over an outer input.

    ``source`` is the outer input (a plan node, or a bare access path when
    composed by hand).  Subclasses implement ``_stream_batches``, pulling
    from the outer source -- whose work, when it is a node, lands on its own
    counters -- and from whatever inner input they own; intra-operator
    pipelines run under :meth:`ExecutionContext.child` contexts, so their
    work lands on this operator (or on its inner leaf node).

    Merged rows are ``{**outer, **inner}``; on the join keys both sides
    agree by construction, and :meth:`repro.engine.database.Database` rejects
    queries whose joined schemas would make any *other* column ambiguous, so
    the merge never silently resolves a real collision.
    """

    name = "join"
    #: The inner strategy this operator was planned with (for EXPLAIN).
    strategy = ""

    __slots__ = ("source",)

    def __init__(self, source: "RowSource") -> None:
        super().__init__()
        self.source = source

    @property
    def children(self) -> tuple[PlanNode, ...]:
        nodes = [self.source] if isinstance(self.source, PlanNode) else []
        inner = getattr(self, "inner", None)
        if inner is None:
            inner = getattr(self, "inner_path", None)
        if isinstance(inner, PlanNode):
            nodes.append(inner)
        return tuple(nodes)

    def describe_detail(self) -> str:
        """The inner-input summary shown inside EXPLAIN structure labels."""
        return self.strategy

    def describe(self) -> str:
        source = getattr(self.source, "describe", self.source.__class__.__name__)
        source_text = source() if callable(source) else str(source)
        return f"{source_text} -> {self.name}[{self.describe_detail()}]"


class InnerProbe(Protocol):
    """Builds a fresh inner access path for one outer row's join-key values."""

    def bind(self, outer_row: Mapping[str, Any]) -> "RowSource": ...  # pragma: no cover

    def describe(self) -> str: ...  # pragma: no cover - protocol


class ProbeJoin(JoinOperator):
    """Tuple-at-a-time join: pull outer rows, probe the inner per row.

    ``probe`` builds, for each outer row, a fresh inner access path with the
    join-key equalities bound as predicates (see
    :class:`repro.engine.access.InnerPathBuilder`).  Because the bound
    equalities are ordinary predicates, the inner path both *finds* matches
    (via an index, a CM, or a residual-filtered scan) and *verifies* them --
    the operator itself only merges rows.
    """

    __slots__ = ("probe", "inner")

    def __init__(self, source: "RowSource", probe: "InnerProbe") -> None:
        super().__init__(source)
        self.probe = probe
        #: Leaf node accumulating the per-probe inner-path work.
        self.inner = ProbeNode(probe)

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # Probing issues inner-path I/O between two outer rows, so every
        # pull runs the row generator: the outer is pulled one row per
        # probe, whatever it is, and no page is read ahead of a probe.
        # Merged rows are only delivered in batches.
        return _chunk_rows(self._probe_lazily(context), batch_size, demand)

    def _probe_lazily(self, context: ExecutionContext) -> Iterator[dict[str, Any]]:
        """One outer row, one probe, its matches -- and only then the next."""
        counters = context.counters
        inner_counters = self.inner.actual
        inner_context = self.inner.adopt(context.child())
        inner_context.report_rewritten_sql = False
        bind = self.probe.bind
        for outer_row in self.source.iter_rows(context.child()):
            counters.join_probes += 1
            for inner_row in bind(outer_row).iter_rows(inner_context):
                inner_counters.rows_out += 1
                yield {**outer_row, **inner_row}

    def describe_detail(self) -> str:
        return self.probe.describe()


class NestedLoopJoin(ProbeJoin):
    """Naive nested loops: re-scan the inner table for every outer row.

    The inner path is a sequential scan with the bound join keys applied as
    residual filters, so each outer row costs a full inner sweep -- O(N*M)
    page reads, kept only as the strategy of last resort (or for tiny inners
    whose rescans stay buffer-pool resident) now that :class:`HashJoin` and
    :class:`SortMergeJoin` cover the unindexed case in O(N + M).
    """

    name = "nested_loop_join"
    strategy = "seq_scan"

    __slots__ = ()


class IndexNestedLoopJoin(ProbeJoin):
    """Index nested loops: probe an inner access structure per outer row.

    The probe binds ``Equals(inner_key, outer_value)`` predicates and runs
    them through a clustered-index scan, a sorted secondary-index scan, or a
    correlation-map scan -- whichever the planner costed cheapest.  The CM
    case is the paper's core trick applied across tables: when the join key
    is correlated with the inner table's clustered key, a tiny memory-
    resident CM narrows each probe to a few clustered buckets instead of a
    B+Tree descent per matching tuple.
    """

    name = "index_nested_loop_join"

    __slots__ = ("strategy",)

    def __init__(self, source: "RowSource", probe: "InnerProbe", strategy: str) -> None:
        super().__init__(source, probe)
        self.strategy = strategy


def _key_getter(columns: Sequence[str]) -> Callable[[Mapping[str, Any]], Any]:
    """A function extracting the join key of one row.

    Built on :func:`operator.itemgetter` (a C-level extractor): a scalar for
    single-column keys, a tuple for composites.  Both sides of a hash join
    use the same construction, so build and probe keys always agree.
    """
    columns = tuple(columns)
    if len(columns) == 1:
        return itemgetter(columns[0])
    return itemgetter(*columns)


def _charge_cpu(path: "RowSource", tuples: int) -> None:
    """Charge in-operator CPU work to the simulated disk.

    Hash builds/probes and explicit sorts do per-row work that never touches
    a page; charging it (through the inner path's table, which reaches the
    shared disk model) keeps measured ``elapsed_ms`` aligned with what
    ``hash_join_cost``/``sort_merge_join_cost`` price, exactly as access
    paths charge CPU per examined row.
    """
    if tuples <= 0:
        return
    cpu_disk = getattr(path, "cpu_disk", None)
    if cpu_disk is not None:
        cpu_disk.charge_cpu_tuples(tuples)
        return
    table = getattr(path, "table", None)
    if table is not None:
        table.buffer_pool.disk.charge_cpu_tuples(tuples)


def _sort_cpu_tuples(rows: int) -> int:
    """The comparison count an explicit sort is charged as (cost-model's)."""
    from repro.core.cost import sort_comparison_count

    return int(sort_comparison_count(rows))


def _ordering_key_getter(
    columns: Sequence[str],
) -> Callable[[Mapping[str, Any]], tuple[Any, ...]]:
    """A join-key extractor whose keys also order in the presence of None.

    Equality between wrapped keys is exactly raw-value equality, but
    ordering comparisons never reach a ``None < value`` — rows with NULL
    keys simply sort after everything else instead of crashing the merge,
    which then joins no key with a NULL part, ``(True, None)``, as the hash
    and nested-loop operators do.
    """
    columns = tuple(columns)

    def key_of(row: Mapping[str, Any]) -> tuple[Any, ...]:
        return tuple(
            (row[column] is None, row[column]) for column in columns
        )

    return key_of


def _sorted_with_keys(
    rows: list[Mapping[str, Any]], columns: Sequence[str]
) -> tuple[list[Any], list[Mapping[str, Any]]]:
    """``rows`` sorted by the NULL-aware merge key, plus the key vector.

    The columnar twin of ``sorted(rows, key=_ordering_key_getter(columns))``:
    per-column ``(is_none, value)`` pair vectors are built with one
    comprehension pass each, zipped into per-row key tuples (the exact
    structure :func:`_ordering_key_getter` produces, so both construction
    routes order and equate identically), and one C-driven sort over
    ``(key, index, row)`` triples replaces per-row key building.  The unique
    index keeps the sort stable and keeps the row dicts out of comparisons.
    Returns ``(sorted_keys, sorted_rows)``.
    """
    if not rows:
        return [], []
    pair_columns = []
    for column in columns:
        values = [row[column] for row in rows]
        pair_columns.append([(value is None, value) for value in values])
    keys = list(zip(*pair_columns))
    decorated = sorted(zip(keys, range(len(rows)), rows))
    return [entry[0] for entry in decorated], [entry[2] for entry in decorated]


class HashJoin(JoinOperator):
    """Streaming hash join: build one side's hash table, stream the other.

    ``inner_path`` is an access path over the joined table (a sequential
    scan carrying the table's local predicates).  ``build_side`` picks which
    input is hashed -- the planner chooses the side with fewer sampled rows:

    * ``"inner"`` -- the inner table is scanned once into a hash table on
      its join-key columns, then *outer* rows stream through it.  The outer
      stays fully pipelined, so a satisfied LIMIT stops pulling outer rows
      exactly as the probe joins do.
    * ``"outer"`` -- the outer input is drained into the hash table and the
      *inner* table streams through it; a satisfied LIMIT abandons the inner
      sweep with the remaining inner pages unread.

    Either way each input is read exactly once -- O(N + M) page reads,
    versus the nested-loop rescan's O(N*M).  An empty build side short-
    circuits: the probe side is never read at all.

    Beneath a top-k ranking on probe-side columns, :meth:`top_k` joins only
    the rows the top-k keeps (late materialisation); everything it reports
    is what draining the join would report.
    """

    name = "hash_join"
    strategy = "hash"

    __slots__ = (
        "inner_path",
        "join_on",
        "build_side",
        "inner_label",
        "_build_key",
        "_probe_key",
    )

    def __init__(
        self,
        source: "RowSource",
        inner_path: "RowSource",
        join_on: Sequence[tuple[str, str]],
        *,
        build_side: str = "inner",
        inner_label: str = "",
    ) -> None:
        if build_side not in ("inner", "outer"):
            raise ValueError(f"unknown build side {build_side!r}")
        super().__init__(source)
        self.inner_path = inner_path
        self.join_on = tuple(join_on)
        self.build_side = build_side
        self.inner_label = inner_label
        outer_key = _key_getter([outer for outer, _inner in self.join_on])
        inner_key = _key_getter([inner for _outer, inner in self.join_on])
        build_inner = build_side == "inner"
        self._build_key = inner_key if build_inner else outer_key
        self._probe_key = outer_key if build_inner else inner_key

    def _build(
        self, context: ExecutionContext, batch_size: int
    ) -> dict[Any, list[Mapping[str, Any]]]:
        """The one build step: the build input drained into a hash table.

        Keys map to their build rows in arrival order (the *build-list
        order* every merge follows).  Charges one CPU tuple per build row,
        even when the drain fails part-way.
        """
        build_inner = self.build_side == "inner"
        build_source = self.inner_path if build_inner else self.source
        build_context = context.child()
        build_context.report_rewritten_sql = not build_inner
        build_key = self._build_key
        table: dict[Any, list[Mapping[str, Any]]] = {}
        setdefault = table.setdefault
        build_rows = 0
        try:
            for batch in build_source.iter_batches(build_context, batch_size):
                build_rows += len(batch)
                # Keys for the whole batch come from one C-level map pass;
                # the remaining per-row work is the table insert itself.
                for key, row in zip(map(build_key, batch), batch):
                    setdefault(key, []).append(row)
        finally:
            _charge_cpu(self.inner_path, build_rows)
        # NULL matches no comparison: a key with a NULL part joins nothing.
        table.pop(None, None)
        if len(self.join_on) > 1:
            for key in [key for key in table if None in key]:
                del table[key]
        return table

    def _probe_input(
        self, context: ExecutionContext
    ) -> tuple["RowSource", ExecutionContext]:
        """The probe input and the context it runs under."""
        probe_context = context.child()
        if self.build_side == "inner":
            return self.source, probe_context
        probe_context.report_rewritten_sql = False
        return self.inner_path, probe_context

    def _merge(
        self, probed: Iterable[tuple[Mapping[str, Any], Sequence[Mapping[str, Any]]]]
    ) -> list[dict[str, Any]]:
        """The one merge step: each probe row joined with each of its matches.

        ``probed`` pairs a probe row with its build rows; the output follows
        probe order, then build-list order.  The merged dict is
        ``{**outer, **inner}``, so with ``build=inner`` a build row's columns
        shadow the probe row's, and with ``build=outer`` the probe row wins.
        """
        if self.build_side == "inner":
            return [
                {**probe_row, **inner_row}
                for probe_row, inner_rows in probed
                for inner_row in inner_rows
            ]
        return [
            {**outer_row, **probe_row}
            for probe_row, outer_rows in probed
            for outer_row in outer_rows
        ]

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # One implementation for both orientations: only which input builds,
        # which key extracts, and the outer/inner roles of the merged dict
        # depend on the build side.  Per-probe rewritten SQL is suppressed on
        # whichever role the inner path plays (nobody reads it there).
        #
        # The hash table itself issues no I/O, so batching reorders nothing:
        # the build side drains fully -- an eager pull, whatever this
        # operator's own demand -- before the first probe, and probe-side
        # page reads interleave only with memory work.
        table = self._build(context, batch_size)
        if not table:
            return  # empty build side: never pull a single probe row
        if demand is not None:
            # A lazy pull stops mid-probe: produce row by row.
            probe = self._probe_lazily(table, context)
            yield from _chunk_rows(probe, batch_size, demand)
            return
        yield from self._probe(table, context, batch_size, False)

    def _probe(
        self,
        table: Mapping[Any, list[Mapping[str, Any]]],
        context: ExecutionContext,
        batch_size: int,
        matched_only: bool,
    ) -> Iterator[RowBatch]:
        """The eager probe: every probe batch through one key lookup.

        Yields the merged rows -- or, with ``matched_only``, just the probe
        rows that have a match, unmerged, while counting on this node's
        ``rows_out`` the merged rows they stand for (the sum of their match
        lists' lengths).  Either way each probe batch costs one C-driven
        pass: key extraction (itemgetter), hash lookup and merge or
        selection, with no per-row interpreter frame.
        """
        probe_source, probe_context = self._probe_input(context)
        counters = context.counters
        probe_key = self._probe_key
        get = table.get
        empty: tuple[()] = ()
        probe_rows = 0
        out = RowBatch()
        try:
            for batch in probe_source.iter_batches(probe_context, batch_size):
                probe_rows += len(batch)
                counters.join_probes += len(batch)
                if matched_only:
                    matches = list(map(get, map(probe_key, batch)))
                    counters.rows_out += sum(map(len, filter(None, matches)))
                    out.extend(compress(batch, matches))
                else:
                    out.extend(
                        self._merge(
                            zip(batch, map(get, map(probe_key, batch), repeat(empty)))
                        )
                    )
                if len(out) >= batch_size:
                    yield out
                    out = RowBatch()
        finally:
            _charge_cpu(self.inner_path, probe_rows)
        if out:
            yield out

    def _probe_lazily(
        self,
        table: Mapping[Any, list[Mapping[str, Any]]],
        context: ExecutionContext,
    ) -> Iterator[dict[str, Any]]:
        """One probe-side row, its matches -- and only then the next pull."""
        probe_source, probe_context = self._probe_input(context)
        counters = context.counters
        probe_key = self._probe_key
        probe_rows = 0
        try:
            for probe_row in probe_source.iter_rows(probe_context):
                counters.join_probes += 1
                probe_rows += 1
                matches = table.get(probe_key(probe_row))
                if matches:
                    yield from self._merge(((probe_row, matches),))
        finally:
            _charge_cpu(self.inner_path, probe_rows)

    def top_k(
        self,
        context: ExecutionContext,
        batch_size: int,
        ordering: Sequence[tuple[str, bool]],
        k: int,
        rank: Callable[[Iterable[RowBatch]], tuple[list[dict[str, Any]], int]],
    ) -> tuple[list[dict[str, Any]], int]:
        """The first ``k`` joined rows under ``ordering``, and the join's size.

        ``rank`` is a top-k's ranking loop: it takes a batch stream and
        returns its first ``k`` rows under ``ordering`` (ties in arrival
        order) plus how many rows it saw.  Runs on this node's counters, as
        a pull through :meth:`iter_batches` would.

        When no build row carries an ORDER BY column, every ORDER BY value of
        a merged row is its probe row's -- the probe row wins the merge, or
        nothing shadows it -- so ``rank`` ranks the *matched probe rows*
        instead.  A probe row's merged rows share its sort key and arrive
        next to each other, so the first ``k`` joined rows come from at most
        the first ``k`` ranked probe rows: only those are merged, in
        build-list order, and the result is cut to ``k``.  Otherwise (a
        build row carries the column, checked on the built table) ``rank``
        ranks the merged rows, as a drained join would feed it.

        Either way the build runs once, ``join_probes`` and the CPU charges
        are the drain's, ``rows_out`` becomes the join cardinality, and that
        cardinality is returned for the top-k's own accounting.
        """
        context = self.adopt(context)
        counters = context.counters
        table = self._build(context, batch_size)
        if not table:
            return [], 0
        columns = [column for column, _ascending in ordering]
        if any(
            column in row
            for rows in table.values()
            for row in rows
            for column in columns
        ):
            top_rows, joined = rank(self._probe(table, context, batch_size, False))
            counters.rows_out += joined
            return top_rows, joined
        rows_out = counters.rows_out
        winners, _matched = rank(self._probe(table, context, batch_size, True))
        probe_key = self._probe_key
        top_rows = self._merge((row, table[probe_key(row)]) for row in winners)
        return top_rows[:k], counters.rows_out - rows_out

    def describe_detail(self) -> str:
        keys = ", ".join(inner for _outer, inner in self.join_on)
        label = self.inner_label or self.inner_path.__class__.__name__
        return f"{label}({keys}) hash build={self.build_side}"


class SortMergeJoin(JoinOperator):
    """Sort-merge join: merge the two inputs in join-key order.

    ``inner_path`` is an access path over the joined table.  Pre-sorted
    inputs merge directly: ``inner_sorted=True`` declares that the inner
    path already yields rows in join-key order (its clustered attribute *is*
    the join key and the heap has no unsorted tail), so the merge sweeps its
    pages lazily and a satisfied LIMIT abandons the sweep early.
    ``outer_sorted`` declares the same of the outer input (a scan of a table
    clustered on the outer join column).  Any side not declared sorted is
    materialised and explicitly sorted first -- the planner charges that
    sort from sampled row counts, which is what steers it towards the
    smaller side / a hash join when nothing is pre-ordered.

    Duplicate keys merge as group cross-products, so all-duplicate inputs
    degrade gracefully to the full cartesian block rather than losing rows.

    An eager pull of the common both-sides-materialised case runs a
    columnar merge: all I/O happens in two full upfront drains -- outer
    first, inner only once the outer proved non-empty -- so the merge
    interior is pure memory work, free to run over sorted key vectors with
    ``groupby`` and ``bisect`` instead of per-row key construction.  A
    *pre-sorted* side, or a lazy pull, runs the row-at-a-time merge
    (:meth:`_merge_lazily`) instead: it interleaves outer and inner page
    reads row by row, and may abandon the outer sweep the moment the inner
    side is exhausted -- both behaviours a vectorized read-ahead could not
    reproduce.  The two merges charge identically on a full drain
    (``tests/engine/test_columnar.py::TestSortMergeJoinVectorized``).
    """

    name = "sort_merge_join"
    strategy = "merge"

    __slots__ = (
        "inner_path",
        "join_on",
        "inner_sorted",
        "outer_sorted",
        "inner_label",
        "_outer_key",
        "_inner_key",
    )

    def __init__(
        self,
        source: "RowSource",
        inner_path: "RowSource",
        join_on: Sequence[tuple[str, str]],
        *,
        inner_sorted: bool = False,
        outer_sorted: bool = False,
        inner_label: str = "",
    ) -> None:
        super().__init__(source)
        self.inner_path = inner_path
        self.join_on = tuple(join_on)
        self.inner_sorted = inner_sorted
        self.outer_sorted = outer_sorted
        self.inner_label = inner_label
        self._outer_key = _ordering_key_getter(
            [outer for outer, _inner in self.join_on]
        )
        self._inner_key = _ordering_key_getter(
            [inner for _outer, inner in self.join_on]
        )

    def _stream_batches(
        self, context: ExecutionContext, batch_size: int, demand: int | None
    ) -> Iterator[RowBatch]:
        # Vectorized only when both inputs get materialised and sorted in
        # memory and the consumer drains the result: the I/O then happens in
        # two full upfront drains with nothing interleaved, so batching the
        # reads and running the merge columnar changes no simulated number.
        # A pre-sorted side or a lazy pull takes the row-at-a-time merge
        # (see the class docstring).
        if self.inner_sorted or self.outer_sorted or demand is not None:
            yield from _chunk_rows(self._merge_lazily(context), batch_size, demand)
            return
        from bisect import bisect_left, bisect_right
        from itertools import groupby

        outer_rows: list[Mapping[str, Any]] = []
        for batch in self.source.iter_batches(context.child(), batch_size):
            outer_rows.extend(batch)
        if not outer_rows:
            return  # nothing to merge: the inner is never read
        outer_columns = [outer for outer, _inner in self.join_on]
        inner_columns = [inner for _outer, inner in self.join_on]
        outer_keys, outer_rows = _sorted_with_keys(outer_rows, outer_columns)
        _charge_cpu(self.inner_path, _sort_cpu_tuples(len(outer_rows)))

        inner_context = context.child()
        inner_context.report_rewritten_sql = False
        inner_rows: list[Mapping[str, Any]] = []
        for batch in self.inner_path.iter_batches(inner_context, batch_size):
            inner_rows.extend(batch)
        inner_keys, inner_rows = _sorted_with_keys(inner_rows, inner_columns)
        _charge_cpu(self.inner_path, _sort_cpu_tuples(len(inner_rows)))

        # The merge interior, columnar: outer groups come from groupby over
        # the sorted key vector, the matching inner run from two bisects.
        # ``parked`` is the index of the inner row the row-at-a-time merge
        # (:meth:`_merge`) would have fetched and parked; the charged fetch
        # count below reproduces its per-advance counting exactly (each
        # fetched row counts once; discovering exhaustion counts nothing).
        counters = context.counters
        n_inner = len(inner_rows)
        parked = 0
        outer_consumed = 0
        position = 0
        out = RowBatch()
        try:
            for key, group in groupby(outer_keys):
                size = sum(1 for _ in group)
                outer_group = outer_rows[position : position + size]
                position += size
                counters.join_probes += size
                outer_consumed += size
                parked = bisect_left(inner_keys, key, parked)
                if parked >= n_inner:
                    # Inner exhausted mid-skip: this group is counted (as in
                    # the row merge) and the remaining outer groups are not.
                    if out:
                        yield out
                    return
                if inner_keys[parked] != key:
                    continue
                end = bisect_right(inner_keys, key, parked)
                inner_group = inner_rows[parked:end]
                parked = end
                if (True, None) in key:  # NULL matches no comparison
                    continue
                out.extend(
                    [
                        {**outer_row, **matched}
                        for outer_row in outer_group
                        for matched in inner_group
                    ]
                )
                if len(out) >= batch_size:
                    yield out
                    out = RowBatch()
            if out:
                yield out
        finally:
            inner_fetched = min(parked + 1, n_inner)
            _charge_cpu(self.inner_path, outer_consumed + inner_fetched)

    def _merge_lazily(self, context: ExecutionContext) -> Iterator[dict[str, Any]]:
        """The row-at-a-time merge: pre-sorted sides are pulled on demand."""
        outer_rows: Iterable[Mapping[str, Any]]
        if self.outer_sorted:
            # Lazy: the outer already streams in key order, so the merge
            # pulls outer rows on demand and a satisfied LIMIT stops the
            # outer sweep exactly as the probe joins do.
            outer_rows = self.source.iter_rows(context.child())
        else:
            outer_rows = sorted(
                self.source.iter_rows(context.child()), key=self._outer_key
            )
            if not outer_rows:
                return  # nothing to merge: the inner is never read
            _charge_cpu(self.inner_path, _sort_cpu_tuples(len(outer_rows)))
        inner_context = context.child()
        inner_context.report_rewritten_sql = False

        def inner_in_key_order() -> Iterator[Mapping[str, Any]]:
            if self.inner_sorted:
                # Heap order is key order: pull inner pages on demand,
                # so early termination leaves the rest unread.
                return self.inner_path.iter_rows(inner_context)
            rows = sorted(
                self.inner_path.iter_rows(inner_context), key=self._inner_key
            )
            _charge_cpu(self.inner_path, _sort_cpu_tuples(len(rows)))
            return iter(rows)

        yield from self._merge(outer_rows, inner_in_key_order, context)

    def _merge(
        self,
        outer_rows: Iterable[Mapping[str, Any]],
        inner_in_key_order: Callable[[], Iterator[Mapping[str, Any]]],
        context: ExecutionContext,
    ) -> Iterator[dict[str, Any]]:
        from itertools import groupby

        sentinel = object()
        inner_iter: Iterator[Mapping[str, Any]] | None = None
        inner_row: Any = sentinel
        inner_key: Any = None
        merged_rows = 0

        def advance() -> None:
            # One key construction per inner row, cached across the outer
            # groups that compare against the same parked row.
            nonlocal inner_row, inner_key, merged_rows
            inner_row = next(inner_iter, sentinel)
            if inner_row is not sentinel:
                inner_key = self._inner_key(inner_row)
                merged_rows += 1

        try:
            for key, group in groupby(outer_rows, key=self._outer_key):
                outer_group = list(group)
                context.counters.join_probes += len(outer_group)
                merged_rows += len(outer_group)
                if inner_iter is None:
                    # The inner input is opened (and, if unsorted,
                    # materialised and sorted) only once the outer proved
                    # non-empty, so an empty outer never reads the inner.
                    inner_iter = inner_in_key_order()
                    advance()
                while inner_row is not sentinel and inner_key < key:
                    advance()
                if inner_row is sentinel:
                    return
                inner_group: list[Mapping[str, Any]] = []
                while inner_row is not sentinel and inner_key == key:
                    inner_group.append(inner_row)
                    advance()
                if (True, None) in key:  # NULL matches no comparison
                    continue
                for outer_row in outer_group:
                    for matched in inner_group:
                        yield {**outer_row, **matched}
        finally:
            # The merge compares each consumed row once; charge that CPU.
            _charge_cpu(self.inner_path, merged_rows)

    def describe_detail(self) -> str:
        keys = ", ".join(inner for _outer, inner in self.join_on)
        sorts = [] if self.outer_sorted else ["outer"]
        if not self.inner_sorted:
            sorts.append("inner")
        label = self.inner_label or self.inner_path.__class__.__name__
        return f"{label}({keys}) merge sort={'+'.join(sorts) or 'none'}"
