"""Cost-based planning: physical operator trees for scans, joins and more.

The planner turns a declarative :class:`~repro.engine.query.Query` into an
executable tree of :class:`~repro.engine.executor.PlanNode` operators and
costs every candidate tree bottom-up from reservoir-sample statistics --
plan enumeration performs **zero heap page reads**.

For single-table queries the planner enumerates the applicable access paths
-- sequential scan, sorted secondary-index scan, clustered-index scan and
correlation-map scan -- estimates each with the correlation-aware cost model
of Section 4, and picks the cheapest.  Selection is LIMIT-aware: each
candidate's cost is split into an upfront part (index descents) and a
streaming part (the page sweep early termination cuts short), and candidates
are costed for ``min(limit, estimated_result_rows)`` output rows.

For multi-table queries the planner enumerates left-deep join orders over
the query's equi-join graph.  Each order starts from the cheapest access
path of its driving table and adds one pipelined join step per remaining
table; every step considers a naive nested-loop inner (sequential rescan),
every applicable index-nested-loop inner -- clustered index, secondary
B+Tree, or correlation map -- plus the set-at-a-time operators that cover
the unindexed case in O(N + M) pages: a streaming hash join (building the
sampled-smaller input's hash table) and a sort-merge join (merging for free
when an input already streams in join-key order, spilling to an explicit
sort charged from sampled row counts otherwise).  The CM inner path is the
paper's central idea applied across tables: when the join key is correlated
with the inner table's clustered key, each probe resolves through the tiny
memory-resident CM into a couple of clustered buckets instead of a B+Tree
descent per matching tuple.  Join cardinalities come from the tables'
reservoir samples (:func:`repro.core.statistics.join_fanout`).

On top of the scan/join input tree the planner stacks the pipeline
decorators of :mod:`repro.engine.plan`, bottom-up: GroupBy/Aggregate, then
Sort -- fused with a LIMIT into a bounded TopK -- then Limit and
Project.  Two ordering-aware rules matter:

* **free ORDER BY**: when the chosen input already streams in the requested
  order (any sweep path over a table clustered on the sort column, a merge
  join on it, probe/hash chains that preserve the driver's order), the Sort
  node is planned away entirely and the LIMIT keeps terminating the scan
  early;
* **blocking awareness**: a Sort/TopK/Aggregate consumes its whole input,
  so the LIMIT is *not* pushed into the scan/join costing beneath one --
  exactly as a hash build of the outer input already blocked the stream in
  the join costing.

A specific access method or join strategy can also be forced, which is how
the benchmarks compare plans against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence, TypeVar

if TYPE_CHECKING:
    from repro.core.correlation_map import CorrelationMap
    from repro.storage.disk import DiskModel

from repro.core.cost import (
    CMCostInputs,
    CostSplit,
    broadcast_cost,
    cm_lookup_cost,
    cm_lookup_cost_split,
    hash_group_cost,
    hash_join_cost,
    index_nested_loop_join_cost,
    limited_cost,
    merge_exchange_cost,
    nested_loop_join_cost,
    pipelined_lookup_cost,
    repartition_cost,
    scalar_aggregate_cost,
    scan_cost,
    sort_cost,
    sort_merge_join_cost,
    sorted_lookup_cost,
    sorted_lookup_cost_split,
    top_k_cost,
)
from repro.core.model import HardwareParameters
from repro.core.statistics import join_fanout
from repro.engine.access import (
    AccessPath,
    ClusteredIndexScan,
    CorrelationMapScan,
    InnerPathBuilder,
    PipelinedIndexScan,
    SeqScan,
    SortedIndexScan,
)
from repro.engine.executor import (
    HashJoin,
    IndexNestedLoopJoin,
    JoinOperator,
    NestedLoopJoin,
    PlanNode,
    ScanNode,
    SortMergeJoin,
)
from repro.engine.exchange import (
    BroadcastNode,
    MergeExchangeNode,
    RepartitionNode,
    _BroadcastCache,
    _RepartitionCache,
)
from repro.engine.partition import PartitionedTable, PartitionSpec
from repro.engine.plan import (
    AggregateNode,
    ExchangeNode,
    GroupByNode,
    LimitNode,
    ProjectNode,
    SortNode,
    TopKNode,
    _ordering_text,
)
from repro.engine.predicates import Between, Equals, InSet, PredicateSet
from repro.engine.query import Query
from repro.engine.table import Table

#: Anything the decorator layer can estimate groups over: a plain table or a
#: partitioned one (both expose schema, cardinalities and row estimates).
AnyTable = Table | PartitionedTable

#: Names accepted by ``force=`` arguments (single-table access methods).
FORCE_METHODS = (
    "seq_scan",
    "sorted_index_scan",
    "pipelined_index_scan",
    "clustered_index_scan",
    "cm_scan",
)

#: Names accepted by ``force_join=`` arguments: the join operators' names.
FORCE_JOIN_METHODS = (
    "nested_loop_join",
    "index_nested_loop_join",
    "hash_join",
    "sort_merge_join",
)


@dataclass(frozen=True)
class _RawScan:
    """One applicable access path before LIMIT-aware costing.

    Every scan chooser starts from these -- single-table planning directly,
    join-driver selection and partition fan-out through
    :meth:`Planner._best_scan` -- and the LIMIT only enters afterwards, in
    :meth:`Planner._scan_node`.
    """

    path: AccessPath
    structure: str
    split: CostSplit
    unlimited_ms: float


_Node = TypeVar("_Node", bound=PlanNode)


def _stamp(
    node: _Node,
    *,
    rows: float | None = None,
    pages: float | None = None,
    split: CostSplit | None = None,
    cost: float | None = None,
    structure: str | None = None,
) -> _Node:
    """Write the planner's estimates onto ``node`` -- only the ones given."""
    if rows is not None:
        node.est_rows = rows
    if pages is not None:
        node.est_pages = pages
    if split is not None:
        node.cost_split = split
    if cost is not None:
        node.est_cost_ms = cost
    if structure is not None:
        node.structure = structure
    return node


def _piped(structure: str, node: PlanNode) -> str:
    """The EXPLAIN pipeline text ``structure`` with ``node`` stacked on top."""
    return f"{structure} -> {node.name}({node.describe_detail()})"


def _check_forced(force: str | None, force_join: str | None = None) -> None:
    """Reject ``force=`` / ``force_join=`` names the planner does not know."""
    if force is not None and force not in FORCE_METHODS:
        raise ValueError(f"unknown access method {force!r}")
    if force_join is not None and force_join not in FORCE_JOIN_METHODS:
        raise ValueError(f"unknown join method {force_join!r}")


class Planner:
    """Chooses physical plan trees for queries over one database."""

    def __init__(self, hardware: HardwareParameters) -> None:
        self.hardware = hardware

    # -- lookup-count estimation --------------------------------------------------

    def _estimate_n_lookups(
        self, table: Table, predicates: PredicateSet, attributes: Sequence[str]
    ) -> int:
        """How many distinct values an index/CM will be probed with."""
        first = attributes[0]
        predicate = predicates.on_attribute(first)
        if predicate is None:
            return 1
        if isinstance(predicate, Equals):
            return 1
        if isinstance(predicate, InSet):
            return max(1, len(predicate.values))
        if isinstance(predicate, Between):
            # Approximate the number of distinct values inside the range from
            # the attribute's cardinality, assuming a roughly uniform domain.
            # Cardinality and domain bounds come from the incrementally
            # maintained statistics -- plan enumeration never scans the heap.
            cardinality = table.attribute_cardinality(first)
            bounds = table.attribute_range(first)
            if bounds is None:
                return 1
            lo, hi = bounds
            try:
                span = float(hi) - float(lo)
                width = float(predicate.high if predicate.high is not None else hi) - float(
                    predicate.low if predicate.low is not None else lo
                )
                fraction = min(1.0, max(0.0, width / span)) if span > 0 else 1.0
            except (TypeError, ValueError):
                fraction = 0.1
            return max(1, int(round(cardinality * fraction)))
        return 1

    # -- candidate enumeration (single table) -------------------------------------

    def _raw_scan_candidates(
        self, table: Table, predicates: PredicateSet
    ) -> list[_RawScan]:
        """Every applicable access path with its Section 4 cost split."""
        profile = table.table_profile()
        full_scan = scan_cost(profile, self.hardware)
        raws = [
            _RawScan(
                path=SeqScan(table, predicates),
                structure="heap",
                split=CostSplit(0.0, full_scan),
                unlimited_ms=full_scan,
            )
        ]

        predicate_attrs = {p.attribute for p in predicates.indexable_predicates()}

        if (
            table.clustered_attribute is not None
            and table.clustered_attribute in predicate_attrs
        ):
            n = self._estimate_n_lookups(table, predicates, [table.clustered_attribute])
            corr = table.correlation_profile(table.clustered_attribute)
            raws.append(
                _RawScan(
                    path=ClusteredIndexScan(table, predicates),
                    structure=f"clustered({table.clustered_attribute})",
                    split=sorted_lookup_cost_split(n, corr, profile, self.hardware),
                    unlimited_ms=sorted_lookup_cost(n, corr, profile, self.hardware),
                )
            )

        for name, index in table.secondary_indexes.items():
            if index.attributes[0] not in predicate_attrs:
                continue
            if table.clustered_attribute is None:
                continue
            n = self._estimate_n_lookups(table, predicates, index.attributes)
            corr = table.correlation_profile(list(index.attributes))
            raws.append(
                _RawScan(
                    path=SortedIndexScan(table, index, predicates),
                    structure=name,
                    split=sorted_lookup_cost_split(n, corr, profile, self.hardware),
                    unlimited_ms=sorted_lookup_cost(n, corr, profile, self.hardware),
                )
            )

        for name, cm in table.correlation_maps.items():
            if not any(attr in predicate_attrs for attr in cm.attributes):
                continue
            n = self._estimate_cm_lookups(cm, predicates)
            inputs = CMCostInputs(
                buckets_per_lookup=max(1.0, cm.measured_c_per_u()),
                pages_per_bucket=self._pages_per_target(table, cm),
                cm_pages=cm.size_pages(),
                cm_resident=True,
            )
            raws.append(
                _RawScan(
                    path=CorrelationMapScan(table, cm, predicates),
                    structure=name,
                    split=cm_lookup_cost_split(n, inputs, profile, self.hardware),
                    unlimited_ms=cm_lookup_cost(n, inputs, profile, self.hardware),
                )
            )
        return raws

    def _scan_node(
        self, table: Table, raw: _RawScan, est_rows: float, limit: int | None
    ) -> ScanNode:
        """An executable, costed leaf for one raw candidate.

        A limit only changes the costing when it actually bites: the
        full-result formulas clamp upfront+streaming jointly, so fall back
        to them whenever every matching row will be produced.
        """
        if limit is None or est_rows < 1.0 or limit >= est_rows:
            cost = raw.unlimited_ms
        else:
            cost = limited_cost(raw.split, est_rows, limit)
        # Rough page estimate: the streaming cost re-read as sequential pages.
        pages = float(table.num_pages)
        if self.hardware.seq_page_cost_ms > 0:
            pages = min(pages, raw.split.streaming_ms / self.hardware.seq_page_cost_ms)
        return _stamp(
            ScanNode(raw.path),
            rows=est_rows,
            pages=pages,
            split=raw.split,
            cost=cost,
            structure=raw.structure,
        )

    def _cheapest(self, plans: Sequence[_Node], force: str | None) -> _Node:
        """The best-ranked plan -- among those using the forced method, if any."""
        if force is not None:
            plans = [plan for plan in plans if plan.method == force]
            if not plans:
                raise ValueError(f"no applicable plan for forced method {force!r}")
        return min(plans, key=self.plan_rank)

    def _best_scan(
        self,
        table: Table,
        predicates: PredicateSet,
        *,
        force: str | None,
        limit: int | None,
    ) -> ScanNode:
        """The cheapest (or forced) bare scan of one table or partition child.

        The one leaf chooser behind every multi-input plan: a join's driving
        path, each surviving partition of a fan-out, and the build side a
        broadcast or repartition scans once.  Raises :class:`ValueError`
        when the forced method does not apply to this table.
        """
        if force == "pipelined_index_scan":
            return self._pipelined_plan(table, predicates)
        est_rows = table.estimate_matching_rows(predicates)
        scans = [
            self._scan_node(table, raw, est_rows, limit)
            for raw in self._raw_scan_candidates(table, predicates)
        ]
        return self._cheapest(scans, force)

    def candidate_plans(
        self,
        table: Table,
        query: Query,
        *,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> list[PlanNode]:
        """All applicable plan trees for ``query``, costed bottom-up.

        Each candidate is a full operator tree: the access path plus the
        Aggregate/GroupBy/Sort/TopK/Limit/Project decorators the query asks
        for.  With ``limit`` given, fully streaming candidates are costed
        for producing ``min(limit, estimated_result_rows)`` rows (see
        :func:`repro.core.cost.limited_cost`); a candidate whose tree blocks
        -- an aggregate, or an ORDER BY its stream does not already satisfy
        -- is costed for the full input drain instead.
        """
        est_rows = table.estimate_matching_rows(query.predicates)
        plans = []
        for raw in self._raw_scan_candidates(table, query.predicates):
            ordering = raw.path.output_ordering()
            sort_needed = bool(query.ordering) and not self._ordering_satisfied(
                ordering, query.ordering
            )
            blocking = query.aggregate is not None or sort_needed
            node = self._scan_node(table, raw, est_rows, None if blocking else limit)
            plans.append(
                self._decorate(node, query, limit, projection, ordering, [table])
            )
        return plans

    def _estimate_cm_lookups(self, cm: CorrelationMap, predicates: PredicateSet) -> int:
        """Number of CM keys (buckets) the query's constraints touch.

        Counting the CM's matching keys is exactly what the front-end does
        while rewriting the query, and it keeps the planner's ``n_lookups``
        at bucket granularity rather than value granularity for range
        predicates over bucketed attributes.  The count is
        :meth:`CorrelationMap.matching_keys`' -- for a range on the CM's
        leading attribute a bisection of its sorted key directory, so the
        memory-resident CM costs O(log keys) to consult at plan time.
        """
        constraints = {
            attr: constraint
            for attr, constraint in predicates.constraints().items()
            if attr in cm.attributes
        }
        if not constraints:
            return 1
        bucket_constraints = cm.key_spec.bucket_constraints(constraints)
        return max(1, len(cm.matching_keys(bucket_constraints)))

    def _pages_per_target(self, table: Table, cm: CorrelationMap) -> float:
        """Average heap pages covered by one CM target (bucket or value)."""
        if table.cm_uses_buckets(cm.name) and table.pages_per_bucket:
            return float(table.pages_per_bucket)
        profile = table.correlation_profile(table.clustered_attribute)
        return max(1.0, profile.c_pages(table.tups_per_page))

    # -- ordering analysis ---------------------------------------------------------

    @staticmethod
    def _ordering_satisfied(
        stream_ordering: Sequence[tuple[Any, bool]],
        required: Sequence[tuple[str, bool]],
    ) -> bool:
        """Whether a stream's known ordering covers the requested ORDER BY.

        ``stream_ordering`` entries are ``(column_or_column_set, ascending)``
        -- a merge join's output is simultaneously ordered under both join
        key names, hence the set form.  The requested order must be a
        direction-matching prefix of the stream's (a stream sorted by
        ``(a, b)`` satisfies ``ORDER BY a`` because the sort is stable).
        Heaps and indexes only flow forward, so their streams carry
        ascending entries and can never satisfy a descending request; a
        merge exchange, however, re-emits whatever order its per-partition
        sorts produced, descending included.
        """
        if len(required) > len(stream_ordering):
            return False
        for (column, ascending), entry in zip(required, stream_ordering):
            columns, stream_ascending = entry
            if isinstance(columns, str):
                columns = {columns}
            if ascending != stream_ascending or column not in columns:
                return False
        return True

    def _estimate_groups(
        self, tables: Sequence[AnyTable], grouping: Sequence[str], est_input_rows: float
    ) -> float:
        """Expected distinct group count, from the reservoir samples.

        When one table owns every group column its composite-key cardinality
        is used directly; otherwise (grouping across join sides) the
        per-column cardinalities multiply, capped by the input size -- the
        textbook independence assumption.
        """
        grouping = list(grouping)
        for table in tables:
            if all(table.schema.has_column(column) for column in grouping):
                distinct = float(table.key_cardinality(grouping))
                return max(0.0, min(est_input_rows, distinct))
        product = 1.0
        for column in grouping:
            owner = next(
                (t for t in tables if t.schema.has_column(column)), None
            )
            if owner is not None:
                product *= max(1.0, float(owner.attribute_cardinality(column)))
        return max(0.0, min(est_input_rows, product))

    # -- decorator layer -----------------------------------------------------------

    def _decorate(
        self,
        node: PlanNode,
        query: Query,
        limit: int | None,
        projection: Sequence[str] | None,
        ordering: Sequence[tuple[Any, bool]],
        tables: Sequence[AnyTable],
    ) -> PlanNode:
        """Stack Aggregate/GroupBy, Sort/TopK, Limit, Project over ``node``.

        ``limit``/``projection`` are the effective execution values (no
        projection given: the query's own); ``ordering`` is the order
        ``node``'s stream already flows in and ``tables`` the inputs beneath
        it, the fanned-out or driving one first (its device is charged the
        decorators' CPU).  Costs accumulate bottom-up: the input tree's
        ``est_cost_ms`` (already LIMIT-aware when the pipeline streams) plus
        each decorator's own :class:`CostSplit`.  The finished root carries
        the whole-tree cost and the pipeline ``structure`` string.
        """
        if projection is None:
            projection = query.projection
        total = node.estimated_cost_ms
        structure = node.structure
        est = node.est_rows or 0.0
        current = node
        hw = self.hardware
        first = tables[0]
        disk = (
            first.disk
            if isinstance(first, PartitionedTable)
            else first.buffer_pool.disk
        )

        if query.aggregate is not None:
            if query.grouping:
                groups = self._estimate_groups(tables, query.grouping, est)
                split = hash_group_cost(est, groups, hw)
                current = GroupByNode(
                    current, query.grouping, query.aggregate, disk=disk
                )
                est = groups
            else:
                split = scalar_aggregate_cost(est, hw)
                current = AggregateNode(current, query.aggregate, disk=disk)
                est = 1.0
            _stamp(current, rows=est, pages=0.0, split=split)
            total += split.total_ms
            structure = _piped(structure, current)
            ordering = ()  # hash aggregation scrambles any input order

        # Free ORDER BY when the stream already flows in order; otherwise a
        # Sort, which a LIMIT fuses into a bounded top-k.
        limit_fused = False
        if query.ordering and not self._ordering_satisfied(ordering, query.ordering):
            current, split = self._order_enforcer(
                current, query.ordering, est, limit, disk
            )
            est = current.est_rows or 0.0
            total += split.total_ms
            structure = _piped(structure, current)
            limit_fused = limit is not None

        if limit is not None and not limit_fused:
            est = min(est, float(limit))
            current = _stamp(LimitNode(current, limit, disk=disk), rows=est, pages=0.0)

        if projection is not None:
            current = _stamp(
                ProjectNode(current, projection, disk=disk), rows=est, pages=0.0
            )

        return _stamp(current, cost=total, structure=structure)

    def _order_enforcer(
        self,
        child: PlanNode,
        ordering: Sequence[tuple[str, bool]],
        rows: float,
        limit: int | None,
        disk: DiskModel | None,
    ) -> tuple[SortNode | TopKNode, CostSplit]:
        """A stamped Sort over ``child`` -- a bounded top-k under a LIMIT.

        The one order enforcer: :meth:`_decorate` puts it above a whole
        plan, :meth:`_assemble_exchange` above each partition's subtree
        (charged to that partition's device) beneath a merging exchange.
        """
        if limit is not None:
            split = top_k_cost(rows, limit, self.hardware)
            node: SortNode | TopKNode = TopKNode(child, ordering, limit, disk=disk)
            rows = min(rows, float(limit))
        else:
            split = sort_cost(rows, self.hardware)
            node = SortNode(child, ordering, disk=disk)
        return _stamp(node, rows=rows, pages=0.0, split=split), split

    # -- selection (single table) ---------------------------------------------------

    def choose(
        self,
        table: Table,
        query: Query,
        *,
        force: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> PlanNode:
        """Pick the cheapest applicable plan tree (or the forced one).

        ``limit``/``projection`` are the effective execution values; pass
        them so the tree's Limit/Project nodes and the LIMIT-aware costing
        match what the execution will run.
        """
        _check_forced(force)
        if force == "pipelined_index_scan":
            node = self._pipelined_plan(table, query.predicates)
            return self._decorate(
                node, query, limit, projection, node.path.output_ordering(), [table]
            )
        # Every candidate is decorated before ranking: the whole-tree costs
        # (not the bare scans') decide, and their float sums break the ties.
        return self._cheapest(
            self.candidate_plans(table, query, limit=limit, projection=projection),
            force,
        )

    def _pipelined_plan(self, table: Table, predicates: PredicateSet) -> ScanNode:
        """The pipelined variant of the cheapest applicable sorted-index plan.

        Pipelined scans are never chosen by cost (the paper's point is how
        badly they do), so they are synthesized on demand for ``force=``
        callers -- including as a join's driving path.  Costed per Section
        3.1; fully streaming, so the split has no upfront part.
        """
        for raw in self._raw_scan_candidates(table, predicates):
            if isinstance(raw.path, SortedIndexScan):
                index = raw.path.index
                cost = pipelined_lookup_cost(
                    self._estimate_n_lookups(table, predicates, index.attributes),
                    table.correlation_profile(list(index.attributes)),
                    table.table_profile(),
                    self.hardware,
                )
                return _stamp(
                    ScanNode(PipelinedIndexScan(table, index, predicates)),
                    rows=table.estimate_matching_rows(predicates),
                    split=CostSplit(0.0, cost),
                    cost=cost,
                    structure=raw.structure,
                )
        raise ValueError("no secondary index available for a pipelined scan")

    # -- selection (partitioned table) ------------------------------------------------

    def _concat_ordering(
        self, spec: PartitionSpec, scans: Sequence[ScanNode]
    ) -> Sequence[tuple[Any, bool]]:
        """The order a concatenation of per-partition scans streams in.

        Under range partitioning the concatenation preserves the partition
        key's order whenever every child already streams in key order
        (partition *k*'s values all precede partition *k+1*'s).
        """
        key_order = ((spec.key, True),)
        if spec.method == "range" and all(
            self._ordering_satisfied(scan.path.output_ordering(), key_order)
            for scan in scans
        ):
            return key_order
        return ()

    def choose_partitioned(
        self,
        table: PartitionedTable,
        query: Query,
        *,
        force: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> PlanNode:
        """Prune partitions statically, then fan one scan subtree per survivor.

        Pruning consults only the partition spec and the predicate set (see
        :meth:`repro.engine.partition.PartitionSpec.prune`) -- zero heap
        reads, like the rest of plan enumeration.  Each surviving partition
        gets the flat planner's cheapest (or forced) bare scan;
        :meth:`_assemble_exchange` concatenates or merges the children and
        the usual decorator stack goes on top, charged to the shared device.
        """
        _check_forced(force)
        exchange, ordering = self._scan_exchange(
            table,
            query.predicates,
            force,
            query.ordering if query.aggregate is None else (),
            limit,
        )
        return self._decorate(exchange, query, limit, projection, ordering, [table])

    def _scan_exchange(
        self,
        table: PartitionedTable,
        predicates: PredicateSet,
        force: str | None,
        required: Sequence[tuple[str, bool]],
        limit: int | None,
    ) -> tuple[ExchangeNode, Sequence[tuple[Any, bool]]]:
        """Prune ``table``, scan every survivor, and put the exchange on top."""
        survivors = table.prune(predicates)
        scans = [
            self._best_scan(table.partitions[i], predicates, force=force, limit=None)
            for i in survivors
        ]
        return self._assemble_exchange(
            scans,
            [table.devices[i] for i in survivors],
            table,
            "scanned",
            required,
            limit,
            self._concat_ordering(table.spec, scans),
        )

    def _assemble_exchange(
        self,
        children: Sequence[PlanNode],
        device_entries: Sequence["DiskModel | tuple[DiskModel, ...]"],
        table: PartitionedTable,
        how: str,
        required: Sequence[tuple[str, bool]],
        limit: int | None,
        concat_ordering: Sequence[tuple[Any, bool]],
    ) -> tuple[ExchangeNode, Sequence[tuple[Any, bool]]]:
        """The exchange over per-partition subtrees: plain concat or k-way merge.

        ``device_entries`` holds, per child, the private device(s) its
        subtree reads through, its own partition's first; ``table`` is the
        fanned-out table and ``how`` says what each child does with its
        partition in the EXPLAIN text ("scanned", "broadcast orders", ...).
        When a ``required`` order is given that the concatenation does not
        already provide and at least two partitions survive, each child goes
        under the order enforcer -- per-partition Sort, or TopK when a LIMIT
        bounds the result -- charged to that partition's private device, and
        a :class:`MergeExchangeNode` heap-merges the ordered streams instead
        of sorting the concatenation.  The returned ordering is what the
        exchange's output stream provides, for :meth:`_decorate` (a merge's
        output satisfies the ORDER BY outright, descending included).
        """
        spec = table.spec
        via = sorted({child.structure or "?" for child in children})
        body = (
            f"{spec.describe()}: {len(children)}/{spec.num_partitions} "
            f"{how} via {', '.join(via) if via else 'none'}"
        )
        fan_out: dict[str, Any] = dict(
            devices=device_entries,
            partition_key=spec.key,
            partition_method=spec.method,
            partitions_total=spec.num_partitions,
        )
        pages = sum(child.est_pages or 0.0 for child in children)
        cost = sum(child.est_cost_ms or 0.0 for child in children)
        if (
            not required
            or len(children) < 2
            or self._ordering_satisfied(concat_ordering, required)
        ):
            concat = _stamp(
                ExchangeNode(children, **fan_out),
                rows=sum(child.est_rows or 0.0 for child in children),
                pages=pages,
                cost=cost,
                structure=f"exchange[{body}]",
            )
            return concat, concat_ordering

        wrapped: list[PlanNode] = []
        sort_ms = 0.0
        out_rows = 0.0
        for child, entry in zip(children, device_entries):
            node, split = self._order_enforcer(
                child,
                required,
                child.est_rows or 0.0,
                limit,
                entry[0] if isinstance(entry, tuple) else entry,
            )
            sort_ms += split.total_ms
            out_rows += node.est_rows or 0.0
            wrapped.append(node)
        merge_split = merge_exchange_cost(out_rows, len(wrapped), self.hardware)
        merge = _stamp(
            MergeExchangeNode(wrapped, ordering=required, disk=table.disk, **fan_out),
            rows=out_rows,
            pages=pages,
            split=merge_split,
            cost=cost + sort_ms + merge_split.total_ms,
            structure=(
                f"merge_exchange[{_ordering_text(tuple(required))}; "
                f"{body}; per-partition {wrapped[0].name}]"
            ),
        )
        return merge, tuple(required)

    def candidate_partitioned_plans(
        self,
        table: PartitionedTable,
        query: Query,
        *,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> list[PlanNode]:
        """Every distinct partitioned plan shape, for ``Database.explain``.

        The unforced choice (which may mix access methods across partitions)
        comes first, followed by each uniformly-forced shape that applies;
        structurally identical trees are listed once.
        """
        plans: dict[str, PlanNode] = {}
        for method in (None, *FORCE_METHODS):
            try:
                plan = self.choose_partitioned(
                    table, query, force=method, limit=limit, projection=projection
                )
            except ValueError:
                continue  # this method applies to none of the partitions
            plans.setdefault(plan.structure, plan)
        return list(plans.values())

    # -- selection (partition-wise joins) ----------------------------------------------

    def _partition_join_layout(
        self,
        tables: Mapping[str, AnyTable],
        query: Query,
    ) -> "_PartitionJoinLayout":
        """Classify a two-table join touching partitioned storage.

        The partitioned side is the *outer* of every per-partition subtree
        (the driving side when both are partitioned); static pruning runs on
        the outer side's local predicates only, so result rows match the
        flat join row for row.  Three exchange shapes can apply:

        * ``co_partitioned`` -- both sides partitioned with byte-identical
          layouts (:meth:`PartitionSpec.layout_compatible_with`) and the two
          partition keys equated in the join condition: partition *k* joins
          partition *k*, any per-partition operator applies.
        * ``broadcast`` -- a flat build side replicated to every partition's
          hash join through a shared cache, scanned once.
        * ``repartition`` -- the build side (flat, or partitioned with an
          incompatible layout) hash-split into the outer layout by the join
          column equated with the outer partition key.
        """
        if len(query.tables) != 2:
            raise ValueError(
                "joins over partitioned tables support exactly two tables; "
                f"{query.describe()!r} joins {len(query.tables)}"
            )
        outer_name, inner_name = query.tables
        if not isinstance(tables[outer_name], PartitionedTable):
            outer_name, inner_name = inner_name, outer_name
        # With two tables every edge links the driving table to the other
        # (and a join step always has at least one key pair).
        pairs = [
            (ca, cb) if a == outer_name else (cb, ca)
            for a, ca, _b, cb in self._join_edges(tables, query)
        ]
        outer, inner = tables[outer_name], tables[inner_name]
        assert isinstance(outer, PartitionedTable)
        spec = outer.spec
        shapes: list[str] = []
        if (
            isinstance(inner, PartitionedTable)
            and spec.layout_compatible_with(inner.spec)
            and (spec.key, inner.spec.key) in pairs
        ):
            shapes.append("co_partitioned")
        if isinstance(inner, Table):
            shapes.append("broadcast")
        routable = any(outer_column == spec.key for outer_column, _inner in pairs)
        if routable and "co_partitioned" not in shapes:
            shapes.append("repartition")
        if not shapes:
            raise ValueError(
                f"cannot join partitioned table {outer_name!r} with "
                f"{inner_name!r}: the join condition equates neither "
                f"compatible partition keys nor the partition key "
                f"{spec.key!r}, and the build side is not a flat table"
            )
        outer_local = self._local_predicates(query, outer_name)
        return _PartitionJoinLayout(
            outer=outer,
            inner=inner,
            pairs=pairs,
            outer_local=outer_local,
            inner_local=self._local_predicates(query, inner_name),
            survivors=tuple(outer.prune(outer_local)),
            shapes=tuple(shapes),
        )

    def _build_sides(
        self, layout: "_PartitionJoinLayout", shape: str
    ) -> tuple[list[PlanNode], float]:
        """One build input per surviving outer partition, scanned only once.

        A single fill plan reads the build side and hangs under the first
        partition's node.  ``broadcast`` replicates its rows to every
        partition's hash join through a shared cache; ``repartition``
        hash-splits them into the outer layout by the join column equated
        with the outer partition key.  Also returns the shape-level cost --
        the fill scan plus its distribution -- paid once, not per partition.
        """
        outer, inner = layout.outer, layout.inner
        spec, hw = outer.spec, self.hardware
        fill: PlanNode
        if isinstance(inner, PartitionedTable):
            fill, _ = self._scan_exchange(inner, layout.inner_local, None, (), None)
        else:
            fill = self._best_scan(inner, layout.inner_local, force=None, limit=None)
        fill_rows = fill.est_rows or 0.0
        builds: list[PlanNode] = []
        if shape == "broadcast":
            shape_split = broadcast_cost(
                fill.estimated_cost_ms, fill_rows, max(1, len(layout.survivors)), hw
            )
            build_rows = fill_rows
            broadcast_cache = _BroadcastCache()
            for index in layout.survivors:
                builds.append(
                    BroadcastNode(
                        broadcast_cache,
                        cpu_disk=outer.devices[index],
                        table_name=inner.name,
                        source=None if builds else fill,
                    )
                )
        else:
            shape_split = repartition_cost(
                fill.estimated_cost_ms,
                fill_rows,
                fill_rows / max(1, inner.tups_per_page),
                hw,
            )
            build_rows = fill_rows / max(1, spec.num_partitions)
            repartition_cache = _RepartitionCache()
            route_column = next(ic for oc, ic in layout.pairs if oc == spec.key)
            for index in layout.survivors:
                builds.append(
                    RepartitionNode(
                        repartition_cache,
                        partition_index=index,
                        spec=spec,
                        route_column=route_column,
                        table_name=inner.name,
                        cpu_disk=outer.devices[index],
                        disk=outer.disk,
                        tups_per_page=inner.tups_per_page,
                        source=None if builds else fill,
                    )
                )
        for build in builds:
            _stamp(build, rows=build_rows, pages=0.0)
        return builds, shape_split.total_ms

    def _partition_join_plan(
        self,
        layout: "_PartitionJoinLayout",
        shape: str,
        query: Query,
        force: str | None,
        force_join: str | None,
        limit: int | None,
        projection: Sequence[str] | None,
    ) -> PlanNode:
        """One decorated partition-wise join plan of the requested shape.

        ``co_partitioned`` joins partition *k* of the outer with partition
        *k* of the inner as one flat join step (:meth:`_join_step`), run by
        its cheapest -- or the forced -- operator; the other shapes hash-join
        every outer partition with its :meth:`_build_sides` input.
        """
        outer, inner, pairs = layout.outer, layout.inner, layout.pairs
        co_partitioned = shape == "co_partitioned"
        if not co_partitioned and force_join not in (None, "hash_join"):
            raise ValueError(
                f"the {shape} shape only supports hash_join, not {force_join!r}"
            )
        hw = self.hardware
        # Each partition's scan is chosen from its private statistics, so
        # access methods may differ across partitions.
        outer_scans = [
            self._best_scan(
                outer.partitions[i], layout.outer_local, force=force, limit=None
            )
            for i in layout.survivors
        ]
        outer_columns = [outer_column for outer_column, _inner in pairs]
        outer_devices = [outer.devices[i] for i in layout.survivors]
        device_entries: Sequence["DiskModel | tuple[DiskModel, ...]"] = outer_devices
        shape_ms = 0.0
        if co_partitioned:
            assert isinstance(inner, PartitionedTable)
            inner_partitions = inner.partitions
            device_entries = list(
                zip(outer_devices, (inner.devices[i] for i in layout.survivors))
            )
            how = f"co-partitioned with {inner.name}"
        else:
            how = f"{shape} {inner.name}"
            builds, shape_ms = self._build_sides(layout, shape)
            inner_cardinality = float(
                inner.key_cardinality([inner_column for _outer, inner_column in pairs])
            )
            selectivity = (
                inner.selectivity(layout.inner_local) if layout.inner_local else 1.0
            )
        children: list[PlanNode] = []
        order_kept = True
        for position, (index, outer_scan) in enumerate(
            zip(layout.survivors, outer_scans)
        ):
            est_rows = outer_scan.est_rows or 0.0
            outer_cardinality = float(
                outer.partitions[index].key_cardinality(outer_columns)
            )
            operator: JoinOperator
            if co_partitioned:
                step = self._join_step(
                    inner_partitions[index],
                    pairs,
                    layout.inner_local,
                    outer_cardinality,
                )
                chosen = self._choose_step(step, est_rows, outer_scan, force_join)
                if chosen is None:
                    raise ValueError(
                        f"no applicable plan for forced join method {force_join!r}"
                    )
                rows_after = est_rows * step.fanout * step.selectivity
                operator = self._build_step_operator(
                    outer_scan, step, chosen, rows_after
                )
                split = chosen.split
                inner_pages = (
                    0.0 if chosen.kind == "probe" else float(step.table.num_pages)
                )
                # Probe-family steps and an inner-built hash preserve the
                # outer stream's order; a merge or an outer-built hash
                # scrambles the concatenation's partition-key order.
                if chosen.kind == "merge" or chosen.build_side == "outer":
                    order_kept = False
            else:
                build = builds[position]
                fanout = join_fanout(
                    inner.num_rows, outer_cardinality, inner_cardinality
                )
                rows_after = est_rows * fanout * selectivity
                operator = HashJoin(
                    outer_scan,
                    build,
                    pairs,
                    build_side="inner",
                    inner_label=f"{shape}({inner.name})",
                )
                split = CostSplit(
                    upfront_ms=(build.est_rows or 0.0) * hw.cpu_tuple_cost_ms,
                    streaming_ms=est_rows * hw.cpu_tuple_cost_ms,
                )
                inner_pages = 0.0
            children.append(
                _stamp(
                    operator,
                    rows=rows_after,
                    pages=(outer_scan.est_pages or 0.0) + inner_pages,
                    split=split,
                    cost=outer_scan.estimated_cost_ms + split.total_ms,
                    structure=_piped(outer_scan.structure, operator),
                )
            )
        exchange, ordering = self._assemble_exchange(
            children,
            device_entries,
            outer,
            how,
            query.ordering if query.aggregate is None else (),
            limit,
            self._concat_ordering(outer.spec, outer_scans) if order_kept else (),
        )
        exchange.est_cost_ms = exchange.estimated_cost_ms + shape_ms
        return self._decorate(
            exchange, query, limit, projection, ordering, [outer, inner]
        )

    def _partition_join_plans(
        self,
        tables: Mapping[str, AnyTable],
        query: Query,
        force: str | None,
        force_join: str | None,
        limit: int | None,
        projection: Sequence[str] | None,
    ) -> list[PlanNode]:
        """One plan per exchange shape that applies and survives the forcing.

        See :meth:`_partition_join_layout` for the shapes; when the forcing
        rules every shape out, the first shape's reason is raised.
        """
        layout = self._partition_join_layout(tables, query)
        plans: list[PlanNode] = []
        errors: list[str] = []
        for shape in layout.shapes:
            try:
                plans.append(
                    self._partition_join_plan(
                        layout, shape, query, force, force_join, limit, projection
                    )
                )
            except ValueError as error:
                errors.append(str(error))
        if not plans:
            raise ValueError(errors[0])
        return plans

    def choose_partitioned_join(
        self,
        tables: Mapping[str, AnyTable],
        query: Query,
        *,
        force: str | None = None,
        force_join: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> PlanNode:
        """The cheapest partition-wise join plan over partitioned storage.

        Every applicable exchange shape (co-partitioned, broadcast,
        repartition -- see :meth:`_partition_join_layout`) is built and
        costed; selection picks the cheapest by :meth:`plan_rank`, exactly
        as flat join planning picks among its strategy shapes.
        """
        _check_forced(force, force_join)
        plans = self._partition_join_plans(
            tables, query, force, force_join, limit, projection
        )
        return min(plans, key=self.plan_rank)

    def candidate_partitioned_join_plans(
        self,
        tables: Mapping[str, AnyTable],
        query: Query,
        *,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> list[PlanNode]:
        """Every applicable partition-wise join shape, for ``Database.explain``."""
        return self._partition_join_plans(
            tables, query, None, None, limit, projection
        )

    #: Tie-break order when estimated costs are equal (which happens when all
    #: alternatives clamp to the scan cost on small tables): prefer the more
    #: selective structure.
    _METHOD_PREFERENCE = {
        "clustered_index_scan": 0,
        "cm_scan": 1,
        "sorted_index_scan": 2,
        "seq_scan": 3,
    }

    def plan_rank(self, plan: PlanNode) -> tuple[float, int]:
        """The selection sort key: cost first, structure preference on ties.

        Public because ``Database.explain`` sorts its candidate listing with
        the same key, guaranteeing its first entry is the plan selection
        picks.  ``method`` looks through decorator nodes, so a decorated
        tree ranks by its underlying access structure.
        """
        return (plan.estimated_cost_ms, self._METHOD_PREFERENCE.get(plan.method, 9))

    # -- join planning ---------------------------------------------------------------

    def candidate_join_plans(
        self,
        tables: Mapping[str, Table],
        query: Query,
        *,
        force: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> list[PlanNode]:
        """Left-deep join plan trees, one per (order, strategy) shape.

        For every connected left-deep order of the join graph, up to five
        candidate shapes are produced: the cheapest strategy per step (which
        picks whichever of rescanning, index probes, a hash build or an
        ordered merge the cost model prefers), plus the four pure shapes --
        all-nested-loop (the quadratic baseline the benchmarks force),
        all-index-nested-loop (when every inner table offers a probe
        structure), all-hash and all-sort-merge (always applicable: the
        unindexed fallbacks).  ``force`` pins the driving table's access
        method.  Decorator nodes (GroupBy/Sort/TopK/Limit/Project) wrap
        every shape per the query.  All cardinalities come from reservoir
        samples; enumeration never reads a heap page.
        """
        edges = self._join_edges(tables, query)
        orders = self._left_deep_orders(query.tables, edges)
        if not orders:
            raise ValueError(
                f"join graph of {query.describe()!r} is not connected: every "
                "joined table needs an equality linking it to the chain"
            )
        plans: dict[str, PlanNode] = {}
        for order in orders:
            analysis = self._analyze_order(
                tables, query, order, edges, force=force, limit=limit
            )
            if analysis is None:
                continue
            # ``None``: the cheapest operator per step; then the pure shapes.
            for selector in (None, *FORCE_JOIN_METHODS):
                plan = self._build_order_plan(
                    analysis, selector, limit, query, projection
                )
                if plan is not None:
                    plans.setdefault(plan.structure, plan)
        if not plans:
            raise ValueError(f"no applicable join plan for forced method {force!r}")
        return list(plans.values())

    def choose_join(
        self,
        tables: Mapping[str, Table],
        query: Query,
        *,
        force: str | None = None,
        force_join: str | None = None,
        limit: int | None = None,
        projection: Sequence[str] | None = None,
    ) -> PlanNode:
        """Pick the cheapest join plan (or the cheapest with a forced strategy).

        ``force_join`` restricts plans by their *step composition*, not just
        the root operator: ``"nested_loop_join"`` keeps only plans whose
        every step rescans the inner sequentially, ``"index_nested_loop_
        join"`` only plans whose every step probes an access structure,
        ``"hash_join"``/``"sort_merge_join"`` only plans built entirely from
        that operator (so a mixed chain satisfies no baseline).  ``force``
        pins the driving table's access method, as for single-table queries.
        """
        _check_forced(force, force_join)
        plans = self.candidate_join_plans(
            tables, query, force=force, limit=limit, projection=projection
        )
        if force_join is not None:
            plans = [
                plan
                for plan in plans
                if all(step.name == force_join for step in plan.join_steps())
            ]
            if not plans:
                raise ValueError(f"no applicable plan for forced join {force_join!r}")
        return min(plans, key=lambda plan: plan.estimated_cost_ms)

    def _join_edges(
        self, tables: Mapping[str, Table], query: Query
    ) -> list[tuple[str, str, str, str]]:
        """The equi-join graph as ``(table_a, column_a, table_b, column_b)``.

        Each :class:`JoinSpec` pair contributes one edge; the left column is
        resolved to its owning table by walking the chain prefix backwards
        (matching the merged-row semantics, where the latest table wins a
        name collision).
        """
        edges: list[tuple[str, str, str, str]] = []
        for position, spec in enumerate(query.joins):
            prefix = query.tables[: position + 1]
            for left, right in spec.on:
                owner = None
                for candidate in reversed(prefix):
                    if tables[candidate].schema.has_column(left):
                        owner = candidate
                        break
                if owner is None:
                    raise ValueError(
                        f"join column {left!r} not found in any of {prefix}"
                    )
                if not tables[spec.table].schema.has_column(right):
                    raise ValueError(
                        f"unknown column {right!r} in joined table {spec.table!r}"
                    )
                edges.append((owner, left, spec.table, right))
        return edges

    @staticmethod
    def _left_deep_orders(
        names: Sequence[str], edges: Sequence[tuple[str, str, str, str]]
    ) -> list[tuple[str, ...]]:
        """Every permutation in which each table connects to the prefix."""
        orders: list[tuple[str, ...]] = []

        def connected(name: str, prefix: tuple[str, ...]) -> bool:
            return any(
                (a == name and b in prefix) or (b == name and a in prefix)
                for a, _ca, b, _cb in edges
            )

        def extend(prefix: tuple[str, ...], remaining: frozenset[str]) -> None:
            if not remaining:
                orders.append(prefix)
                return
            for name in sorted(remaining):
                if connected(name, prefix):
                    extend(prefix + (name,), remaining - {name})

        for first in names:
            extend((first,), frozenset(names) - {first})
        return orders

    def _local_predicates(self, query: Query, name: str) -> PredicateSet:
        if name == query.table:
            return query.predicates
        for spec in query.joins:
            if spec.table == name:
                return spec.predicates
        raise KeyError(name)

    def _inner_strategy_options(
        self,
        table: Table,
        inner_columns: Sequence[str],
    ) -> list[tuple[str, float, object, object]]:
        """Applicable ``(strategy, per_probe_cost_ms, index, cm)`` tuples.

        Per-probe costs are the single-lookup (``n_lookups = 1``) variants of
        the Section 4 formulas.  Clustered-index and CM probes conservatively
        sweep the table's unclustered tail on *every* probe (rows inserted
        after the last CLUSTER are not covered by the clustered page ranges),
        so their per-probe price includes the tail pages -- as the tail grows
        the planner degrades them honestly and falls back to the rescan.  The
        sequential rescan is always applicable and anchors the nested-loop
        baseline; secondary-index probes reach tail rows through the index
        and pay no tail term.
        """
        profile = table.table_profile()
        options: list[tuple[str, float, object, object]] = [
            ("seq_scan", scan_cost(profile, self.hardware), None, None)
        ]
        inner_set = set(inner_columns)
        tail_ms = len(table.tail_pages()) * self.hardware.seq_page_cost_ms
        if table.clustered_attribute in inner_set:
            corr = table.correlation_profile(table.clustered_attribute)
            options.append(
                (
                    "clustered_index_scan",
                    sorted_lookup_cost(1, corr, profile, self.hardware) + tail_ms,
                    None,
                    None,
                )
            )
        if table.clustered_attribute is not None:
            for index in table.secondary_indexes.values():
                if index.attributes[0] not in inner_set:
                    continue
                corr = table.correlation_profile(list(index.attributes))
                options.append(
                    (
                        "sorted_index_scan",
                        sorted_lookup_cost(1, corr, profile, self.hardware),
                        index,
                        None,
                    )
                )
            for cm in table.correlation_maps.values():
                if not any(attr in inner_set for attr in cm.attributes):
                    continue
                inputs = CMCostInputs(
                    buckets_per_lookup=max(1.0, cm.measured_c_per_u()),
                    pages_per_bucket=self._pages_per_target(table, cm),
                    cm_pages=cm.size_pages(),
                    cm_resident=True,
                )
                options.append(
                    (
                        "cm_scan",
                        cm_lookup_cost(1, inputs, profile, self.hardware) + tail_ms,
                        None,
                        cm,
                    )
                )
        return options

    def _outer_key_cardinality(
        self, tables: Mapping[str, Table], pairs: Sequence[tuple[str, str, str]]
    ) -> float:
        """Distinct count of the outer join key (composite when one table owns it)."""
        owners = {owner for owner, _outer_col, _inner_col in pairs}
        if len(owners) == 1:
            owner = next(iter(owners))
            return float(
                tables[owner].key_cardinality([outer for _o, outer, _i in pairs])
            )
        return float(
            max(tables[o].attribute_cardinality(c) for o, c, _i in pairs)
        )

    def _analyze_order(
        self,
        tables: Mapping[str, Table],
        query: Query,
        order: Sequence[str],
        edges: Sequence[tuple[str, str, str, str]],
        *,
        force: str | None,
        limit: int | None,
    ) -> "_OrderAnalysis | None":
        """The selector-independent costing inputs for one left-deep order.

        Everything that touches the statistics sample -- driving-plan
        costing, result-size estimates, strategy options, fanouts -- is
        computed once here and shared by all strategy shapes built for the
        order, so planning cost does not scale with the number of shapes.
        """
        steps: list[_JoinStep] = []
        for position, name in enumerate(order[1:], start=1):
            prefix = tuple(order[:position])
            pairs = [
                (a, ca, cb) if b == name else (b, cb, ca)
                for a, ca, b, cb in edges
                if (b == name and a in prefix) or (a == name and b in prefix)
            ]
            if not pairs:
                return None
            steps.append(
                self._join_step(
                    tables[name],
                    [(outer, inner) for _owner, outer, inner in pairs],
                    self._local_predicates(query, name),
                    self._outer_key_cardinality(tables, pairs),
                )
            )

        # A join LIMIT terminates the driver early too: each outer row yields
        # about prod(fanout * selectivity) result rows, so the driver only
        # needs limit / that-product of its own rows.  Selecting (and
        # costing) the driving path with that budget keeps join selection as
        # LIMIT-aware as the single-table case.
        driver_limit = limit
        if limit is not None and limit >= 1:
            amplification = 1.0
            for step in steps:
                amplification *= step.fanout * step.selectivity
            if amplification > 0:
                driver_limit = max(1, math.ceil(limit / amplification))
        driving = tables[order[0]]
        driving_predicates = self._local_predicates(query, order[0])
        try:
            driving_plan = self._best_scan(
                driving, driving_predicates, force=force, limit=driver_limit
            )
            # A shape whose blocking step (hash build of the outer, explicit
            # merge sort, a Sort/TopK/Aggregate above the chain) drains the
            # whole outer cannot lean on the LIMIT-scaled driver: it gets
            # the honest full-drain plan.
            driving_unlimited = (
                driving_plan
                if driver_limit is None
                else self._best_scan(
                    driving, driving_predicates, force=force, limit=None
                )
            )
        except ValueError:
            return None  # the forced method is inapplicable to this order's driver
        return _OrderAnalysis(
            driving_name=order[0],
            driving_plan=driving_plan,
            driving_unlimited=driving_unlimited,
            steps=steps,
        )

    def _join_step(
        self,
        table: Table,
        join_on: list[tuple[str, str]],
        local: PredicateSet,
        outer_key_cardinality: float,
    ) -> "_JoinStep":
        """The costing inputs for joining ``table`` (or one partition) in.

        ``join_on`` pairs are ``(outer_column, inner_column)``.  Everything
        that touches the statistics sample -- fanout, the local predicates'
        selectivity, the probe-family strategy options -- is computed once
        here, for a flat join's step and for each co-partitioned pair alike.
        """
        inner_columns = [inner for _outer, inner in join_on]
        selectivity = table.selectivity(local) if local else 1.0
        return _JoinStep(
            table=table,
            join_on=join_on,
            local=local,
            options=self._inner_strategy_options(table, inner_columns),
            fanout=join_fanout(
                table.num_rows,
                outer_key_cardinality,
                float(table.key_cardinality(inner_columns)),
            ),
            selectivity=selectivity,
            est_inner_rows=table.num_rows * selectivity,
            # Heap order *is* join-key order when the single join column is
            # the clustered attribute and no unsorted tail has grown -- the
            # case a sort-merge join merges for free.
            inner_sorted=(
                len(inner_columns) == 1
                and table.clustered_attribute == inner_columns[0]
                and not table.tail_pages()
            ),
        )

    def _choose_step(
        self,
        step: "_JoinStep",
        est_rows: float,
        outer_scan: ScanNode | None,
        join_method: str | None,
    ) -> "_StepCandidate | None":
        """The cheapest operator for one step -- of ``join_method``, if given.

        ``outer_scan`` is the scan feeding the step directly (``None`` for a
        later step of a chain): sweep-style paths emit rows in heap (=
        clustered) order, so a sort-merge join above a table clustered on
        the step's single outer join column skips its outer sort.
        Every operator the cost model can run the step with is costed.
        Probe-family candidates (nested-loop rescan, index-nested-loop) are
        per-outer-row work, so their whole cost is streaming; the hash build
        and the explicit merge sorts are upfront (paid before the first
        merged row), which is exactly what lets a binding LIMIT steer
        selection back towards the probe operators for tiny result budgets.
        ``None`` when no candidate is of the requested method (only
        ``index_nested_loop_join`` can lack one: it needs a probe structure
        on the inner table).
        """
        outer_sorted = (
            outer_scan is not None
            and len(step.join_on) == 1
            and self._ordering_satisfied(
                outer_scan.path.output_ordering(), ((step.join_on[0][0], True),)
            )
        )
        candidates: list[_StepCandidate] = []
        for strategy, per_probe, index, cm in step.options:
            if strategy == "seq_scan":
                cost = nested_loop_join_cost(
                    0.0, est_rows, step.table.table_profile(), self.hardware
                )
            else:
                cost = index_nested_loop_join_cost(0.0, est_rows, per_probe)
            candidates.append(
                _StepCandidate(
                    kind="probe",
                    strategy=strategy,
                    split=CostSplit(0.0, cost),
                    index=index,
                    cm=cm,
                )
            )
        # Hash join: build the sampled-smaller input's hash table.  Building
        # the outer blocks its stream (LIMIT can no longer terminate the
        # inputs upstream of this step), which the shape costing accounts
        # for through ``blocks_outer``.
        build_side = "inner" if step.est_inner_rows <= est_rows else "outer"
        candidates.append(
            _StepCandidate(
                kind="hash",
                strategy="hash",
                split=hash_join_cost(
                    est_rows,
                    step.est_inner_rows,
                    step.table.table_profile(),
                    self.hardware,
                    build_side=build_side,
                ),
                build_side=build_side,
                blocks_outer=build_side == "outer",
            )
        )
        candidates.append(
            _StepCandidate(
                kind="merge",
                strategy="merge",
                split=sort_merge_join_cost(
                    est_rows,
                    step.est_inner_rows,
                    step.table.table_profile(),
                    self.hardware,
                    inner_sorted=step.inner_sorted,
                    outer_sorted=outer_sorted,
                ),
                outer_sorted=outer_sorted,
                blocks_outer=not outer_sorted,
            )
        )
        return min(
            (c for c in candidates if join_method is None or c.method == join_method),
            key=lambda c: c.split.total_ms,
            default=None,
        )

    def _build_order_plan(
        self,
        analysis: "_OrderAnalysis",
        selector: str | None,
        limit: int | None,
        query: Query,
        projection: Sequence[str] | None,
    ) -> PlanNode | None:
        """One strategy shape over a pre-analyzed order.

        ``selector`` names the join method every step must use (``None``:
        each step's cheapest); a step that cannot makes the shape ``None``.
        """
        chosen_steps: list[_StepCandidate] = []
        #: Estimated rows flowing out of each step (last entry: chain result).
        step_rows: list[float] = []
        est_rows = analysis.driving_plan.est_rows or 0.0
        for position, step in enumerate(analysis.steps):
            outer_scan = analysis.driving_plan if position == 0 else None
            chosen = self._choose_step(step, est_rows, outer_scan, selector)
            if chosen is None:
                return None
            chosen_steps.append(chosen)
            est_rows = est_rows * step.fanout * step.selectivity
            step_rows.append(est_rows)

        # The chain's output ordering follows from the chosen step kinds
        # alone: probe-family steps and an inner-built hash preserve the
        # outer order, an outer-built hash streams the inner's order, and a
        # merge join emits in join-key order under either key name.  (Every
        # driving candidate is a sweep path over the same table, so the
        # driver's ordering does not depend on which driving node is picked.)
        chain_ordering = analysis.driving_plan.path.output_ordering()
        for step, chosen in zip(analysis.steps, chosen_steps):
            if chosen.kind == "merge":
                chain_ordering = tuple(
                    (frozenset({outer, inner}), True)
                    for outer, inner in step.join_on
                )
            elif chosen.kind == "hash" and chosen.build_side == "outer":
                chain_ordering = step.table.stream_ordering()
        sort_needed = bool(query.ordering) and not self._ordering_satisfied(
            chain_ordering, query.ordering
        )

        # A blocking step (hash build of the outer, explicit merge sort)
        # drains everything upstream before the first merged row, so the
        # LIMIT-scaled driver only applies to fully streaming shapes, and
        # streaming work upstream of the last block is charged in full.  An
        # Aggregate or a needed Sort/TopK above the chain blocks the whole
        # pipeline the same way.
        last_block = max(
            (i for i, c in enumerate(chosen_steps) if c.blocks_outer), default=-1
        )
        blocked_above = query.aggregate is not None or sort_needed
        driving = (
            analysis.driving_plan
            if last_block < 0 and not blocked_above
            else analysis.driving_unlimited
        )

        parts = [f"{analysis.driving_name}[{driving.method}:{driving.structure}]"]
        source: PlanNode = driving
        for step, chosen, rows_after in zip(analysis.steps, chosen_steps, step_rows):
            source = self._build_step_operator(source, step, chosen, rows_after)
            parts.append(f"{source.name}[{source.describe_detail()}]")

        upfront_ms = sum(c.split.upfront_ms for c in chosen_steps)
        if blocked_above:
            drained_ms = sum(c.split.streaming_ms for c in chosen_steps)
            streaming_ms = 0.0
        else:
            drained_ms = sum(
                c.split.streaming_ms for c in chosen_steps[: max(0, last_block)]
            )
            streaming_ms = sum(
                c.split.streaming_ms for c in chosen_steps[max(0, last_block):]
            )

        # Per-row streaming work downstream of the last block scales with
        # the emitted fraction under a LIMIT; upfront work (hash builds,
        # explicit sorts) is paid in full before the first row.
        fraction = 1.0
        if limit is not None and 1.0 <= limit < est_rows:
            fraction = limit / est_rows
        cost = (
            driving.estimated_cost_ms
            + upfront_ms
            + drained_ms
            + streaming_ms * fraction
        )
        return self._decorate(
            _stamp(source, cost=cost, structure=" -> ".join(parts)),
            query,
            limit,
            projection,
            chain_ordering,
            [analysis.driving_plan.table, *(s.table for s in analysis.steps)],
        )

    def _build_step_operator(
        self,
        source: PlanNode,
        step: "_JoinStep",
        chosen: "_StepCandidate",
        rows_after: float,
    ) -> JoinOperator:
        """The executable, stamped operator for one chosen step candidate.

        ``rows_after`` is the estimated rows flowing out of this step; the
        probe leaf of a tuple-at-a-time join emits exactly the step's output
        rows (one merged row per probe match), so it carries that estimate.
        """
        operator: JoinOperator
        if chosen.kind in ("hash", "merge"):
            inner = _stamp(
                ScanNode(SeqScan(step.table, step.local)),
                rows=step.est_inner_rows,
                pages=float(step.table.num_pages),
                structure="heap",
            )
            if chosen.kind == "hash":
                operator = HashJoin(
                    source,
                    inner,
                    step.join_on,
                    build_side=chosen.build_side,
                    inner_label=step.table.name,
                )
            else:
                operator = SortMergeJoin(
                    source,
                    inner,
                    step.join_on,
                    inner_sorted=step.inner_sorted,
                    outer_sorted=chosen.outer_sorted,
                    inner_label=step.table.name,
                )
        else:
            builder = InnerPathBuilder(
                step.table,
                step.join_on,
                step.local,
                chosen.strategy,
                index=chosen.index,
                cm=chosen.cm,
            )
            operator = probe = (
                NestedLoopJoin(source, builder)
                if chosen.strategy == "seq_scan"
                else IndexNestedLoopJoin(source, builder, chosen.strategy)
            )
            _stamp(probe.inner, rows=rows_after)
        return _stamp(operator, rows=rows_after, split=chosen.split)


@dataclass
class _JoinStep:
    """Selector-independent inputs for one join step of one order."""

    table: Table
    join_on: list[tuple[str, str]]
    local: PredicateSet
    #: ``(strategy, per_probe_cost_ms, index, cm)`` probe-family candidates.
    options: list[tuple[str, float, object, object]]
    fanout: float
    selectivity: float
    #: Sampled estimate of inner rows surviving the local predicates.
    est_inner_rows: float
    #: Whether the inner heap already streams in join-key order.
    inner_sorted: bool


@dataclass
class _StepCandidate:
    """One costed way of executing one join step."""

    kind: str  # "probe" | "hash" | "merge"
    strategy: str
    split: CostSplit
    index: object = None
    cm: object = None
    build_side: str = "inner"
    outer_sorted: bool = False
    #: True when this step drains its whole outer input before emitting.
    blocks_outer: bool = False

    @property
    def method(self) -> str:
        """The ``FORCE_JOIN_METHODS`` name of the operator this step runs as."""
        if self.kind == "probe":
            return (
                "nested_loop_join"
                if self.strategy == "seq_scan"
                else "index_nested_loop_join"
            )
        return "hash_join" if self.kind == "hash" else "sort_merge_join"


@dataclass
class _OrderAnalysis:
    """One left-deep order, analyzed once and shared by its strategy shapes."""

    driving_name: str
    driving_plan: ScanNode
    #: The driver costed without the LIMIT, for shapes with a blocking step.
    driving_unlimited: ScanNode
    steps: list[_JoinStep]


@dataclass
class _PartitionJoinLayout:
    """A two-table join touching partitioned storage, classified once.

    Shared by every shape built for the join (see
    :meth:`Planner._partition_join_layout`): the outer (partitioned,
    pruned) side, the build side, the normalized join pairs as
    ``(outer_column, inner_column)``, and which exchange shapes apply.
    """

    outer: PartitionedTable
    inner: AnyTable
    pairs: list[tuple[str, str]]
    outer_local: PredicateSet
    inner_local: PredicateSet
    survivors: tuple[int, ...]
    shapes: tuple[str, ...]
