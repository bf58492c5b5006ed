"""The correlation-aware analytical cost model (Sections 3 and 4).

The model predicts the cost, in milliseconds of simulated disk time, of the
three access methods the paper considers:

* a full sequential table scan (:func:`scan_cost`);
* a pipelined secondary index scan, which pays one random seek per tuple
  visited (:func:`pipelined_lookup_cost`);
* a sorted (bitmap) secondary index scan in the presence of correlations
  (:func:`sorted_lookup_cost`), the paper's central formula::

      c_pages    = c_tups / tups_per_page
      cost       = min(n_lookups * c_per_u *
                         (seek_cost * btree_height + seq_page_cost * c_pages),
                       cost_scan)

* a correlation-map lookup (:func:`cm_lookup_cost`), which is the sorted-scan
  formula evaluated with the CM's bucket-level statistics plus the cost of
  reading the (small, usually memory-resident) CM itself.

Two extensions grow the model beyond single-table selections:

* :class:`CostSplit` decomposes each formula into an upfront part (index
  descents paid before the first row) and a streaming part (the page sweep a
  LIMIT terminates early), which is what makes plan selection LIMIT-aware
  (:func:`limited_cost`);
* :func:`nested_loop_join_cost` / :func:`index_nested_loop_join_cost` price
  pipelined joins as ``cost_outer + outer_rows * cost_per_inner_visit``,
  with the per-visit term taken from whichever single-lookup formula matches
  the inner access structure;
* :func:`hash_join_cost` / :func:`sort_merge_join_cost` price the streaming
  set-at-a-time operators directly as :class:`CostSplit`\\ s: the hash-table
  build and the explicit sorts are upfront work paid before the first row,
  while the probe pass and the ordered merge sweep stream (and so scale
  under a LIMIT, exactly like a single-table page sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.model import CorrelationProfile, HardwareParameters, TableProfile


def scan_cost(profile: TableProfile, hw: HardwareParameters) -> float:
    """Cost of a full sequential scan: ``seq_page_cost * p`` (Section 3)."""
    return profile.num_pages * hw.seq_page_cost_ms


def pipelined_lookup_cost(
    n_lookups: int,
    correlation: CorrelationProfile,
    profile: TableProfile,
    hw: HardwareParameters,
) -> float:
    """Cost of a pipelined (unsorted) secondary B+Tree scan (Section 3.1).

    Each of the ``n_lookups * u_tups`` matching tuples is fetched with a
    separate descent of ``btree_height`` random seeks::

        cost = n_lookups * u_tups * seek_cost * btree_height
    """
    if n_lookups < 0:
        raise ValueError("n_lookups must be non-negative")
    return (
        n_lookups
        * correlation.u_tups
        * hw.seek_cost_ms
        * profile.btree_height
    )


def sorted_lookup_cost(
    n_lookups: int,
    correlation: CorrelationProfile,
    profile: TableProfile,
    hw: HardwareParameters,
) -> float:
    """Cost of a sorted (bitmap) secondary index scan with correlations.

    This is the paper's Section 4.1 formula.  For each of the ``n_lookups``
    unclustered values the scan visits ``c_per_u`` clustered values; each
    visit costs one clustered-index descent (``btree_height`` seeks) plus a
    sequential read of the ``c_pages`` heap pages holding that clustered
    value.  The access pattern degenerates into a full scan once it touches a
    large fraction of the table, so the result is clamped by ``cost_scan``.
    """
    if n_lookups < 0:
        raise ValueError("n_lookups must be non-negative")
    c_pages = correlation.c_pages(profile.tups_per_page)
    per_value_cost = (
        hw.seek_cost_ms * profile.btree_height + hw.seq_page_cost_ms * c_pages
    )
    cost = n_lookups * correlation.c_per_u * per_value_cost
    return min(cost, scan_cost(profile, hw))


@dataclass(frozen=True)
class CMCostInputs:
    """Bucket-level statistics describing a correlation-map lookup.

    ``buckets_per_lookup``
        Average number of *clustered buckets* (or clustered values when the
        clustered side is unbucketed) returned by the CM per predicated
        value -- the bucket-level analogue of ``c_per_u``.
    ``pages_per_bucket``
        Average number of contiguous heap pages covered by one clustered
        bucket -- the bucket-level analogue of ``c_pages``.
    ``cm_pages``
        Size of the CM itself in pages.  CMs normally stay cached, but a
        cold lookup must read them; keeping the term makes the size/
        performance trade-off of Figure 7 visible to the model.
    ``cm_resident``
        Whether the CM is assumed to be cached in RAM (the common case).
    """

    buckets_per_lookup: float
    pages_per_bucket: float
    cm_pages: float = 1.0
    cm_resident: bool = True


def cm_lookup_cost(
    n_lookups: int,
    inputs: CMCostInputs,
    profile: TableProfile,
    hw: HardwareParameters,
) -> float:
    """Cost of answering ``n_lookups`` predicated values through a CM.

    The structure of the formula is identical to :func:`sorted_lookup_cost`,
    with value-level statistics replaced by bucket-level statistics: for each
    predicated value the executor visits ``buckets_per_lookup`` clustered
    buckets, paying a clustered-index descent plus a sequential sweep of the
    bucket's pages.  Reading the CM itself costs one sequential pass over its
    pages when it is not memory resident.
    """
    if n_lookups < 0:
        raise ValueError("n_lookups must be non-negative")
    per_bucket_cost = (
        hw.seek_cost_ms * profile.btree_height
        + hw.seq_page_cost_ms * inputs.pages_per_bucket
    )
    cost = n_lookups * inputs.buckets_per_lookup * per_bucket_cost
    if not inputs.cm_resident:
        cost += hw.seek_cost_ms + hw.seq_page_cost_ms * inputs.cm_pages
    return min(cost, scan_cost(profile, hw))


# ---------------------------------------------------------------------------
# LIMIT-aware costing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostSplit:
    """One access path's cost decomposed for LIMIT-aware selection.

    ``upfront_ms`` is paid before the first row can be emitted (index probes,
    clustered-index descents, a non-resident CM read); ``streaming_ms`` is
    the page sweep that produces rows, which a satisfied LIMIT terminates
    early.  The split is what makes LIMIT-aware costing meaningful: every
    candidate produces the *same* matching rows, so a plan-independent
    fraction scales only the streaming part, and a plan with a heavy upfront
    component (many B+Tree descents) loses to a plain scan when the caller
    only wants a handful of rows.
    """

    upfront_ms: float
    streaming_ms: float

    @property
    def total_ms(self) -> float:
        return self.upfront_ms + self.streaming_ms


def limited_cost(split: CostSplit, est_result_rows: float, limit: int | None) -> float:
    """Expected cost of producing ``min(limit, est_result_rows)`` rows.

    Matching rows are assumed uniformly spread over the pages the streaming
    part sweeps, so a LIMIT of ``k`` out of an estimated ``m`` result rows
    sweeps a ``k/m`` fraction of them.  With no limit, or when fewer rows
    match than the limit asks for, the full split cost is returned.  An
    estimate of zero matching rows also returns the full cost: a LIMIT that
    can never be satisfied terminates nothing.
    """
    if limit is None or est_result_rows < 1.0:
        return split.total_ms
    fraction = min(1.0, limit / est_result_rows)
    return split.upfront_ms + split.streaming_ms * fraction


def sorted_lookup_cost_split(
    n_lookups: int,
    correlation: CorrelationProfile,
    profile: TableProfile,
    hw: HardwareParameters,
) -> CostSplit:
    """:func:`sorted_lookup_cost` decomposed into upfront descents + sweep.

    The descents (``n * c_per_u`` clustered-index walks) are the upfront
    part; the sequential reads of the matching heap pages are the streaming
    part, clamped by the full-scan cost exactly as the combined formula is
    (the access pattern degenerating into a scan is a property of the sweep,
    not of the descents).
    """
    if n_lookups < 0:
        raise ValueError("n_lookups must be non-negative")
    c_pages = correlation.c_pages(profile.tups_per_page)
    visits = n_lookups * correlation.c_per_u
    return CostSplit(
        upfront_ms=visits * hw.seek_cost_ms * profile.btree_height,
        streaming_ms=min(
            visits * hw.seq_page_cost_ms * c_pages, scan_cost(profile, hw)
        ),
    )


def cm_lookup_cost_split(
    n_lookups: int,
    inputs: CMCostInputs,
    profile: TableProfile,
    hw: HardwareParameters,
) -> CostSplit:
    """:func:`cm_lookup_cost` decomposed into upfront descents + sweep."""
    if n_lookups < 0:
        raise ValueError("n_lookups must be non-negative")
    visits = n_lookups * inputs.buckets_per_lookup
    upfront = visits * hw.seek_cost_ms * profile.btree_height
    if not inputs.cm_resident:
        upfront += hw.seek_cost_ms + hw.seq_page_cost_ms * inputs.cm_pages
    return CostSplit(
        upfront_ms=upfront,
        streaming_ms=min(
            visits * hw.seq_page_cost_ms * inputs.pages_per_bucket,
            scan_cost(profile, hw),
        ),
    )


# ---------------------------------------------------------------------------
# Join costing (pipelined nested loops)
# ---------------------------------------------------------------------------

def nested_loop_join_cost(
    outer_cost_ms: float, est_outer_rows: float, inner_profile: TableProfile,
    hw: HardwareParameters,
) -> float:
    """Cost of a naive nested-loop join: one full inner scan per outer row::

        cost = cost_outer + outer_rows * cost_scan(inner)

    The buffer pool will usually keep a small inner table resident across
    rescans, so this over-estimates warm-cache runs; the planner only needs
    the estimate to be monotone in the rescan count, which it is.
    """
    return outer_cost_ms + max(0.0, est_outer_rows) * scan_cost(inner_profile, hw)


def index_nested_loop_join_cost(
    outer_cost_ms: float, est_outer_rows: float, per_probe_cost_ms: float
) -> float:
    """Cost of an index-nested-loop join: one inner probe per outer row::

        cost = cost_outer + outer_rows * cost_probe(inner)

    ``per_probe_cost_ms`` is the single-lookup (``n_lookups = 1``) cost of
    whichever inner structure the probe uses: :func:`sorted_lookup_cost` for
    a clustered or secondary B+Tree, :func:`cm_lookup_cost` for a
    correlation map.  The CM term is where the paper's trick pays off across
    tables: a join key correlated with the inner clustered key gives a small
    ``buckets_per_lookup``, so each probe sweeps a couple of contiguous
    buckets instead of descending a fat secondary B+Tree.
    """
    return outer_cost_ms + max(0.0, est_outer_rows) * per_probe_cost_ms


def sort_comparison_count(rows: float) -> float:
    """The ``n log2 n`` comparison count of an in-memory sort of ``rows``.

    Shared between the cost model (:func:`sort_merge_join_cost`, in ms) and
    the executor (which charges the same count as CPU tuples to the disk
    simulator), so the measured and modelled sort cost cannot drift apart.
    """
    rows = max(0.0, rows)
    if rows < 2.0:
        return 0.0
    return rows * math.log2(rows)


def _sort_cpu_ms(rows: float, hw: HardwareParameters) -> float:
    """CPU cost of an in-memory comparison sort of ``rows`` rows."""
    return sort_comparison_count(rows) * hw.cpu_tuple_cost_ms


def hash_join_cost(
    est_outer_rows: float,
    est_inner_rows: float,
    inner_profile: TableProfile,
    hw: HardwareParameters,
    *,
    build_side: str = "inner",
) -> CostSplit:
    """Cost of one streaming hash-join step, decomposed for LIMIT awareness.

    ``inner_profile`` describes the joined table, which is read exactly once
    either way; the outer input's own cost is charged by whoever produced
    the outer stream.  The build side is hashed row by row *upfront*, before
    the first merged row can be emitted; the probe side then streams through
    the memory-resident hash table at pure CPU cost per row, so the
    streaming part scales under a LIMIT::

        build_side="inner":  upfront   = cost_scan(inner) + inner_rows * cpu
                             streaming = outer_rows * cpu
        build_side="outer":  upfront   = outer_rows * cpu
                             streaming = cost_scan(inner) + inner_rows * cpu

    Building the sampled-smaller input is what "build the cheaper side"
    means; either shape reads O(N + M) pages total -- the whole point versus
    the quadratic nested-loop rescan.
    """
    if est_outer_rows < 0 or est_inner_rows < 0:
        raise ValueError("row estimates must be non-negative")
    if build_side not in ("inner", "outer"):
        raise ValueError(f"unknown build side {build_side!r}")
    inner_ms = scan_cost(inner_profile, hw) + est_inner_rows * hw.cpu_tuple_cost_ms
    outer_ms = est_outer_rows * hw.cpu_tuple_cost_ms
    if build_side == "inner":
        return CostSplit(upfront_ms=inner_ms, streaming_ms=outer_ms)
    return CostSplit(upfront_ms=outer_ms, streaming_ms=inner_ms)


# ---------------------------------------------------------------------------
# Streaming operator costing (Sort / TopK / Aggregate / GroupBy nodes)
# ---------------------------------------------------------------------------

def sort_cost(est_rows: float, hw: HardwareParameters) -> CostSplit:
    """Cost of an explicit in-memory ORDER BY sort over ``est_rows`` rows.

    The sort must drain its whole input before the first row can be emitted,
    so the ``n log n`` comparison CPU is upfront; re-emitting the sorted rows
    is the streaming part (which a LIMIT *above* the sort can cut short,
    although a plain LIMIT + ORDER BY plans a :func:`top_k_cost` node
    instead).
    """
    return CostSplit(
        upfront_ms=_sort_cpu_ms(est_rows, hw),
        streaming_ms=max(0.0, est_rows) * hw.cpu_tuple_cost_ms,
    )


def top_k_comparison_count(rows: float, k: int) -> float:
    """Comparisons of a bounded-heap top-k selection: ``n log2 k``.

    Shared by the cost model (in ms) and the executor (charged as CPU tuples)
    so the modelled and measured heap cost cannot drift apart.
    """
    rows = max(0.0, rows)
    return rows * math.log2(max(2, k))


def top_k_cost(est_rows: float, k: int, hw: HardwareParameters) -> CostSplit:
    """Cost of a heap-based top-k (ORDER BY + LIMIT k) over ``est_rows`` rows.

    The top-k consumes the entire input before anything can be emitted
    (upfront: one heap operation per input row, ``log2 k`` comparisons each);
    emitting the k survivors streams.  Because only a k-row heap is retained,
    this beats :func:`sort_cost` whenever ``k`` is small -- the reason the
    planner fuses ORDER BY + LIMIT into one TopK node.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return CostSplit(
        upfront_ms=top_k_comparison_count(est_rows, k) * hw.cpu_tuple_cost_ms,
        streaming_ms=min(max(0.0, est_rows), float(k)) * hw.cpu_tuple_cost_ms,
    )


def scalar_aggregate_cost(est_rows: float, hw: HardwareParameters) -> CostSplit:
    """Cost of reducing ``est_rows`` rows to one aggregate value (streaming).

    One CPU charge per consumed row, all upfront: nothing is emitted until
    the input is exhausted, so no part of the work scales with a LIMIT.
    """
    return CostSplit(
        upfront_ms=max(0.0, est_rows) * hw.cpu_tuple_cost_ms, streaming_ms=0.0
    )


def hash_group_cost(
    est_rows: float, est_groups: float, hw: HardwareParameters
) -> CostSplit:
    """Cost of hash aggregation: one hash+accumulate per row, emit per group.

    The build over the input is upfront (the last input row can still create
    a new group, so no group is final before the input is exhausted); emitting
    the grouped rows streams and scales under a LIMIT.
    """
    return CostSplit(
        upfront_ms=max(0.0, est_rows) * hw.cpu_tuple_cost_ms,
        streaming_ms=max(0.0, est_groups) * hw.cpu_tuple_cost_ms,
    )


def sort_merge_join_cost(
    est_outer_rows: float,
    est_inner_rows: float,
    inner_profile: TableProfile,
    hw: HardwareParameters,
    *,
    inner_sorted: bool,
    outer_sorted: bool = False,
) -> CostSplit:
    """Cost of one sort-merge join step, decomposed for LIMIT awareness.

    Any input not already ordered by the join key is materialised and sorted
    upfront (CPU ``n log n``; the inner additionally pays its scan, since an
    explicit sort must read every inner page before the first merged row).
    When the inner *is* pre-sorted -- its clustered attribute is the join
    key -- the merge sweeps its heap pages in order as part of the streaming
    phase, so a satisfied LIMIT abandons the sweep with the remaining inner
    pages unread::

        upfront   = sort(outer)? + (cost_scan(inner) + sort(inner))?
        streaming = cost_scan(inner) if inner_sorted else merge CPU

    As with :func:`hash_join_cost` the outer input's own cost is charged by
    whoever produced the outer stream.
    """
    if est_outer_rows < 0 or est_inner_rows < 0:
        raise ValueError("row estimates must be non-negative")
    upfront = 0.0 if outer_sorted else _sort_cpu_ms(est_outer_rows, hw)
    if inner_sorted:
        streaming = scan_cost(inner_profile, hw)
    else:
        upfront += scan_cost(inner_profile, hw) + _sort_cpu_ms(est_inner_rows, hw)
        streaming = 0.0
    # The merge itself: one CPU charge per row of either input.
    streaming += (est_outer_rows + est_inner_rows) * hw.cpu_tuple_cost_ms
    return CostSplit(upfront_ms=upfront, streaming_ms=streaming)


# ---------------------------------------------------------------------------
# Partition-wise costing (exchange-level shapes)
# ---------------------------------------------------------------------------

def merge_comparison_count(rows: float, streams: int) -> float:
    """Comparisons of a ``streams``-way heap merge: ``n log2 k``.

    Shared between the cost model (:func:`merge_exchange_cost`, in ms) and
    the executor (which charges the same count as CPU tuples when the merge
    exchange emits), so the modelled and measured merge cost cannot drift.
    """
    rows = max(0.0, rows)
    return rows * math.log2(max(2, streams))


def merge_exchange_cost(
    est_rows: float, streams: int, hw: HardwareParameters
) -> CostSplit:
    """Cost of k-way merging per-partition ordered streams into one.

    The per-partition sorts/top-ks beneath the merge carry their own splits;
    the merge itself is one ``log2 k`` heap operation per emitted row, all
    streaming -- a LIMIT above stops the merge after ``k`` pops, which is
    exactly what makes per-partition top-k + merge beat sorting the
    concatenation.
    """
    return CostSplit(
        upfront_ms=0.0,
        streaming_ms=merge_comparison_count(est_rows, streams)
        * hw.cpu_tuple_cost_ms,
    )


def broadcast_cost(
    inner_scan_ms: float,
    est_inner_rows: float,
    n_partitions: int,
    hw: HardwareParameters,
) -> CostSplit:
    """Cost of replicating a small flat input to every partition subtree.

    The inner is scanned exactly once into a shared row cache (upfront);
    every one of the ``n_partitions`` per-partition joins then re-reads the
    cached rows at CPU cost -- the build work those joins charge themselves.
    Only the scan and the cache materialisation are priced here; the
    ``n_partitions``-fold build CPU shows up in the per-partition join
    splits, which is what makes broadcasting a *large* inner lose to
    repartitioning it (built once, not ``n`` times).
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be at least 1")
    return CostSplit(
        upfront_ms=inner_scan_ms
        + max(0.0, est_inner_rows) * hw.cpu_tuple_cost_ms,
        streaming_ms=0.0,
    )


def repartition_cost(
    source_cost_ms: float,
    est_rows: float,
    est_pages: float,
    hw: HardwareParameters,
) -> CostSplit:
    """Cost of hash-splitting a stream into per-partition buckets.

    The source is drained once (``source_cost_ms``), every row pays one
    routing-hash CPU charge, and the bucketed rows take one modeled spill
    round-trip through scratch storage: a seek plus ``pages - 1`` sequential
    writes out, the same back in.  All upfront -- no bucket can be consumed
    before routing has seen the last source row.
    """
    if est_rows < 0 or est_pages < 0:
        raise ValueError("estimates must be non-negative")
    spill_ms = 0.0
    if est_pages >= 1.0:
        spill_ms = 2 * (
            hw.seek_cost_ms + (est_pages - 1) * hw.seq_page_cost_ms
        )
    return CostSplit(
        upfront_ms=source_cost_ms
        + est_rows * hw.cpu_tuple_cost_ms
        + spill_ms,
        streaming_ms=0.0,
    )
