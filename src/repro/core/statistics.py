"""Computing the correlation statistics of the cost model (Section 4.2).

The central statistic is ``c_per_u``: the average number of distinct
clustered-attribute values that co-occur with each unclustered value::

    c_per_u = D(Au, Ac) / D(Au)

where ``D(.)`` counts distinct values.  The collector computes these counts
either exactly (one pass over the rows) or with the Adaptive Estimator
(Charikar et al.) over an in-memory random sample, which the CM Advisor uses
when it must evaluate hundreds of candidate composite keys quickly.
(Distinct Sampling, Gibbons' full-scan estimator of one attribute's
cardinality, is :func:`repro.sampling.distinct.distinct_sample_estimate`.)
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.bucketing import IdentityBucketer
from repro.core.composite import CompositeKeySpec
from repro.core.model import CorrelationProfile
from repro.core.ordering import (
    NAN_KEY,
    NULL_KEY,
    SortedRun,
    columns,
    order_key,
    order_keys,
)
from repro.sampling.adaptive import adaptive_estimate
from repro.sampling.reservoir import ReservoirSampler


#: What the collector reads rows from -- it only iterates and takes ``len``,
#: so the live reservoir serves in place, uncopied.
RowCollection = Sequence[Mapping[str, Any]] | ReservoirSampler


def c_per_u_from_cardinalities(distinct_uc: float, distinct_u: float) -> float:
    """``c_per_u = D(Au, Ac) / D(Au)`` (Section 4.2)."""
    if distinct_u <= 0:
        raise ValueError("distinct count of the unclustered attribute must be positive")
    return distinct_uc / distinct_u


class StatisticsCollector:
    """Computes Table 1 / Table 2 statistics over a collection of rows.

    The collector works on plain row dictionaries so that it can be used both
    by the engine (exact statistics at clustering time) and by the advisor
    (estimates over samples).
    """

    def __init__(self, rows: RowCollection) -> None:
        self._rows = rows

    @property
    def total_rows(self) -> int:
        return len(self._rows)

    # -- exact statistics -------------------------------------------------------

    def correlation_profile(
        self,
        unclustered: CompositeKeySpec | str,
        clustered: CompositeKeySpec | str,
    ) -> CorrelationProfile:
        """Exact Table 2 statistics for the pair (Au, Ac)."""
        u_spec = self._as_spec(unclustered)
        c_spec = self._as_spec(clustered)
        u_values = set()
        c_values = set()
        uc_values = set()
        for row in self._rows:
            u_key = u_spec.key_of(row)
            c_key = c_spec.key_of(row)
            u_values.add(u_key)
            c_values.add(c_key)
            uc_values.add((u_key, c_key))
        total = len(self._rows)
        if not u_values or not c_values:
            return CorrelationProfile(c_per_u=0.0, c_tups=0.0, u_tups=0.0)
        return CorrelationProfile(
            c_per_u=c_per_u_from_cardinalities(len(uc_values), len(u_values)),
            c_tups=total / len(c_values),
            u_tups=total / len(u_values),
        )

    # -- estimated statistics -----------------------------------------------------

    def collect_sample(
        self, *, sample_size: int = 30_000, seed: int = 0
    ) -> list[Mapping[str, Any]]:
        """A uniform random row sample (collected during the same scan)."""
        reservoir = ReservoirSampler(sample_size, seed=seed)
        reservoir.extend(self._rows)
        return reservoir.sample

    def estimated_correlation_profile(
        self,
        unclustered: CompositeKeySpec | str,
        clustered: CompositeKeySpec | str,
        sample: RowCollection | None = None,
        *,
        total_rows: int | None = None,
    ) -> CorrelationProfile:
        """Table 2 statistics estimated with the Adaptive Estimator.

        ``sample`` may be supplied so that the advisor can reuse one sample
        across hundreds of candidate designs (as in Section 6.1.3).
        ``total_rows`` overrides the population size the sample is scaled to;
        this lets the advisor treat the rows it was given as a sample of a
        larger deployed table.
        """
        u_spec = self._as_spec(unclustered)
        c_spec = self._as_spec(clustered)
        if sample is None:
            sample = self.collect_sample()
        if not sample:
            return CorrelationProfile(c_per_u=0.0, c_tups=0.0, u_tups=0.0)
        total = max(total_rows or len(self._rows), len(sample))
        u_keys = [u_spec.key_of(row) for row in sample]
        c_keys = [c_spec.key_of(row) for row in sample]
        uc_keys = list(zip(u_keys, c_keys))
        d_u = adaptive_estimate(u_keys, total)
        d_c = adaptive_estimate(c_keys, total)
        d_uc = adaptive_estimate(uc_keys, total)
        # A pair cannot be rarer than either of its parts.
        d_uc = max(d_uc, d_u, d_c)
        return CorrelationProfile(
            c_per_u=c_per_u_from_cardinalities(d_uc, d_u),
            c_tups=total / max(d_c, 1.0),
            u_tups=total / max(d_u, 1.0),
        )

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _as_spec(key: CompositeKeySpec | str) -> CompositeKeySpec:
        if isinstance(key, CompositeKeySpec):
            return key
        return CompositeKeySpec.build([key])


#: Default reservoir capacity for incremental table statistics.  Large enough
#: that every bundled data set (<= ~100 k rows) keeps a *complete* sample --
#: exact statistics, bit-identical plans -- while genuinely large tables
#: degrade gracefully to sample-based estimates.
DEFAULT_STATS_SAMPLE_SIZE = 100_000


class IncrementalTableStatistics:
    """Planner statistics maintained incrementally, never scanning the heap.

    The paper's planner needs three families of statistics: distinct counts
    (for ``n_lookups`` and cardinalities), correlation profiles (``c_per_u``,
    ``c_tups``, ``u_tups`` of Table 2), and attribute min/max (range
    selectivity).  All three are served from state maintained as rows flow
    through the table:

    * a reservoir row sample (:class:`~repro.sampling.reservoir.ReservoirSampler`)
      updated on every insert and delete -- exact while it still holds every
      live row, estimated (Adaptive Estimator) beyond that;
    * per-attribute min/max updated on insert, over the non-NULL values in
      the value order (:mod:`repro.core.ordering`: a NaN is the maximum
      above every number); a delete cannot cheaply tell
      whether it removed an extreme value, so the bounds stay conservatively
      wide until ``bounds_rebuild_deletes`` deletes have accumulated *and*
      the reservoir still holds every live row, at which point they are
      recomputed from it exactly.  Without that rebuild a shrinking table's
      range selectivity would over-estimate forever; without the
      completeness gate a subsample's interior extremes would clip the
      bounds below the live domain and flip the error to under-estimation;
    * the live row count.

    Derived profiles and swept selectivities are cached until the next
    insert/delete, so repeated planning between updates is O(1) and the
    first sweep after an update is bounded by the sample size -- independent
    of the heap.  Single-attribute *range* selectivity does not sweep at
    all: :meth:`range_fraction` bisects a sorted column of the sample's
    values, built on first use and then kept in step with the reservoir's
    own admit / evict / discard decisions, so it costs O(log sample) before
    and after DML alike and is not one of the caches an update clears.
    """

    def __init__(
        self,
        *,
        sample_capacity: int = DEFAULT_STATS_SAMPLE_SIZE,
        bounds_rebuild_deletes: int | None = None,
    ) -> None:
        if sample_capacity <= 0:
            raise ValueError("sample_capacity must be positive")
        if bounds_rebuild_deletes is not None and bounds_rebuild_deletes <= 0:
            raise ValueError("bounds_rebuild_deletes must be positive")
        self.sample_capacity = sample_capacity
        self.bounds_rebuild_deletes = (
            bounds_rebuild_deletes
            if bounds_rebuild_deletes is not None
            else max(64, sample_capacity // 100)
        )
        self._reset()

    def _reset(self) -> None:
        self._reservoir = ReservoirSampler(self.sample_capacity, seed=0)
        self._total_rows = 0
        #: attribute -> (min, max) of its values other than NULL and NaN;
        #: ``None`` while it has met only those.
        self._minmax: dict[str, tuple[Any, Any] | None] = {}
        self._deletes_since_bounds_rebuild = 0
        #: Whether any delete since the last rebuild hit a min/max value.
        self._bounds_possibly_stale = False
        self._profile_cache: dict[tuple, CorrelationProfile] = {}
        self._cardinality_cache: dict[tuple, int] = {}
        self._selectivity_cache: dict[Any, float] = {}
        #: attribute -> sorted run of the order keys of the sample's values
        #: of it, built by the first :meth:`range_fraction` and maintained
        #: with the reservoir from then on.
        self._sorted_columns: dict[str, SortedRun] = {}

    # -- maintenance ------------------------------------------------------------

    def observe_insert(self, row: Mapping[str, Any]) -> None:
        self._total_rows += 1
        admitted, evicted = self._reservoir.add(row)
        if self._sorted_columns:
            self._follow_reservoir(row if admitted else None, evicted)
        for attribute, value in row.items():
            self._observe_value(attribute, value)
        self._invalidate()

    def observe_rows(
        self, rows: Sequence[Mapping[str, Any]], values: dict[str, list[Any]] | None = None
    ) -> None:
        """Observe a batch of inserted rows: one bulk load.

        The state equals :meth:`observe_insert` applied to each row in
        order -- reservoir contents, random stream, bounds and their order --
        reached in one pass per structure instead of one call per row, with
        the derived-statistics caches cleared once.  ``values`` is
        :func:`~repro.core.ordering.columns` of ``rows`` when the caller has
        read them already (the write-time family check does).
        """
        if not rows:
            return
        self._fold(rows, values)
        self._invalidate()

    def _fold(
        self, rows: Sequence[Mapping[str, Any]], values: dict[str, list[Any]] | None = None
    ) -> None:
        """Count, sample and bound ``rows`` (the state part of an insert)."""
        self._total_rows += len(rows)
        if self._sorted_columns:
            for row in rows:
                admitted, evicted = self._reservoir.add(row)
                self._follow_reservoir(row if admitted else None, evicted)
        else:
            self._reservoir.extend(rows)
        self._observe_columns(columns(rows) if values is None else values)

    def _observe_columns(self, values_of: dict[str, list[Any]]) -> None:
        """Fold every row's values (``columns(rows)``) into the bounds, a
        column at a time.

        Equal to :meth:`_observe_value` over each row's items in order: an
        attribute enters the bounds where the rows first carry it, NULLs,
        NaNs and missing columns move no bound, and ``min`` / ``max`` over the
        order keys keep the first of equal extremes exactly as the fold does.
        """
        minmax = self._minmax
        for attribute, values in values_of.items():
            keys = order_keys(values)
            if keys is not values:  # a NULL or a NaN: neither moves a bound
                keys = [key for key in keys if key is not NULL_KEY and key is not NAN_KEY]
            bounds = minmax.get(attribute)
            if keys:
                low, high = min(keys), max(keys)
                if bounds is not None:
                    low, high = min(bounds[0], low), max(bounds[1], high)
                bounds = low, high
            minmax[attribute] = bounds

    def observe_delete(self, row: Mapping[str, Any]) -> None:
        self._total_rows = max(0, self._total_rows - 1)
        if self._reservoir.discard(row) and self._sorted_columns:
            # The sampled copy equals ``row``, so its values do too.
            self._follow_reservoir(None, row)
        # A single delete leaves min/max conservatively wide (we cannot know
        # cheaply whether duplicates of an extreme remain), but enough churn
        # re-derives them from the reservoir so Between selectivity tracks a
        # shrinking domain.  Three gates keep the rebuild exact and cheap:
        # the delete *count* threshold rate-limits the O(sample) pass, the
        # *touched-a-bound* flag skips it entirely for interior-only churn
        # (whose rebuild would be a no-op), and the *completeness* check
        # refuses to clip bounds from a subsample whose extremes can sit
        # strictly inside the live domain (that would turn the safe
        # over-estimate into an under-estimate).
        self._deletes_since_bounds_rebuild += 1
        if not self._bounds_possibly_stale:
            self._bounds_possibly_stale = self._touches_bound(row)
        if (
            self._bounds_possibly_stale
            and self._deletes_since_bounds_rebuild >= self.bounds_rebuild_deletes
            and self.sample_is_complete
        ):
            self._rebuild_bounds_from_sample()
        self._invalidate()

    def _follow_reservoir(
        self,
        stored: Mapping[str, Any] | None,
        removed: Mapping[str, Any] | None,
    ) -> None:
        """Mirror one reservoir change in every built sorted column."""
        for attribute, column in self._sorted_columns.items():
            if removed is not None:
                column.remove(order_key(removed.get(attribute)))
            if stored is not None:
                column.add(order_key(stored.get(attribute)))

    def _touches_bound(self, row: Mapping[str, Any]) -> bool:
        """Whether deleting ``row`` may have shrunk any attribute's bounds."""
        for attribute, value in row.items():
            bounds = self._minmax.get(attribute)
            if bounds is not None and (value == bounds[0] or value == bounds[1]):
                return True
        return False

    def _rebuild_bounds_from_sample(self) -> None:
        """Recompute per-attribute min/max from the (complete) reservoir.

        Only called while the sample holds every live row, so the rebuilt
        bounds are exact.
        """
        self._minmax = {}
        self._observe_columns(columns(self._reservoir.sample))
        self._deletes_since_bounds_rebuild = 0
        self._bounds_possibly_stale = False

    def rebuild(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Recompute from scratch: re-seed the reservoir, bounds and caches.

        Called by DDL that rewrites the heap anyway (clustering).
        """
        self._reset()
        self._fold(list(rows))

    def _observe_value(self, attribute: str, value: Any) -> None:
        value = order_key(value)
        if value is NULL_KEY or value is NAN_KEY:
            self._minmax.setdefault(attribute, None)
            return
        bounds = self._minmax.get(attribute)
        if bounds is None:
            self._minmax[attribute] = (value, value)
        elif value < bounds[0]:
            self._minmax[attribute] = (value, bounds[1])
        elif value > bounds[1]:
            self._minmax[attribute] = (bounds[0], value)

    def _invalidate(self) -> None:
        self._profile_cache.clear()
        self._cardinality_cache.clear()
        self._selectivity_cache.clear()

    # -- views ------------------------------------------------------------------

    @property
    def total_rows(self) -> int:
        return self._total_rows

    @property
    def sample_rows(self) -> list[Mapping[str, Any]]:
        return self._reservoir.sample

    @property
    def sample_is_complete(self) -> bool:
        """True while the reservoir still holds every live row (exact mode)."""
        return len(self._reservoir) == self._total_rows

    def attribute_range(self, attribute: str) -> tuple[Any, Any] | None:
        """Incrementally-maintained ``(min, max)`` of the values other than
        NULL and NaN; ``None`` when there is none.

        A NaN sorts above every number but has no place on the number line,
        so a range's share of the domain is measured between these bounds.
        """
        return self._minmax.get(attribute)

    def match_fraction(
        self,
        matches: "Callable[[Mapping[str, Any]], bool]",
        *,
        key: Any = None,
    ) -> float:
        """Fraction of live rows satisfying ``matches``, from the sample.

        The reservoir is a uniform sample of the live rows, so the sample
        match rate is an unbiased selectivity estimate (exact while the
        sample is complete).  ``matches`` is a plain callable -- typically
        ``PredicateSet.matches`` -- so this layer stays independent of the
        engine's predicate types.  An empty table estimates 0.0.

        ``key``, when hashable, memoises the result until the next insert or
        delete, like the sibling cardinality/profile caches -- replanning an
        unchanged query then skips the sample sweep entirely.
        """
        if key is not None:
            try:
                return self._selectivity_cache[key]
            except KeyError:
                pass
            except TypeError:
                key = None
        rows = self._reservoir
        fraction = (
            sum(1 for row in rows if matches(row)) / len(rows) if rows else 0.0
        )
        if key is not None:
            self._selectivity_cache[key] = fraction
        return fraction

    def range_fraction(self, attribute: str, low: Any, high: Any) -> float:
        """Fraction of live rows with ``low <= row[attribute] <= high``.

        Order statistics instead of a sweep: the very float
        :meth:`match_fraction` returns for that inclusive range (either
        bound may be ``None``; an inverted range matches nothing), read off
        a sorted column of the order keys of the sample's values as
        :meth:`SortedRun.span <repro.core.ordering.SortedRun.span>` -- which
        counts no NULL, and a NaN only in a range open above, as the
        predicate does.  The column is built on first use and follows the
        reservoir from then on, so neither repetition nor DML makes the
        answer cost more than the two bisections -- which is also why ranges
        never enter the selectivity memo.
        """
        column = self._sorted_columns.get(attribute)
        if column is None:
            column = self._sorted_columns[attribute] = SortedRun.build(
                order_keys([row.get(attribute) for row in self._reservoir])
            )
        start, stop = column.span(low, high)
        return (stop - start) / len(column.items) if column.items else 0.0

    # -- derived statistics ------------------------------------------------------

    def cardinality(self, key: CompositeKeySpec | str) -> int:
        """Distinct-value count of an attribute or composite key.

        Exact while the sample is complete; otherwise the Adaptive Estimator
        scaled to the live row count.
        """
        spec = StatisticsCollector._as_spec(key)
        cache_key = self._spec_cache_key(spec)
        if cache_key is not None and cache_key in self._cardinality_cache:
            return self._cardinality_cache[cache_key]
        rows = self._reservoir
        if not rows:
            return 0
        keys = [spec.key_of(row) for row in rows]
        if self.sample_is_complete:
            estimate = len(set(keys))
        else:
            estimate = int(round(adaptive_estimate(keys, max(self._total_rows, len(keys)))))
        if cache_key is not None:
            self._cardinality_cache[cache_key] = estimate
        return estimate

    def correlation_profile(
        self,
        unclustered: CompositeKeySpec | str,
        clustered: CompositeKeySpec | str,
    ) -> CorrelationProfile:
        """Table 2 statistics for (Au, Ac), exact or sample-estimated."""
        u_spec = StatisticsCollector._as_spec(unclustered)
        c_spec = StatisticsCollector._as_spec(clustered)
        u_key = self._spec_cache_key(u_spec)
        c_key = self._spec_cache_key(c_spec)
        cache_key = (u_key, c_key) if u_key is not None and c_key is not None else None
        if cache_key is not None and cache_key in self._profile_cache:
            return self._profile_cache[cache_key]
        rows = self._reservoir
        collector = StatisticsCollector(rows)
        if self.sample_is_complete:
            profile = collector.correlation_profile(u_spec, c_spec)
        else:
            profile = collector.estimated_correlation_profile(
                u_spec, c_spec, rows, total_rows=self._total_rows
            )
        if cache_key is not None:
            self._profile_cache[cache_key] = profile
        return profile

    @staticmethod
    def _spec_cache_key(spec: CompositeKeySpec) -> tuple | None:
        """A hashable cache key for unbucketed specs (the planner's case)."""
        if any(not isinstance(part.bucketer, IdentityBucketer) for part in spec.parts):
            return None
        return tuple(spec.attributes)


def join_fanout(
    inner_rows: float, outer_key_cardinality: float, inner_key_cardinality: float
) -> float:
    """Expected inner matches per outer row for an equi-join.

    The textbook containment-of-values estimate: the join produces
    ``T(R) * T(S) / max(V(R, a), V(S, b))`` rows, so each outer (``R``) row
    matches ``T(S) / max(V(R, a), V(S, b))`` inner rows.  Both cardinalities
    come from the tables' reservoir samples, so join planning -- like
    single-table planning -- never scans a heap.  A foreign-key join onto a
    key column gives the familiar special case of one match per outer row.
    """
    distinct = max(outer_key_cardinality, inner_key_cardinality, 1.0)
    return max(0.0, inner_rows) / distinct


def exact_c_per_u(
    rows: Iterable[Mapping[str, Any]],
    unclustered: CompositeKeySpec | str,
    clustered: CompositeKeySpec | str,
) -> float:
    """Convenience function: exact ``c_per_u`` over an iterable of rows.

    Both sides accept either a plain attribute name or a (possibly bucketed)
    :class:`CompositeKeySpec`.
    """
    u_spec = (
        unclustered
        if isinstance(unclustered, CompositeKeySpec)
        else CompositeKeySpec.build([unclustered])
    )
    c_spec = (
        clustered
        if isinstance(clustered, CompositeKeySpec)
        else CompositeKeySpec.build([clustered])
    )
    u_values = set()
    uc_values = set()
    for row in rows:
        u_key = u_spec.key_of(row)
        u_values.add(u_key)
        uc_values.add((u_key, c_spec.key_of(row)))
    if not u_values:
        return 0.0
    return len(uc_values) / len(u_values)
