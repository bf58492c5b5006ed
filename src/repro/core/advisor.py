"""The CM Advisor: automatic design of correlation maps (Section 6).

Given a training workload (the attributes each query predicates, as supplied
by the DBA or collected at runtime), the advisor:

1. enumerates candidate CM keys: every non-empty subset of a query's
   predicated attributes, with every admissible bucketing of each attribute
   (Sections 6.1.2 and 6.1.3);
2. estimates each candidate's ``c_per_u`` with the Adaptive Estimator over a
   shared in-memory random sample (Section 4.2);
3. estimates each candidate's size and its query cost with the analytical
   cost model, expressed as a slowdown relative to an equivalent secondary
   B+Tree (Table 5);
4. recommends, per query, the smallest design whose estimated slowdown stays
   within the user's performance target (Section 6.2.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.bucketing import (
    BucketingOption,
    candidate_bucketings,
)
from repro.core.composite import AttributeBucketing, CompositeKeySpec, ValueConstraint
from repro.core.cost import CMCostInputs, cm_lookup_cost, scan_cost, sorted_lookup_cost
from repro.core.model import CorrelationProfile, HardwareParameters, TableProfile
from repro.core.ordering import order_key
from repro.core.statistics import StatisticsCollector

#: Per-entry byte estimates, matching the accounting in ``correlation_map`` and
#: ``secondary`` so that estimated and measured sizes are comparable.
_CM_TARGET_BYTES = 12
_CM_KEY_OVERHEAD_BYTES = 8
_BTREE_ENTRY_OVERHEAD_BYTES = 20

#: Candidate enumeration limits: CM keys of at most four attributes, at most
#: 2 048 candidate designs per query, and no attribute whose equality
#: predicate selects more than half of the table (Section 6.1.3).
_MAX_ATTRIBUTES_PER_CM = 4
_MAX_CANDIDATES_PER_QUERY = 2048
_MIN_SELECTIVITY = 0.5

#: Recommended clustered-attribute bucket width, in heap pages.  The paper
#: finds ~10 pages per bucket loses only ~1 ms per query (Table 3) while
#: keeping the CM small.
_CLUSTERED_BUCKET_PAGES = 10


def _distinct_count(values: Iterable[Any]) -> int:
    """Distinct values in the value order: NaNs count once, NULL not at all."""
    return len({order_key(value) for value in values if value is not None})


@dataclass(frozen=True)
class TrainingQuery:
    """One workload query, reduced to what the advisor needs.

    ``constraints`` maps each predicated attribute to its constraint; the
    advisor only uses the attribute set for candidate enumeration, plus
    ``n_lookups`` (the number of predicated values, e.g. the length of an
    ``IN`` list) for cost estimation.
    """

    constraints: Mapping[str, ValueConstraint] = field(default_factory=dict)
    n_lookups: int = 1
    name: str = ""

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(sorted(self.constraints))

    @classmethod
    def over_attributes(cls, *attributes: str, n_lookups: int = 1, name: str = "") -> "TrainingQuery":
        """A query known only by the attributes it predicates."""
        constraints = {attribute: ValueConstraint() for attribute in attributes}
        return cls(constraints=constraints, n_lookups=n_lookups, name=name)


@dataclass(frozen=True)
class CMDesign:
    """One candidate CM design with its estimated properties."""

    key_spec: CompositeKeySpec
    bucket_levels: tuple[tuple[str, int], ...]
    estimated_c_per_u: float
    estimated_distinct_keys: float
    estimated_size_bytes: float
    estimated_cost_ms: float
    baseline_cost_ms: float
    baseline_size_bytes: float

    @property
    def slowdown(self) -> float:
        """Estimated relative slowdown vs the secondary B+Tree (0.03 = +3 %)."""
        if self.baseline_cost_ms <= 0:
            return 0.0
        return (self.estimated_cost_ms - self.baseline_cost_ms) / self.baseline_cost_ms

    @property
    def size_ratio(self) -> float:
        """Estimated CM size as a fraction of the secondary B+Tree size."""
        if self.baseline_size_bytes <= 0:
            return 1.0
        return self.estimated_size_bytes / self.baseline_size_bytes

    def describe(self) -> str:
        parts = []
        for attribute, level in self.bucket_levels:
            parts.append(attribute if level == 0 else f"{attribute}(2^{level})")
        return ", ".join(parts)


@dataclass(frozen=True)
class Recommendation:
    """The advisor's output for one training query (one row of Table 5+)."""

    query: TrainingQuery
    designs: tuple[CMDesign, ...]
    recommended: CMDesign | None
    scan_cost_ms: float

    def designs_by_slowdown(self) -> list[CMDesign]:
        return sorted(self.designs, key=lambda d: (d.slowdown, d.estimated_size_bytes))


class CMAdvisor:
    """Recommends correlation maps (and bucketings) for a training workload."""

    def __init__(
        self,
        rows: Sequence[Mapping[str, Any]],
        clustered_attribute: str,
        *,
        table_profile: TableProfile | None = None,
        hardware: HardwareParameters | None = None,
        sample_size: int = 30_000,
        seed: int = 0,
        performance_target: float = 0.10,
    ) -> None:
        if not rows:
            raise ValueError("the advisor needs a non-empty table")
        self.rows = rows
        self.clustered_attribute = clustered_attribute
        self.hardware = hardware or HardwareParameters()
        self.table_profile = table_profile or TableProfile(
            total_tups=len(rows), tups_per_page=100
        )
        self.sample_size = sample_size
        self.seed = seed
        self.performance_target = performance_target

        self._collector = StatisticsCollector(rows)
        self._sample = self._collector.collect_sample(
            sample_size=sample_size, seed=seed
        )
        self._clustered_spec = self._build_clustered_spec()

    def _build_clustered_spec(self) -> CompositeKeySpec:
        """The clustered side of every candidate CM, bucketed as the engine
        would bucket it (Section 6.1.1).

        CM entries map to clustered *buckets* of roughly
        ``_CLUSTERED_BUCKET_PAGES`` heap pages, not to raw clustered values;
        estimating sizes against raw values would wildly overstate CM sizes
        whenever the clustered attribute is many-valued (e.g. a unique key).
        Numeric clustered attributes are approximated with a fixed-width
        bucketing of the right bucket count; non-numeric ones fall back to
        value granularity.  NULL and NaN stay out of the bounds: each
        buckets to its own order key.
        """
        values = [
            v for row in self._sample
            if (v := row[self.clustered_attribute]) is not None and v == v
        ]
        numeric = values and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        )
        if not numeric:
            return CompositeKeySpec.build([self.clustered_attribute])
        rows_per_bucket = max(1, _CLUSTERED_BUCKET_PAGES * self.table_profile.tups_per_page)
        num_buckets = max(1, self.table_profile.total_tups // rows_per_bucket)
        low, high = min(values), max(values)
        span = float(high) - float(low)
        if span <= 0 or num_buckets <= 1:
            return CompositeKeySpec.build([self.clustered_attribute])
        from repro.core.bucketing import WidthBucketer

        width = span / num_buckets
        return CompositeKeySpec.build(
            [self.clustered_attribute],
            {self.clustered_attribute: WidthBucketer(width, origin=float(low))},
        )

    # -- bucketing enumeration (Table 4) -----------------------------------------

    def bucketing_candidates(self, attribute: str) -> list[BucketingOption]:
        """The bucketings considered for one attribute (Table 4 rows)."""
        values = [row[attribute] for row in self._sample]
        return candidate_bucketings(attribute, values)

    def bucketing_report(self, attributes: Sequence[str]) -> list[dict[str, Any]]:
        """Rows of Table 4: attribute, cardinality, considered bucket widths."""
        report = []
        for attribute in attributes:
            options = self.bucketing_candidates(attribute)
            cardinality = _distinct_count(row[attribute] for row in self.rows)
            levels = [option.level for option in options if option.level > 0]
            report.append(
                {
                    "column": attribute,
                    "cardinality": cardinality,
                    "bucket_levels": levels,
                    "bucket_widths": (
                        "none"
                        if not levels
                        else f"none ~ 2^{max(levels)}"
                        if 0 in [option.level for option in options]
                        else f"2^{min(levels)} ~ 2^{max(levels)}"
                    ),
                }
            )
        return report

    # -- candidate enumeration -----------------------------------------------------

    def enumerate_candidates(self, query: TrainingQuery) -> list[CompositeKeySpec]:
        """All candidate CM key specs for one query (Section 6.1.3)."""
        attributes = self._eligible_attributes(query)
        per_attribute_options = {
            attribute: self.bucketing_candidates(attribute) for attribute in attributes
        }
        candidates: list[CompositeKeySpec] = []
        for size in range(1, min(len(attributes), _MAX_ATTRIBUTES_PER_CM) + 1):
            for subset in itertools.combinations(attributes, size):
                option_lists = [per_attribute_options[attribute] for attribute in subset]
                for combination in itertools.product(*option_lists):
                    spec = CompositeKeySpec.build(
                        subset,
                        {option.attribute: option.bucketer for option in combination},
                    )
                    candidates.append(spec)
                    if len(candidates) >= _MAX_CANDIDATES_PER_QUERY:
                        return candidates
        return candidates

    def _eligible_attributes(self, query: TrainingQuery) -> tuple[str, ...]:
        """Predicated attributes, excluding the clustered attribute itself and
        predicates that select more than half of the table."""
        eligible = []
        for attribute in query.attributes:
            if attribute == self.clustered_attribute:
                continue
            if self._estimated_selectivity(attribute, query) > _MIN_SELECTIVITY:
                continue
            eligible.append(attribute)
        return tuple(eligible)

    def _estimated_selectivity(self, attribute: str, query: TrainingQuery) -> float:
        """Fraction of rows an equality predicate on ``attribute`` selects."""
        distinct = _distinct_count(row[attribute] for row in self._sample) or 1
        constraint = query.constraints.get(attribute)
        values = 1
        if constraint is not None and constraint.values is not None:
            values = max(1, len(constraint.values))
        return min(1.0, values / distinct)

    # -- evaluation of one candidate ---------------------------------------------------

    def evaluate_design(
        self, key_spec: CompositeKeySpec, *, n_lookups: int = 1
    ) -> CMDesign:
        """Estimate c_per_u, size and cost for one candidate CM design."""
        profile = self._collector.estimated_correlation_profile(
            key_spec,
            self._clustered_spec,
            self._sample,
            total_rows=self.table_profile.total_tups,
        )
        distinct_keys = max(
            1.0,
            self.table_profile.total_tups / max(profile.u_tups, 1e-9)
            if profile.u_tups
            else 1.0,
        )
        entries = distinct_keys * max(profile.c_per_u, 1.0)
        key_bytes = 8 * len(key_spec)
        size_bytes = distinct_keys * (key_bytes + _CM_KEY_OVERHEAD_BYTES) + entries * _CM_TARGET_BYTES

        pages_per_bucket = max(
            float(_CLUSTERED_BUCKET_PAGES),
            profile.c_pages(self.table_profile.tups_per_page),
        )
        cm_inputs = CMCostInputs(
            buckets_per_lookup=max(profile.c_per_u, 1.0),
            pages_per_bucket=pages_per_bucket,
            cm_pages=size_bytes / 8192,
            cm_resident=True,
        )
        cost = cm_lookup_cost(n_lookups, cm_inputs, self.table_profile, self.hardware)

        baseline_profile, baseline_size = self._baseline(key_spec)
        baseline_cost = sorted_lookup_cost(
            n_lookups, baseline_profile, self.table_profile, self.hardware
        )
        bucket_levels = tuple(
            (part.attribute, self._level_of(part)) for part in key_spec.parts
        )
        return CMDesign(
            key_spec=key_spec,
            bucket_levels=bucket_levels,
            estimated_c_per_u=profile.c_per_u,
            estimated_distinct_keys=distinct_keys,
            estimated_size_bytes=size_bytes,
            estimated_cost_ms=cost,
            baseline_cost_ms=baseline_cost,
            baseline_size_bytes=baseline_size,
        )

    def _baseline(self, key_spec: CompositeKeySpec) -> tuple[CorrelationProfile, float]:
        """The secondary B+Tree baseline: unbucketed key, dense entries."""
        unbucketed = CompositeKeySpec.build(key_spec.attributes)
        profile = self._collector.estimated_correlation_profile(
            unbucketed,
            self.clustered_attribute,
            self._sample,
            total_rows=self.table_profile.total_tups,
        )
        key_bytes = 8 * len(key_spec)
        size = self.table_profile.total_tups * (key_bytes + _BTREE_ENTRY_OVERHEAD_BYTES)
        return profile, float(size)

    @staticmethod
    def _level_of(part: AttributeBucketing) -> int:
        bucketer = part.bucketer
        level = getattr(bucketer, "level", None)
        if level is not None:
            return level
        width = getattr(bucketer, "width", None)
        if width is None:
            return 0
        # Recover the level from the width heuristically (width = 2**level * gap).
        return max(1, int(round(width).bit_length() - 1)) if width >= 1 else 1

    # -- recommendation (Section 6.2) ------------------------------------------------------

    def recommend(self, query: TrainingQuery) -> Recommendation:
        """Evaluate all candidates for one query and pick a recommendation.

        The recommended design is the *smallest* one whose estimated slowdown
        relative to the secondary B+Tree stays within ``performance_target``.
        When even the best design is not expected to beat a sequential scan,
        no CM is recommended.
        """
        candidates = self.enumerate_candidates(query)
        designs = [
            self.evaluate_design(spec, n_lookups=query.n_lookups) for spec in candidates
        ]
        table_scan = scan_cost(self.table_profile, self.hardware)
        recommended: CMDesign | None = None
        # Only designs that are both within the performance target *and*
        # expected to beat a sequential scan are worth building; among those,
        # recommend the smallest.  (A design over a weakly-correlated or
        # few-valued attribute can have "zero slowdown" simply because both it
        # and the B+Tree degenerate to a scan -- it must not be recommended.)
        useful = [
            design
            for design in designs
            if design.slowdown <= self.performance_target
            and design.estimated_cost_ms < table_scan
        ]
        if useful:
            recommended = min(useful, key=lambda d: d.estimated_size_bytes)
        return Recommendation(
            query=query,
            designs=tuple(designs),
            recommended=recommended,
            scan_cost_ms=table_scan,
        )

    # -- Table 5 style report -----------------------------------------------------------------

    def design_table(self, query: TrainingQuery, *, limit: int = 10) -> list[dict[str, Any]]:
        """Rows of Table 5: designs sorted by estimated slowdown vs B+Tree."""
        recommendation = self.recommend(query)
        rows = []
        for design in recommendation.designs_by_slowdown()[:limit]:
            rows.append(
                {
                    "runtime": f"+{design.slowdown:.0%}" if design.slowdown > 0 else "0%",
                    "cm_design": design.describe(),
                    "size_ratio": f"{design.size_ratio:.1%}",
                    "estimated_size_bytes": design.estimated_size_bytes,
                    "estimated_c_per_u": design.estimated_c_per_u,
                }
            )
        return rows
