"""Choosing a clustered attribute that benefits many queries (Figure 2).

The paper's Section 3.4 experiment clusters the SDSS ``PhotoObj`` table on
each of 39 attributes in turn and counts, for every clustering, how many of
39 single-attribute selection queries speed up by at least 2x/4x/8x/16x over
a table scan.  The clustering advisor runs that experiment without a
physical rebuild per clustering: it lays the rows out in each candidate's
order, charges every query's sorted index scan with the cost model's
hardware constants, and summarises which clustered attributes help the most
queries.

This is also the analysis a physical designer (the paper's future work)
would build on when choosing a clustered index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.core.cost import scan_cost
from repro.core.model import HardwareParameters, TableProfile

#: The speedup thresholds reported in Figure 2.
SPEEDUP_THRESHOLDS = (2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class QuerySpeedup:
    """Speedup of one query attribute under one clustering."""

    query_attribute: str
    clustered_attribute: str
    c_per_u: float
    lookup_cost_ms: float
    scan_cost_ms: float

    @property
    def speedup(self) -> float:
        if self.lookup_cost_ms <= 0:
            return float("inf")
        return self.scan_cost_ms / self.lookup_cost_ms


@dataclass(frozen=True)
class ClusteringBenefit:
    """Figure 2 summary for one choice of clustered attribute."""

    clustered_attribute: str
    speedups: tuple[QuerySpeedup, ...]

    def queries_with_speedup(self, threshold: float) -> int:
        return sum(1 for s in self.speedups if s.speedup >= threshold)

    def histogram(self) -> dict[float, int]:
        """Queries sped up by at least each of :data:`SPEEDUP_THRESHOLDS`."""
        return {t: self.queries_with_speedup(t) for t in SPEEDUP_THRESHOLDS}


class ClusteringAdvisor:
    """Finds which clustered attribute accelerates the most queries."""

    def __init__(
        self,
        rows: Sequence[Mapping[str, Any]],
        *,
        table_profile: TableProfile | None = None,
        hardware: HardwareParameters | None = None,
    ) -> None:
        if not rows:
            raise ValueError("the clustering advisor needs a non-empty table")
        self.rows = rows
        self.hardware = hardware or HardwareParameters()
        self.table_profile = table_profile or TableProfile(
            total_tups=len(rows), tups_per_page=100
        )

    def simulate_workload(
        self,
        clustered_candidates: Sequence[str],
        query_predicates: Mapping[str, Callable[[Mapping[str, Any]], bool]],
    ) -> list[ClusteringBenefit]:
        """Measure (rather than model) every (clustering, query) combination.

        For each candidate the rows are laid out in clustered-attribute
        order; for every query the heap pages holding matching tuples are
        computed directly, and the cost of a sorted (bitmap) index scan over
        that page set -- one seek per contiguous page run plus a sequential
        read per page, plus one secondary-index range descent -- is charged
        with the hardware constants.  This mirrors how the paper measures
        Figure 2 while avoiding a physical rebuild per clustering.  Query
        matches are evaluated once; each candidate clustering only re-maps
        the matching rows onto its layout, so 39 clusterings x 39 queries
        take seconds.
        """
        matches = {
            attribute: [i for i, row in enumerate(self.rows) if predicate(row)]
            for attribute, predicate in query_predicates.items()
        }
        return [
            self._simulate_with_matches(candidate, matches)
            for candidate in clustered_candidates
        ]

    def _simulate_with_matches(
        self,
        clustered_attribute: str,
        matches: Mapping[str, Sequence[int]],
    ) -> ClusteringBenefit:
        order = sorted(range(len(self.rows)), key=lambda i: self.rows[i][clustered_attribute])
        position_of = {row_index: position for position, row_index in enumerate(order)}
        tups_per_page = self.table_profile.tups_per_page
        height = self.table_profile.btree_height
        scan = scan_cost(self.table_profile, self.hardware)
        speedups = []
        for attribute, matching in matches.items():
            pages = sorted({position_of[i] // tups_per_page for i in matching})
            runs = 1 + sum(
                1 for a, b in zip(pages, pages[1:]) if b != a + 1
            ) if pages else 0
            # One secondary-index range descent plus the leaf pages scanned to
            # collect the matching RIDs (a range predicate needs no per-value
            # descents), then the bitmap sweep of the heap pages.
            leaf_pages = max(1, len(matching) // 256)
            index_cost = (
                self.hardware.seek_cost_ms * height
                + leaf_pages * self.hardware.seq_page_cost_ms
            )
            cost = (
                index_cost
                + runs * self.hardware.seek_cost_ms
                + len(pages) * self.hardware.seq_page_cost_ms
            )
            cost = min(cost, scan) if pages else 0.0
            speedups.append(
                QuerySpeedup(
                    query_attribute=attribute,
                    clustered_attribute=clustered_attribute,
                    c_per_u=float(runs),
                    lookup_cost_ms=cost,
                    scan_cost_ms=scan,
                )
            )
        return ClusteringBenefit(
            clustered_attribute=clustered_attribute, speedups=tuple(speedups)
        )
