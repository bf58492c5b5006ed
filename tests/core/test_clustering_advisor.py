"""Tests for the clustering advisor (the Figure 2 analysis)."""

import pytest

from repro.core.clustering_advisor import SPEEDUP_THRESHOLDS, ClusteringAdvisor
from repro.core.model import TableProfile
from repro.datasets.sdss import ATTRIBUTE_FAMILIES, SDSSConfig, generate_photoobj


@pytest.fixture(scope="module")
def rows():
    return generate_photoobj(
        SDSSConfig(fields_ra=16, fields_dec=16, objects_per_field=40, seed=5)
    )


@pytest.fixture(scope="module")
def advisor(rows):
    return ClusteringAdvisor(
        rows,
        table_profile=TableProfile(total_tups=len(rows), tups_per_page=20, btree_height=2),
    )


def one_percent_predicates(rows, attributes, selectivity=0.01):
    """Per-attribute range predicates selecting ~1 % of the rows."""
    from repro.datasets.workloads import one_percent_range

    predicates = {}
    for position, attribute in enumerate(attributes):
        low, high = one_percent_range(rows, attribute, selectivity=selectivity, seed=position)
        predicates[attribute] = (
            lambda row, a=attribute, lo=low, hi=high: lo <= row[a] <= hi
        )
    return predicates


def test_requires_rows():
    with pytest.raises(ValueError):
        ClusteringAdvisor([])


def test_simulated_query_on_clustered_attribute_always_speeds_up(advisor, rows):
    predicates = one_percent_predicates(rows, ["fieldid"])
    benefit = advisor.simulate_workload(["fieldid"], predicates)[0]
    assert benefit.speedups[0].speedup > 2


def test_simulated_correlated_family_benefits_from_clustering(advisor, rows):
    """Clustering on one position attribute accelerates the whole family.

    At this (deliberately small) test scale a full scan is only ~40 ms of
    simulated time, so even ideal lookups cap out at a few x; the benchmark
    reproduces the paper's 2x/4x/8x/16x histogram at a larger scale.
    """
    position = ["fieldid", "run", "mjd"]
    predicates = one_percent_predicates(rows, position)
    benefit = advisor.simulate_workload(["mjd"], predicates)[0]
    assert benefit.queries_with_speedup(1.5) >= 2


def test_simulated_uncorrelated_clustering_does_not_help(advisor, rows):
    predicates = one_percent_predicates(rows, ["psfmag_g", "fieldid"])
    benefit = advisor.simulate_workload(["noise1"], predicates)[0]
    helped = [s for s in benefit.speedups if s.speedup >= 1.5]
    assert len(helped) == 0


def test_histogram_thresholds_are_monotone(advisor, rows):
    attributes = ["fieldid", "run", "mjd", "psfmag_g", "noise1"]
    predicates = one_percent_predicates(rows, attributes)
    benefit = advisor.simulate_workload(["fieldid"], predicates)[0]
    histogram = benefit.histogram()
    assert set(histogram) == set(SPEEDUP_THRESHOLDS)
    counts = [histogram[t] for t in SPEEDUP_THRESHOLDS]
    assert counts == sorted(counts, reverse=True)


def test_simulated_workload_favours_the_largest_correlated_family(advisor, rows):
    """Figure 2's ranking: clustering on the position family speeds up more
    queries than clustering on a magnitude or on noise."""
    candidates = ["fieldid", "psfmag_g", "noise1"]
    queries = ["fieldid", "run", "mjd", "extinction_r", "psfmag_r", "noise1"]
    predicates = one_percent_predicates(rows, queries)
    benefits = advisor.simulate_workload(candidates, predicates)
    assert [b.clustered_attribute for b in benefits] == candidates
    helped = {b.clustered_attribute: b.queries_with_speedup(1.5) for b in benefits}
    assert max(helped, key=helped.get) == "fieldid"
    assert helped["fieldid"] > helped["noise1"]


def test_speedup_handles_zero_cost():
    from repro.core.clustering_advisor import QuerySpeedup

    speedup = QuerySpeedup("a", "b", 1.0, 0.0, 100.0)
    assert speedup.speedup == float("inf")
