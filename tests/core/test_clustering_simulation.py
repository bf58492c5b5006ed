"""Tests for the clustering advisor's layout simulation (Figure 2 machinery)."""

import pytest

from repro.core.clustering_advisor import ClusteringAdvisor
from repro.core.model import HardwareParameters, TableProfile


def make_rows(n=4_000):
    """cluster_key groups rows; mirror follows it exactly; noise does not."""
    rows = []
    for i in range(n):
        group = i // 40
        rows.append(
            {
                "rowid": i,
                "group": group,
                "mirror": group * 10,
                "noise": (i * 7919) % 997,
            }
        )
    return rows


@pytest.fixture(scope="module")
def advisor():
    rows = make_rows()
    return ClusteringAdvisor(
        rows,
        table_profile=TableProfile(total_tups=len(rows), tups_per_page=20, btree_height=2),
        hardware=HardwareParameters(seek_cost_ms=0.5, seq_page_cost_ms=0.078),
    ), rows


def test_simulate_workload_matches_individual_calls(advisor):
    """Candidates are laid out independently: simulating two clusterings in
    one workload costs each query as simulating either alone does."""
    adv, rows = advisor
    predicates = {
        "mirror": lambda row: 100 <= row["mirror"] <= 120,
        "noise": lambda row: 100 <= row["noise"] <= 110,
    }
    combined = adv.simulate_workload(["group", "noise"], predicates)
    individual = [
        adv.simulate_workload(["group"], predicates)[0],
        adv.simulate_workload(["noise"], predicates)[0],
    ]
    for got, expected in zip(combined, individual):
        assert got.clustered_attribute == expected.clustered_attribute
        for a, b in zip(got.speedups, expected.speedups):
            assert a.lookup_cost_ms == pytest.approx(b.lookup_cost_ms)


def test_correlated_queries_are_localized(advisor):
    adv, rows = advisor
    predicates = {"mirror": lambda row: row["mirror"] == 200}
    benefit = adv.simulate_workload(["group"], predicates)[0]
    speedup = benefit.speedups[0]
    # One group of 40 rows: two pages, a single run.
    assert speedup.c_per_u == 1.0  # runs
    assert speedup.speedup > 3


def test_uncorrelated_queries_are_scattered(advisor):
    adv, rows = advisor
    # ~20 % of the rows, scattered over every page under the group clustering.
    predicates = {"noise": lambda row: row["noise"] < 200}
    benefit = adv.simulate_workload(["group"], predicates)[0]
    assert benefit.speedups[0].speedup < 1.5


def test_empty_matches_cost_zero(advisor):
    adv, rows = advisor
    predicates = {"mirror": lambda row: False}
    benefit = adv.simulate_workload(["group"], predicates)[0]
    assert benefit.speedups[0].lookup_cost_ms == 0.0
    assert benefit.speedups[0].speedup == float("inf")


def test_full_table_match_costs_a_scan(advisor):
    adv, rows = advisor
    predicates = {"mirror": lambda row: True}
    benefit = adv.simulate_workload(["group"], predicates)[0]
    speedup = benefit.speedups[0]
    assert speedup.lookup_cost_ms == pytest.approx(speedup.scan_cost_ms)
