"""Tests for the correlation-aware analytical cost model (Sections 3-4)."""

import pytest

from repro.core.cost import (
    CMCostInputs,
    cm_lookup_cost,
    hash_join_cost,
    pipelined_lookup_cost,
    scan_cost,
    sort_merge_join_cost,
    sorted_lookup_cost,
)
from repro.core.model import CorrelationProfile, HardwareParameters, TableProfile

HW = HardwareParameters(seek_cost_ms=5.5, seq_page_cost_ms=0.078)
PROFILE = TableProfile(total_tups=1_000_000, tups_per_page=100, btree_height=3)


def test_scan_cost_is_sequential_pages():
    assert scan_cost(PROFILE, HW) == pytest.approx(10_000 * 0.078)


def test_pipelined_cost_formula():
    corr = CorrelationProfile(c_per_u=1.0, c_tups=100, u_tups=7000)
    cost = pipelined_lookup_cost(4, corr, PROFILE, HW)
    assert cost == pytest.approx(4 * 7000 * 5.5 * 3)


def test_pipelined_rejects_negative_lookups():
    corr = CorrelationProfile(c_per_u=1.0, c_tups=1, u_tups=1)
    with pytest.raises(ValueError):
        pipelined_lookup_cost(-1, corr, PROFILE, HW)


def test_sorted_cost_formula_uncapped():
    corr = CorrelationProfile(c_per_u=2.0, c_tups=200, u_tups=100)
    cost = sorted_lookup_cost(3, corr, PROFILE, HW)  # far below the scan cost
    c_pages = 200 / 100
    expected = 3 * 2.0 * (5.5 * 3 + 0.078 * c_pages)
    assert cost == pytest.approx(expected)


def test_sorted_cost_clamped_by_scan():
    corr = CorrelationProfile(c_per_u=7000.0, c_tups=300, u_tups=1)
    cost = sorted_lookup_cost(100, corr, PROFILE, HW)
    assert cost == pytest.approx(scan_cost(PROFILE, HW))


def test_correlation_reduces_sorted_cost():
    """Smaller c_per_u (stronger soft FD) means cheaper lookups."""
    strong = CorrelationProfile(c_per_u=1.2, c_tups=100, u_tups=50)
    weak = CorrelationProfile(c_per_u=400.0, c_tups=100, u_tups=50)
    assert sorted_lookup_cost(10, strong, PROFILE, HW) < sorted_lookup_cost(
        10, weak, PROFILE, HW
    )


def test_sorted_cost_grows_with_lookups_until_scan():
    corr = CorrelationProfile(c_per_u=50.0, c_tups=700, u_tups=100)
    costs = [sorted_lookup_cost(n, corr, PROFILE, HW) for n in (1, 4, 16, 64, 256)]
    assert costs == sorted(costs)
    assert costs[-1] == pytest.approx(scan_cost(PROFILE, HW))


def test_few_valued_clustered_attribute_is_penalised():
    """Small c_per_u from a tiny clustered domain implies huge c_pages."""
    # Clustered on a 2-value attribute: c_per_u small but each value covers
    # half the table.
    corr = CorrelationProfile(c_per_u=1.5, c_tups=500_000, u_tups=100)
    cost = sorted_lookup_cost(10, corr, PROFILE, HW)
    assert cost == pytest.approx(scan_cost(PROFILE, HW))


def test_cm_cost_tracks_sorted_cost_for_equivalent_stats():
    corr = CorrelationProfile(c_per_u=3.0, c_tups=100, u_tups=10)
    sorted_cost = sorted_lookup_cost(5, corr, PROFILE, HW)
    cm_inputs = CMCostInputs(buckets_per_lookup=3.0, pages_per_bucket=1.0)
    cm_cost = cm_lookup_cost(5, cm_inputs, PROFILE, HW)
    assert cm_cost == pytest.approx(sorted_cost, rel=0.05)


def test_cm_cost_grows_with_bucket_width():
    narrow = CMCostInputs(buckets_per_lookup=2.0, pages_per_bucket=1.0)
    wide = CMCostInputs(buckets_per_lookup=2.0, pages_per_bucket=40.0)
    assert cm_lookup_cost(3, narrow, PROFILE, HW) < cm_lookup_cost(3, wide, PROFILE, HW)


def test_cm_cost_adds_read_cost_when_not_resident():
    inputs_resident = CMCostInputs(buckets_per_lookup=1.0, pages_per_bucket=1.0, cm_pages=100)
    inputs_cold = CMCostInputs(
        buckets_per_lookup=1.0, pages_per_bucket=1.0, cm_pages=100, cm_resident=False
    )
    assert cm_lookup_cost(1, inputs_cold, PROFILE, HW) > cm_lookup_cost(
        1, inputs_resident, PROFILE, HW
    )


def test_cm_cost_clamped_by_scan():
    inputs = CMCostInputs(buckets_per_lookup=100_000.0, pages_per_bucket=10.0)
    assert cm_lookup_cost(100, inputs, PROFILE, HW) == pytest.approx(scan_cost(PROFILE, HW))


def test_cm_cost_rejects_negative_lookups():
    with pytest.raises(ValueError):
        cm_lookup_cost(-1, CMCostInputs(1.0, 1.0), PROFILE, HW)


def test_figure3_shape_correlated_vs_uncorrelated():
    """The cost model reproduces the shape of Figure 3.

    With a correlated clustering (shipdate ~ receiptdate, c_per_u ~ 4) the
    cost of 100 lookups stays far below a scan; with an uncorrelated
    clustering (c_per_u ~ 7000 receipt dates per shipdate ... effectively
    scattered) the cost reaches the scan cost within a handful of lookups.
    """
    # TPC-H scale-3-like lineitem: 18M rows, ~60 tuples/page.
    profile = TableProfile(total_tups=18_000_000, tups_per_page=60, btree_height=3)
    correlated = CorrelationProfile(c_per_u=4.0, c_tups=7200, u_tups=7200)
    uncorrelated = CorrelationProfile(c_per_u=2400.0, c_tups=7200, u_tups=7200)

    cost_corr_100 = sorted_lookup_cost(100, correlated, profile, HW)
    cost_uncorr_4 = sorted_lookup_cost(4, uncorrelated, profile, HW)
    scan = scan_cost(profile, HW)

    assert cost_corr_100 < 0.5 * scan
    assert cost_uncorr_4 >= 0.9 * scan


# ---------------------------------------------------------------------------
# Set-at-a-time join operators (hash and sort-merge splits)
# ---------------------------------------------------------------------------

def test_hash_join_build_inner_split():
    split = hash_join_cost(500, PROFILE.total_tups, PROFILE, HW, build_side="inner")
    # Upfront: one inner scan plus hashing every inner row.
    assert split.upfront_ms == pytest.approx(
        scan_cost(PROFILE, HW) + PROFILE.total_tups * HW.cpu_tuple_cost_ms
    )
    # Streaming: pure CPU per probe row -- no I/O of its own.
    assert split.streaming_ms == pytest.approx(500 * HW.cpu_tuple_cost_ms)


def test_hash_join_build_outer_moves_inner_scan_to_streaming():
    inner = hash_join_cost(500, 1_000, PROFILE, HW, build_side="inner")
    outer = hash_join_cost(500, 1_000, PROFILE, HW, build_side="outer")
    # The inner table is read exactly once either way; which phase pays for
    # it is what the build side decides.
    assert inner.total_ms == pytest.approx(outer.total_ms)
    assert outer.upfront_ms == pytest.approx(500 * HW.cpu_tuple_cost_ms)
    assert outer.streaming_ms > inner.streaming_ms


def test_hash_join_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hash_join_cost(-1, 10, PROFILE, HW)
    with pytest.raises(ValueError):
        hash_join_cost(10, 10, PROFILE, HW, build_side="sideways")


def test_sort_merge_presorted_inner_streams_its_scan():
    split = sort_merge_join_cost(
        1_000, PROFILE.total_tups, PROFILE, HW, inner_sorted=True, outer_sorted=True
    )
    # Nothing to sort: the only work beyond merge CPU is the ordered sweep,
    # which streams (a LIMIT abandons the remaining inner pages).
    assert split.upfront_ms == 0.0
    assert split.streaming_ms >= scan_cost(PROFILE, HW)


def test_sort_merge_explicit_sorts_are_upfront():
    split = sort_merge_join_cost(
        1_000, PROFILE.total_tups, PROFILE, HW, inner_sorted=False
    )
    # The unsorted inner is scanned and sorted before the first merged row.
    assert split.upfront_ms > scan_cost(PROFILE, HW)
    assert split.streaming_ms < scan_cost(PROFILE, HW)


def test_sort_merge_cost_grows_with_unsorted_outer():
    sorted_outer = sort_merge_join_cost(
        50_000, 1_000, PROFILE, HW, inner_sorted=True, outer_sorted=True
    )
    unsorted_outer = sort_merge_join_cost(
        50_000, 1_000, PROFILE, HW, inner_sorted=True, outer_sorted=False
    )
    assert unsorted_outer.upfront_ms > sorted_outer.upfront_ms


def test_join_splits_feed_limited_cost():
    from repro.core.cost import limited_cost

    split = hash_join_cost(10_000, PROFILE.total_tups, PROFILE, HW)
    # A LIMIT scales only the probe pass; the build is paid in full, so the
    # limited cost stays dominated by the upfront part.
    limited = limited_cost(split, est_result_rows=10_000, limit=10)
    assert limited >= split.upfront_ms
    assert limited < split.total_ms
