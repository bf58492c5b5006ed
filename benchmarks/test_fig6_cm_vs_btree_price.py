"""Figure 6 (Experiment 1): CM vs secondary B+Tree over widening Price ranges.

The eBay ITEMS table is clustered on CATID (strongly correlated with Price).
The query counts distinct CAT2 values over a Price range whose width grows
from $100 to $10 000.  Both the bucketed CM and the dense secondary B+Tree
exploit the correlation and stay an order of magnitude below the sequential
scan; the CM is slightly slower because it scans whole clustered buckets
(false positives) and pays the rewriting overhead, but it is three orders of
magnitude smaller.
"""

import pytest

from repro.bench.harness import ebay_price_bucketer
from repro.bench.reporting import format_series, print_header
from repro.core.cost import scan_cost
from repro.core.model import HardwareParameters
from repro.datasets.workloads import ebay_price_range_query

PRICE_RANGES = (100, 500, 1_000, 2_000, 4_000, 6_000, 8_000, 10_000)
PRICE_LOW = 1_000.0
#: 2^12 dollars per CM bucket (chosen by the Figure 7 sweep).
CM_BUCKET_LEVEL = 12


@pytest.mark.benchmark(group="figure6")
def test_fig6_cm_vs_btree_price(benchmark, ebay_database):
    db, _rows = ebay_database
    table = db.table("items")
    if "cm_price" not in table.correlation_maps:
        db.create_correlation_map(
            "items",
            ["price"],
            bucketers={"price": ebay_price_bucketer(CM_BUCKET_LEVEL)},
            name="cm_price",
        )
    cm = table.correlation_maps["cm_price"]
    btree = next(
        index
        for index in table.secondary_indexes.values()
        if index.attributes == ("price",)
    )
    hardware = HardwareParameters.from_disk(db.disk.params)
    scan_ms = scan_cost(table.table_profile(), hardware)

    def run():
        series = {"cm_ms": [], "btree_ms": [], "cm_rows": [], "btree_rows": []}
        for price_range in PRICE_RANGES:
            query = ebay_price_range_query(PRICE_LOW, price_range)
            cm_result = db.run_query(query, force="cm_scan", cold_cache=True)
            bt_result = db.run_query(query, force="sorted_index_scan", cold_cache=True)
            series["cm_ms"].append(round(cm_result.elapsed_ms, 2))
            series["btree_ms"].append(round(bt_result.elapsed_ms, 2))
            series["cm_rows"].append(cm_result.rows_matched)
            series["btree_rows"].append(bt_result.rows_matched)
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figure 6: CM vs secondary B+Tree over Price ranges (eBay, clustered on CATID)")
    print(
        format_series(
            {"CM [ms]": series["cm_ms"], "B+Tree [ms]": series["btree_ms"]},
            x_label="price_range",
            x_values=list(PRICE_RANGES),
        )
    )
    print(f"table scan would cost {scan_ms:.1f} ms")
    print(
        f"CM size: {cm.size_bytes() / 1024:.1f} KB, "
        f"B+Tree size: {btree.size_bytes() / 1024:.1f} KB"
    )

    # Both access methods answer identically.
    assert series["cm_rows"] == series["btree_rows"]

    for cm_ms, bt_ms in zip(series["cm_ms"], series["btree_ms"]):
        # Both exploit the correlation: an order of magnitude below the scan.
        assert cm_ms < scan_ms / 3
        assert bt_ms < scan_ms / 3
        # The CM is competitive: no better than the B+Tree but within a small
        # constant factor plus the fixed cost of scanning whole clustered
        # buckets (the paper reports a 1-4 second gap on 8-14 s runs).
        assert cm_ms >= bt_ms * 0.8
        assert cm_ms <= bt_ms * 4 + 4.0

    # The data structure itself is orders of magnitude smaller.
    assert cm.size_bytes() < btree.size_bytes() / 100
