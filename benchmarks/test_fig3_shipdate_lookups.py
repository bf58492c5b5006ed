"""Figure 3: B+Tree lookups with a correlated vs an uncorrelated clustering.

The paper's query::

    SELECT AVG(extendedprice * discount) FROM lineitem
    WHERE shipdate IN [1 ... 100 random shipdates]

is run against lineitem clustered on receiptdate (correlated with shipdate)
and clustered on the primary key (uncorrelated), with a secondary B+Tree on
shipdate in both cases.  With the correlated clustering the sorted index scan
stays far below the table-scan cost even at 100 ship dates; without it the
cost reaches the scan cost after only a few ship dates.  The analytical cost
model tracks the correlated curve.
"""

import pytest

from repro.bench.reporting import format_series, print_header
from repro.core.cost import scan_cost, sorted_lookup_cost
from repro.core.model import HardwareParameters
from repro.datasets.workloads import tpch_shipdate_query

NUM_DATES = (1, 2, 4, 8, 16, 32, 64, 100)


@pytest.mark.benchmark(group="figure3")
def test_fig3_shipdate_lookups(benchmark, tpch_correlated, tpch_uncorrelated):
    corr_db, rows = tpch_correlated
    uncorr_db, _ = tpch_uncorrelated
    hardware = HardwareParameters.from_disk(corr_db.disk.params)

    corr_table = corr_db.table("lineitem")
    profile = corr_table.table_profile()
    correlation = corr_table.correlation_profile("shipdate")
    table_scan_ms = scan_cost(profile, hardware)

    def run():
        series = {"correlated": [], "uncorrelated": [], "table_scan": [], "cost_model": []}
        for n in NUM_DATES:
            query = tpch_shipdate_query(rows, n, seed=n)
            correlated = corr_db.run_query(query, force="sorted_index_scan", cold_cache=True)
            uncorrelated = uncorr_db.run_query(query, force="sorted_index_scan", cold_cache=True)
            series["correlated"].append(round(correlated.elapsed_ms, 1))
            series["uncorrelated"].append(round(uncorrelated.elapsed_ms, 1))
            series["table_scan"].append(round(table_scan_ms, 1))
            series["cost_model"].append(
                round(sorted_lookup_cost(n, correlation, profile, hardware), 1)
            )
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figure 3: shipdate IN (...) lookups, correlated vs uncorrelated clustering")
    print(format_series(series, x_label="num_shipdates", x_values=list(NUM_DATES)))

    correlated = series["correlated"]
    uncorrelated = series["uncorrelated"]
    model = series["cost_model"]

    # The uncorrelated clustering degenerates to (roughly) a full scan within
    # a handful of ship dates.
    idx_8 = NUM_DATES.index(8)
    assert uncorrelated[idx_8] >= 0.6 * table_scan_ms

    # The correlated clustering stays well below both the uncorrelated curve
    # and the scan cost while the IN-list covers a few percent of the date
    # domain (the paper's regime; at this scale 32+ dates already cover ~10 %
    # or more of the shrunken date domain, so the curves converge by design).
    idx_16 = NUM_DATES.index(16)
    assert correlated[idx_16] < 0.6 * table_scan_ms
    assert correlated[idx_16] < 0.7 * uncorrelated[idx_16]
    idx_32 = NUM_DATES.index(32)
    assert correlated[idx_32] < table_scan_ms
    for small_n in (0, 1, 2, 3):
        assert correlated[small_n] < uncorrelated[small_n]
    idx_100 = NUM_DATES.index(100)
    assert correlated[idx_100] <= uncorrelated[idx_100] * 1.05

    # The cost model tracks the measured correlated curve (same order of
    # magnitude across the sweep; the paper shows a close visual match).
    for measured, predicted in zip(correlated, model):
        assert predicted <= 3.5 * measured + 1.0
        assert measured <= 3.5 * predicted + 1.0
