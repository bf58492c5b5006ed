"""TPC-H: exploiting the shipdate/receiptdate correlation (paper Figure 3).

The lineitem table is clustered on ``receiptdate``.  Because goods are
received a few days after they ship, a query predicated on ``shipdate`` can
be answered by scanning a handful of receiptdate ranges instead of the whole
table -- but only if the executor knows about the correlation.  This example
compares, for a growing ``shipdate IN (...)`` list:

* a sorted secondary-index scan with the correlated clustering,
* the same scan when the table is clustered on the (uncorrelated) primary key,
* a full table scan,
* the analytical cost model's prediction.

Run with::

    python examples/tpch_shipdates.py
"""

from repro.bench.harness import build_tpch_database
from repro.bench.reporting import format_series
from repro.core.cost import scan_cost, sorted_lookup_cost
from repro.core.model import HardwareParameters
from repro.datasets.workloads import tpch_shipdate_query


def main():
    print("building lineitem clustered on receiptdate (correlated) ...")
    corr_db, rows = build_tpch_database(cluster_on="receiptdate")
    corr_db.create_secondary_index("lineitem", "shipdate")

    print("building lineitem clustered on orderkey (uncorrelated) ...")
    uncorr_db, _ = build_tpch_database(cluster_on="orderkey")
    uncorr_db.create_secondary_index("lineitem", "shipdate")

    table = corr_db.table("lineitem")
    hardware = HardwareParameters.from_disk(corr_db.disk.params)
    profile = table.table_profile()
    correlation = table.correlation_profile("shipdate")
    print(
        f"lineitem: {table.num_rows} rows, {table.num_pages} pages, "
        f"c_per_u(shipdate -> receiptdate) = {correlation.c_per_u:.2f}"
    )

    counts = [1, 2, 4, 8, 16, 32]
    series = {"correlated_ms": [], "uncorrelated_ms": [], "scan_ms": [], "model_ms": []}
    for n in counts:
        query = tpch_shipdate_query(rows, n, seed=n)
        correlated = corr_db.run_query(query, force="sorted_index_scan", cold_cache=True)
        uncorrelated = uncorr_db.run_query(query, force="sorted_index_scan", cold_cache=True)
        series["correlated_ms"].append(round(correlated.elapsed_ms, 1))
        series["uncorrelated_ms"].append(round(uncorrelated.elapsed_ms, 1))
        series["scan_ms"].append(round(scan_cost(profile, hardware), 1))
        series["model_ms"].append(
            round(sorted_lookup_cost(n, correlation, profile, hardware), 1)
        )

    print()
    print("simulated elapsed time of the shipdate IN (...) aggregate:")
    print(format_series(series, x_label="num_shipdates", x_values=counts))
    print()
    print(
        "With the correlated clustering the secondary index stays far below the\n"
        "scan cost; without it the bitmap scan touches scattered pages and hits\n"
        "the scan cost after a handful of ship dates -- the shape of Figure 3."
    )


if __name__ == "__main__":
    main()
