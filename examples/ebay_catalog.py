"""eBay catalog: maintaining many correlation maps cheaply (Experiments 1-3).

A product catalog clustered on CATID serves queries over the category rollup
columns (CAT1..CAT6) and over Price.  Building a secondary B+Tree for each of
them would make bulk loading painfully slow (each index dirties more buffer
pool pages than fit in RAM); correlation maps give nearly the same query
performance at a tiny fraction of the size and maintenance cost.

This example:

1. builds the ITEMS table clustered on CATID,
2. creates six CMs (CAT2..CAT6 and a bucketed one on Price),
3. runs the paper's Experiment 1 query (COUNT(DISTINCT CAT2) over a price
   range) through the CM and a secondary B+Tree,
4. applies a batch of inserts and reports the maintenance cost of the CMs.

Run with::

    python examples/ebay_catalog.py
"""

from repro import Aggregate, Between, Equals, Query
from repro.bench.harness import build_ebay_database, ebay_price_bucketer
from repro.datasets.workloads import ebay_mixed_workload


def main():
    print("building the ITEMS table clustered on CATID ...")
    db, rows = build_ebay_database()
    table = db.table("items")
    print(f"  {table.num_rows} rows over {table.num_pages} pages")

    # A conventional secondary index on price for comparison ...
    btree = db.create_secondary_index("items", "price")
    # ... and correlation maps on price plus the category rollup columns.
    cms = {}
    cms["price"] = db.create_correlation_map(
        "items", ["price"], bucketers={"price": ebay_price_bucketer(12)}
    )
    for attribute in ("cat2", "cat3", "cat4", "cat5", "cat6"):
        cms[attribute] = db.create_correlation_map("items", [attribute])

    total_cm_kb = sum(cm.size_bytes() for cm in cms.values()) / 1024
    print(f"  secondary B+Tree on price: {btree.size_bytes() / 1024:9.1f} KB")
    print(f"  all six correlation maps:  {total_cm_kb:9.1f} KB")

    # Experiment 1's query: distinct second-level categories in a price band.
    query = Query.select(
        "items",
        Between("price", 1_000, 6_000),
        aggregate=Aggregate.count_distinct("cat2"),
    )
    print()
    print("query:", query.describe())
    for method in ("seq_scan", "sorted_index_scan", "cm_scan"):
        result = db.run_query(query, force=method, cold_cache=True)
        print(
            f"  {method:<20} value={result.value:<4}"
            f" simulated {result.elapsed_ms:8.2f} ms, {result.pages_visited} pages"
        )

    # A category point query served purely by a CM (no B+Tree exists for it).
    sample_cat = next(row["cat4"] for row in rows if row["cat4"])
    cat_query = Query.select(
        "items", Equals("cat4", sample_cat), aggregate=Aggregate.avg("price")
    )
    result = db.run_query(cat_query, cold_cache=True)
    print()
    print("query:", cat_query.describe())
    print(
        f"  planner chose {result.access_method}: AVG(price)={result.value:,.0f},"
        f" {result.elapsed_ms:.2f} ms simulated"
    )

    # Maintenance: one batch of fresh items, all six CMs kept up to date.
    batch = ebay_mixed_workload(
        rows, num_rounds=1, inserts_per_round=5_000, selects_per_round=0, seed=1
    )[0][1]
    outcome = db.insert("items", batch, batch_size=1_000)
    print()
    print(
        f"inserted {outcome.rows_affected} rows while maintaining 6 CMs: "
        f"{outcome.elapsed_ms / 1000:.2f} s simulated "
        f"({outcome.rows_per_second:,.0f} rows/s), "
        f"{outcome.log_flushes} log flushes, {outcome.dirty_evictions} dirty evictions"
    )


if __name__ == "__main__":
    main()
