"""Quickstart: build a correlated table, create a Correlation Map, run queries.

This example walks through the paper's core idea on the classic city/state
style of soft functional dependency, using a synthetic product table where
``price`` strongly (but not exactly) determines the clustered attribute
``catid``:

1. load and cluster the table,
2. create a (bucketed) Correlation Map on the predicated attribute,
3. compare the CM-driven plan against a secondary B+Tree and a full scan,
4. show the rewritten query and the size difference between the structures.

Run with::

    python examples/quickstart.py
"""

import random

from repro import Aggregate, Between, Database, Query, WidthBucketer


def make_rows(num_rows=60_000, seed=0):
    """A product table where price soft-determines the category."""
    rng = random.Random(seed)
    rows = []
    for item_id in range(num_rows):
        price = rng.uniform(0, 100_000)
        catid = int(price // 500)              # 200 categories, price-banded
        rows.append(
            {
                "itemid": item_id,
                "catid": catid,
                "category": f"department-{catid // 20}",
                "price": round(price, 2),
            }
        )
    return rows


def main():
    rows = make_rows()

    # 1. Create, load and cluster the table (CATID is the clustered attribute;
    #    pages_per_bucket enables the clustered-attribute bucketing of §6.1.1).
    db = Database(buffer_pool_pages=2_000)
    db.create_table("items", sample_row=rows[0], tups_per_page=50)
    db.load("items", rows)
    db.cluster("items", "catid", pages_per_bucket=10)

    # 2. Secondary structures on the predicated attribute: a conventional
    #    dense B+Tree and a bucketed Correlation Map.
    btree = db.create_secondary_index("items", "price")
    cm = db.create_correlation_map(
        "items", ["price"], bucketers={"price": WidthBucketer(256.0)}
    )

    # 3. The query: an aggregate over a narrow price range.
    query = Query.select(
        "items", Between("price", 10_000, 10_800), aggregate=Aggregate.count()
    )

    print("query:", query.describe())
    print()
    print("planner's view of the alternatives:")
    for plan in db.explain(query):
        print(
            f"  {plan['method']:<22} via {plan['structure']:<22}"
            f" estimated {plan['estimated_cost_ms']:8.2f} ms"
        )
    print()

    for method in ("seq_scan", "sorted_index_scan", "cm_scan"):
        result = db.run_query(query, force=method, cold_cache=True)
        print(
            f"{method:<22} -> count={result.value:<6}"
            f" simulated {result.elapsed_ms:8.2f} ms,"
            f" {result.pages_visited:5d} pages,"
            f" {result.false_positive_rows:5d} false-positive rows"
        )

    # 4. The rewriting the CM performs, and the size comparison.
    cm_result = db.run_query(query, force="cm_scan")
    print()
    print("rewritten query sent to the clustered index:")
    print(" ", cm_result.rewritten_sql)
    print()
    print(f"secondary B+Tree size: {btree.size_bytes() / 1024:8.1f} KB")
    print(f"correlation map size:  {cm.size_bytes() / 1024:8.1f} KB")
    print(f"compression ratio:     {btree.size_bytes() / cm.size_bytes():8.0f}x")


if __name__ == "__main__":
    main()
