"""Figure 7 (Experiment 2): the bucket-level size/performance trade-off.

Sweeping the CM bucket level (each bucket holds ~2^level dollars of Price),
query runtime stays close to the secondary B+Tree until the buckets grow past
the query's own width, after which false positives blow up; CM size shrinks
monotonically with the level.  The "knee" identifies the ideal bucket size.
"""

import pytest

from repro.bench.harness import ebay_price_bucketer
from repro.bench.reporting import format_table, print_header
from repro.core.cost import CMCostInputs, cm_lookup_cost
from repro.core.model import HardwareParameters
from repro.datasets.workloads import ebay_price_range_query

BUCKET_LEVELS = (4, 6, 8, 10, 12, 14, 16, 18)
QUERY = ebay_price_range_query(1_000.0, 100.0, count_distinct="cat3")


@pytest.mark.benchmark(group="figure7")
def test_fig7_bucket_level_tradeoff(benchmark, ebay_database):
    db, _rows = ebay_database
    table = db.table("items")
    hardware = HardwareParameters.from_disk(db.disk.params)
    profile = table.table_profile()
    btree_result = db.run_query(QUERY, force="sorted_index_scan", cold_cache=True)

    def run():
        results = []
        for level in BUCKET_LEVELS:
            name = f"cm_price_L{level}"
            cm = db.create_correlation_map(
                "items",
                ["price"],
                bucketers={"price": ebay_price_bucketer(level)},
                name=name,
            )
            result = db.run_query(QUERY, force="cm_scan", cold_cache=True)
            model_ms = cm_lookup_cost(
                1,
                CMCostInputs(
                    buckets_per_lookup=max(1.0, cm.measured_c_per_u()),
                    pages_per_bucket=float(table.pages_per_bucket or 1),
                    cm_pages=cm.size_pages(),
                ),
                profile,
                hardware,
            )
            results.append(
                {
                    "bucket_level": level,
                    "cm_runtime_ms": round(result.elapsed_ms, 2),
                    "cost_model_ms": round(model_ms, 2),
                    "btree_runtime_ms": round(btree_result.elapsed_ms, 2),
                    "cm_size_kb": round(cm.size_bytes() / 1024, 1),
                    "rows": result.rows_matched,
                }
            )
            table.drop_correlation_map(name)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figure 7: query runtime and CM size as a function of the bucket level")
    print(
        format_table(
            results,
            columns=[
                "bucket_level", "cm_runtime_ms", "cost_model_ms",
                "btree_runtime_ms", "cm_size_kb",
            ],
        )
    )

    by_level = {row["bucket_level"]: row for row in results}
    # All bucketings return the same answer.
    assert len({row["rows"] for row in results}) == 1

    # CM size decreases monotonically as buckets widen.
    sizes = [row["cm_size_kb"] for row in results]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] < sizes[0] / 5

    # Runtime is flat (close to the B+Tree) for fine bucketings ...
    fine = by_level[BUCKET_LEVELS[0]]["cm_runtime_ms"]
    assert by_level[8]["cm_runtime_ms"] <= 2.0 * fine + 0.5
    # ... and grows rapidly once buckets are much wider than the query range.
    assert by_level[18]["cm_runtime_ms"] > 2.0 * fine
    assert by_level[18]["cm_runtime_ms"] > by_level[10]["cm_runtime_ms"]
