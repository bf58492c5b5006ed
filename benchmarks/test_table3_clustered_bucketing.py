"""Table 3: clustered-attribute bucketing granularity vs I/O cost.

The paper buckets the SDSS clustered attribute (objID) at 1 to 40 disk pages
per bucket and measures the pages scanned and the I/O cost of the SX6 query
(a lookup on two fieldID values through a CM).  Wider clustered buckets add
only sequential I/O, so performance degrades slowly: ~10 pages per bucket
costs only about a millisecond more than 1 page per bucket in the paper.
"""

import pytest

from repro.bench.harness import build_sdss_database
from repro.bench.reporting import format_table, print_header
from repro.datasets.workloads import sdss_sx6_query

BUCKET_SIZES = (1, 5, 10, 15, 20, 40)


@pytest.mark.benchmark(group="table3")
def test_table3_clustered_bucketing(benchmark, experiment_scale):
    db, rows = build_sdss_database(experiment_scale, pages_per_bucket=1)
    # Two mid-sweep fields, as in the SX6 lookup.
    field_values = sorted({row["fieldid"] for row in rows})
    chosen = [field_values[len(field_values) // 3], field_values[2 * len(field_values) // 3]]
    query = sdss_sx6_query(chosen)

    def run():
        results = []
        for pages_per_bucket in BUCKET_SIZES:
            db.cluster("photoobj", "objid", pages_per_bucket=pages_per_bucket)
            if "cm_fieldid" in db.table("photoobj").correlation_maps:
                db.table("photoobj").drop_correlation_map("cm_fieldid")
            db.create_correlation_map("photoobj", ["fieldid"], name="cm_fieldid")
            result = db.run_query(query, force="cm_scan", cold_cache=True)
            results.append(
                {
                    "bucket_size_pages": pages_per_bucket,
                    "pages_scanned": result.pages_visited,
                    "io_cost_ms": round(result.elapsed_ms, 2),
                    "rows_matched": result.rows_matched,
                }
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Table 3: clustered-attribute bucket size vs pages scanned and I/O cost")
    print(format_table(results))

    by_size = {row["bucket_size_pages"]: row for row in results}
    # Every bucketing returns the same answer.
    assert len({row["rows_matched"] for row in results}) == 1

    # Pages scanned grow with the bucket size across the sweep (individual
    # steps may wobble because bucket boundaries snap to clustered values).
    assert by_size[10]["pages_scanned"] >= by_size[1]["pages_scanned"]
    assert by_size[40]["pages_scanned"] >= by_size[10]["pages_scanned"]
    assert by_size[40]["pages_scanned"] > by_size[1]["pages_scanned"]

    # ... but the cost only creeps up because the extra I/O is sequential:
    # ~10 pages per bucket stays close to the 1-page-per-bucket cost, while
    # 40 pages per bucket is measurably slower.
    assert by_size[10]["io_cost_ms"] <= 2.5 * by_size[1]["io_cost_ms"]
    assert by_size[40]["io_cost_ms"] > by_size[1]["io_cost_ms"]
