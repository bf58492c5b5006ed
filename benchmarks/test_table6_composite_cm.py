"""Table 6 (Experiment 5): composite CMs vs single-attribute CMs vs a B+Tree.

The SDSS query restricts a sky region (ra and dec ranges) plus a surface
brightness expression.  Neither ra nor dec alone pins down the clustered
objID, but the pair does; a composite CM(ra, dec) therefore beats both
single-attribute CMs *and* the composite secondary B+Tree (which can only use
its ra prefix for the range), while being orders of magnitude smaller.
"""

import pytest

from repro.bench.reporting import format_table, print_header
from repro.core.bucketing import WidthBucketer
from repro.datasets.sdss import DEC_WINDOW, RA_WINDOW
from repro.datasets.workloads import sdss_q2_query

#: Bucket widths for the CM keys (degrees); chosen so the composite CM has a
#: few thousand keys, as the advisor recommends.
RA_BUCKET = WidthBucketer(0.5)
DEC_BUCKET = WidthBucketer(0.25)


def _query_region(rows):
    """A Q2-style region covering ~5 % of ra and ~1.5 % of dec."""
    ra_span = RA_WINDOW[1] - RA_WINDOW[0]
    dec_span = DEC_WINDOW[1] - DEC_WINDOW[0]
    ra_range = (RA_WINDOW[0] + 0.4 * ra_span, RA_WINDOW[0] + 0.45 * ra_span)
    dec_range = (DEC_WINDOW[0] + 0.30 * dec_span, DEC_WINDOW[0] + 0.315 * dec_span)
    return sdss_q2_query(ra_range, dec_range, surface_range=(15.0, 40.0))


@pytest.mark.benchmark(group="table6")
def test_table6_composite_cm(benchmark, sdss_database):
    db, rows = sdss_database
    table = db.table("photoobj")
    query = _query_region(rows)

    if "cm_ra" not in table.correlation_maps:
        db.create_correlation_map("photoobj", ["ra"], bucketers={"ra": RA_BUCKET}, name="cm_ra")
        db.create_correlation_map(
            "photoobj", ["dec"], bucketers={"dec": DEC_BUCKET}, name="cm_dec"
        )
        db.create_correlation_map(
            "photoobj",
            ["ra", "dec"],
            bucketers={"ra": RA_BUCKET, "dec": DEC_BUCKET},
            name="cm_ra_dec",
        )
        db.create_secondary_index("photoobj", ["ra", "dec"], name="btree_ra_dec")

    def run():
        results = []
        for name, force, structure in [
            ("CM(ra)", "cm_scan", table.correlation_maps["cm_ra"]),
            ("CM(dec)", "cm_scan", table.correlation_maps["cm_dec"]),
            ("CM(ra, dec)", "cm_scan", table.correlation_maps["cm_ra_dec"]),
            ("B+Tree(ra, dec)", "sorted_index_scan", table.secondary_indexes["btree_ra_dec"]),
        ]:
            if force == "cm_scan":
                # Keep only the CM under test so the planner uses it.
                others = {
                    cm_name: table.correlation_maps[cm_name]
                    for cm_name in list(table.correlation_maps)
                    if table.correlation_maps[cm_name] is not structure
                }
                for cm_name in others:
                    del table.correlation_maps[cm_name]
                result = db.run_query(query, force=force, cold_cache=True)
                table.correlation_maps.update(others)
            else:
                result = db.run_query(query, force=force, cold_cache=True)
            results.append(
                {
                    "index": name,
                    "runtime_ms": round(result.elapsed_ms, 2),
                    "pages": result.pages_visited,
                    "size_kb": round(structure.size_bytes() / 1024, 1),
                    "rows": result.rows_matched,
                }
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Table 6: single and composite CMs vs a composite B+Tree (SDSS region query)")
    print(format_table(results, columns=["index", "runtime_ms", "pages", "size_kb"]))

    by_name = {row["index"]: row for row in results}
    # All structures return the same answer.
    assert len({row["rows"] for row in results}) == 1

    composite = by_name["CM(ra, dec)"]
    ra_only = by_name["CM(ra)"]
    dec_only = by_name["CM(dec)"]
    btree = by_name["B+Tree(ra, dec)"]

    # The composite CM beats both single-attribute CMs decisively.
    assert composite["runtime_ms"] < ra_only["runtime_ms"] / 2
    assert composite["runtime_ms"] < dec_only["runtime_ms"] / 2

    # It also beats the composite secondary B+Tree, which can only use its ra
    # prefix for the two range predicates.
    assert composite["runtime_ms"] < btree["runtime_ms"]

    # And it is orders of magnitude smaller than the dense index.
    assert composite["size_kb"] < btree["size_kb"] / 20
