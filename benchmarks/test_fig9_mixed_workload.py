"""Figure 9 (Experiment 3): mixed INSERT + SELECT workload, 5 B+Trees vs 5 CMs.

Rounds of batched inserts interleaved with AVG(Price) selections over the
category columns.  With 5 secondary B+Trees the inserts flood the buffer pool
with dirty index pages, which both slows the inserts and evicts the pages the
SELECTs need; with 5 CMs both components stay fast.  The paper reports the
5-CM configuration finishing the mixed workload more than 4x faster overall.
"""

import pytest

from repro.bench.harness import ExperimentScale, build_ebay_database
from repro.bench.reporting import format_table, print_header
from repro.datasets.workloads import ebay_mixed_workload

#: The five predicated category attributes (and their secondary structures).
CATEGORY_ATTRS = ("cat2", "cat3", "cat4", "cat5", "cat6")
NUM_ROUNDS = 8
INSERTS_PER_ROUND = 500
SELECTS_PER_ROUND = 20


def _build(kind: str, scale: ExperimentScale):
    db, rows = build_ebay_database(
        scale,
        num_categories=150,
        items_per_category=(80, 120),
        buffer_pool_pages=400,
        seed=23,
    )
    for attr in CATEGORY_ATTRS:
        if kind == "btree":
            db.create_secondary_index("items", attr)
        else:
            db.create_correlation_map("items", [attr])
    db.drop_caches()
    db.reset_measurements()
    return db, rows


def _run_workload(db, rows, kind: str):
    steps = ebay_mixed_workload(
        rows,
        num_rounds=NUM_ROUNDS,
        inserts_per_round=INSERTS_PER_ROUND,
        selects_per_round=SELECTS_PER_ROUND,
        category_attributes=CATEGORY_ATTRS,
        seed=9,
    )
    force = "sorted_index_scan" if kind == "btree" else "cm_scan"
    insert_ms = 0.0
    select_ms = 0.0
    for step, payload in steps:
        if step == "insert":
            insert_ms += db.insert("items", payload, batch_size=INSERTS_PER_ROUND).elapsed_ms
        else:
            select_ms += db.run_query(payload, force=force).elapsed_ms
    return insert_ms, select_ms


@pytest.mark.benchmark(group="figure9")
def test_fig9_mixed_workload(benchmark, experiment_scale):
    def run():
        results = []
        for kind in ("btree", "cm"):
            db, rows = _build(kind, experiment_scale)
            insert_ms, select_ms = _run_workload(db, rows, kind)
            results.append(
                {
                    "configuration": f"5 {'B+Trees' if kind == 'btree' else 'CMs'} (mixed)",
                    "insert_ms": round(insert_ms, 1),
                    "select_ms": round(select_ms, 1),
                    "total_ms": round(insert_ms + select_ms, 1),
                }
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figure 9: mixed workload (INSERTs + SELECTs) with 5 B+Trees vs 5 CMs")
    print(format_table(results))

    btree = next(row for row in results if "B+Trees" in row["configuration"])
    cm = next(row for row in results if "CMs" in row["configuration"])

    # The CM configuration wins overall (the paper reports > 4x; the scaled
    # reproduction must show a clear win).
    assert cm["total_ms"] < btree["total_ms"] / 1.5

    # Inserts are the dominant source of the gap ...
    assert cm["insert_ms"] < btree["insert_ms"]
    # ... and the CM SELECTs are no slower than the B+Tree SELECTs in the
    # mixed workload (the paper finds them faster because the B+Tree queries
    # keep re-reading pages evicted by the update traffic).
    assert cm["select_ms"] <= btree["select_ms"] * 1.1
