"""Partition-wise joins: heap-page acceptance floor and planner purity.

Pins the PR 10 acceptance criterion: a co-partitioned hash join over a
partitioned table reads **no more** heap pages than the equivalent
flat-table hash join -- partition-wise execution splits the work, it never
re-reads it.  The layout is chosen so partition heaps fill exactly whole
pages (range boundaries splitting ``catid % 64`` evenly, row counts
divisible by ``tups_per_page``), making the comparison exact rather than
page-rounding-tolerant.  Pruning through the join's outer side, the
zero-heap-read purity of join planning (all three shapes) and the simulated
cost of the partitioned ORDER BY + LIMIT merge ride along.
"""

import pytest

from repro.engine.database import Database
from repro.engine.partition import PartitionSpec
from repro.engine.predicates import Equals
from repro.engine.query import Aggregate, Query

#: 325 rows per category: each 16-category partition holds 16 * 325 =
#: 5_200 rows = exactly 104 fifty-tuple pages (and the flat heap exactly
#: 416), so the page comparison below is exact.
NUM_ROWS = 20_800
NUM_CATS = 64
#: 4-way range layout splitting ``catid % 64`` into equal quarters.
BOUNDARIES = [16, 32, 48]

#: Pruning floor for a partition-key predicate through the join (one of
#: four partitions survives; headroom for the shared build-side pages).
JOIN_PRUNING_RATIO_FLOOR = 0.30


def build_rows():
    return [
        {
            "itemid": i,
            "catid": i % NUM_CATS,
            "price": float((i * 37) % 10_000),
            "qty": i % 20,
        }
        for i in range(NUM_ROWS)
    ]


def build_cat_rows():
    return [{"catid": c, "label": f"cat{c}"} for c in range(NUM_CATS)]


def _create_tables(db, *, partitioned):
    rows = build_rows()
    cat_rows = build_cat_rows()
    spec = PartitionSpec.by_range("catid", BOUNDARIES) if partitioned else None
    # 20_800 rows / 4 partitions = 5_200 rows = exactly 104 pages each;
    # 64 cats / 4 partitions = 16 rows = exactly one 16-tuple page each.
    db.create_table(
        "items", sample_row=rows[0], tups_per_page=50, partition_by=spec
    )
    db.load("items", rows)
    db.create_table(
        "cats", sample_row=cat_rows[0], tups_per_page=16, partition_by=spec
    )
    db.load("cats", cat_rows)


@pytest.fixture(scope="module")
def databases():
    """The same items + cats rows flat and 4-way range-partitioned."""
    flat = Database(buffer_pool_pages=600)
    _create_tables(flat, partitioned=False)
    part = Database(buffer_pool_pages=600)
    _create_tables(part, partitioned=True)
    return flat, part


JOIN_COUNT = Query.select("items", aggregate=Aggregate.count()).join(
    "cats", on="catid"
)


def test_co_partitioned_join_reads_no_more_pages_than_flat(databases):
    flat, part = databases
    flat.reset_measurements()
    base = flat.run_query(JOIN_COUNT, force_join="hash_join", cold_cache=True)
    part.reset_measurements()
    partitioned = part.run_query(
        JOIN_COUNT, force_join="hash_join", cold_cache=True
    )
    assert partitioned.value == base.value == NUM_ROWS
    assert base.pages_visited > 0
    assert partitioned.pages_visited <= base.pages_visited, (
        f"co-partitioned join read {partitioned.pages_visited} pages, flat "
        f"join read {base.pages_visited}"
    )
    # The layout divides exactly, so the partition-wise join reads the
    # *same* pages the flat join does -- split, never duplicated.
    assert partitioned.pages_visited == base.pages_visited


def test_outer_pruning_flows_through_the_join(databases):
    flat, part = databases
    query = Query.select(
        "items", Equals("catid", 7), aggregate=Aggregate.count()
    ).join("cats", on="catid")
    flat.reset_measurements()
    base = flat.run_query(query, force_join="hash_join", cold_cache=True)
    part.reset_measurements()
    pruned = part.run_query(query, force_join="hash_join", cold_cache=True)
    assert pruned.value == base.value
    ratio = pruned.pages_visited / base.pages_visited
    assert ratio <= JOIN_PRUNING_RATIO_FLOOR, (
        f"pruned join read {pruned.pages_visited}/{base.pages_visited} pages "
        f"(ratio {ratio:.3f} > {JOIN_PRUNING_RATIO_FLOOR})"
    )


def heap_reads(db, name):
    table = db.table(name)
    partitions = getattr(table, "partitions", None)
    if partitions is None:
        return table.heap.logical_page_reads
    return sum(p.heap.logical_page_reads for p in partitions)


def test_partition_join_planning_performs_zero_heap_page_reads(databases):
    _flat, part = databases
    tables = {"items": part.table("items"), "cats": part.table("cats")}
    queries = [
        JOIN_COUNT,
        Query.select("items", Equals("catid", 7)).join("cats", on="catid"),
        Query.select("items", order_by=["-price", "itemid"], limit=10).join(
            "cats", on="catid"
        ),
    ]
    before = heap_reads(part, "items") + heap_reads(part, "cats")
    device_snaps = [
        device.snapshot() for device in part.table("items").devices
    ] + [device.snapshot() for device in part.table("cats").devices]
    for query in queries:
        part.planner.choose_partitioned_join(tables, query, limit=query.limit)
        part.planner.candidate_partitioned_join_plans(
            tables, query, limit=query.limit
        )
        part.explain(query)
    assert heap_reads(part, "items") + heap_reads(part, "cats") == before
    devices = list(part.table("items").devices) + list(part.table("cats").devices)
    for device, snap in zip(devices, device_snaps):
        assert device.window_since(snap).pages_read == 0


def test_ordered_limit_merge_costs_within_a_tenth_of_the_flat_sort():
    """ORDER BY + LIMIT over 8 hash partitions vs one flat sort.

    Per-partition top-k plus the k-way merge must return exactly the flat
    table's rows (the ordering ends in the unique ``itemid``, so it is
    total) for at most 1.10x the flat plan's simulated time.  The budget is
    the fixed cost of partitioned storage -- one seek per partition stream
    -- which only a table this large amortises.
    """
    rows = [
        {"itemid": i, "catid": (i * 11) % NUM_CATS, "price": float((i * 37) % 10_000)}
        for i in range(200_000)
    ]
    results = []
    for spec in (None, PartitionSpec.by_hash("catid", 8)):
        db = Database(buffer_pool_pages=600)
        db.create_table(
            "items", sample_row=rows[0], tups_per_page=50, partition_by=spec
        )
        db.load("items", rows)
        results.append(
            db.run_query(
                Query.select("items", order_by=["-price", "itemid"], limit=100),
                cold_cache=True,
            )
        )
    flat, merged = results
    assert len(flat.rows) == 100
    assert merged.rows == flat.rows
    assert merged.elapsed_ms <= 1.10 * flat.elapsed_ms, (
        f"partitioned merge {merged.elapsed_ms:.1f} ms vs flat sort "
        f"{flat.elapsed_ms:.1f} ms"
    )
