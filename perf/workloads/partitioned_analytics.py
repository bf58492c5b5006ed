"""``partitioned_analytics``: where exchange, partition and parallel do work.

eBay ``items`` hash-partitioned eight ways on ``catid`` with a co-partitioned
``cats`` dimension.  Five recurring classes run serially: a pruned
``catid = c`` lookup, a full-scan ``SUM``, a ``GROUP BY``, a co-partitioned
join with top-k, and ``ORDER BY ... LIMIT 100`` through the streaming k-way
merge exchange.  The traced run repeats the parallelisable classes with
``run_query(parallel=min(nproc, 4))`` -- the engine's only extra processes
-- and times each query's flat twin (same rows, unpartitioned) for the
differencing metrics.
"""

from __future__ import annotations

import os
import random
from itertools import count
from time import perf_counter_ns
from statistics import median
from typing import Any, Iterator, Sequence

from harness import (
    Expected,
    PhaseStats,
    ProbeReport,
    QueryStep,
    Step,
    Workload,
    time_call,
)
from repro.datasets.ebay import EbayConfig, generate_items
from repro.engine.database import Database
from repro.engine.partition import PartitionSpec
from repro.engine.predicates import Between, Equals
from repro.engine.query import Aggregate, Query

PARTITIONS = 8
LOOKUP_VALUES = 4
ORDERING = ("-price", "itemid")


def _load(db: Database, name: str, rows: Sequence[dict[str, Any]], spec: Any) -> None:
    db.create_table(name, sample_row=rows[0], tups_per_page=50, partition_by=spec)
    db.load(name, rows)


class PartitionedAnalytics(Workload):
    name = "partitioned_analytics"
    det_steps = 100
    warmup_steps = 10
    #: The five classes four times, once with each lookup value.
    cycle = 5 * LOOKUP_VALUES

    #: ~200 rows per category: 24 k rows, 60 pages per partition.
    CATEGORIES = 120
    POOL_PAGES = 1_000

    def setup(self) -> None:
        config = EbayConfig(
            num_categories=self.scaled(self.CATEGORIES, 16),
            items_per_category=(150, 250),
            seed=self.seed,
        )
        self.item_rows = generate_items(config)
        self.cat_rows = [
            {"catid": catid, "label": f"cat{catid}", "region": f"r{catid % 5}"}
            for catid in range(config.num_categories)
        ]
        self.db = Database(buffer_pool_pages=self.POOL_PAGES)
        spec = PartitionSpec.by_hash("catid", PARTITIONS)
        _load(self.db, "items", self.item_rows, spec)
        _load(self.db, "cats", self.cat_rows, spec)

    def prepare(self) -> None:
        rows = self.item_rows
        rng = random.Random(f"{self.name}/{self.seed}/queries")
        region = {row["catid"]: row["region"] for row in self.cat_rows}
        ordered = sorted(rows, key=lambda row: (-row["price"], row["itemid"]))
        total = 0
        groups: dict[tuple[Any, ...], int] = {}
        for row in rows:
            total = total + row["price"]
            groups[(row["cat1"],)] = groups.get((row["cat1"],), 0) + 1
        joined_top = [row["itemid"] for row in ordered if row["catid"] in region][:10]
        #: ``(kind, query, oracle answer)``; the lookups rotate over four values.
        self.classes: list[list[tuple[str, Query, Expected]]] = [
            [
                (
                    "pruned_lookup",
                    Query.select("items", Equals("catid", catid)),
                    Expected(
                        key_set=sorted(
                            row["itemid"] for row in rows if row["catid"] == catid
                        )
                    ),
                )
                for catid in rng.sample(range(len(self.cat_rows)), LOOKUP_VALUES)
            ],
            [
                (
                    "scan_sum",
                    Query.select("items", aggregate=Aggregate.sum("price")),
                    Expected(value=total, rows_matched=len(rows)),
                )
            ],
            [
                (
                    "group_by",
                    Query.select("items", aggregate=Aggregate.count(alias="n")).group_by(
                        "cat1"
                    ),
                    Expected(groups=groups),
                )
            ],
            [
                (
                    "join_top_k",
                    Query.select("items")
                    .join("cats", "catid")
                    .order_by(*ORDERING)
                    .with_limit(10),
                    Expected(ordered_keys=joined_top),
                )
            ],
            [
                (
                    "ordered_limit_merge",
                    Query.select("items", order_by=ORDERING, limit=100),
                    Expected(ordered_keys=[row["itemid"] for row in ordered[:100]]),
                )
            ],
        ]

    def steps(self, stream: int) -> Iterator[Step]:
        for position in count():
            variants = self.classes[position % len(self.classes)]
            kind, query, expected = variants[
                (position // len(self.classes)) % len(variants)
            ]
            yield QueryStep(kind, self.db, query, expected)

    # -- layer metrics -----------------------------------------------------------

    def _flat_twin(self) -> Database:
        flat = Database(buffer_pool_pages=self.POOL_PAGES * PARTITIONS)
        _load(flat, "items", self.item_rows, None)
        _load(flat, "cats", self.cat_rows, None)
        return flat

    def probes(self, phase: PhaseStats) -> ProbeReport:
        db = self.db
        report = ProbeReport()
        metrics, notes = report.metrics, report.notes
        items = db.table("items")
        rows = len(self.item_rows)
        rng = random.Random(f"{self.name}/{self.seed}/probes")
        fresh = [
            Query.select("items", Between("price", low, low + 500.0))
            for low in (rng.uniform(0, 900_000) for _ in range(12))
        ]
        metrics["planner.choose_partitioned_us"] = (
            median(
                [
                    time_call(lambda query=query: db.planner.choose_partitioned(items, query))
                    for query in fresh
                ]
            )
            * 1e6
        )
        metrics["planner.choose_partitioned_join_us"] = (
            median(
                [
                    time_call(
                        lambda query=query: db.planner.choose_partitioned_join(
                            db.tables, query.join("cats", "catid")
                        )
                    )
                    for query in fresh
                ]
            )
            * 1e6
        )

        flat = self._flat_twin()
        _kind, lookup, _expected = self.classes[0][0]
        pruned_pages = db.run_query(lookup, cold_cache=True).io.pages_read
        flat_pages = flat.run_query(lookup, cold_cache=True).io.pages_read
        metrics["partition.pruned_pages_ratio"] = pruned_pages / max(1, flat_pages)
        notes["partition.pruned_pages_ratio"] = (
            f"{pruned_pages} pages read partitioned / {flat_pages} flat, cold pool"
        )

        def wall(database: Database, query: Query, **kwargs: Any) -> float:
            return time_call(lambda: database.run_query(query, **kwargs), repeats=5)

        scan = self.classes[1][0][1]
        merge = self.classes[4][0][1]
        scan_serial_s, scan_flat_s = wall(db, scan), wall(flat, scan)
        merge_serial_s, merge_flat_s = wall(db, merge), wall(flat, merge)
        metrics["exchange.concat_us_per_row"] = (scan_serial_s - scan_flat_s) * 1e6 / rows
        notes["exchange.concat_us_per_row"] = (
            f"partitioned SUM {scan_serial_s * 1e3:.1f} ms - flat {scan_flat_s * 1e3:.1f} ms"
        )
        metrics["exchange.merge_us_per_row"] = (merge_serial_s - merge_flat_s) * 1e6 / rows
        notes["exchange.merge_us_per_row"] = (
            f"partitioned ORDER BY LIMIT 100 {merge_serial_s * 1e3:.1f} ms - flat "
            f"{merge_flat_s * 1e3:.1f} ms ({merge_serial_s / merge_flat_s:.1f}x)"
        )

        # The parallelisable classes again, on the fork pool.
        workers = min(os.cpu_count() or 1, 4)
        metrics["parallel.workers"] = float(workers)
        join_sum = Query.select("items", aggregate=Aggregate.sum("price")).join(
            "cats", "catid"
        )
        join_serial_s = wall(db, join_sum)
        scan_parallel_s = wall(db, scan, parallel=workers)
        join_parallel_s = wall(db, join_sum, parallel=workers)
        metrics["parallel.speedup_scan"] = scan_serial_s / scan_parallel_s
        notes["parallel.speedup_scan"] = (
            f"serial {scan_serial_s:.4f} s / {workers} workers {scan_parallel_s:.4f} s"
        )
        metrics["parallel.speedup_join"] = join_serial_s / join_parallel_s
        notes["parallel.speedup_join"] = (
            f"serial {join_serial_s:.4f} s / {workers} workers {join_parallel_s:.4f} s"
        )
        examined = 0
        parallel_ns = 0
        for variants in self.classes[1:]:
            kind, query, expected = variants[0]
            step = QueryStep(
                kind, db, query, expected, parallel=workers
            )
            for _ in range(3):
                started = perf_counter_ns()
                result = step.run()
                wall_ns = perf_counter_ns() - started
                checked = step.check(result, wall_ns)
                examined += checked.rows_examined
                parallel_ns += wall_ns
                report.attempted += 1
                report.failures += checked.messages
        metrics["parallel_rows_per_s"] = examined / (parallel_ns / 1e9)
        notes["parallel_rows_per_s"] = f"{workers} workers; scan, group-by, join, merge"

        # Fixed cost of the pool: partitions of one page each.
        tiny = Database(buffer_pool_pages=16)
        _load(
            tiny,
            "items",
            self.item_rows[: PARTITIONS * 40],
            PartitionSpec.by_hash("itemid", PARTITIONS),
        )
        count_all = Query.select("items", aggregate=Aggregate.count())
        metrics["parallel.fixed_overhead_ms"] = (
            wall(tiny, count_all, parallel=workers) - wall(tiny, count_all)
        ) * 1e3
        return report

    # -- introspection -----------------------------------------------------------

    def row_sets(self) -> dict[str, Sequence[dict[str, Any]]]:
        return {"items": self.item_rows, "cats": self.cat_rows}

    def _partitions(self) -> list[Any]:
        return [
            partition
            for name in ("items", "cats")
            for partition in self.db.table(name).partitions
        ]

    def pools(self) -> list[Any]:
        return [self.db.buffer_pool] + [p.buffer_pool for p in self._partitions()]

    def disks(self) -> list[Any]:
        devices = [
            device for name in ("items", "cats") for device in self.db.table(name).devices
        ]
        return [self.db.disk] + devices
