"""``analytic_scan``: the mirror image of ``cm_lookup``.

A flat (unclustered, unindexed) eBay ``items`` table four times the buffer
pool, so every scan floods the pool and reads every page from the simulated
disk.  Ten fixed queries -- two each of range filter, ``SUM`` full scan,
``GROUP BY catid COUNT(*)``, ``ORDER BY price DESC LIMIT 10`` and a full
``ORDER BY price DESC`` -- repeat round-robin, so the statistics memo hits
and the single candidate plan makes planning free.  Storage, the scan
kernel, the compiled predicate kernels and the plan operators do the work;
a planner-side change should not move this workload at all.
"""

from __future__ import annotations

import random
from itertools import count
from statistics import median
from typing import Any, Callable, Iterator, Sequence

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
from repro.engine.predicates import Between, PredicateSet
from repro.engine.query import Aggregate, Query

ORDERING = ("-price", "itemid")


class AnalyticScan(Workload):
    name = "analytic_scan"
    det_steps = 100
    warmup_steps = 10
    cycle = 20

    #: ~200 rows per category: 120 k rows / 2400 pages against a 600-page pool.
    CATEGORIES = 120
    TUPS_PER_PAGE = 50

    def setup(self) -> None:
        config = EbayConfig(
            num_categories=self.scaled(self.CATEGORIES, 6),
            items_per_category=(150, 250),
            seed=self.seed,
        )
        self.item_rows = generate_items(config)
        pages = -(-len(self.item_rows) // self.TUPS_PER_PAGE)
        self.db = Database(buffer_pool_pages=max(4, pages // 4))
        self.db.create_table(
            "items", sample_row=self.item_rows[0], tups_per_page=self.TUPS_PER_PAGE
        )
        self.db.load("items", self.item_rows)
        self.table = self.db.table("items")

    def prepare(self) -> None:
        rows = self.item_rows
        prices = sorted(row["price"] for row in rows)
        rng = random.Random(f"{self.name}/{self.seed}/queries")

        def window(share: float) -> tuple[float, float]:
            """A price window holding ``share`` of the rows."""
            width = int(len(prices) * share)
            start = rng.randrange(0, len(prices) - width)
            return prices[start], prices[start + width - 1]

        def matching(low: float, high: float) -> list[dict[str, Any]]:
            return [row for row in rows if low <= row["price"] <= high]

        def by_ordering(selected: Sequence[dict[str, Any]]) -> list[Any]:
            ordered = sorted(selected, key=lambda row: (-row["price"], row["itemid"]))
            return [row["itemid"] for row in ordered]

        #: The fixed pool: ``(kind, query, oracle answer)``, two per class.
        self.pool: list[tuple[str, Query, Expected]] = []
        for share in (0.5, 0.3):
            low, high = window(share)
            hit = matching(low, high)
            self.pool.append(
                (
                    "scan_filter",
                    Query.select("items", Between("price", low, high)),
                    Expected(key_set=sorted(row["itemid"] for row in hit)),
                )
            )
            total = 0
            for row in hit:
                total = total + row["price"]
            self.pool.append(
                (
                    "sum",
                    Query.select(
                        "items", Between("price", low, high), aggregate=Aggregate.sum("price")
                    ),
                    Expected(value=total, rows_matched=len(hit)),
                )
            )
            groups: dict[tuple[Any, ...], int] = {}
            for row in hit:
                groups[(row["catid"],)] = groups.get((row["catid"],), 0) + 1
            self.pool.append(
                (
                    "group_by",
                    Query.select(
                        "items",
                        Between("price", low, high),
                        aggregate=Aggregate.count(alias="n"),
                    ).group_by("catid"),
                    Expected(groups=groups),
                )
            )
            ordered = by_ordering(hit)
            self.pool.append(
                (
                    "top_k",
                    Query.select("items", Between("price", low, high))
                    .order_by(*ORDERING)
                    .with_limit(10),
                    Expected(ordered_keys=ordered[:10]),
                )
            )
            self.pool.append(
                (
                    "order_by_full",
                    Query.select("items", Between("price", low, high)).order_by(
                        *ORDERING
                    ),
                    Expected(ordered_keys=ordered),
                )
            )

    def steps(self, stream: int) -> Iterator[Step]:
        for position in count():
            kind, query, expected = self.pool[position % len(self.pool)]
            yield QueryStep(kind, self.db, query, expected)

    # -- layer metrics -----------------------------------------------------------

    def probes(self, phase: PhaseStats) -> ProbeReport:
        db, table = self.db, self.table
        rows = len(self.item_rows)
        low = self.pool[0][1].predicates.predicates[0].low
        high = self.pool[0][1].predicates.predicates[0].high
        predicate = Between("price", low, high)
        selected = self.pool[0][2].key_set
        assert selected is not None

        def wall(query: Query, **kwargs: Any) -> float:
            return time_call(lambda: db.run_query(query, **kwargs), repeats=5)

        count_all = Query.select("items", aggregate=Aggregate.count())
        count_s = wall(count_all, force="seq_scan")
        db.batch_size, batched = None, db.batch_size
        try:
            row_mode_s = wall(count_all, force="seq_scan")
        finally:
            db.batch_size = batched
        filtered_count_s = wall(
            Query.select("items", predicate, aggregate=Aggregate.count())
        )
        sum_s = wall(self.pool[1][1])
        group_s = wall(self.pool[2][1])
        topk_s = wall(self.pool[3][1])
        sort_s = wall(self.pool[4][1])
        filter_s = wall(self.pool[0][1])

        run = list(range(min(table.num_pages, db.buffer_pool.capacity_pages // 2)))

        def cold_read() -> None:
            table.heap.read_pages(run)

        miss_samples = []
        for _ in range(7):
            db.drop_caches()
            miss_samples.append(time_call(cold_read))
        page_rows = [
            row for _slot, row in table.heap.read_pages([0], charge_io=False)[0].live_rows()
        ]
        kernel = PredicateSet([predicate]).batch_kernel()
        calls = 2_000

        def kernel_loop() -> None:
            for _ in range(calls):
                kernel(page_rows)

        def compile_fresh(offset: int) -> Callable[[], Any]:
            fresh = PredicateSet([Between("price", low + offset, high)])
            return fresh.batch_kernel

        metrics = {
            "storage.heap_read_us_per_page_miss": median(miss_samples) * 1e6 / len(run),
            "access.seq_scan_us_per_row": count_s * 1e6 / rows,
            "executor.row_mode_us_per_row": row_mode_s * 1e6 / rows,
            "predicates.kernel_ns_per_row": time_call(kernel_loop, repeats=5)
            * 1e9
            / (calls * len(page_rows)),
            "predicates.kernel_compile_us": median(
                [time_call(compile_fresh(offset)) for offset in range(1, 41)]
            )
            * 1e6,
            "plan.aggregate_us_per_row": (sum_s - filtered_count_s) * 1e6 / len(selected),
            "plan.groupby_us_per_row": (group_s - filtered_count_s)
            * 1e6
            / len(selected),
            "plan.topk_us_per_row": (topk_s - filtered_count_s) * 1e6 / len(selected),
            "plan.sort_us_per_row": (sort_s - filter_s) * 1e6 / len(selected),
        }
        notes = {
            "executor.row_mode_us_per_row": (
                f"base access.seq_scan_us_per_row {count_s * 1e6 / rows:.3f} us"
            ),
            "plan.aggregate_us_per_row": (
                f"SUM {sum_s * 1e3:.1f} ms - COUNT(*) {filtered_count_s * 1e3:.1f} ms "
                f"over {len(selected)} rows"
            ),
            "plan.groupby_us_per_row": f"GROUP BY {group_s * 1e3:.1f} ms - COUNT(*)",
            "plan.topk_us_per_row": f"top-10 {topk_s * 1e3:.1f} ms - COUNT(*)",
            "plan.sort_us_per_row": (
                f"ORDER BY {sort_s * 1e3:.1f} ms - unsorted {filter_s * 1e3:.1f} ms"
            ),
        }
        return ProbeReport(metrics, notes)

    # -- introspection -----------------------------------------------------------

    def row_sets(self) -> dict[str, Sequence[dict[str, Any]]]:
        return {"items": self.item_rows}
