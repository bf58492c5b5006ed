"""``tpch_join``: the paper's trick across tables, next to its alternatives.

``lineitem`` (clustered on ``receiptdate``, CM on ``shipdate``) joins
``orders`` on two physical designs built once in one database whose pool
holds all three tables: ``orders`` clustered on ``orderdate`` with a CM on
``orderkey`` (the CM-guided index-nested-loop probe) and ``orders_heap``,
an unindexed heap (hash and sort-merge).  Twenty recurring ``shipdate``
windows cycle through five classes: full join on the CM design, the same
with ``LIMIT 10`` (selection flips to the probe pipeline), join plus
``GROUP BY`` on the CM design, full join on the heap design and a forced
sort-merge join there.  Join operators and ``choose_join`` dominate; the
pool is warm, so the storage layer only ever serves hits.
"""

from __future__ import annotations

import random
from itertools import count
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
from repro.bench.harness import TPCH_SEEK_SCALE, scaled_disk_parameters
from repro.datasets.tpch import TPCHConfig, generate_lineitem, generate_orders
from repro.engine.database import Database
from repro.engine.predicates import Between
from repro.engine.query import Aggregate, Query

WINDOWS = 20
WINDOW_DAYS = 7
ORDERDATE_SPAN_DAYS = 365


def join_key(row: dict[str, Any]) -> tuple[Any, ...]:
    """Identifies a merged row and pins the orders columns it carries."""
    return (row["orderkey"], row["linenumber"], row["orderdate"], row["totalprice"])


class TpchJoin(Workload):
    name = "tpch_join"
    det_steps = 200
    warmup_steps = 100
    #: Every window once under every class.
    cycle = 5 * WINDOWS

    ORDERS = 4_000
    POOL_PAGES = 1_500
    TUPS_PER_PAGE = 60

    def setup(self) -> None:
        orders = self.scaled(self.ORDERS, 200)
        config = TPCHConfig(
            num_orders=orders,
            num_parts=max(200, orders // 5),
            num_suppliers=max(40, orders // 100),
            orderdate_span_days=ORDERDATE_SPAN_DAYS,
            seed=self.seed,
        )
        self.lineitem_rows = generate_lineitem(config)
        self.orders_rows = generate_orders(config)
        db = Database(
            buffer_pool_pages=self.POOL_PAGES,
            disk_params=scaled_disk_parameters(TPCH_SEEK_SCALE),
        )
        db.create_table(
            "lineitem", sample_row=self.lineitem_rows[0], tups_per_page=self.TUPS_PER_PAGE
        )
        db.load("lineitem", self.lineitem_rows)
        db.cluster("lineitem", "receiptdate", pages_per_bucket=10)
        db.create_correlation_map("lineitem", ["shipdate"], name="cm_shipdate")
        for name in ("orders", "orders_heap"):
            db.create_table(
                name, sample_row=self.orders_rows[0], tups_per_page=self.TUPS_PER_PAGE
            )
            db.load(name, self.orders_rows)
        db.cluster("orders", "orderdate", pages_per_bucket=10)
        db.create_correlation_map("orders", ["orderkey"], name="cm_orderkey")
        self.db = db

    def prepare(self) -> None:
        orders_by_key = {row["orderkey"]: row for row in self.orders_rows}
        # Evenly spaced windows from a seeded offset: every seed samples the
        # whole date range, so the classes cost about the same on each.
        stride = (ORDERDATE_SPAN_DAYS - 20) // WINDOWS
        offset = random.Random(f"{self.name}/{self.seed}/windows").randrange(stride)
        starts = [10 + offset + stride * index for index in range(WINDOWS)]
        #: Per window: its bounds and the oracle's joined rows.
        self.windows: list[tuple[int, int, list[dict[str, Any]]]] = []
        for low in starts:
            high = low + WINDOW_DAYS - 1
            joined = [
                {**row, **orders_by_key[row["orderkey"]]}
                for row in self.lineitem_rows
                if low <= row["shipdate"] <= high
            ]
            self.windows.append((low, high, joined))

    def _classes(
        self, low: int, high: int, joined: list[dict[str, Any]]
    ) -> list[tuple[str, Query, Expected, dict[str, Any]]]:
        window = Between("shipdate", low, high)
        keys = sorted(join_key(row) for row in joined)
        groups: dict[tuple[Any, ...], int] = {}
        for row in joined:
            group = (row["orderpriority"],)
            groups[group] = groups.get(group, 0) + 1
        full = Query.select("lineitem", window).join("orders", on="orderkey")
        heap = Query.select("lineitem", window).join("orders_heap", on="orderkey")
        grouped = (
            Query.select("lineitem", window, aggregate=Aggregate.count(alias="n"))
            .join("orders", on="orderkey")
            .group_by("orderpriority")
        )
        return [
            ("join_cm_design", full, Expected(key_set=keys), {}),
            (
                "join_limit_10",
                full.with_limit(10),
                Expected(limit_from=(10, set(keys))),
                {},
            ),
            ("join_group_by", grouped, Expected(groups=groups), {}),
            ("join_heap_design", heap, Expected(key_set=keys), {}),
            (
                "join_sort_merge",
                heap,
                Expected(key_set=keys),
                {"force_join": "sort_merge_join"},
            ),
        ]

    def steps(self, stream: int) -> Iterator[Step]:
        per_window = [self._classes(*window) for window in self.windows]
        for position in count():
            classes = per_window[position % WINDOWS]
            kind, query, expected, kwargs = classes[
                (position // WINDOWS + position) % len(classes)
            ]
            yield QueryStep(
                kind,
                self.db,
                query,
                expected,
                key=join_key,
                **kwargs,
            )

    # -- layer metrics -----------------------------------------------------------

    def probes(self, phase: PhaseStats) -> ProbeReport:
        db = self.db
        lineitem = db.table("lineitem")
        run = list(range(min(256, lineitem.num_pages)))
        lineitem.heap.read_pages(run)
        hit_s = time_call(lambda: lineitem.heap.read_pages(run), repeats=9)

        rng = random.Random(f"{self.name}/{self.seed}/probes")
        fresh = [
            Query.select("lineitem", Between("shipdate", low, low + WINDOW_DAYS)).join(
                "orders", on="orderkey"
            )
            for low in rng.sample(range(10, ORDERDATE_SPAN_DAYS), 12)
        ]
        choose_join_us = (
            median(
                [
                    time_call(lambda query=query: db.planner.choose_join(db.tables, query))
                    for query in fresh
                ]
            )
            * 1e6
        )

        low, high, joined = self.windows[0]
        window = Between("shipdate", low, high)
        outer = Query.select("lineitem", window)
        full = outer.join("orders", on="orderkey")
        heap = outer.join("orders_heap", on="orderkey")

        def wall(query: Query, **kwargs: Any) -> tuple[float, Any]:
            results = []
            seconds = time_call(
                lambda: results.append(db.run_query(query, **kwargs)), repeats=7
            )
            return seconds, results[-1]

        outer_s, _ = wall(outer)
        hash_s, _ = wall(heap, force_join="hash_join")
        merge_s, _ = wall(heap, force_join="sort_merge_join")
        inlj_s, inlj = wall(full, force_join="index_nested_loop_join")
        rows = max(1, len(joined))
        metrics = {
            "storage.heap_read_us_per_page_hit": hit_s * 1e6 / len(run),
            "planner.choose_join_us": choose_join_us,
            "executor.hash_join_us_per_row": (hash_s - outer_s) * 1e6 / rows,
            "executor.sort_merge_join_us_per_row": (merge_s - outer_s) * 1e6 / rows,
            "executor.inlj_us_per_probe": (inlj_s - outer_s)
            * 1e6
            / max(1, inlj.join_probes),
        }
        base = f"outer scan alone {outer_s * 1e3:.2f} ms, {rows} joined rows"
        notes = {
            "executor.hash_join_us_per_row": f"join {hash_s * 1e3:.2f} ms - {base}",
            "executor.sort_merge_join_us_per_row": f"join {merge_s * 1e3:.2f} ms - {base}",
            "executor.inlj_us_per_probe": (
                f"join {inlj_s * 1e3:.2f} ms - outer scan, {inlj.join_probes} probes"
            ),
        }
        return ProbeReport(metrics, notes)

    # -- introspection -----------------------------------------------------------

    def row_sets(self) -> dict[str, Sequence[dict[str, Any]]]:
        return {"lineitem": self.lineitem_rows, "orders": self.orders_rows}
