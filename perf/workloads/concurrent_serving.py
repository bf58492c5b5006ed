"""``concurrent_serving``: the scheduler-interleaved mode and MVCC filtering.

eBay ``items`` clustered on ``catid``, four times the buffer pool.  The step
is a *wave*: eight streaming price-range readers of mixed selectivity are
submitted to a ``QueryScheduler`` (``max_concurrent=4``, ``fair``) and
advanced one quantum at a time on this one thread; after a few quanta one
snapshot-isolated ``tx_insert`` batch commits between two quanta.  A
reader's latency is the wall time from its submission to the quantum that
finished it.  Each reader must count exactly the rows that were live at its
*admission* snapshot: readers admitted before the commit must not see the
batch, readers admitted after it must.  No other workload touches the
scheduler or the visibility filter of the scan kernels.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import count
from time import perf_counter_ns
from statistics import median
from typing import Any, Iterator, Sequence

from harness import PhaseStats, ProbeReport, Step, StepResult, Workload, time_call
from repro.bench.harness import ExperimentScale, build_ebay_database
from repro.engine.predicates import Between
from repro.engine.query import Query
from repro.engine.scheduler import QueryScheduler
from repro.engine.transactions import SerializationError

READERS = 8
MAX_CONCURRENT = 4
ROWS_PER_WRITE = 25
#: Quanta the scheduler runs before the writer commits.
WRITE_AFTER_QUANTA = 12
SELECTIVITIES = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005)
PROJECTION = ("itemid",)


class Wave(Step):
    kind = "wave"

    def __init__(
        self,
        workload: "ConcurrentServing",
        windows: list[tuple[float, float]],
        batch: list[dict[str, Any]],
    ) -> None:
        self.workload = workload
        self.windows = windows
        self.batch = batch

    def describe(self) -> str:
        ranges = ", ".join(f"{low!r}..{high!r}" for low, high in self.windows)
        return (
            f"wave readers price [{ranges}] writer {len(self.batch)} rows "
            f"from itemid {self.batch[0]['itemid']}"
        )

    def run(self) -> Any:
        db = self.workload.db
        clock = perf_counter_ns
        scheduler = QueryScheduler(db, max_concurrent=MAX_CONCURRENT, policy="fair")
        entries = []
        submitted = []
        #: Per reader: how many of this wave's commits its snapshot follows.
        epochs: list[int | None] = [None] * len(self.windows)
        commits = 0

        def stamp_admissions() -> None:
            for position, entry in enumerate(entries):
                if epochs[position] is None and entry.admitted_ms is not None:
                    epochs[position] = commits

        for position, (low, high) in enumerate(self.windows):
            submitted.append(clock())
            entries.append(
                scheduler.submit(
                    Query.select("items", Between("price", low, high)),
                    label=str(position),
                    projection=PROJECTION,
                )
            )
        stamp_admissions()
        finished = [0] * len(entries)
        before = db.disk.snapshot()
        write_ns = 0
        quanta = 0
        while True:
            if quanta == WRITE_AFTER_QUANTA:
                started = clock()
                transaction = db.begin_transaction()
                db.tx_insert(transaction, "items", self.batch)
                transaction.commit()
                write_ns = clock() - started
                commits = 1
            report = scheduler.step()
            if report is None:
                break
            quanta += 1
            if report.finished or report.failed:
                finished[int(report.label)] = clock()
            stamp_admissions()
        total_sim_ms = db.disk.window_since(before).elapsed_ms(db.disk.params)
        return entries, submitted, finished, epochs, write_ns, total_sim_ms

    def check(self, raw: Any, wall_ns: int) -> StepResult:
        entries, submitted, finished, epochs, write_ns, total_sim = raw
        workload = self.workload
        out = StepResult(
            ops=len(entries) + 1,
            sim_ms=total_sim,
            rows_written=len(self.batch) if write_ns else 0,
            write_ns=write_ns,
        )
        batch_prices = sorted(row["price"] for row in self.batch)
        for position, entry in enumerate(entries):
            low, high = self.windows[position]
            if entry.error is not None:
                if isinstance(entry.error, SerializationError):
                    workload.serialization_errors += 1
                out.failed += 1
                out.messages.append(f"reader {low!r}..{high!r}: {entry.error!r}")
                continue
            expected = workload.live_rows_between(low, high)
            if epochs[position] == 1:
                expected += bisect_right(batch_prices, high) - bisect_left(
                    batch_prices, low
                )
            result = entry.result
            out.latencies_ns.append(finished[position] - submitted[position])
            out.pages_visited += result.pages_visited
            out.rows_examined += result.rows_examined
            workload.quanta += entry.quanta
            workload.readers += 1
            if result.rows_matched != expected or epochs[position] is None:
                out.failed += 1
                out.messages.append(
                    f"reader {low!r}..{high!r} admitted after {epochs[position]} "
                    f"commits counted {result.rows_matched} rows, its snapshot "
                    f"holds {expected}"
                )
        if not write_ns:
            out.failed += 1
            out.messages.append("the wave ended before the writer could commit")
        else:
            workload.commit_inserted(batch_prices)
        return out


class ConcurrentServing(Workload):
    name = "concurrent_serving"
    det_steps = 12
    warmup_steps = 2
    cycle = 3

    #: ~200 rows per category: 20 k rows / 400 pages against a 100-page pool.
    CATEGORIES = 100
    POOL_PAGES = 100

    def setup(self) -> None:
        self.db, self.item_rows = build_ebay_database(
            ExperimentScale(1.0),
            num_categories=self.scaled(self.CATEGORIES, 8),
            buffer_pool_pages=self.scaled(self.POOL_PAGES, 8),
            seed=self.seed,
        )
        self.table = self.db.table("items")

    def prepare(self) -> None:
        self.base_prices = sorted(row["price"] for row in self.item_rows)
        #: Prices of every committed inserted row, sorted.
        self.inserted_prices: list[float] = []
        self.templates = self.item_rows[:: max(1, len(self.item_rows) // 500)]
        self.next_itemid = max(row["itemid"] for row in self.item_rows) + 1
        self.serialization_errors = 0
        self.quanta = 0
        self.readers = 0

    # -- the oracle --------------------------------------------------------------

    def live_rows_between(self, low: float, high: float) -> int:
        return sum(
            bisect_right(prices, high) - bisect_left(prices, low)
            for prices in (self.base_prices, self.inserted_prices)
        )

    def commit_inserted(self, batch_prices: list[float]) -> None:
        self.inserted_prices = sorted(self.inserted_prices + batch_prices)

    # -- the op stream -----------------------------------------------------------

    def _windows(self, rng: random.Random) -> list[tuple[float, float]]:
        prices = self.base_prices
        windows = []
        for share in rng.sample(SELECTIVITIES, READERS):
            width = max(1, int(len(prices) * share))
            start = rng.randrange(0, len(prices) - width + 1)
            windows.append((prices[start], prices[start + width - 1]))
        return windows

    def steps(self, stream: int) -> Iterator[Step]:
        rng = random.Random(f"{self.name}/{self.seed}/{stream}")
        for _ in count():
            batch = []
            for _row in range(ROWS_PER_WRITE):
                template = rng.choice(self.templates)
                batch.append(
                    {
                        **template,
                        "itemid": self.next_itemid,
                        "price": round(max(0.0, rng.gauss(template["price"], 100.0)), 2),
                    }
                )
                self.next_itemid += 1
            yield Wave(self, self._windows(rng), batch)

    # -- layer metrics -----------------------------------------------------------

    def probes(self, phase: PhaseStats) -> ProbeReport:
        db = self.db
        report = ProbeReport()
        metrics, notes = report.metrics, report.notes
        metrics["scheduler.quanta_per_query"] = self.quanta / max(1, self.readers)
        metrics["transactions.serialization_errors"] = float(self.serialization_errors)

        rng = random.Random(f"{self.name}/{self.seed}/probes")
        queries = [
            Query.select("items", Between("price", low, high))
            for low, high in self._windows(rng)
        ]

        def serial() -> list[Any]:
            return [db.run_query(query, projection=PROJECTION) for query in queries]

        def scheduled() -> list[Any]:
            scheduler = QueryScheduler(db, max_concurrent=MAX_CONCURRENT, policy="fair")
            for query in queries:
                scheduler.submit(query, projection=PROJECTION)
            return scheduler.run()

        db.drop_caches()
        serial_reads = sum(result.io.pages_read for result in serial())
        db.drop_caches()
        entries = scheduled()
        scheduled_reads = sum(entry.result.io.pages_read for entry in entries)
        quanta = sum(entry.quanta for entry in entries)
        metrics["scheduler.shared_read_ratio"] = scheduled_reads / max(1, serial_reads)
        notes["scheduler.shared_read_ratio"] = (
            f"{scheduled_reads} physical reads scheduled / {serial_reads} serial, "
            "cold pool"
        )
        serial_s = time_call(serial, repeats=5)
        scheduled_s = time_call(scheduled, repeats=5)
        metrics["scheduler.us_per_quantum"] = (scheduled_s - serial_s) * 1e6 / quanta
        notes["scheduler.us_per_quantum"] = (
            f"scheduled {scheduled_s * 1e3:.1f} ms - serial {serial_s * 1e3:.1f} ms "
            f"over {quanta} quanta"
        )

        commits = []
        for template in self.templates[:30]:
            transaction = db.begin_transaction()
            db.tx_insert(transaction, "items", [{**template, "itemid": self.next_itemid}])
            self.next_itemid += 1
            commits.append(time_call(transaction.commit))
        metrics["transactions.commit_us"] = median(commits) * 1e6

        # First-updater-wins: the second writer of one row must be refused.
        victim = Between("itemid", self.item_rows[0]["itemid"], self.item_rows[0]["itemid"])
        first, second = db.begin_transaction(), db.begin_transaction()
        db.tx_update(first, "items", [victim], {"price": 1.0})
        report.attempted += 1
        try:
            db.tx_update(second, "items", [victim], {"price": 2.0})
        except SerializationError:
            second.abort()
        else:
            report.failures.append("two concurrent updates of one row both succeeded")
        first.commit()
        return report

    # -- introspection -----------------------------------------------------------

    def row_sets(self) -> dict[str, Sequence[dict[str, Any]]]:
        return {"items": self.item_rows}
