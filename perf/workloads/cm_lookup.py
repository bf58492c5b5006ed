"""``cm_lookup``: the paper's headline -- selective lookups through CMs.

eBay ``items`` clustered on ``catid`` with a table larger than the buffer
pool, a CM on ``price`` (2^12 dollars per bucket), CMs on ``cat2..cat6`` and
a secondary B+Tree on ``price``; the planner chooses freely and the pool is
warm.  Three quarters of the operations are Figure 6 queries
(``COUNT(DISTINCT cat2) WHERE price BETWEEN``, eight widths), one quarter
Figure 10 queries (``AVG(price) WHERE catX = v`` over the selective category
values).  No query repeats, so every one pays for planning with a fresh
predicate.  The mix is 3:1 rather than even for two reasons: the median then
falls inside one class instead of on the boundary between two modes, and
the few hundred distinct category values last for the whole run.  Planning,
statistics and the CM do nearly all the work here; scan kernels and
operators almost none.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import count, islice
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
from repro.bench.harness import (
    ExperimentScale,
    build_ebay_database,
    ebay_price_bucketer,
)
from repro.core.composite import ValueConstraint
from repro.datasets.workloads import ebay_category_query, ebay_price_range_query
from repro.engine.predicates import Between, Equals, PredicateSet
from repro.engine.query import Query

#: The Figure 6 price-range widths, in dollars.
PRICE_WIDTHS = (100, 500, 1_000, 2_000, 4_000, 6_000, 8_000, 10_000)
CATEGORY_ATTRS = ("cat2", "cat3", "cat4", "cat5", "cat6")
#: 2^12 dollars per CM bucket (the Figure 7 sweep's choice).
CM_BUCKET_LEVEL = 12
#: A category value is "selective" when it covers at most this row share.
MAX_CATEGORY_SHARE = 0.05


class CmLookup(Workload):
    name = "cm_lookup"
    det_steps = 8 * 32
    warmup_steps = 12
    #: 24 price windows (each width three times) and 8 category lookups.
    cycle = 32

    #: ~100 rows per category: 40 k rows / 800 pages against a 500-page pool.
    CATEGORIES = 400
    ITEMS_PER_CATEGORY = (75, 125)
    POOL_PAGES = 500

    def setup(self) -> None:
        self.db, self.item_rows = build_ebay_database(
            ExperimentScale(1.0),
            num_categories=self.scaled(self.CATEGORIES, 8),
            items_per_category=self.ITEMS_PER_CATEGORY,
            buffer_pool_pages=self.scaled(self.POOL_PAGES, 20),
            seed=self.seed,
        )
        self.db.create_secondary_index("items", "price")
        self.db.create_correlation_map(
            "items",
            ["price"],
            bucketers={"price": ebay_price_bucketer(CM_BUCKET_LEVEL)},
            name="cm_price",
        )
        for attribute in CATEGORY_ATTRS:
            self.db.create_correlation_map("items", [attribute])
        self.table = self.db.table("items")

    def prepare(self) -> None:
        by_price = sorted((row["price"], row["cat2"]) for row in self.item_rows)
        self.prices = [price for price, _cat2 in by_price]
        self.cat2_by_price = [cat2 for _price, cat2 in by_price]
        #: (attribute, value) -> [row count, price sum in heap order].
        self.category_totals: dict[tuple[str, Any], list[Any]] = {}
        for row in self.item_rows:
            for attribute in CATEGORY_ATTRS:
                totals = self.category_totals.setdefault(
                    (attribute, row[attribute]), [0, 0.0]
                )
                totals[0] += 1
                totals[1] += row["price"]
        limit = MAX_CATEGORY_SHARE * len(self.item_rows)
        #: Every selective ``(attribute, value)`` pair.
        self.selective = sorted(
            (attribute, value)
            for (attribute, value), (rows, _sum) in self.category_totals.items()
            if value != "" and rows <= limit
        ) or sorted(self.category_totals)  # tiny (smoke) hierarchies
        self.rows_by_category: dict[int, list[dict[str, Any]]] = {}
        for row in self.item_rows:
            self.rows_by_category.setdefault(row["catid"], []).append(row)

    # -- the op stream -----------------------------------------------------------

    def _price_windows(self, rng: random.Random) -> Iterator[tuple[float, float]]:
        """Fresh windows, each holding at least the row it is anchored on.

        Widths take turns and the anchors visit the categories in a shuffled
        round, so every stretch of the stream -- and every seed -- holds the
        same mix of cheap and expensive windows; only the places differ.
        """
        categories = sorted(self.rows_by_category)
        for turn in count():
            if turn % len(categories) == 0:
                rng.shuffle(categories)
            width = PRICE_WIDTHS[turn % len(PRICE_WIDTHS)]
            anchor = rng.choice(self.rows_by_category[categories[turn % len(categories)]])
            yield anchor["price"] - rng.uniform(0.0, width), float(width)

    def _category_values(self, rng: random.Random) -> Iterator[tuple[str, Any]]:
        """Every selective ``(attribute, value)`` once, shuffled; then again.

        A second round would hit the selectivity memo; the 3:1 mix keeps a
        run several times shorter than one round.
        """
        pairs = list(self.selective)
        while True:
            rng.shuffle(pairs)
            yield from pairs

    def _price_step(self, low: float, width: float) -> Step:
        first = bisect_left(self.prices, low)
        last = bisect_right(self.prices, low + width)
        expected = Expected(
            value=len(set(self.cat2_by_price[first:last])), rows_matched=last - first
        )
        return QueryStep(
            "price_range",
            self.db,
            ebay_price_range_query(low, width),
            expected,
        )

    def _category_step(self, attribute: str, value: Any) -> Step:
        rows, total = self.category_totals[(attribute, value)]
        expected = Expected(value=total / rows, rows_matched=rows)
        return QueryStep(
            "category", self.db, ebay_category_query(attribute, value), expected
        )

    def steps(self, stream: int) -> Iterator[Step]:
        rng = random.Random(f"{self.name}/{self.seed}/{stream}")
        windows = self._price_windows(rng)
        values = self._category_values(rng)
        while True:
            for _ in range(3):
                yield self._price_step(*next(windows))
            yield self._category_step(*next(values))

    def invariant_checks(self) -> tuple[int, list[str]]:
        """A CM scan returns exactly the rows of the forced sequential scan."""
        rng = random.Random(f"{self.name}/{self.seed}/invariant")
        windows = self._price_windows(rng)
        values = self._category_values(rng)
        queries = []
        for _ in range(3):
            low, width = next(windows)
            queries.append(Query.select("items", Between("price", low, low + width)))
            attribute, value = next(values)
            queries.append(Query.select("items", Equals(attribute, value)))
        failures = []
        for query in queries:
            ids = [
                sorted(
                    row["itemid"]
                    for row in self.db.run_query(
                        query, force=method, projection=["itemid"]
                    ).rows
                )
                for method in ("cm_scan", "seq_scan")
            ]
            if ids[0] != ids[1]:
                failures.append(
                    f"{query.describe()}: cm_scan returned {len(ids[0])} rows, "
                    f"seq_scan {len(ids[1])}"
                )
        return len(queries), failures

    # -- layer metrics -----------------------------------------------------------

    def probes(self, phase: PhaseStats) -> ProbeReport:
        rng = random.Random(f"{self.name}/{self.seed}/probes")
        table, db = self.table, self.db
        rows = len(self.item_rows)
        cm_bytes = sum(cm.size_bytes() for cm in table.correlation_maps.values())
        btree_bytes = sum(
            index.size_bytes() for index in table.secondary_indexes.values()
        )
        matched = sum(m for m, _e in phase.cm_scan_rows)
        examined = sum(e for _m, e in phase.cm_scan_rows)
        windows = list(islice(self._price_windows(rng), 64))
        btree = next(iter(table.secondary_indexes.values()))
        cm_price = table.correlation_maps["cm_price"]
        catids = [rng.choice(self.item_rows)["catid"] for _ in range(60)]

        def per_call_us(calls: Sequence[Any]) -> float:
            return median([time_call(call) for call in calls]) * 1e6

        fresh = [
            Query.select("items", Between("price", low, low + width))
            for low, width in windows
        ]
        repeated = fresh[0]
        db.planner.choose(table, repeated)
        wide_low = self.prices[len(self.prices) // 3]
        wide = Query.select("items", Between("price", wide_low, wide_low + 50_000.0))
        empty = ebay_category_query("cat2", "no-such-category")
        db.run_query(empty)

        def scan_us_per_row(method: str) -> float:
            samples = []
            for _ in range(5):
                result = None

                def call() -> None:
                    nonlocal result
                    result = db.run_query(wide, force=method)

                seconds = time_call(call)
                samples.append(seconds * 1e6 / max(1, result.rows_examined))
            return median(samples)

        metrics = {
            "index_bytes_per_row": cm_bytes / rows,
            "core.cm_bytes_per_row": cm_bytes / rows,
            "index.btree_bytes_per_row": btree_bytes / rows,
            "core.cm_scan_useful_ratio": matched / examined if examined else 0.0,
            "index.btree_probe_us": per_call_us(
                [
                    (lambda low=low, width=width: btree.probe_range(low, low + width))
                    for low, width in windows
                ]
            ),
            "index.clustered_range_us": per_call_us(
                [
                    (lambda c=c: table.clustered_index.pages_for_range(c, c + 3))
                    for c in catids
                ]
            ),
            "core.cm_lookup_us": per_call_us(
                [
                    (
                        lambda low=low, width=width: cm_price.lookup_constraints(
                            {"price": ValueConstraint.between(low, low + width)}
                        )
                    )
                    for low, width in windows
                ]
            ),
            "core.stats_match_fraction_us": per_call_us(
                [
                    (
                        lambda low=low, width=width: table.estimate_matching_rows(
                            PredicateSet([Between("price", low + 0.5, low + width)])
                        )
                    )
                    for low, width in windows[:20]
                ]
            ),
            "planner.choose_us": per_call_us(
                [
                    (lambda query=query: db.planner.choose(table, query))
                    for query in fresh[1:21]
                ]
            ),
            "planner.choose_cached_us": per_call_us(
                [lambda: db.planner.choose(table, repeated)] * 20
            ),
            "access.cm_scan_us_per_row": scan_us_per_row("cm_scan"),
            "access.index_scan_us_per_row": scan_us_per_row("sorted_index_scan"),
            "database.fixed_overhead_us": per_call_us([lambda: db.run_query(empty)] * 30),
        }
        notes = {
            "index_bytes_per_row": f"{cm_bytes} B in 6 CMs over {rows} rows",
            "index.btree_bytes_per_row": f"{btree_bytes} B in the price B+Tree",
            "core.cm_scan_useful_ratio": (
                f"{matched} rows matched of {examined} examined by CM scans"
            ),
        }
        return ProbeReport(metrics, notes)

    # -- introspection -----------------------------------------------------------

    def row_sets(self) -> dict[str, Sequence[dict[str, Any]]]:
        return {"items": self.item_rows}
