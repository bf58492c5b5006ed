"""The eBay-style hierarchical product catalog (Section 7.1.1).

The paper's data set is built from eBay's public category tree: 24 000
categories arranged in a hierarchy of up to 6 levels, populated with 500-3000
items per category (43 M rows).  Prices are generated per category: the
category's median price is uniform in [$0, $1M] and individual prices are
Gaussian around the median with a $100 standard deviation, so ``Price``
strongly (but not exactly) soft-determines ``CATID``.

Schema::

    ITEMS(CATID, CAT1, CAT2, CAT3, CAT4, CAT5, CAT6, ItemID, Price)

The original category feed is not redistributable, so this generator builds a
synthetic hierarchy with the same statistical shape: an *irregular* tree
(random fan-out, random depth up to 6) over a contiguous CATID space, which
gives the CAT1..CAT6 rollup columns a realistic spread of soft-FD strengths
with CATID -- exactly what Experiment 4 (Figure 10) relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator

#: Example top-level departments, in the spirit of the eBay hierarchy.
_TOP_LEVEL_NAMES = (
    "antiques", "art", "books", "business", "cameras", "clothing",
    "coins", "collectibles", "computers", "crafts", "dolls", "electronics",
    "garden", "health", "jewelry", "motors", "music", "pottery",
    "sports", "stamps", "tickets", "toys", "travel", "video-games",
)


@dataclass(frozen=True)
class EbayConfig:
    """Scaled-down knobs for the eBay catalog generator.

    The paper's full scale is ``num_categories=24_000`` and
    ``items_per_category=(500, 3000)``; the defaults here generate ~120 k rows
    so that the maintenance experiments run in seconds.
    """

    num_categories: int = 600
    max_depth: int = 6
    items_per_category: tuple[int, int] = (100, 300)
    price_median_range: tuple[float, float] = (0.0, 1_000_000.0)
    price_stddev: float = 100.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_categories <= 0:
            raise ValueError("num_categories must be positive")
        if not 1 <= self.max_depth <= 6:
            raise ValueError("max_depth must be between 1 and 6")
        low, high = self.items_per_category
        if low <= 0 or high < low:
            raise ValueError("items_per_category must be a positive (low, high) range")


@dataclass(frozen=True)
class Category:
    """One leaf category: its id, full hierarchy path and price distribution."""

    catid: int
    path: tuple[str, ...]
    median_price: float

    def path_levels(self) -> dict[str, str]:
        """CAT1..CAT6 columns (empty string beyond the category's depth)."""
        levels = {}
        for level in range(6):
            levels[f"cat{level + 1}"] = self.path[level] if level < len(self.path) else ""
        return levels


def _build_hierarchy(config: EbayConfig, rng: random.Random) -> dict[int, list[str]]:
    """Split the CATID space into an irregular tree of sub-category labels."""
    paths: dict[int, list[str]] = {catid: [] for catid in range(config.num_categories)}

    def split(lo: int, hi: int, level: int) -> None:
        if level == 0:
            label = _TOP_LEVEL_NAMES[lo % len(_TOP_LEVEL_NAMES)]
        else:
            label = f"{paths[lo][0]}/L{level}-{lo}"
        for catid in range(lo, hi):
            paths[catid].append(label)
        if level + 1 >= config.max_depth or hi - lo <= 1:
            return
        children = rng.randint(2, 5)
        interior = range(lo + 1, hi)
        cuts = sorted(rng.sample(interior, min(children - 1, len(interior))))
        bounds = [lo] + cuts + [hi]
        for child_lo, child_hi in zip(bounds[:-1], bounds[1:]):
            # Some subtrees stop early, giving the tree its uneven depth.
            if level >= 1 and rng.random() < 0.15:
                continue
            split(child_lo, child_hi, level + 1)

    # Top level: carve the CATID space into one range per department.
    departments = min(len(_TOP_LEVEL_NAMES), max(1, config.num_categories // 25))
    step = max(1, config.num_categories // departments)
    start = 0
    while start < config.num_categories:
        end = min(config.num_categories, start + step)
        split(start, end, 0)
        start = end
    return paths


def generate_categories(config: EbayConfig | None = None) -> list[Category]:
    """Generate the (synthetic) category hierarchy."""
    config = config or EbayConfig()
    rng = random.Random(config.seed)
    paths = _build_hierarchy(config, rng)
    categories = []
    for catid in range(config.num_categories):
        median = rng.uniform(*config.price_median_range)
        categories.append(
            Category(catid=catid, path=tuple(paths[catid]), median_price=median)
        )
    return categories


def generate_items(config: EbayConfig | None = None) -> list[dict[str, Any]]:
    """Generate the ITEMS table rows (materialised in memory)."""
    return list(iter_items(config))


def iter_items(config: EbayConfig | None = None) -> Iterator[dict[str, Any]]:
    """Stream ITEMS rows, category by category."""
    config = config or EbayConfig()
    categories = generate_categories(config)
    rng = random.Random(config.seed + 1)
    item_id = 0
    for category in categories:
        count = rng.randint(*config.items_per_category)
        levels = category.path_levels()
        for _ in range(count):
            price = rng.gauss(category.median_price, config.price_stddev)
            price = max(0.0, price)
            yield {
                "catid": category.catid,
                **levels,
                "itemid": item_id,
                "price": round(price, 2),
            }
            item_id += 1


def expected_schema_columns() -> list[str]:
    """The ITEMS schema in column order (for DDL helpers and tests)."""
    return ["catid", "cat1", "cat2", "cat3", "cat4", "cat5", "cat6", "itemid", "price"]
