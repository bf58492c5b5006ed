"""Tests for the eBay catalog generator."""

from collections import Counter

import pytest

from repro.core.statistics import exact_c_per_u
from repro.datasets.ebay import (
    Category,
    EbayConfig,
    expected_schema_columns,
    generate_categories,
    generate_items,
)


SMALL = EbayConfig(num_categories=120, items_per_category=(20, 40), seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        EbayConfig(num_categories=0)
    with pytest.raises(ValueError):
        EbayConfig(max_depth=9)
    with pytest.raises(ValueError):
        EbayConfig(items_per_category=(10, 5))


def test_categories_have_unique_ids_and_bounded_depth():
    categories = generate_categories(SMALL)
    assert len(categories) == 120
    assert len({c.catid for c in categories}) == 120
    assert all(1 <= len(c.path) <= 6 for c in categories)


def test_hierarchy_is_consistent():
    """A child label always appears under a single parent label."""
    categories = generate_categories(SMALL)
    parent_of = {}
    for category in categories:
        for level in range(1, len(category.path)):
            child, parent = category.path[level], category.path[level - 1]
            assert parent_of.setdefault(child, parent) == parent


def test_path_levels_pads_to_six():
    category = Category(catid=1, path=("a", "b"), median_price=10.0)
    levels = category.path_levels()
    assert levels["cat1"] == "a"
    assert levels["cat2"] == "b"
    assert levels["cat6"] == ""


def test_items_schema_and_counts():
    rows = generate_items(SMALL)
    assert set(rows[0]) == set(expected_schema_columns())
    assert 120 * 20 <= len(rows) <= 120 * 40
    assert len({row["itemid"] for row in rows}) == len(rows)


def test_prices_cluster_around_category_median():
    config = SMALL
    categories = generate_categories(config)
    rows = generate_items(config)  # the same categories: one seed
    medians = {c.catid: c.median_price for c in categories}
    offsets = [abs(row["price"] - medians[row["catid"]]) for row in rows]
    # A $100 standard deviation: virtually all offsets within $500.
    within = sum(1 for offset in offsets if offset <= 500) / len(offsets)
    assert within > 0.99


def test_price_soft_determines_catid():
    rows = generate_items(SMALL)
    from repro.core.bucketing import WidthBucketer
    from repro.core.composite import CompositeKeySpec

    bucketed = CompositeKeySpec.build(["price"], {"price": WidthBucketer(1000.0)})
    c_per_u = exact_c_per_u(rows, bucketed, "catid")
    # Category medians are spread over $1M; $1000 price buckets rarely span
    # more than a couple of categories.
    assert c_per_u < 3.0


def test_cat_levels_roll_up_catid():
    rows = generate_items(SMALL)
    for attribute, max_c_per_u in [("cat6", 10), ("cat1", 130)]:
        c_per_u = exact_c_per_u(
            [row for row in rows if row[attribute]], attribute, "catid"
        )
        assert 1.0 <= c_per_u <= max_c_per_u


def test_cat5_values_have_a_spread_of_c_per_u():
    """Experiment 4 needs CAT5 values with widely different c_per_u."""
    rows = generate_items(EbayConfig(num_categories=400, items_per_category=(5, 10), seed=3))
    counts = {}
    for row in rows:
        if row["cat5"]:
            counts.setdefault(row["cat5"], set()).add(row["catid"])
    sizes = sorted(len(v) for v in counts.values())
    assert sizes[0] <= 3
    assert sizes[-1] >= 2 * sizes[0]


def test_generation_is_deterministic():
    assert generate_items(SMALL) == generate_items(SMALL)
    different = generate_items(EbayConfig(num_categories=120, items_per_category=(20, 40), seed=2))
    assert different != generate_items(SMALL)
