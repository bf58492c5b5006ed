"""Shared fixtures: a small synthetic table with a strong soft FD.

The ``items`` table mimics the eBay data set's structure at toy scale:
``price`` is strongly correlated with the clustered attribute ``catid``
(each category owns a contiguous price band), ``cat2`` is a coarser rollup of
``catid``, and ``noise`` is uncorrelated with everything.
"""

import random

import pytest

from repro.core.bucketing import WidthBucketer
from repro.engine.database import Database
from repro.engine.partition import PartitionSpec


def make_rows(n=5000, seed=0):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        price = rng.uniform(0, 10_000)
        catid = int(price // 100)          # 100 categories, price-determined
        rows.append(
            {
                "itemid": i,
                "catid": catid,
                "cat2": f"group{catid // 10}",
                "price": price,
                "noise": rng.randrange(1000),
            }
        )
    return rows


@pytest.fixture
def item_rows():
    return make_rows()


@pytest.fixture
def database(item_rows):
    db = Database(buffer_pool_pages=400)
    db.create_table("items", sample_row=item_rows[0], tups_per_page=50)
    db.load("items", item_rows)
    db.cluster("items", "catid", pages_per_bucket=4)
    return db


@pytest.fixture
def indexed_database(database):
    """Database with a secondary B+Tree and a CM on price, plus one on cat2."""
    database.create_secondary_index("items", "price")
    database.create_correlation_map(
        "items", ["price"], bucketers={"price": WidthBucketer(64)}, name="cm_price"
    )
    database.create_correlation_map("items", ["cat2"], name="cm_cat2")
    return database


# ---------------------------------------------------------------------------
# The differential fuzzer's tables (test_fuzz_parity.py, test_plan_goldens.py)
# ---------------------------------------------------------------------------

NUM_CATEGORIES = 80
NUM_ROWS = 2400

#: Partition layouts the partition fuzzer samples -- including the
#: degenerate single partition, on both methods.
PARTITION_LAYOUTS = tuple(
    f"{method}{count}" for method in ("hash", "range") for count in (1, 2, 4, 8)
)


def build_fuzz_rows(nullable=False):
    """The fuzz rows; ``nullable`` makes every 41st price NULL and every 43rd
    a NaN, and leaves every other value (and the random stream) alone."""
    rng = random.Random(1234)
    rows = []
    for i in range(NUM_ROWS):
        price = rng.uniform(0, 10_000)
        catid = int(price // (10_000 / NUM_CATEGORIES))
        rows.append(
            {
                "itemid": i,
                "catid": catid,
                "cat2": f"group{catid // 10}",
                "price": price,
                "qty": rng.randrange(0, 20),
            }
        )
        if nullable and i % 41 == 0:
            rows[-1]["price"] = None
        elif nullable and i % 43 == 0:
            rows[-1]["price"] = float("nan")
    return rows


def build_cat_rows():
    return [
        {"catid": c, "label": f"cat{c}", "region": f"r{c % 5}"}
        for c in range(NUM_CATEGORIES)
    ]


def partition_spec(label):
    method, count = label.rstrip("0123456789"), int(label.lstrip("hasrnge"))
    if method == "hash":
        return PartitionSpec.by_hash("catid", count)
    boundaries = [NUM_CATEGORIES * i // count for i in range(1, count)]
    return PartitionSpec.by_range("catid", boundaries)


def build_fuzz_database(nullable=False):
    """items (clustered, price index) plus a cats dimension table for joins."""
    rows = build_fuzz_rows(nullable)
    db = Database(buffer_pool_pages=400)
    db.create_table("items", sample_row=rows[0], tups_per_page=40)
    db.load("items", rows)
    db.cluster("items", "catid", pages_per_bucket=4)
    db.create_secondary_index("items", "price")
    cat_rows = build_cat_rows()
    db.create_table("cats", sample_row=cat_rows[0], tups_per_page=40)
    db.load("cats", cat_rows)
    db.create_table("catsf", sample_row=cat_rows[0], tups_per_page=40)
    db.load("catsf", cat_rows)
    return db


def build_partitioned_database(label, nullable=False):
    """The fuzz tables under one partition layout (plus price index).

    ``cats`` is co-partitioned with ``items`` on ``catid`` (partition-wise
    joins pick the co-partitioned shape); ``catsf`` holds the same rows in a
    single flat heap (joins against it plan broadcast or repartition).  The
    flat reference database carries both names as ordinary flat tables, so
    any generated query runs unchanged on both sides of the differential.
    """
    rows = build_fuzz_rows(nullable)
    cat_rows = build_cat_rows()
    db = Database(buffer_pool_pages=400)
    db.create_table(
        "items",
        sample_row=rows[0],
        tups_per_page=40,
        partition_by=partition_spec(label),
    )
    db.load("items", rows)
    db.create_secondary_index("items", "price")
    db.create_table(
        "cats",
        sample_row=cat_rows[0],
        tups_per_page=40,
        partition_by=partition_spec(label),
    )
    db.load("cats", cat_rows)
    db.create_table("catsf", sample_row=cat_rows[0], tups_per_page=40)
    db.load("catsf", cat_rows)
    return db


@pytest.fixture(scope="module")
def fuzz_database():
    return build_fuzz_database()


@pytest.fixture(scope="module")
def partitioned_databases():
    """The fuzz tables under every partition layout."""
    return {label: build_partitioned_database(label) for label in PARTITION_LAYOUTS}


@pytest.fixture(scope="module")
def nullable_databases():
    """label -> the fuzz tables with NULL and NaN prices ("flat" or a
    partition layout), each built on first use."""
    built = {}

    def database(label):
        if label not in built:
            built[label] = (
                build_fuzz_database(nullable=True)
                if label == "flat"
                else build_partitioned_database(label, nullable=True)
            )
        return built[label]

    return database
