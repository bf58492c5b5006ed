"""Scaled builders for the benchmark databases.

The paper's experiments run over multi-gigabyte tables on a real disk; this
reproduction replaces the disk with the simulated cost model and scales the
row counts down so every benchmark finishes in seconds.  The *shape* of each
result (who wins, by roughly what factor, where the crossovers fall) is
preserved because the simulated disk charges the paper's own per-page costs.

Set the ``REPRO_SCALE`` environment variable (default ``1.0``) to grow or
shrink every data set, e.g. ``REPRO_SCALE=4 pytest benchmarks/`` for a run
four times closer to paper scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.core.bucketing import WidthBucketer
from repro.datasets.ebay import EbayConfig, generate_items
from repro.datasets.sdss import SDSSConfig, generate_photoobj
from repro.datasets.tpch import TPCHConfig, generate_lineitem, generate_orders
from repro.engine.database import Database
from repro.storage.disk import DiskParameters

#: Environment variable controlling the size of every benchmark data set.
SCALE_ENV_VAR = "REPRO_SCALE"


def scaled_disk_parameters(seek_scale: float) -> DiskParameters:
    """Disk parameters with the seek cost scaled down by ``seek_scale``.

    The benchmark tables are 10x-500x smaller than the paper's, but a seek
    still takes 5.5 ms on the simulated disk.  Left unscaled, the fixed seek
    cost would dwarf a full scan of the shrunken tables and every index-based
    plan would look useless -- an artifact of scaling, not of the access
    methods.  Dividing the seek cost by (roughly) the same factor as the data
    preserves the paper-scale ratio between random and sequential I/O, and
    with it the crossover points the experiments are about.  The per-dataset
    factors are documented in EXPERIMENTS.md.
    """
    if seek_scale <= 0:
        raise ValueError("seek_scale must be positive")
    base = DiskParameters()
    return DiskParameters(
        seek_cost_ms=base.seek_cost_ms / seek_scale,
        seq_page_cost_ms=base.seq_page_cost_ms,
        cpu_tuple_cost_ms=base.cpu_tuple_cost_ms,
    )


def scale_factor() -> float:
    """The global scale multiplier from ``REPRO_SCALE`` (>= 0.05; 1.0 when
    unset or not a number)."""
    raw = os.environ.get(SCALE_ENV_VAR, "")
    try:
        value = float(raw) if raw else 1.0
    except ValueError:
        value = 1.0
    return max(0.05, value)


@dataclass(frozen=True)
class ExperimentScale:
    """Row-count knobs shared by the benchmarks, all multiplied by ``factor``."""

    factor: float = 1.0

    def rows(self, base: int) -> int:
        return max(1, int(base * self.factor))

    @classmethod
    def from_environment(cls) -> "ExperimentScale":
        return cls(factor=scale_factor())


def _make_database(buffer_pool_pages: int, seek_scale: float) -> Database:
    """A Database with scaled disk timing.

    The engine's default statistics sample is large enough that every
    bundled data set gets exact (complete-sample) statistics.
    """
    return Database(
        buffer_pool_pages=buffer_pool_pages,
        disk_params=scaled_disk_parameters(seek_scale),
    )


# ---------------------------------------------------------------------------
# eBay (Experiments 1-4: Figures 6, 7, 8, 9, 10)
# ---------------------------------------------------------------------------

#: Seek-cost scale-down factors (see :func:`scaled_disk_parameters`): roughly
#: the ratio between the paper's table sizes and the benchmark defaults.
EBAY_SEEK_SCALE = 30.0
TPCH_SEEK_SCALE = 55.0
SDSS_SEEK_SCALE = 10.0


def build_ebay_database(
    scale: ExperimentScale | None = None,
    *,
    num_categories: int = 400,
    items_per_category: tuple[int, int] = (150, 250),
    buffer_pool_pages: int = 1_000,
    seed: int = 42,
) -> tuple[Database, list[dict[str, Any]]]:
    """The ITEMS table clustered on CATID in buckets of 10 pages (the
    Experiment 1-4 setup)."""
    scale = scale or ExperimentScale.from_environment()
    config = EbayConfig(
        num_categories=scale.rows(num_categories),
        items_per_category=items_per_category,
        seed=seed,
    )
    rows = generate_items(config)
    db = _make_database(buffer_pool_pages, EBAY_SEEK_SCALE)
    db.create_table("items", sample_row=rows[0], tups_per_page=50)
    db.load("items", rows)
    db.cluster("items", "catid", pages_per_bucket=10)
    return db, rows


def ebay_price_bucketer(level: int) -> WidthBucketer:
    """A Price bucketer holding ``2**level`` dollars per bucket.

    eBay prices are spread over $1M with most categories' items within a few
    hundred dollars of the category median, so dollar-width buckets are the
    natural analogue of the paper's "2^level tuples per bucket" knob.
    """
    return WidthBucketer(float(2 ** level))


# ---------------------------------------------------------------------------
# TPC-H lineitem (Section 3.4, Figures 1 and 3)
# ---------------------------------------------------------------------------

def build_tpch_database(
    scale: ExperimentScale | None = None,
    *,
    num_orders: int = 20_000,
    cluster_on: str = "receiptdate",
    seek_scale: float = TPCH_SEEK_SCALE,
) -> tuple[Database, list[dict[str, Any]]]:
    """The lineitem table, by default clustered on receiptdate (correlated),
    in buckets of 10 pages.

    The order-date span is shrunk together with the row count so that each
    ship/receipt date keeps a realistic number of rows (and therefore pages).
    """
    scale = scale or ExperimentScale.from_environment()
    config = TPCHConfig(
        num_orders=scale.rows(num_orders),
        num_parts=max(200, scale.rows(num_orders) // 5),
        num_suppliers=max(40, scale.rows(num_orders) // 100),
        orderdate_span_days=365,
        seed=7,
    )
    rows = generate_lineitem(config)
    db = _make_database(1_000, seek_scale)
    db.create_table("lineitem", sample_row=rows[0], tups_per_page=60)
    db.load("lineitem", rows)
    db.cluster("lineitem", cluster_on, pages_per_bucket=10)
    return db, rows


def build_tpch_join_database(
    scale: ExperimentScale | None = None,
    *,
    cluster_orders_on: str | None = "orderkey",
) -> tuple[Database, list[dict[str, Any]], list[dict[str, Any]]]:
    """lineitem + orders, set up for the lineitem-orders join workload.

    ``lineitem`` is clustered on ``receiptdate`` (the correlated clustering
    the single-table experiments use) with a CM on the correlated predicate
    attribute ``shipdate``.  ``orders`` (8 000 orders before scaling) is
    clustered on ``cluster_orders_on``, in buckets of 10 pages:

    * ``"orderkey"`` (default) -- join probes ride the clustered index;
    * ``"orderdate"`` -- the clustered key is the *date*; a CM on
      ``orderkey`` (correlated with ``orderdate`` by arrival order) gives
      the planner a CM-guided inner path instead;
    * ``None`` -- orders stays an unclustered, unindexed heap: the workload
      that exposes the quadratic nested-loop fallback and that the hash /
      sort-merge operators serve in O(N + M) pages.

    Returns ``(db, lineitem_rows, orders_rows)``.
    """
    scale = scale or ExperimentScale.from_environment()
    num_orders = scale.rows(8_000)
    config = TPCHConfig(
        num_orders=num_orders,
        num_parts=max(200, num_orders // 5),
        num_suppliers=max(40, num_orders // 100),
        orderdate_span_days=365,
        seed=7,
    )
    lineitem_rows = generate_lineitem(config)
    orders_rows = generate_orders(config)
    db = _make_database(1_500, TPCH_SEEK_SCALE)
    db.create_table("lineitem", sample_row=lineitem_rows[0], tups_per_page=60)
    db.load("lineitem", lineitem_rows)
    db.cluster("lineitem", "receiptdate", pages_per_bucket=10)
    db.create_correlation_map("lineitem", ["shipdate"], name="cm_shipdate")
    db.create_table("orders", sample_row=orders_rows[0], tups_per_page=60)
    db.load("orders", orders_rows)
    if cluster_orders_on is not None:
        db.cluster("orders", cluster_orders_on, pages_per_bucket=10)
    if cluster_orders_on == "orderdate":
        db.create_correlation_map("orders", ["orderkey"], name="cm_orderkey")
    return db, lineitem_rows, orders_rows


# ---------------------------------------------------------------------------
# SDSS PhotoObj / PhotoTag (Figures 1-2, Tables 3-6, Experiment 5)
# ---------------------------------------------------------------------------

def build_sdss_rows(
    scale: ExperimentScale | None = None,
    *,
    fields_ra: int = 32,
    fields_dec: int = 32,
    objects_per_field: int = 40,
    seed: int = 11,
) -> list[dict[str, Any]]:
    """Synthetic PhotoObj rows at benchmark scale (~40 k rows by default)."""
    scale = scale or ExperimentScale.from_environment()
    config = SDSSConfig(
        fields_ra=fields_ra,
        fields_dec=fields_dec,
        objects_per_field=scale.rows(objects_per_field),
        seed=seed,
    )
    return generate_photoobj(config)


def build_sdss_database(
    scale: ExperimentScale | None = None,
    *,
    pages_per_bucket: int | None = 10,
    **row_kwargs: Any,
) -> tuple[Database, list[dict[str, Any]]]:
    """The PhotoObj-style table clustered on objID (the Experiment 5 setup)."""
    rows = build_sdss_rows(scale, **row_kwargs)
    db = _make_database(2_000, SDSS_SEEK_SCALE)
    db.create_table("photoobj", sample_row=rows[0], tups_per_page=20)
    db.load("photoobj", rows)
    db.cluster("photoobj", "objid", pages_per_bucket=pages_per_bucket)
    return db, rows
