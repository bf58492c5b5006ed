"""Command-line entry point: ``python -m repro <command>``.

The CLI exposes the library's main flows without writing any code:

* ``demo``      -- the quickstart scenario (CM vs B+Tree vs scan);
* ``advise``    -- run the CM Advisor over one of the bundled data sets;
* ``datasets``  -- describe the bundled synthetic data sets;
* ``experiments`` -- list the paper's tables/figures and the benchmark that
  regenerates each one.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.engine.executor import DEFAULT_BATCH_SIZE

_EXPERIMENTS = [
    ("Figure 1", "access patterns of unclustered B+Tree lookups",
     "benchmarks/test_fig1_access_patterns.py"),
    ("Figure 2", "queries accelerated by each clustered attribute (SDSS)",
     "benchmarks/test_fig2_clustering_speedups.py"),
    ("Figure 3", "shipdate IN (...) with correlated vs uncorrelated clustering",
     "benchmarks/test_fig3_shipdate_lookups.py"),
    ("Table 3", "clustered-attribute bucketing granularity vs I/O cost",
     "benchmarks/test_table3_clustered_bucketing.py"),
    ("Table 4", "bucket widths the CM Advisor considers per attribute",
     "benchmarks/test_table4_bucketing_candidates.py"),
    ("Table 5", "CM designs ranked by estimated slowdown vs a B+Tree",
     "benchmarks/test_table5_advisor_designs.py"),
    ("Figure 6", "CM vs secondary B+Tree over Price ranges (eBay)",
     "benchmarks/test_fig6_cm_vs_btree_price.py"),
    ("Figure 7", "bucket level vs runtime and CM size",
     "benchmarks/test_fig7_bucket_level_tradeoff.py"),
    ("Figure 8", "maintenance cost vs number of secondary structures",
     "benchmarks/test_fig8_maintenance.py"),
    ("Figure 9", "mixed INSERT+SELECT workload, 5 B+Trees vs 5 CMs",
     "benchmarks/test_fig9_mixed_workload.py"),
    ("Figure 10", "cost model vs measured CM runtime across c_per_u",
     "benchmarks/test_fig10_cost_model_cperu.py"),
    ("Table 6", "composite CMs vs single CMs vs a composite B+Tree (SDSS)",
     "benchmarks/test_table6_composite_cm.py"),
]

_DATASETS = {
    "ebay": "product catalog; Price soft-determines CATID, CAT1..CAT6 roll it up",
    "tpch": "TPC-H lineitem; shipdate~receiptdate and partkey~suppkey correlations",
    "sdss": "synthetic sky survey; fieldID~objID, (ra, dec)->objID composite correlation",
}


def _run_demo(
    limit: int | None = None,
    join: bool = False,
    analyze: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
    partitions: int | None = None,
) -> int:
    """Inline quickstart (the installable twin of ``examples/quickstart.py``)."""
    import random

    from repro import Aggregate, Between, Database, Equals, Query, WidthBucketer

    rng = random.Random(0)
    rows = []
    for item_id in range(30_000):
        price = rng.uniform(0, 100_000)
        rows.append({"itemid": item_id, "catid": int(price // 500), "price": price})
    db = Database(buffer_pool_pages=1_000, batch_size=batch_size)
    db.create_table("items", sample_row=rows[0], tups_per_page=50)
    db.load("items", rows)
    db.cluster("items", "catid", pages_per_bucket=10)
    db.create_secondary_index("items", "price")
    db.create_correlation_map("items", ["price"], bucketers={"price": WidthBucketer(256.0)})
    query = Query.select("items", Between("price", 10_000, 10_800), aggregate=Aggregate.count())
    print("query:", query.describe())
    for method in ("seq_scan", "sorted_index_scan", "cm_scan"):
        result = db.run_query(query, force=method, cold_cache=True)
        print(
            f"  {method:<20} count={result.value:<5} "
            f"{result.elapsed_ms:8.2f} ms simulated, {result.pages_visited} pages"
        )
    if limit is not None:
        total_pages = db.table("items").num_pages
        limited = Query.select("items", Between("price", 10_000, 10_800), limit=limit)
        print(f"\nstreaming with LIMIT {limit} (table has {total_pages} pages):")
        for method in ("seq_scan", "cm_scan"):
            result = db.run_query(limited, force=method, cold_cache=True)
            print(
                f"  {method:<20} rows={result.rows_matched:<5} "
                f"{result.elapsed_ms:8.2f} ms simulated, "
                f"{result.pages_visited}/{total_pages} pages swept"
            )
    if join:
        categories = [
            {"catid": cat, "label": f"cat-{cat}", "floor": cat * 500.0}
            for cat in range(200)
        ]
        db.create_table("categories", sample_row=categories[0], tups_per_page=50)
        db.load("categories", categories)
        db.cluster("categories", "catid")
        joined = Query.select("items", Between("price", 10_000, 10_800)).join(
            "categories", on="catid"
        )
        print(f"\njoin: {joined.describe()}")
        strategies = (
            "nested_loop_join",
            "index_nested_loop_join",
            "hash_join",
            "sort_merge_join",
        )
        for force_join in strategies:
            result = db.run_query(joined, force_join=force_join, cold_cache=True)
            print(
                f"  {force_join:<23} rows={result.rows_matched:<5} "
                f"{result.elapsed_ms:8.2f} ms simulated, "
                f"{result.pages_visited} pages, {result.join_probes} probes"
            )
        best = db.explain(joined)[0]
        print(f"  planner picks: {best['structure']}")
    if analyze:
        topk = Query.select("items", Between("price", 10_000, 12_000)).order_by(
            "-price"
        ).with_limit(5)
        print(f"\nEXPLAIN ANALYZE {topk.describe()}:")
        print(db.explain_analyze(topk, cold_cache=True))
        grouped = (
            Query.select(
                "items",
                Between("price", 10_000, 12_000),
                aggregate=Aggregate.count(alias="n"),
            )
            .group_by("catid")
            .order_by("-n")
            .with_limit(3)
        )
        print(f"\nEXPLAIN ANALYZE {grouped.describe()}:")
        print(db.explain_analyze(grouped, cold_cache=True))
    if partitions is not None:
        from repro.engine.parallel import FORK_AVAILABLE
        from repro.engine.partition import PartitionSpec

        pdb = Database(buffer_pool_pages=1_000)
        pdb.create_table(
            "items",
            sample_row=rows[0],
            tups_per_page=50,
            partition_by=PartitionSpec.by_hash("catid", partitions),
        )
        pdb.load("items", rows)
        total_pages = db.table("items").num_pages
        pruned = Query.select(
            "items", Equals("catid", 20), aggregate=Aggregate.count()
        )
        print(f"\npartitioned ({partitions}-way hash on catid): {pruned.describe()}")
        flat_result = db.run_query(pruned, force="seq_scan", cold_cache=True)
        part_result = pdb.run_query(pruned, cold_cache=True)
        print(
            f"  unpartitioned scan   {flat_result.pages_visited}/{total_pages} pages, "
            f"{flat_result.elapsed_ms:8.2f} ms simulated"
        )
        print(
            f"  partition pruning    {part_result.pages_visited}/{total_pages} pages, "
            f"{part_result.elapsed_ms:8.2f} ms simulated"
        )
        sweep = Query.select(
            "items",
            Between("price", 10_000, 60_000),
            aggregate=Aggregate.avg("price", alias="avg_price"),
        )
        print(f"\nEXPLAIN ANALYZE {sweep.describe()}:")
        print(pdb.explain_analyze(sweep, cold_cache=True))

        # Partition-wise joins: a co-partitioned build side joins each
        # partition pair independently; a flat build side is broadcast to
        # every partition subtree (or repartitioned -- both are costed).
        cat_rows = [
            {"catid": cat, "label": f"cat-{cat}", "floor": cat * 500.0}
            for cat in range(200)
        ]
        pdb.create_table(
            "cats",
            sample_row=cat_rows[0],
            tups_per_page=50,
            partition_by=PartitionSpec.by_hash("catid", partitions),
        )
        pdb.load("cats", cat_rows)
        pdb.create_table("catsflat", sample_row=cat_rows[0], tups_per_page=50)
        pdb.load("catsflat", cat_rows)
        co_join = Query.select("items", Between("price", 10_000, 60_000)).join(
            "cats", on="catid"
        )
        print(f"\nEXPLAIN ANALYZE {co_join.describe()} (co-partitioned):")
        print(pdb.explain_analyze(co_join, cold_cache=True))
        flat_join = Query.select("items", Between("price", 10_000, 60_000)).join(
            "catsflat", on="catid"
        )
        print(f"\nEXPLAIN ANALYZE {flat_join.describe()} (flat build side, chosen shape):")
        print(pdb.explain_analyze(flat_join, cold_cache=True))
        print("\nflat build side, every costed candidate:")
        for plan in pdb.explain(flat_join):
            print(f"  {plan['estimated_cost_ms']:8.2f} ms est  {plan['structure']}")

        if FORK_AVAILABLE:
            for name, parity_query in (("scan", sweep), ("join", co_join)):
                serial = pdb.run_query(parity_query, cold_cache=True)
                parallel = pdb.run_query(parity_query, cold_cache=True, parallel=2)
                identical = serial.io == parallel.io and (
                    serial.elapsed_ms == parallel.elapsed_ms
                )
                print(
                    f"\nprocess-parallel {name} (2 workers): simulated stats "
                    f"{'bit-identical to serial' if identical else 'DIVERGED'}"
                )
        else:
            print("\nprocess-parallel: skipped (fork start method unavailable)")
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    for name, description in _DATASETS.items():
        print(f"{name:<6} {description}")
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    for name, description, path in _EXPERIMENTS:
        print(f"{name:<9} {description}")
        print(f"{'':9} -> {path}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro import CMAdvisor, TableProfile, TrainingQuery
    from repro.bench.harness import (
        SDSS_SEEK_SCALE,
        build_ebay_database,
        build_sdss_rows,
        build_tpch_database,
        scaled_disk_parameters,
    )
    from repro.core.model import HardwareParameters

    if args.dataset == "sdss":
        rows = build_sdss_rows()
        clustered, attributes = "objid", ["fieldid", "mode", "type", "psfmag_g"]
    elif args.dataset == "ebay":
        _db, rows = build_ebay_database()
        clustered, attributes = "catid", ["price", "cat3"]
    else:
        _db, rows = build_tpch_database()
        clustered, attributes = "receiptdate", ["shipdate", "suppkey"]

    advisor = CMAdvisor(
        rows,
        clustered,
        table_profile=TableProfile(total_tups=len(rows), tups_per_page=20, btree_height=2),
        hardware=HardwareParameters.from_disk(scaled_disk_parameters(SDSS_SEEK_SCALE)),
        sample_size=20_000,
    )
    query = TrainingQuery.over_attributes(*attributes)
    print(f"dataset: {args.dataset} ({len(rows)} rows), clustered on {clustered}")
    print(f"training query attributes: {', '.join(attributes)}")
    for row in advisor.design_table(query, limit=args.limit):
        print(f"  {row['runtime']:<6} {row['cm_design']:<40} size {row['size_ratio']}")
    recommendation = advisor.recommend(query)
    if recommendation.recommended is None:
        print("recommendation: build no CM (nothing beats a sequential scan)")
    else:
        chosen = recommendation.recommended
        print(
            f"recommendation: CM({chosen.describe()}) "
            f"~{chosen.estimated_size_bytes / 1024:.0f} KB "
            f"({chosen.size_ratio:.1%} of the B+Tree), slowdown {chosen.slowdown:+.0%}"
        )
    return 0


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Correlation Maps (VLDB 2009) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the quickstart scenario")
    demo.add_argument(
        "--limit",
        type=_non_negative_int,
        default=None,
        help="also run a LIMIT query through the streaming executor",
    )
    demo.add_argument(
        "--join",
        action="store_true",
        help="also run a two-table join (nested-loop vs index-nested-loop)",
    )
    demo.add_argument(
        "--analyze",
        action="store_true",
        help="also EXPLAIN ANALYZE a top-k and a grouped aggregation",
    )
    demo.add_argument(
        "--batch-size",
        type=_positive_int,
        default=DEFAULT_BATCH_SIZE,
        help="rows per executor batch (default: %(default)s; changes no number)",
    )
    demo.add_argument(
        "--partitions",
        type=_positive_int,
        default=None,
        help=(
            "also demo partitioned storage: an N-way hash-partitioned table, "
            "partition pruning, the exchange plan and parallel parity"
        ),
    )
    demo.set_defaults(
        func=lambda args: _run_demo(
            limit=args.limit,
            join=args.join,
            analyze=args.analyze,
            batch_size=args.batch_size,
            partitions=args.partitions,
        )
    )
    sub.add_parser("datasets", help="describe the bundled data sets").set_defaults(
        func=_cmd_datasets
    )
    sub.add_parser(
        "experiments", help="list the paper's experiments and their benchmarks"
    ).set_defaults(func=_cmd_experiments)

    advise = sub.add_parser("advise", help="run the CM Advisor on a bundled data set")
    advise.add_argument("dataset", choices=sorted(_DATASETS), help="data set to analyse")
    advise.add_argument("--limit", type=int, default=8, help="designs to display")
    advise.set_defaults(func=_cmd_advise)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
