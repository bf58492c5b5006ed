"""Partitioned tables: spec validation, routing, pruning, execution parity.

The differential fuzzer (``test_fuzz_parity.py::test_fuzz_partition_parity``)
guards the long tail of random shapes; this suite pins the curated corners:
the :class:`PartitionSpec` contract, row routing, static pruning decisions,
the exchange plan (rendering, early termination under LIMIT), DML routing,
and bit-identical counters across every batch size and the serial /
scheduler / parallel drivers of one partitioned layout, with the rows
checked against the plain-Python model (``tests/engine/model.py``).
"""

import math

import pytest

from repro.engine.database import Database
from repro.engine.parallel import FORK_AVAILABLE, parallel_supported
from repro.engine.partition import PartitionSpec, stable_partition_hash
from repro.engine.plan import SortNode, TopKNode
from repro.engine.predicates import Between, Equals, InSet, PredicateSet
from repro.engine.query import Aggregate, Query
from repro.engine.scheduler import QueryScheduler
from tests.engine.model import assert_matches_model
from tests.engine.runs import assert_batch_size_invariant

NUM_ROWS = 1_200
NUM_CATS = 40


def build_rows():
    rows = []
    for i in range(NUM_ROWS):
        rows.append(
            {
                "itemid": i,
                "catid": (i * 7) % NUM_CATS,
                "price": float((i * 37) % 1000),
                "qty": i % 15,
            }
        )
    return rows


def build_database(spec=None, **kwargs):
    rows = build_rows()
    db = Database(buffer_pool_pages=200, **kwargs)
    db.create_table("items", sample_row=rows[0], tups_per_page=40, partition_by=spec)
    db.load("items", rows)
    return db


# ---------------------------------------------------------------------------
# PartitionSpec validation and routing
# ---------------------------------------------------------------------------

class TestPartitionSpec:
    def test_range_boundaries_must_match_partition_count(self):
        with pytest.raises(ValueError, match="num_partitions - 1"):
            PartitionSpec(key="k", method="range", num_partitions=3, boundaries=(10,))

    def test_range_boundaries_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            PartitionSpec.by_range("k", [10, 10])
        with pytest.raises(ValueError, match="ascending"):
            PartitionSpec.by_range("k", [20, 10])

    def test_hash_takes_no_boundaries(self):
        with pytest.raises(ValueError, match="no boundaries"):
            PartitionSpec(key="k", method="hash", num_partitions=2, boundaries=(1,))

    def test_unknown_method_and_empty_key_rejected(self):
        with pytest.raises(ValueError, match="method"):
            PartitionSpec(key="k", method="round_robin", num_partitions=2)
        with pytest.raises(ValueError, match="key"):
            PartitionSpec.by_hash("", 2)

    def test_at_least_one_partition(self):
        with pytest.raises(ValueError, match="at least 1"):
            PartitionSpec(key="k", method="hash", num_partitions=0)

    def test_partition_key_must_be_a_column(self):
        rows = build_rows()
        db = Database()
        with pytest.raises(KeyError, match="nope"):
            db.create_table(
                "items",
                sample_row=rows[0],
                partition_by=PartitionSpec.by_hash("nope", 4),
            )

    def test_range_routing_follows_boundaries(self):
        spec = PartitionSpec.by_range("catid", [10, 20, 30])
        assert spec.partition_of(-5) == 0
        assert spec.partition_of(9) == 0
        assert spec.partition_of(10) == 1  # boundary value goes right
        assert spec.partition_of(29) == 2
        assert spec.partition_of(30) == 3
        assert spec.partition_of(999) == 3

    def test_hash_routing_is_process_stable(self):
        # CRC32 over repr: fixed values pin the routing across processes
        # and Python versions (PYTHONHASHSEED must not matter).
        assert stable_partition_hash(7) == stable_partition_hash(7)
        spec = PartitionSpec.by_hash("catid", 4)
        routed = {value: spec.partition_of(value) for value in range(NUM_CATS)}
        assert set(routed.values()) == {0, 1, 2, 3}  # all shards populated

    def test_single_partition_degenerate_specs(self):
        assert PartitionSpec.by_range("k", []).num_partitions == 1
        assert PartitionSpec.by_hash("k", 1).partition_of("anything") == 0


class TestRouting:
    def test_load_routes_every_row_to_its_partition(self):
        spec = PartitionSpec.by_range("catid", [10, 20, 30])
        db = build_database(spec)
        table = db.table("items")
        assert table.num_rows == NUM_ROWS
        for index, partition in enumerate(table.partitions):
            for row in partition.all_rows():
                assert spec.partition_of(row["catid"]) == index

    def test_insert_and_delete_route_by_key(self):
        spec = PartitionSpec.by_hash("catid", 4)
        db = build_database(spec)
        table = db.table("items")
        target = spec.partition_of(NUM_CATS + 1)
        before = table.partitions[target].num_rows
        db.insert("items", [{"itemid": 10_000, "catid": NUM_CATS + 1,
                             "price": 1.0, "qty": 1}])
        assert table.partitions[target].num_rows == before + 1
        result = db.delete("items", [Equals("catid", NUM_CATS + 1)])
        assert result.rows_affected == 1
        assert table.partitions[target].num_rows == before
        assert table.num_rows == NUM_ROWS


# ---------------------------------------------------------------------------
# Static pruning
# ---------------------------------------------------------------------------

class TestPruning:
    RANGE = PartitionSpec.by_range("catid", [10, 20, 30])
    HASH = PartitionSpec.by_hash("catid", 4)

    def test_equals_pins_one_partition(self):
        assert self.RANGE.prune(PredicateSet([Equals("catid", 15)])) == (1,)
        expected = (self.HASH.partition_of(15),)
        assert self.HASH.prune(PredicateSet([Equals("catid", 15)])) == expected

    def test_inset_unions_partitions(self):
        assert self.RANGE.prune(PredicateSet([InSet("catid", [5, 35])])) == (0, 3)
        survivors = self.HASH.prune(PredicateSet([InSet("catid", [5, 35])]))
        assert survivors == tuple(
            sorted({self.HASH.partition_of(5), self.HASH.partition_of(35)})
        )

    def test_between_prunes_range_to_the_span(self):
        assert self.RANGE.prune(
            PredicateSet([Between("catid", 12, 25)])
        ) == (1, 2)

    def test_between_cannot_prune_hash(self):
        assert self.HASH.prune(
            PredicateSet([Between("catid", 12, 25)])
        ) == (0, 1, 2, 3)

    def test_non_key_predicates_keep_every_partition(self):
        assert self.RANGE.prune(PredicateSet([Equals("qty", 3)])) == (0, 1, 2, 3)
        assert self.RANGE.prune(PredicateSet([])) == (0, 1, 2, 3)

    def test_a_bound_of_another_family_raises(self):
        # As comparing it with the key column's values does in any scan.
        with pytest.raises(TypeError):
            self.RANGE.prune(PredicateSet([Between("catid", "a", "b")]))

    def test_null_and_nan_keys_route_above_every_boundary(self):
        assert self.RANGE.partition_of(None) == self.RANGE.partition_of(math.nan) == 3
        assert self.RANGE.prune(PredicateSet([Between("catid", 25, None)])) == (2, 3)


# ---------------------------------------------------------------------------
# The exchange plan
# ---------------------------------------------------------------------------

class TestExchangePlans:
    def test_pruned_query_reads_only_surviving_partitions(self):
        db = build_database(PartitionSpec.by_range("catid", [10, 20, 30]))
        table = db.table("items")
        result = db.run_query(
            Query.select("items", Equals("catid", 15), aggregate=Aggregate.count()),
            cold_cache=True,
        )
        survivor = table.partitions[1]
        assert result.pages_visited == survivor.num_pages
        # Only the survivor's device saw I/O.
        for index, device in enumerate(table.devices):
            expected = survivor.num_pages if index == 1 else 0
            assert device.snapshot().pages_read == expected

    def test_explain_analyze_renders_exchange_counts(self):
        db = build_database(PartitionSpec.by_hash("catid", 4))
        pruned = db.explain_analyze(
            Query.select("items", Equals("catid", 3), aggregate=Aggregate.count()),
            cold_cache=True,
        )
        assert "exchange[hash(catid), partitions scanned est=1 act=1, pruned=3/4]" in pruned
        full = db.explain_analyze(
            Query.select("items", aggregate=Aggregate.count()), cold_cache=True
        )
        assert "partitions scanned est=4 act=4, pruned=0/4" in full
        assert full.count("seq_scan(items::p") == 4

    def test_limit_stops_the_exchange_early(self):
        db = build_database(PartitionSpec.by_range("catid", [10, 20, 30]))
        result = db.run_query(
            Query.select("items", limit=5), cold_cache=True
        )
        exchange = result.plan
        while exchange is not None and exchange.name != "exchange":
            exchange = exchange.children[0] if exchange.children else None
        assert exchange is not None
        assert exchange.partitions_scanned == 1  # 5 rows from the first partition
        assert len(result.rows) == 5

    def test_explain_lists_partitioned_candidates(self):
        db = build_database(PartitionSpec.by_hash("catid", 4))
        plans = db.explain(Query.select("items", Equals("catid", 3)))
        assert plans, "no partitioned candidates"
        assert any("exchange" in plan["structure"] for plan in plans)

    def test_order_by_limit_uses_merge_exchange(self):
        db = build_database(PartitionSpec.by_hash("catid", 4))
        flat = build_database()
        query = Query.select("items", order_by=["price", "itemid"], limit=10)
        expected = flat.run_query(query, cold_cache=True).rows
        result = db.run_query(query, cold_cache=True)
        assert result.rows == expected
        rendered = db.explain_analyze(query, cold_cache=True)
        assert "merge_exchange[" in rendered
        assert "topk" in rendered


# ---------------------------------------------------------------------------
# Partition-wise joins
# ---------------------------------------------------------------------------

def build_cats():
    return [{"catid": c, "label": f"c{c}"} for c in range(NUM_CATS)]


def build_join_database(items_spec=None, cats_spec=None):
    db = build_database(items_spec)
    cats = build_cats()
    db.create_table(
        "cats", sample_row=cats[0], tups_per_page=40, partition_by=cats_spec
    )
    db.load("cats", cats)
    return db


JOIN_QUERY = Query.select("items", order_by=["itemid"]).join("cats", on="catid")


class TestPartitionJoins:
    def expected_rows(self):
        return build_join_database().run_query(JOIN_QUERY, cold_cache=True).rows

    def test_co_partitioned_join_matches_flat(self):
        spec = PartitionSpec.by_hash("catid", 4)
        db = build_join_database(spec, spec)
        result = db.run_query(JOIN_QUERY, cold_cache=True)
        assert result.rows == self.expected_rows()
        plans = db.explain(JOIN_QUERY)
        assert any(
            "co-partitioned with cats" in plan["structure"] for plan in plans
        )

    def test_flat_build_side_offers_broadcast_and_repartition(self):
        db = build_join_database(PartitionSpec.by_hash("catid", 4))
        result = db.run_query(JOIN_QUERY, cold_cache=True)
        assert result.rows == self.expected_rows()
        structures = [plan["structure"] for plan in db.explain(JOIN_QUERY)]
        assert any("broadcast cats" in s for s in structures)
        assert any("repartition cats" in s for s in structures)

    def test_repartition_bridges_incompatible_layouts(self):
        db = build_join_database(
            PartitionSpec.by_hash("catid", 4),
            PartitionSpec.by_range("catid", [10, 20, 30]),
        )
        result = db.run_query(JOIN_QUERY, cold_cache=True)
        assert result.rows == self.expected_rows()
        structures = [plan["structure"] for plan in db.explain(JOIN_QUERY)]
        assert any("repartition cats" in s for s in structures)

    def test_flat_build_side_runs_the_first_ranked_shape(self):
        db = build_join_database(PartitionSpec.by_hash("catid", 4))
        first = db.explain(JOIN_QUERY)[0]["structure"]
        chosen, other = (
            ("broadcast", "repartition")
            if "broadcast cats" in first
            else ("repartition", "broadcast")
        )
        tree = db.explain_analyze(JOIN_QUERY, cold_cache=True)
        assert f"hash_join[{chosen}(cats)" in tree
        assert f"{other}(cats)" not in tree

    def test_incompatible_layouts_offer_only_repartition(self):
        # Neither co-partitioned nor flat: repartitioning the build side into
        # the outer layout is the one shape left, and it is always offered.
        db = build_join_database(
            PartitionSpec.by_hash("catid", 4),
            PartitionSpec.by_range("catid", [10, 20, 30]),
        )
        structures = [plan["structure"] for plan in db.explain(JOIN_QUERY)]
        assert structures
        assert all("repartition cats" in s for s in structures)
        assert not any("broadcast" in s or "co-partitioned" in s for s in structures)

    def test_join_off_the_partition_key_needs_a_flat_build_side(self):
        # Joining on a non-key column cannot route a repartition, and the
        # build side is itself partitioned: genuinely unsupported.
        db = build_join_database(
            PartitionSpec.by_hash("itemid", 4),
            PartitionSpec.by_hash("catid", 2),
        )
        with pytest.raises(ValueError, match="partition key"):
            db.run_query(Query.select("items").join("cats", on="catid"))

    def test_three_way_joins_over_partitioned_tables_are_rejected(self):
        db = build_join_database(PartitionSpec.by_hash("catid", 4))
        labels = [{"label": f"c{c}", "note": f"n{c}"} for c in range(NUM_CATS)]
        db.create_table("labels", sample_row=labels[0], tups_per_page=40)
        db.load("labels", labels)
        query = (
            Query.select("items").join("cats", on="catid").join("labels", on="label")
        )
        with pytest.raises(ValueError, match="exactly two tables"):
            db.run_query(query)

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_parallel_join_matches_serial(self):
        spec = PartitionSpec.by_hash("catid", 4)
        for cats_spec in (spec, None):
            db = build_join_database(spec, cats_spec)
            reference = run_cold(db, JOIN_QUERY)
            candidate = run_cold(db, JOIN_QUERY, parallel=2)
            context = f"join cats_spec={cats_spec!r}"
            assert_identical_stats(reference, candidate, context=context)
            assert candidate.rows == reference.rows

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_parallel_ordered_limit_join_matches_serial(self):
        spec = PartitionSpec.by_hash("catid", 4)
        db = build_join_database(spec, spec)
        query = Query.select(
            "items", order_by=["-price", "itemid"], limit=7
        ).join("cats", on="catid")
        reference = run_cold(db, query)
        candidate = run_cold(db, query, parallel=2)
        assert_identical_stats(reference, candidate, context="ordered limit join")
        assert candidate.rows == reference.rows
        assert len(candidate.rows) == 7


# ---------------------------------------------------------------------------
# Execution-mode parity (curated; the fuzzer widens this)
# ---------------------------------------------------------------------------

PARITY_QUERIES = [
    Query.select("items", aggregate=Aggregate.sum("qty"), name="sum_all"),
    Query.select("items", Between("qty", 3, 9), name="rows", order_by=["itemid"]),
    Query.select(
        "items", aggregate=Aggregate.count(alias="n"), group_by=["catid"], name="grp"
    ),
]


def run_cold(db, query, *, batch_size=-1, parallel=None):
    if batch_size != -1:
        db.batch_size = batch_size
    db.reset_measurements()
    return db.run_query(query, cold_cache=True, parallel=parallel)


def run_scheduled(db, *queries):
    """Interleave ``queries`` through one scheduler; results in submission order."""
    scheduler = QueryScheduler(db)
    for query in queries:
        scheduler.submit(query)
    entries = scheduler.run()
    for entry in entries:
        assert entry.error is None, entry.error
    return [entry.result for entry in entries]


def assert_identical_stats(reference, candidate, *, context):
    assert candidate.rows_examined == reference.rows_examined, context
    assert candidate.rows_matched == reference.rows_matched, context
    assert candidate.pages_visited == reference.pages_visited, context
    assert candidate.io == reference.io, context
    assert candidate.elapsed_ms == reference.elapsed_ms, context


def node_actuals(result):
    """The EXPLAIN ANALYZE surface: every node's label and own counters."""
    return [(node.label(), node.actual) for node in result.plan.walk()]


class TestExecutionParity:
    @pytest.mark.parametrize("query", PARITY_QUERIES, ids=lambda q: q.name)
    def test_every_batch_size_reports_the_same_run(self, query):
        db = build_database(PartitionSpec.by_hash("catid", 4))
        result = assert_batch_size_invariant(db, query, context=query.name)
        assert_matches_model(
            result, query, {"items": build_rows()}, unique_columns=("itemid",)
        )

    @pytest.mark.parametrize("query", PARITY_QUERIES, ids=lambda q: q.name)
    def test_scheduler_matches_serial(self, query):
        db = build_database(PartitionSpec.by_hash("catid", 4))
        reference = run_cold(db, query)
        db.reset_measurements()
        db.drop_caches()
        (candidate,) = run_scheduled(db, query)
        assert_identical_stats(reference, candidate, context=f"{query.name} scheduled")
        assert candidate.rows == reference.rows
        assert candidate.value == reference.value

    def test_interleaved_disjoint_queries_match_solo_runs(self):
        spec = PartitionSpec.by_range("catid", [10, 20, 30])
        db = build_database(spec)
        left = Query.select(
            "items", Between("catid", 0, 9), aggregate=Aggregate.count(), name="left"
        )
        right = Query.select(
            "items", Between("catid", 21, 29), aggregate=Aggregate.count(), name="right"
        )
        solo = [run_cold(db, query) for query in (left, right)]
        db.reset_measurements()
        db.drop_caches()
        together = run_scheduled(db, left, right)
        for reference, candidate in zip(solo, together):
            assert_identical_stats(
                reference, candidate, context=candidate.query.name
            )
            assert candidate.value == reference.value

    @pytest.mark.parametrize("shape", ["scan", "co_partitioned_join"])
    def test_ordered_limit_keeps_sort_subtrees_batched(self, shape, monkeypatch):
        # A LIMIT above the merge exchange limits the merge, not its blocking
        # Sort/TopK children: whoever drives the plan, they are pulled
        # through iter_batches with the driver's batch size and no demand
        # (never one row at a time), and every driver reports the same run.
        spec = PartitionSpec.by_hash("catid", 4)
        query = Query.select("items", order_by=["-price", "itemid"], limit=25)
        if shape == "scan":
            db = build_database(spec)
            tables = {"items": build_rows()}
        else:
            db = build_join_database(spec, spec)
            query = query.join("cats", on="catid")
            tables = {"items": build_rows(), "cats": build_cats()}
        candidates = {"view": run_cold(db, query, batch_size=None)}
        pulls = []

        def no_row_pulls(node, context=None):
            raise AssertionError(f"{node.label()} was entered through iter_rows")

        for node_type in (SortNode, TopKNode):
            monkeypatch.setattr(node_type, "iter_rows", no_row_pulls)
            batched = node_type.iter_batches

            def recorded(node, context, batch_size, demand=None, *, _pull=batched):
                pulls.append((batch_size, demand))
                return _pull(node, context, batch_size, demand)

            monkeypatch.setattr(node_type, "iter_batches", recorded)

        for batch_size in (1, 7, 256, 4096):
            del pulls[:]
            candidates[f"batch={batch_size}"] = run_cold(
                db, query, batch_size=batch_size
            )
            assert set(pulls) == {(batch_size, None)}, pulls
        db.batch_size = 256
        db.reset_measurements()
        db.drop_caches()
        (candidates["scheduled"],) = run_scheduled(db, query)
        if FORK_AVAILABLE:
            candidates["parallel=2"] = run_cold(db, query, parallel=2)
        reference = candidates["batch=256"]
        assert "merge_exchange[" in node_actuals(reference)[1][0]
        assert len(reference.rows) == 25
        # A total order (itemid breaks every tie): exactly the model's rows.
        assert_matches_model(reference, query, tables, unique_columns=("itemid",))
        for mode, candidate in candidates.items():
            context = f"{shape} {mode}"
            assert_identical_stats(reference, candidate, context=context)
            assert candidate.rows == reference.rows, context
            assert node_actuals(candidate) == node_actuals(reference), context

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @pytest.mark.parametrize("query", PARITY_QUERIES, ids=lambda q: q.name)
    def test_parallel_matches_serial(self, query):
        db = build_database(PartitionSpec.by_hash("catid", 4))
        reference = run_cold(db, query)
        candidate = run_cold(db, query, parallel=2)
        assert_identical_stats(reference, candidate, context=f"{query.name} parallel")
        assert candidate.rows_emitted == reference.rows_emitted
        # qty sums are integer, group counts are integer: exact even merged
        # from per-partition partials.
        assert candidate.value == reference.value
        assert candidate.rows == reference.rows

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_parallel_declines_limits_and_single_partitions(self):
        db = build_database(PartitionSpec.by_hash("catid", 4))
        overrides = dict(force=None, force_join=None, limit=None, projection=None)
        limited = db._prepare(Query.select("items", limit=5), **overrides)
        assert not parallel_supported(limited)
        pinned = db._prepare(Query.select("items", Equals("catid", 3)), **overrides)
        assert not parallel_supported(pinned)
        full = db._prepare(Query.select("items"), **overrides)
        assert parallel_supported(full)
