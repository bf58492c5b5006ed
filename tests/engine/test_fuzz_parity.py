"""Fuzzer: every batch size reports the same run, and the model agrees with it.

Each seed derives one random query -- conjunctive predicates, an optional
equi-join, one of three output shapes (plain rows with projection / ORDER BY /
LIMIT, a scalar aggregate, or a grouped aggregate) -- and executes it under
three sampled batch sizes between 1 and 4096 and the one-row-at-a-time view
(``batch_size=None``).  Three things are asserted, none of which compares an
operator body with itself:

* **batch-size invariance**: every run reports the same :func:`digest` --
  rows (same order), aggregate value, every ``QueryResult`` counter, the full
  I/O breakdown, the simulated elapsed time and each plan node's own
  counters, bit for bit;
* **the recording**: for the seeds ``tests/engine/exec_goldens.json`` covers,
  that digest equals what the row-at-a-time executor reported before it was
  removed (``test_exec_goldens.py`` sweeps every batch size over the
  recorded corpus; here the soak corpus beyond it gets invariance alone);
* **the model**: rows and value equal a plain-Python evaluation of the query
  over the loaded row lists (``tests/engine/model.py``) -- exact order under
  a total ORDER BY, the multiset otherwise, the sort-key prefix and
  containment under a LIMIT over ties, float sums to the last ulps.

Seeds past the recorded corpus run over a twin of the tables whose prices
hold NULL and NaN, with predicates that name NULL and NaN and open ranges,
so the soak corpus holds the value order (``repro.core.ordering``) to the
model too; the recorded seeds, their rows and their predicates are those of
the recording.  The tier-1 corpus is small (see ``--fuzz-iterations`` in
the root ``conftest.py``); soak runs widen it::

    PYTHONPATH=src python -m pytest tests/engine/test_fuzz_parity.py --fuzz-iterations 500
"""

import json
import math
import random
from pathlib import Path

import pytest

from repro.engine.predicates import Between, Equals, InSet
from repro.engine.query import Aggregate, Query
from tests.engine.conftest import (
    NUM_CATEGORIES,
    PARTITION_LAYOUTS,
    build_cat_rows,
    build_fuzz_rows,
)
from tests.engine.model import assert_matches_model, same_row, values_close
from tests.engine.runs import (
    BATCH_SIZES,
    assert_batch_size_invariant,
    digest,
    drift,
    run_mode,
)

EXEC_GOLDENS = Path(__file__).with_name("exec_goldens.json")
#: Seeds the goldens record; later seeds draw NULL and NaN.
RECORDED_SEEDS = 200

# ---------------------------------------------------------------------------
# Seeded query generation
# ---------------------------------------------------------------------------

def _random_predicates(rng, nullable=False):
    predicates = []
    for _ in range(rng.randrange(0, 3)):
        kind = rng.randrange(8 if nullable else 5)
        if kind == 5:
            predicates.append(Equals("price", rng.choice([None, math.nan])))
        elif kind == 6:
            predicates.append(InSet("price", [math.nan, None, rng.uniform(0, 9_000)]))
        elif kind == 7:
            bound = rng.uniform(0, 10_000)
            bounds = (bound, None) if rng.random() < 0.5 else (None, bound)
            predicates.append(Between("price", *bounds))
        elif kind == 0:
            predicates.append(Equals("catid", rng.randrange(NUM_CATEGORIES)))
        elif kind == 1:
            low = rng.uniform(0, 9_000)
            predicates.append(Between("price", low, low + rng.uniform(100, 4_000)))
        elif kind == 2:
            values = rng.sample(range(NUM_CATEGORIES), rng.randrange(1, 6))
            predicates.append(InSet("catid", sorted(values)))
        elif kind == 3:
            low = rng.randrange(0, 15)
            predicates.append(Between("qty", low, low + rng.randrange(1, 6)))
        else:
            predicates.append(Equals("cat2", f"group{rng.randrange(8)}"))
    return predicates


def _random_aggregate(rng, nullable=False):
    return _scoped(
        rng.choice(
            [
                Aggregate.count(),
                Aggregate.sum("price"),
                Aggregate.avg("price"),
                Aggregate.count_distinct("catid"),
            ]
        ),
        nullable,
    )


def _scoped(aggregate, nullable):
    """Aggregates over NULL and NaN prices are outside the value order: a
    nullable seed counts instead."""
    return Aggregate.count() if nullable and aggregate.expression == "price" else aggregate


def generate_query(seed):
    """One random query (and an optional forced access method) per seed."""
    rng = random.Random(seed)
    nullable = seed >= RECORDED_SEEDS
    predicates = _random_predicates(rng, nullable)
    joined = rng.random() < 0.35
    shape = rng.choice(["plain", "plain", "scalar", "grouped"])

    kwargs = {}
    if shape == "scalar":
        kwargs["aggregate"] = _random_aggregate(rng, nullable)
    elif shape == "grouped":
        group = rng.choice([("catid",), ("cat2",), ("catid", "cat2")])
        kwargs["aggregate"] = _scoped(
            rng.choice([Aggregate.count(), Aggregate.avg("price"), Aggregate.sum("qty")]),
            nullable,
        )
        kwargs["group_by"] = group
        if rng.random() < 0.5:
            kwargs["order_by"] = [rng.choice([col, f"-{col}"]) for col in group]
        if rng.random() < 0.4:
            kwargs["limit"] = rng.choice([0, 1, 3, 10])
        if rng.random() < 0.3:
            kwargs["projection"] = group  # drop the aggregate column
    else:
        columns = ["itemid", "catid", "cat2", "price", "qty"]
        if joined:
            columns += ["label", "region"]
        if rng.random() < 0.4:
            kwargs["projection"] = rng.sample(columns, rng.randrange(1, 4))
        if rng.random() < 0.5:
            order_columns = rng.sample(["price", "itemid", "catid", "qty"], 2)
            kwargs["order_by"] = [
                column if rng.random() < 0.5 else f"-{column}"
                for column in order_columns
            ]
        if rng.random() < 0.4:
            kwargs["limit"] = rng.choice([0, 1, 5, 37, 500])

    query = Query.select("items", *predicates, name=f"fuzz_{seed}", **kwargs)
    if joined:
        local = [Equals("region", f"r{rng.randrange(5)}")] if rng.random() < 0.5 else []
        query = query.join("cats", "catid", *local)

    force = "seq_scan" if rng.random() < 0.25 else None
    batch_sizes = rng.sample(BATCH_SIZES, 3)
    return query, force, batch_sizes


# ---------------------------------------------------------------------------
# The three assertions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exec_goldens():
    return json.loads(EXEC_GOLDENS.read_text())


def _model_tables(nullable):
    cats = build_cat_rows()
    return {"items": build_fuzz_rows(nullable), "cats": cats, "catsf": cats}


@pytest.fixture(scope="module")
def model_tables():
    """The loaded rows, as the plain lists the model evaluates over:
    ``False`` -> the recorded seeds' tables, ``True`` -> their nullable twin."""
    return {nullable: _model_tables(nullable) for nullable in (False, True)}


def pytest_generate_tests(metafunc):
    if "fuzz_seed" in metafunc.fixturenames:
        iterations = metafunc.config.getoption("--fuzz-iterations")
        metafunc.parametrize("fuzz_seed", range(iterations))


def test_fuzz_batch_parity(
    fuzz_database, nullable_databases, fuzz_seed, exec_goldens, model_tables
):
    query, force, batch_sizes = generate_query(fuzz_seed)
    context = f"seed={fuzz_seed} force={force} query={query.describe()}"
    recorded = exec_goldens["flat"]
    nullable = fuzz_seed >= RECORDED_SEEDS
    result = assert_batch_size_invariant(
        nullable_databases("flat") if nullable else fuzz_database,
        query,
        batch_sizes,
        recorded=recorded[fuzz_seed] if fuzz_seed < len(recorded) else None,
        context=context,
        force=force,
    )
    assert_matches_model(
        result, query, model_tables[nullable], unique_columns=("itemid",), context=context
    )


# ---------------------------------------------------------------------------
# Partitioned storage: the same contract across layouts and execution modes
# ---------------------------------------------------------------------------

def generate_partition_query(seed):
    """One random query (possibly a join) plus a layout and execution modes."""
    rng = random.Random(seed + 777_000)
    nullable = seed >= RECORDED_SEEDS
    predicates = _random_predicates(rng, nullable)
    joined = rng.random() < 0.35
    join_target = rng.choice(["cats", "catsf"])
    shape = rng.choice(["plain", "plain", "scalar", "grouped"])
    kwargs = {}
    if shape == "scalar":
        kwargs["aggregate"] = _random_aggregate(rng, nullable)
    elif shape == "grouped":
        group = rng.choice([("catid",), ("cat2",), ("catid", "cat2")])
        kwargs["aggregate"] = _scoped(
            rng.choice([Aggregate.count(), Aggregate.avg("price"), Aggregate.sum("qty")]),
            nullable,
        )
        kwargs["group_by"] = group
        if rng.random() < 0.4:
            kwargs["limit"] = rng.choice([0, 1, 3, 10])
    else:
        columns = ["itemid", "catid", "cat2", "price", "qty"]
        if joined:
            columns += ["label", "region"]
        if rng.random() < 0.4:
            kwargs["projection"] = rng.sample(columns, rng.randrange(1, 4))
        if rng.random() < 0.5:
            order_columns = rng.sample(["price", "itemid", "catid", "qty"], 2)
            kwargs["order_by"] = [
                column if rng.random() < 0.5 else f"-{column}"
                for column in order_columns
            ]
            # Half the ordered queries get a unique tiebreaker so the order
            # is total and LIMITed rows compare across layouts.
            if "itemid" not in order_columns and rng.random() < 0.5:
                kwargs["order_by"].append("itemid")
        if rng.random() < 0.4:
            kwargs["limit"] = rng.choice([0, 1, 5, 37, 500])
    query = Query.select("items", *predicates, name=f"pfuzz_{seed}", **kwargs)
    if joined:
        local = [Equals("region", f"r{rng.randrange(5)}")] if rng.random() < 0.5 else []
        query = query.join(join_target, "catid", *local)
    label = rng.choice(PARTITION_LAYOUTS)
    batch_sizes = rng.sample(BATCH_SIZES, 2)
    workers = rng.choice([None, 2, 3])
    return query, label, batch_sizes, workers


def assert_parallel_identical(reference, candidate, *, context):
    """A fork-parallel run of one layout reports what its serial run did.

    Everything simulated must match exactly -- counters, per-node actuals,
    the full I/O breakdown including the sequential/random split, elapsed
    time.  The single tolerated drift is a float aggregate under parallel
    partial merging (``(a+b)+c != a+(b+c)``); rows keep their order.
    ``sort_stats`` is left out: workers ship their nodes' counters but not a
    per-partition Sort/TopK's ``rows_in``, so a parallel run reports
    "over 0 rows" (a known gap of ``engine/parallel.py``, see ROADMAP).
    """
    serial, parallel = digest(reference), digest(candidate)
    for tolerant in ("rows", "value", "sort_stats"):
        del serial[tolerant], parallel[tolerant]
    assert parallel == serial, f"{context}: {drift(serial, parallel)}"
    assert values_close(candidate.value, reference.value), context
    for got, want in zip(candidate.rows, reference.rows):
        assert same_row(got, want), context


def test_fuzz_partition_parity(
    partitioned_databases, nullable_databases, fuzz_seed, exec_goldens, model_tables
):
    query, label, batch_sizes, workers = generate_partition_query(fuzz_seed)
    nullable = fuzz_seed >= RECORDED_SEEDS
    db = nullable_databases(label) if nullable else partitioned_databases[label]
    context = (
        f"seed={fuzz_seed} layout={label} workers={workers} "
        f"query={query.describe()}"
    )
    recorded = exec_goldens["partitioned"]
    serial = assert_batch_size_invariant(
        db,
        query,
        batch_sizes,
        recorded=recorded[fuzz_seed] if fuzz_seed < len(recorded) else None,
        context=context,
    )
    assert_matches_model(
        serial, query, model_tables[nullable], unique_columns=("itemid",), context=context
    )
    if workers is not None:
        for batch_size in (None, batch_sizes[0]):
            candidate = run_mode(db, query, batch_size, parallel=workers)
            assert_parallel_identical(
                serial,
                candidate,
                context=f"{context} parallel batch_size={batch_size}",
            )


def test_partition_corpus_covers_every_shape():
    """The partition corpus keeps exercising layouts, parallelism and shapes."""
    counters = {
        "hash": 0,
        "range": 0,
        "multiway": 0,
        "parallel": 0,
        "scalar": 0,
        "grouped": 0,
        "pruning_predicate": 0,
        "join_co_partitioned": 0,
        "join_flat_build": 0,
        "ordered": 0,
        "ordered_total_limit": 0,
    }
    for seed in range(24):
        query, label, _batch_sizes, workers = generate_partition_query(seed)
        if label.startswith("hash"):
            counters["hash"] += 1
        if label.startswith("range"):
            counters["range"] += 1
        if int(label.lstrip("hasrnge")) > 1:
            counters["multiway"] += 1
        if workers is not None:
            counters["parallel"] += 1
        if query.aggregate is not None and not query.grouping:
            counters["scalar"] += 1
        if query.grouping:
            counters["grouped"] += 1
        if query.predicates.on_attribute("catid"):
            counters["pruning_predicate"] += 1
        targets = {spec.table for spec in query.joins}
        if "cats" in targets:
            counters["join_co_partitioned"] += 1
        if "catsf" in targets:
            counters["join_flat_build"] += 1
        if query.ordering:
            counters["ordered"] += 1
        if query.limit is not None and any(
            column == "itemid" for column, _ascending in query.ordering
        ):
            counters["ordered_total_limit"] += 1
    missing = [shape for shape, count in counters.items() if count == 0]
    assert not missing, f"partition corpus never generates: {missing}"


def test_corpus_covers_every_shape():
    """The default corpus must keep exercising joins, aggregates and sorts.

    Guards the generator itself: a refactor that silently degenerates the
    corpus (e.g. every seed producing a bare scan) would leave the parity
    contract unguarded while the suite stays green.
    """
    shapes = {"join": 0, "scalar": 0, "grouped": 0, "ordered": 0, "limited": 0}
    for seed in range(24):
        query, _force, _batch_sizes = generate_query(seed)
        if query.joins:
            shapes["join"] += 1
        if query.aggregate is not None and not query.grouping:
            shapes["scalar"] += 1
        if query.grouping:
            shapes["grouped"] += 1
        if query.ordering:
            shapes["ordered"] += 1
        if query.limit is not None:
            shapes["limited"] += 1
    missing = [shape for shape, count in shapes.items() if count == 0]
    assert not missing, f"default corpus never generates: {missing}"
