"""Plan goldens: the planner's choices, estimates and EXPLAIN text, pinned.

For every seed of the differential fuzzer's two query generators this
records, *without executing anything*, what ``Database.run_query`` would plan
-- the chosen tree's ``method``, ``structure``, ``estimated_cost_ms`` and the
per-node ``(label, est_rows, est_pages, cost_split)`` in ``walk()`` order --
plus the full ``Database.explain()`` listing in its ranked order.  Flat
queries plan against the fuzzer's flat database, partitioned ones against
all eight partition layouts.

The fuzzer's tables carry one secondary index and no correlation map, and
its partitions are unclustered, so two extra fixtures ("rich": clustered
partitions, CMs on both sides, an unclustered tail) and a rotating
``force=`` / ``force_join=`` sweep cover the CM, clustered-probe, pipelined
and forced-strategy branches as well -- a forced plan that does not apply
records its error message instead.

Strings and candidate order compare exactly; floats to 1e-9 relative
(libm differences between platforms).  No other test compares a
``structure`` by equality, so this file is the net under any planner
refactor that claims "same plans, same numbers".  Regenerate (only when a
change *means* to alter plans) with::

    PYTHONPATH=src python -m pytest tests/engine/test_plan_goldens.py --update-plan-goldens
"""

import json
import math
from pathlib import Path

import pytest
from test_fuzz_parity import generate_partition_query, generate_query

from repro.core.bucketing import WidthBucketer
from repro.engine.planner import FORCE_JOIN_METHODS, FORCE_METHODS
from tests.engine.conftest import (
    PARTITION_LAYOUTS,
    build_fuzz_database,
    build_partitioned_database,
)

GOLDEN_PATH = Path(__file__).with_name("plan_goldens.json")
SEEDS = 200
#: Layouts the CM-carrying partitioned fixtures are built for.
RICH_LAYOUTS = ("hash4", "range4")

SECTIONS = (
    "flat",
    *PARTITION_LAYOUTS,
    "forced_flat",
    "forced_partitioned",
    "rich_flat",
    *(f"rich_{label}" for label in RICH_LAYOUTS),
)


def _enrich(db):
    """Clustered ``cats``/``catsf``, CMs on every table, a tail on ``items``."""
    if not db.table("items").is_clustered:
        db.cluster("items", "catid", pages_per_bucket=4)
    db.create_correlation_map(
        "items", ["price"], bucketers={"price": WidthBucketer(64)}, name="cm_price"
    )
    db.create_correlation_map("items", ["cat2"], name="cm_cat2")
    for name in ("cats", "catsf"):
        db.cluster(name, "catid", pages_per_bucket=1)
        db.create_correlation_map(name, ["region"], name="cm_region")
    db.insert(
        "items",
        [
            {
                "itemid": 100_000 + i,
                "catid": i % 80,
                "cat2": f"group{i % 80 // 10}",
                "price": 125.0 * (i % 80) + 1.0,
                "qty": i % 20,
            }
            for i in range(160)
        ],
    )
    return db


@pytest.fixture(scope="module")
def rich_databases():
    databases = {"flat": _enrich(build_fuzz_database())}
    for label in RICH_LAYOUTS:
        databases[label] = _enrich(build_partitioned_database(label))
    return databases


def _plan_record(plan):
    return {
        "method": plan.method,
        "structure": plan.structure,
        "estimated_cost_ms": plan.estimated_cost_ms,
        "nodes": [
            [
                node.label(),
                node.est_rows,
                node.est_pages,
                None
                if node.cost_split is None
                else [node.cost_split.upfront_ms, node.cost_split.streaming_ms],
            ]
            for node in plan.walk()
        ],
    }


def _record(db, seed, query, force=None, force_join=None):
    """What ``run_query`` would plan for ``query`` (or why it cannot)."""
    record = {"seed": seed, "query": query.describe()}
    if force is not None:
        record["force"] = force
    if force_join is not None:
        record["force_join"] = force_join
    try:
        plan = db._prepare(
            query, force=force, force_join=force_join, limit=None, projection=None
        )
    except ValueError as error:
        record["error"] = str(error)
    else:
        record["chosen"] = _plan_record(plan)
    return record


def _with_explain(db, record, query):
    record["explain"] = db.explain(query)
    return record


def _forced(seed, query):
    """A deterministic rotation through every force / force_join name."""
    force = (None, *FORCE_METHODS)[seed % 6]
    force_join = (None, *FORCE_JOIN_METHODS)[seed // 6 % 5] if query.joins else None
    return force, force_join


def snapshot(section, fuzz_database, partitioned_databases, rich_databases):
    """The list of records for one section of the golden file."""
    records = []
    for seed in range(SEEDS):
        flat_query, flat_force, _sizes = generate_query(seed)
        part_query, own_layout, _sizes, _workers = generate_partition_query(seed)
        if section == "flat":
            record = _record(fuzz_database, seed, flat_query, flat_force)
            records.append(_with_explain(fuzz_database, record, flat_query))
        elif section in PARTITION_LAYOUTS:
            db = partitioned_databases[section]
            records.append(_with_explain(db, _record(db, seed, part_query), part_query))
        elif section == "forced_flat":
            records.append(
                _record(fuzz_database, seed, flat_query, *_forced(seed, flat_query))
            )
        elif section == "forced_partitioned":
            db = partitioned_databases[own_layout]
            record = _record(db, seed, part_query, *_forced(seed, part_query))
            records.append({"layout": own_layout, **record})
        else:
            db = rich_databases[section.removeprefix("rich_")]
            query = flat_query if section == "rich_flat" else part_query
            records.append(_with_explain(db, _record(db, seed, query), query))
            records.append(_record(db, seed, query, *_forced(seed, query)))
    return records


def _mismatch(expected, actual, path=""):
    """The path of the first difference, or ``None`` (floats to 1e-9 relative)."""
    numbers = (int, float)
    if (
        isinstance(expected, numbers)
        and isinstance(actual, numbers)
        and not isinstance(expected, bool)
    ):
        if math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12):
            return None
        return f"{path}: {expected!r} != {actual!r}"
    if type(expected) is not type(actual):
        return f"{path}: {expected!r} != {actual!r}"
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            return f"{path}: keys {list(expected)} != {list(actual)}"
        pairs = [(f"{path}.{key}", expected[key], actual[key]) for key in expected]
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: {len(expected)} entries != {len(actual)}"
        pairs = [
            (f"{path}[{i}]", left, right)
            for i, (left, right) in enumerate(zip(expected, actual))
        ]
    else:
        return None if expected == actual else f"{path}: {expected!r} != {actual!r}"
    for child_path, left, right in pairs:
        found = _mismatch(left, right, child_path)
        if found is not None:
            return found
    return None


def _dump(goldens):
    """One compact record per line, so a changed plan is a one-line diff."""
    sections = [
        json.dumps(name)
        + ":[\n"
        + ",\n".join(json.dumps(r, separators=(",", ":")) for r in goldens[name])
        + "\n]"
        for name in SECTIONS
        if name in goldens
    ]
    return "{\n" + ",\n".join(sections) + "\n}\n"


@pytest.mark.parametrize("section", SECTIONS)
def test_plans_match_the_goldens(
    section, fuzz_database, partitioned_databases, rich_databases, request
):
    # Through JSON and back, so tuples/lists and int/float compare alike.
    actual = json.loads(
        json.dumps(
            snapshot(section, fuzz_database, partitioned_databases, rich_databases)
        )
    )
    if request.config.getoption("--update-plan-goldens"):
        goldens = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        goldens[section] = actual
        GOLDEN_PATH.write_text(_dump(goldens))
        pytest.skip(f"recorded {len(actual)} plans for {section}")
    expected = json.loads(GOLDEN_PATH.read_text())[section]
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        found = _mismatch(want, got, f"{section}[seed={want['seed']}]")
        assert found is None, f"{found}\n  query: {want['query']}"


def test_the_corpus_reaches_every_planner_branch():
    """The goldens only prove something if the corpus visits the branches."""
    text = GOLDEN_PATH.read_text()
    for needle in (
        '"method":"cm_scan"',
        '"method":"clustered_index_scan"',
        '"method":"sorted_index_scan"',
        '"method":"pipelined_index_scan"',
        "merge_exchange[",
        "co-partitioned with cats",
        "broadcast catsf",
        "repartition catsf",
        "per-partition topk",
        "per-partition sort",
        "index_nested_loop_join[",
        "nested_loop_join[",
        "hash build=outer",
        "sort_merge_join[",
        "no applicable plan for forced method",
        "no applicable plan for forced join",
        "only supports hash_join",
        "no secondary index available for a pipelined scan",
    ):
        assert needle in text, f"no recorded plan contains {needle!r}"
