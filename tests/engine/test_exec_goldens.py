"""Execution goldens: what running the fuzz corpus reports, pinned.

``test_plan_goldens.py`` pins what the planner *chooses* for the
differential fuzzer's two query generators; this file pins what executing
those plans *reports*.  For seeds 0-199 of the flat generator (on the flat
fuzz database) and seeds 0-199 of the partition generator (each on its own
partition layout) -- and, because that corpus plans neither a correlation-map
scan nor a pipelined index scan, an index-nested-loop or a sort-merge join,
for the flat seeds again under the plan goldens' rotating ``force=`` /
``force_join=`` sweep, on the fuzz database and on its CM-carrying "rich"
twin -- it records, from a cold cache and reset devices:

* the rows (one digest over the ordered row list, plus the count),
* the aggregate value and every ``QueryResult`` counter,
* ``repr(io)``, ``repr(elapsed_ms)``, ``rewritten_sql``, ``sort_stats``,
* per plan node, in ``walk()`` order, ``[name, rows_examined,
  pages_visited, lookups, join_probes, rows_out]`` -- readable, not hashed,
  so a drift names its node

(:func:`tests.engine.runs.digest`; a forced method that does not apply
records its error message instead).

The recording was taken from the row-at-a-time executor this repository
used to carry next to the batched one (``Database(batch_size=None)`` at the
commit before its removal).  Every batch size in ``BATCH_SIZES`` and the
one-row-at-a-time view (``batch_size=None``) must reproduce it exactly: the
numbers a run reports are a property of the pages read and the rows
examined, never of how rows are handed between operators.

Regenerate (only when a change *means* to alter what execution reports)::

    PYTHONPATH=src python -m pytest tests/engine/test_exec_goldens.py --update-exec-goldens
"""

import json

import pytest
from test_fuzz_parity import EXEC_GOLDENS, generate_partition_query, generate_query
from test_plan_goldens import _enrich, _forced

from tests.engine.conftest import build_fuzz_database
from tests.engine.runs import BATCH_SIZES, digest, drift, run_mode

SEEDS = 200
SECTIONS = ("flat", "partitioned", "forced_flat", "forced_rich")
#: ``None`` is the one-row-at-a-time view, and what a re-recording runs.
MODES = (None, *BATCH_SIZES)


@pytest.fixture(scope="module")
def databases(fuzz_database, partitioned_databases):
    return {
        "flat": fuzz_database,
        "rich": _enrich(build_fuzz_database()),
        **partitioned_databases,
    }


def corpus(section, databases):
    """``(seed, database, query, run_query options)`` per seed of a section."""
    for seed in range(SEEDS):
        query, force, _sizes = generate_query(seed)
        if section == "flat":
            yield seed, databases["flat"], query, {"force": force}
        elif section == "partitioned":
            query, layout, _sizes, _workers = generate_partition_query(seed)
            yield seed, databases[layout], query, {"layout": layout}
        else:
            force, force_join = _forced(seed, query)
            options = {"force": force, "force_join": force_join}
            yield seed, databases[section.removeprefix("forced_")], query, options


def execute(db, query, options, batch_size):
    """One cold run under one batch size, as a digest (or the plan error)."""
    try:
        result = run_mode(
            db,
            query,
            batch_size,
            force=options.get("force"),
            force_join=options.get("force_join"),
        )
    except ValueError as error:  # a forced method that does not apply
        return {"error": str(error)}
    return digest(result)


def _dump(goldens):
    """One compact record per line, so a drifted seed is a one-line diff."""
    sections = [
        json.dumps(name)
        + ":[\n"
        + ",\n".join(json.dumps(r, separators=(",", ":")) for r in goldens[name])
        + "\n]"
        for name in SECTIONS
    ]
    return "{\n" + ",\n".join(sections) + "\n}\n"


@pytest.fixture(scope="module")
def goldens(request, databases):
    if request.config.getoption("--update-exec-goldens"):
        recorded = {
            section: [
                {
                    "seed": seed,
                    "query": query.describe(),
                    **options,
                    "run": execute(db, query, options, None),
                }
                for seed, db, query, options in corpus(section, databases)
            ]
            for section in SECTIONS
        }
        EXEC_GOLDENS.write_text(_dump(recorded))
    return json.loads(EXEC_GOLDENS.read_text())


@pytest.mark.parametrize("batch_size", MODES, ids=lambda size: f"batch={size}")
@pytest.mark.parametrize("section", SECTIONS)
def test_every_batch_size_reproduces_the_recording(
    section, batch_size, goldens, databases
):
    expected = goldens[section]
    assert len(expected) == SEEDS
    for want, (seed, db, query, options) in zip(expected, corpus(section, databases)):
        assert (want["seed"], want["query"]) == (seed, query.describe())
        # Through JSON and back, so the comparison sees what the file holds.
        got = json.loads(json.dumps(execute(db, query, options, batch_size)))
        assert got == want["run"], (
            f"{section}[seed={seed}] batch_size={batch_size} drifted "
            f"(recorded, got): {drift(want['run'], got)}\n  query: {want['query']}"
        )


def test_the_corpus_reaches_every_operator():
    """The recording only proves something if the corpus runs the operators."""
    text = EXEC_GOLDENS.read_text()
    for needle in (
        '["seq_scan",',
        '["sorted_index_scan",',
        '["pipelined_index_scan",',
        '["clustered_index_scan",',
        '["cm_scan",',
        '["hash_join",',
        '["sort_merge_join",',
        '["nested_loop_join",',
        '["index_nested_loop_join",',
        '["inner_probe",',
        '["sort",',
        '["topk",',
        '["aggregate",',
        '["hash_group",',
        '["limit",',
        '["project",',
        '["exchange",',
        '["merge_exchange",',
        '["broadcast",',
        '["repartition",',
        '"sort_stats":"top-',
        '"sort_stats":"sort buffered',
    ):
        assert needle in text, f"no recorded run contains {needle!r}"
