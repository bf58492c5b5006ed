"""Running a query under a batch size, and what the run reported.

The helpers the execution tests share (``test_fuzz_parity.py``,
``test_exec_goldens.py``, the curated suites, ``benchmarks/``): one cold run
under one ``Database.batch_size``, a JSON-ready :func:`digest` of everything
that run reported, and the **batch-size invariance** assertion -- every size
and the one-row-at-a-time view (``batch_size=None``) report the same digest,
bit for bit.  Invariance alone proves only that the protocol's delivery
granularity leaks into no number; what the numbers *should be* comes from
``exec_goldens.json`` (recorded counters) and ``tests/engine/model.py``
(rows and values).
"""

import hashlib

#: Batch sizes the fuzzer samples from and the goldens sweep -- degenerate
#: (1-row batches), odd (never page-aligned), the default-ish, and
#: larger-than-the-table.
BATCH_SIZES = (1, 2, 3, 7, 32, 64, 256, 1024, 4096)

#: The sizes a curated test sweeps when it does not pick its own.
CURATED_SIZES = (1, 7, 256)


def run_mode(db, query, batch_size, *, cold_cache=True, **options):
    """Execute under one batch size from an identical (cold) start.

    ``options`` go to ``run_query`` (``force=``, ``force_join=``,
    ``limit=``, ``parallel=`` ...).  The devices are reset first: how a
    run's *first* page read is classified depends on where the previous
    query left the head.
    """
    original = db.batch_size
    try:
        db.batch_size = batch_size
        db.reset_measurements()
        return db.run_query(query, cold_cache=cold_cache, **options)
    finally:
        db.batch_size = original


def digest(result):
    """Everything one execution reported, as JSON-ready values.

    Per-node counters stay readable -- ``[name, rows_examined, pages_visited,
    lookups, join_probes, rows_out]`` in ``walk()`` order -- so a drift names
    its node; the rows are one hash over the ordered row list.
    """
    rows = repr([sorted(row.items()) for row in result.rows])
    return {
        "access_method": result.access_method,
        "rows": hashlib.sha256(rows.encode()).hexdigest()[:16],
        "row_count": len(result.rows),
        "value": repr(result.value),
        "rows_examined": result.rows_examined,
        "rows_matched": result.rows_matched,
        "pages_visited": result.pages_visited,
        "join_probes": result.join_probes,
        "rows_emitted": result.rows_emitted,
        "io": repr(result.io),
        "elapsed_ms": repr(result.elapsed_ms),
        "rewritten_sql": result.rewritten_sql,
        "sort_stats": result.sort_stats,
        "nodes": [
            [
                node.name,
                node.actual.rows_examined,
                node.actual.pages_visited,
                node.actual.lookups,
                node.actual.join_probes,
                node.actual.rows_out,
            ]
            for node in result.plan.walk()
        ],
    }


def drift(recorded, got):
    """``{field: (recorded, got)}`` for every field two digests differ in."""
    return {
        field: (recorded.get(field), got.get(field))
        for field in {**recorded, **got}
        if recorded.get(field) != got.get(field)
    }


def assert_batch_size_invariant(
    db, query, batch_sizes=CURATED_SIZES, *, recorded=None, context="", **options
):
    """Run every size and the view; return one result once all agree.

    ``recorded`` is an ``exec_goldens.json`` record the common digest must
    equal as well (``None``: invariance alone).
    """
    runs = {
        size: run_mode(db, query, size, **options) for size in (*batch_sizes, None)
    }
    digests = {size: digest(result) for size, result in runs.items()}
    reference = digests[batch_sizes[0]]
    for size, got in digests.items():
        assert got == reference, (
            f"{context}: batch_size={size} vs {batch_sizes[0]} "
            f"(first, this): {drift(reference, got)}"
        )
    if recorded is not None:
        assert recorded["query"] == query.describe(), context
        assert reference == recorded["run"], (
            f"{context}: drifted from exec_goldens.json "
            f"(recorded, got): {drift(recorded['run'], reference)}"
        )
    return runs[batch_sizes[0]]
