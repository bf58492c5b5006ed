"""Page-parity guard: every batch size on the Fig. 1 access patterns.

Figure 1 is about *which heap pages* an access method touches -- correlated
lookups sweep a few sequential runs, uncorrelated ones scatter across the
file.  How rows are handed between operators must not change a single one
of those numbers: page reads, sequential/random classification, lookups and
simulated elapsed time have to be bit-identical under every batch size and
the one-row-at-a-time view on exactly these scenarios (the correlated and
uncorrelated shipdate/suppkey lookups, under every applicable access
method), and the rows have to be the ones a plain filter over the loaded
list selects.  This is the structural invariant CI smoke-checks alongside
the planner's zero-heap-read guarantee.
"""

import random

import pytest

from repro.engine.predicates import InSet
from repro.engine.query import Query
from tests.engine.model import assert_matches_model
from tests.engine.runs import assert_batch_size_invariant


def _pick_values(rows, attribute, count, seed):
    rng = random.Random(seed)
    return rng.sample(sorted({row[attribute] for row in rows}), count)


@pytest.mark.parametrize("attribute", ["shipdate", "suppkey"])
@pytest.mark.parametrize(
    "layout", ["tpch_correlated", "tpch_uncorrelated"]
)
@pytest.mark.parametrize(
    "force", ["seq_scan", "sorted_index_scan", "pipelined_index_scan"]
)
def test_fig1_lookup_page_parity(request, layout, attribute, force):
    """Every batch size touches identical pages on the Fig. 1 lookup patterns."""
    db, rows = request.getfixturevalue(layout)
    values = _pick_values(rows, attribute, 3, seed=1 if attribute == "shipdate" else 2)
    query = Query.select("lineitem", InSet(attribute, values))
    # The digest covers rows, pages, rows examined, the I/O breakdown with
    # its sequential/random split, and the simulated elapsed time.
    result = assert_batch_size_invariant(db, query, force=force)
    assert result.access_method == force
    assert result.rows_matched > 0
    assert_matches_model(result, query, {"lineitem": rows})


def test_fig1_cm_lookup_page_parity(experiment_scale):
    """The CM-guided scan keeps page parity too (the paper's central plan).

    Builds its own database: adding a correlation map to the shared
    session-scoped fixture would change which plans later benchmarks get.
    """
    from repro.bench.harness import build_tpch_database

    db, rows = build_tpch_database(experiment_scale, cluster_on="receiptdate")
    db.create_correlation_map("lineitem", ["shipdate"], name="cm_shipdate")
    values = _pick_values(rows, "shipdate", 3, seed=1)
    query = Query.select("lineitem", InSet("shipdate", values))
    result = assert_batch_size_invariant(db, query, force="cm_scan")
    assert result.access_method == "cm_scan"
    assert result.rows_matched > 0
    assert result.rewritten_sql is not None
    assert_matches_model(result, query, {"lineitem": rows})
