"""Range selectivity by order statistics equals the sample sweep, always.

``IncrementalTableStatistics.range_fraction`` answers a single-attribute
inclusive range by bisecting a sorted column of the reservoir's values; the
column is built once and then follows the reservoir's own admit / evict /
discard decisions.  The oracle is the plain loop it replaces -- every
sampled row through ``Between.matches`` -- re-run after every single step of
a random maintenance history, for every range a small bound pool can form
(closed, one-sided, empty, inverted, bounds on and between stored values),
with the sample both complete and a subsample of the rows.  Columns hold
NULL (and, numeric, NaN) next to their values: the sorted column places
them as the predicate does (``repro.core.ordering``).
"""

import math
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import IncrementalTableStatistics
from repro.engine.database import Database
from repro.engine.predicates import Between, PredicateSet

DAY0 = date(2024, 1, 1)

#: Per column kind: the values rows draw from (few, so duplicates are heavy,
#: NULL among them, and NaN for the numbers), and bounds that fall between,
#: below and above them.
KINDS = {
    "int": ([0, 1, 2, 3, 5, 8, None, math.nan], [-1, 4, 9]),
    "float": (
        [-2.5, 0.0, 0.25, 0.5, 7.0, 1e9, None, math.nan, float("nan")],
        [-3.0, 0.3, 3, math.inf],
    ),
    "string": (["", "a", "ab", "b", "zz", None], ["0", "aa", "zzz"]),
    "date": (
        [DAY0 + timedelta(days=d) for d in (0, 1, 2, 10, 40)] + [None],
        [DAY0 - timedelta(days=1), DAY0 + timedelta(days=5), DAY0 + timedelta(days=99)],
    ),
}


def ranges_of(kind):
    """Every (low, high) over the kind's values and off-values, open ends
    included (NULL is the open bound; NaN is no bound)."""
    values, between = KINDS[kind]
    bounds = [None, *(v for v in values if v is not None and v == v), *between]
    return [(lo, hi) for lo in bounds for hi in bounds if (lo, hi) != (None, None)]


def swept(stats, low, high):
    """The fraction the sample sweep computes: the loop, written out."""
    rows = stats.sample_rows
    predicate = Between("v", low, high)
    matching = sum(1 for row in rows if predicate.matches({"v": row.get("v")}))
    return matching / len(rows) if rows else 0.0


#: ("insert", value index) | ("delete", live index, by identity?) |
#: ("delete_absent", value index) | ("lacking", value index) | ("rebuild",)
steps = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 100)),
    st.tuples(st.just("insert"), st.integers(0, 100)),
    st.tuples(st.just("delete"), st.integers(0, 10_000), st.booleans()),
    st.tuples(st.just("delete_absent"), st.integers(0, 100)),
    st.tuples(st.just("lacking"), st.integers(0, 100)),
    st.tuples(st.just("rebuild")),
)


def run_history(kind, capacity, history, *, allow_lacking):
    values, _between = KINDS[kind]
    ranges = ranges_of(kind)
    stats = IncrementalTableStatistics(sample_capacity=capacity)
    live: list[dict] = []
    serial = 0

    def check():
        for low, high in ranges:
            assert stats.range_fraction("v", low, high) == swept(stats, low, high), (
                low,
                high,
            )

    check()  # builds the column over an empty sample
    for step in history:
        action = step[0]
        if action == "insert" or (action == "lacking" and allow_lacking):
            serial += 1
            row = {"id": serial, "v": values[step[1] % len(values)]}
            if action == "lacking":  # a row without the column reads as NULL
                del row["v"]
            stats.observe_insert(row)
            live.append(row)
        elif action == "delete" and live:
            row = live.pop(step[1] % len(live))
            # By identity (the engine's case) or as an equal copy.
            stats.observe_delete(row if step[2] else dict(row))
        elif action == "delete_absent":
            stats.observe_delete({"id": -1, "v": values[step[1] % len(values)]})
        elif action == "rebuild":
            stats.rebuild(live)
        check()
    return stats


@given(
    st.sampled_from(sorted(KINDS)),
    st.sampled_from([1000, 5]),
    st.lists(steps, max_size=45),
)
@settings(max_examples=120, deadline=None)
def test_range_fraction_equals_the_sweep_after_every_step(kind, capacity, history):
    run_history(kind, capacity, history, allow_lacking=False)


@given(
    st.sampled_from(sorted(KINDS)),
    st.sampled_from([1000, 5]),
    st.lists(steps, max_size=45),
)
@settings(max_examples=120, deadline=None)
def test_rows_lacking_the_column_read_as_null(kind, capacity, history):
    run_history(kind, capacity, history, allow_lacking=True)


def test_subsampled_history_replaces_and_erodes_the_sample():
    """The small capacity above really subsamples: slots get replaced."""
    history = [("insert", i) for i in range(60)] + [
        ("delete", 7 * i, True) for i in range(30)
    ]
    stats = run_history("int", 5, history, allow_lacking=False)
    assert len(stats.sample_rows) <= 5 < stats.total_rows


def test_bound_outside_the_column_family_raises():
    """As comparing it with the column's values does, in the sweep."""
    stats = IncrementalTableStatistics()
    for value in (1, 2, 3, None):
        stats.observe_insert({"v": value})
    assert stats.range_fraction("v", 1, 2) == 2 / 4
    with pytest.raises(TypeError):
        stats.range_fraction("v", "1", None)
    with pytest.raises(TypeError):
        PredicateSet([Between("v", "1", None)]).batch_kernel()(stats.sample_rows)
    # A column no row carries is all NULL: no range holds any of it.
    assert stats.range_fraction("missing", 0, 1) == 0.0
    # A refused bound does not cost the column its later answers.
    assert stats.range_fraction("v", 2, None) == 2 / 4


# -- through the table ---------------------------------------------------------


def small_table(prices):
    db = Database(buffer_pool_pages=50)
    rows = [{"id": i, "price": price} for i, price in enumerate(prices)]
    db.create_table("t", sample_row={"id": 0, "price": 1.0}, tups_per_page=10)
    db.load("t", rows)
    return db, db.table("t")


def sweep_estimate(table, predicate):
    """``estimate_matching_rows`` as the parent computed it: the unmemoised sweep."""
    return table.num_rows * table.statistics.match_fraction(
        PredicateSet([predicate]).matches
    )


PROBES = [(2.0, 6.0), (None, 3.0), (4.0, None), (9.0, 1.0), (3.0, 3.0), (2.5, 2.6)]


def test_table_estimate_equals_the_sweep_across_dml():
    db, table = small_table([float(i % 7) for i in range(40)])
    for round_ in range(3):
        for low, high in PROBES:
            predicate = Between("price", low, high)
            estimate = table.estimate_matching_rows(PredicateSet([predicate]))
            assert estimate == sweep_estimate(table, predicate)
        db.insert("t", [{"id": 100 + round_, "price": 2.5}])
        table.delete_row(next(rid for rid, _row in table.heap.scan(charge_io=False)))


def test_table_estimate_with_nan_still_equals_the_sweep():
    """A NaN sits above every number: in a range open above, in no other."""
    db, table = small_table([1.0, 2.0, 3.0, 4.0])
    closed, open_above = Between("price", 2.0, 3.0), Between("price", 2.0, None)
    assert table.estimate_matching_rows(PredicateSet([closed])) == 2.0
    db.insert("t", [{"id": 9, "price": math.nan}, {"id": 10, "price": None}])
    for predicate, expected in ((closed, 2.0), (open_above, 4.0)):
        estimate = table.estimate_matching_rows(PredicateSet([predicate]))
        assert estimate == sweep_estimate(table, predicate) == expected


def test_a_second_family_is_refused_before_the_estimate_moves():
    db, table = small_table([1.0, 2.0, 3.0, 4.0])
    predicate = Between("price", 2.0, 3.0)
    before = table.estimate_matching_rows(PredicateSet([predicate]))  # column built
    with pytest.raises(TypeError, match="'t'.*'price'"):
        db.insert("t", [{"id": 9, "price": "3.0"}])
    assert table.num_rows == 4
    assert table.estimate_matching_rows(PredicateSet([predicate])) == before


def test_ranges_never_enter_the_selectivity_memo():
    _db, table = small_table([float(i % 50) for i in range(200)])
    memo = table.statistics._selectivity_cache
    before = len(memo)
    for i in range(1000):
        low = i / 20.0
        table.estimate_matching_rows(PredicateSet([Between("price", low, low + 5.0)]))
    assert len(memo) == before
    # The sweep's memo is untouched as a mechanism: conjunctions still use it.
    both = PredicateSet([Between("price", 1.0, 9.0), Between("id", 0, 50)])
    table.estimate_matching_rows(both)
    assert len(memo) == before + 1
