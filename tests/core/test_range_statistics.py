"""Range selectivity by order statistics equals the sample sweep, always.

``IncrementalTableStatistics.range_fraction`` answers a single-attribute
inclusive range by bisecting a sorted column of the reservoir's values; the
column is built once and then follows the reservoir's own admit / evict /
discard decisions.  The oracle is the plain loop it replaces -- every
sampled row through ``Between.matches`` -- re-run after every single step of
a random maintenance history, for every range a small bound pool can form
(closed, one-sided, empty, inverted, bounds on and between stored values),
with the sample both complete and a subsample of the rows.
"""

import math
from datetime import date, datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import IncrementalTableStatistics
from repro.engine.database import Database
from repro.engine.predicates import Between, PredicateSet

DAY0 = date(2024, 1, 1)

#: Per column kind: the values rows draw from (few, so duplicates are heavy),
#: bounds that fall between, below and above them, and values that do not
#: order with the column (``None``, NaN, another family).
KINDS = {
    "int": ([0, 1, 2, 3, 5, 8], [-1, 4, 9], [None, math.nan, "3"]),
    "float": (
        [-2.5, 0.0, 0.25, 0.5, 7.0, 1e9],
        [-3.0, 0.3, 3, math.inf],
        [None, math.nan, "0.5"],
    ),
    "string": (["", "a", "ab", "b", "zz"], ["0", "aa", "zzz"], [None, 7, b"a"]),
    "date": (
        [DAY0 + timedelta(days=d) for d in (0, 1, 2, 10, 40)],
        [DAY0 - timedelta(days=1), DAY0 + timedelta(days=5), DAY0 + timedelta(days=99)],
        [None, datetime(2024, 1, 2), 5],
    ),
}


def ranges_of(kind):
    """Every (low, high) over the kind's values and off-values, open ends included."""
    values, between, _poison = KINDS[kind]
    bounds = [None, *values, *between]
    return [(lo, hi) for lo in bounds for hi in bounds if (lo, hi) != (None, None)]


def swept(stats, low, high):
    """The fraction the sample sweep computes: the loop, written out.

    ``None`` when the loop raises (a bound that does not compare with the
    column) -- ``range_fraction`` must then decline, so its caller sweeps
    and raises the same error.
    """
    rows = stats.sample_rows
    predicate = Between("v", low, high)
    try:
        matching = sum(1 for row in rows if predicate.matches(row))
    except TypeError:
        return None
    return matching / len(rows) if rows else 0.0


def orders(values):
    """Whether ``values`` hold no None/NaN and compare with one another."""
    try:
        sorted(values)
    except TypeError:
        return False
    return all(value is not None and value == value for value in values)


#: ("insert", value index) | ("delete", live index, by identity?) |
#: ("delete_absent", value index) | ("poison", poison index) | ("rebuild",)
steps = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 100)),
    st.tuples(st.just("insert"), st.integers(0, 100)),
    st.tuples(st.just("delete"), st.integers(0, 10_000), st.booleans()),
    st.tuples(st.just("delete_absent"), st.integers(0, 100)),
    st.tuples(st.just("poison"), st.integers(0, 100)),
    st.tuples(st.just("rebuild")),
)


def run_history(kind, capacity, history, *, allow_poison):
    values, _between, poison = KINDS[kind]
    ranges = ranges_of(kind)
    stats = IncrementalTableStatistics(sample_capacity=capacity, seed=3)
    live: list[dict] = []
    serial = 0
    #: True from the moment the sample admits a value that does not order
    #: with the rest of it, until a rebuild re-seeds the sample without one.
    gave_up = False

    def check():
        for low, high in ranges:
            answer = stats.range_fraction("v", low, high)
            if gave_up:
                assert answer is None
            else:
                assert answer == swept(stats, low, high), (low, high)

    check()  # builds the column over an empty sample
    for step in history:
        action = step[0]
        if action == "insert" or (action == "poison" and allow_poison):
            pool = values if action == "insert" else poison
            serial += 1
            row = {"id": serial, "v": pool[step[1] % len(pool)]}
            stats.observe_insert(row)
            live.append(row)
            # Admitted or not, poison or not (a lone "3" orders with itself,
            # a date after it does not): what counts is whether the sample
            # as it now stands still orders.
            gave_up = gave_up or not orders([row["v"] for row in stats.sample_rows])
        elif action == "delete" and live:
            row = live.pop(step[1] % len(live))
            # By identity (the engine's case) or as an equal copy.
            stats.observe_delete(row if step[2] else dict(row))
        elif action == "delete_absent":
            stats.observe_delete({"id": -1, "v": values[step[1] % len(values)]})
        elif action == "rebuild":
            stats.rebuild(live)
            gave_up = not orders([row["v"] for row in stats.sample_rows])
        check()
    return stats


@given(
    st.sampled_from(sorted(KINDS)),
    st.sampled_from([1000, 5]),
    st.lists(steps, max_size=45),
)
@settings(max_examples=120, deadline=None)
def test_range_fraction_equals_the_sweep_after_every_step(kind, capacity, history):
    run_history(kind, capacity, history, allow_poison=False)


@given(
    st.sampled_from(sorted(KINDS)),
    st.sampled_from([1000, 5]),
    st.lists(steps, max_size=45),
)
@settings(max_examples=120, deadline=None)
def test_a_column_that_stops_ordering_answers_none_from_then_on(
    kind, capacity, history
):
    run_history(kind, capacity, history, allow_poison=True)


def test_subsampled_history_replaces_and_erodes_the_sample():
    """The small capacity above really subsamples: slots get replaced."""
    history = [("insert", i) for i in range(60)] + [
        ("delete", 7 * i, True) for i in range(30)
    ]
    stats = run_history("int", 5, history, allow_poison=False)
    assert len(stats.sample_rows) <= 5 < stats.total_rows


def test_bound_outside_the_column_family_falls_back():
    stats = IncrementalTableStatistics()
    for value in (1, 2, 3):
        stats.observe_insert({"v": value})
    assert stats.range_fraction("v", 1, 2) == 2 / 3
    assert stats.range_fraction("v", "1", None) is None
    assert stats.range_fraction("v", None, math.nan) is None
    assert stats.range_fraction("missing", 0, 1) is None
    # An unusable bound does not cost the column its later answers.
    assert stats.range_fraction("v", 2, None) == 2 / 3


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
    """``Between.matches`` accepts NaN; bisection cannot, so the table sweeps."""
    db, table = small_table([1.0, 2.0, 3.0, 4.0])
    predicate = Between("price", 2.0, 3.0)
    assert table.estimate_matching_rows(PredicateSet([predicate])) == 2.0
    db.insert("t", [{"id": 9, "price": math.nan}])
    assert table.statistics.range_fraction("price", 2.0, 3.0) is None
    estimate = table.estimate_matching_rows(PredicateSet([predicate]))
    assert estimate == sweep_estimate(table, predicate) == 3.0


@pytest.mark.parametrize("unorderable", [None, "3.0"])
def test_table_estimate_over_unorderable_values_raises_as_the_sweep_does(unorderable):
    db, table = small_table([1.0, 2.0, 3.0, 4.0])
    predicate = Between("price", 2.0, 3.0)
    table.estimate_matching_rows(PredicateSet([predicate]))  # column built
    db.insert("t", [{"id": 9, "price": unorderable}])
    assert table.statistics.range_fraction("price", 2.0, 3.0) is None
    with pytest.raises(TypeError):
        sweep_estimate(table, predicate)
    with pytest.raises(TypeError):
        table.estimate_matching_rows(PredicateSet([predicate]))


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
