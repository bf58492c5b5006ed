"""Tests for the columnar batch kernels.

The columnar pass replaced per-row interior loops with compiled/C-driven
batch kernels: ``PredicateSet.batch_kernel`` (one eval-compiled
filter+project comprehension), ``columnar_sort`` (multi-pass
decorate-sort-undecorate), the top-k candidate merge, the grouped
aggregation kernels of ``GroupedAccumulators``, and the sort-merge join's
vectorized merge.  The unit tests pin each kernel against the per-row
definition it replaced (``matches``, ``SortKey``, ``_ordering_key_getter``);
the end-to-end classes pin whole queries against the plain-Python model
(``tests/engine/model.py``) -- a top-k *is* the prefix of the model's stable
full sort, a grouped aggregate *is* its dict fold, bit for bit, because an
unclustered heap streams in load order -- and against batch-size invariance,
including the edge cases: empty predicate sets, all-rows-filtered batches,
NULLs in predicate and sort columns, and descending non-negatable types.
"""

import random

import pytest

from repro.engine.database import Database
from repro.engine.executor import _ordering_key_getter, _sorted_with_keys
from repro.engine.plan import (
    SortKey,
    _encode_sort_column,
    _not_worse_mask,
    columnar_sort,
    sort_key_function,
)
from repro.engine.predicates import (
    Between,
    Equals,
    ExpressionPredicate,
    InSet,
    PredicateSet,
)
from repro.engine.query import Aggregate, Query

from tests.engine.model import assert_matches_model, evaluate, user_columns
from tests.engine.runs import assert_batch_size_invariant


def _rows_with_nulls(n=200, seed=3, null_share=0.2):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(
            {
                "id": i,
                "name": rng.choice(["ada", "bob", "cid", "dot"]),
                "price": None if rng.random() < null_share else rng.uniform(0, 100),
                "qty": rng.randrange(5),
            }
        )
    return rows


class TestBatchFilter:
    def test_empty_predicate_set_returns_rows_unchanged(self):
        rows = [{"a": 1}, {"a": 2}]
        assert PredicateSet().batch_kernel()(rows) == rows

    def test_all_rows_filtered(self):
        rows = [{"a": value} for value in range(10)]
        assert PredicateSet.of(Equals("a", -1)).batch_kernel()(rows) == []

    def test_null_values_in_predicate_columns(self):
        rows = [{"a": None}, {"a": 1}, {"a": None}, {"a": 2}]
        # NULL matches no comparison, ``= NULL`` and ``IN (..., NULL)`` included.
        assert PredicateSet.of(Equals("a", 1)).batch_kernel()(rows) == [{"a": 1}]
        assert PredicateSet.of(Equals("a", None)).batch_kernel()(rows) == []
        assert PredicateSet.of(InSet("a", [2, None])).batch_kernel()(rows) == [{"a": 2}]
        assert PredicateSet.of(Between("a", 0, None)).batch_kernel()(rows) == [
            {"a": 1},
            {"a": 2},
        ]

    @pytest.mark.parametrize(
        "predicates",
        [
            (Equals("name", "ada"),),
            (InSet("name", ["bob", "cid"]),),
            (Between("qty", 1, 3),),
            (Between("qty", None, 2),),
            (Between("qty", 2, None),),
            (ExpressionPredicate("qty+id", lambda row: (row["qty"] + row["id"]) % 3 == 0),),
            (Between("qty", 1, 4), InSet("name", ["ada", "dot"]), Equals("qty", 2)),
        ],
    )
    def test_compiled_kernel_matches_selectors_and_matches(self, predicates):
        rows = [
            {key: value for key, value in row.items() if key != "price"}
            for row in _rows_with_nulls()
        ]
        predicate_set = PredicateSet(predicates)
        expected = [row for row in rows if predicate_set.matches(row)]
        assert predicate_set.batch_kernel()(rows) == expected

    def test_kernel_with_projection_filters_then_projects(self):
        rows = [{"a": i, "b": i * 10, "c": i * 100} for i in range(6)]
        kernel = PredicateSet.of(Between("a", 2, 4)).batch_kernel(("b", "c"))
        assert kernel(rows) == [
            {"b": 20, "c": 200},
            {"b": 30, "c": 300},
            {"b": 40, "c": 400},
        ]

    def test_projection_only_kernel_from_empty_set(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        assert PredicateSet().batch_kernel(("a",))(rows) == [{"a": 1}, {"a": 3}]

    def test_kernels_are_cached_per_projection(self):
        predicate_set = PredicateSet.of(Equals("a", 1))
        assert predicate_set.batch_kernel() is predicate_set.batch_kernel()
        assert predicate_set.batch_kernel(("a",)) is predicate_set.batch_kernel(("a",))
        assert predicate_set.batch_kernel() is not predicate_set.batch_kernel(("a",))


ORDERINGS = [
    (("price", True),),
    (("price", False),),
    (("name", False),),
    (("name", True), ("price", False)),
    (("qty", False), ("name", True), ("id", True)),
]


class TestColumnarSort:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_matches_sortkey_reference(self, ordering):
        rows = _rows_with_nulls()
        reference = sorted(rows, key=sort_key_function(ordering))
        columnar = list(rows)
        columnar_sort(columnar, ordering)
        assert columnar == reference

    def test_stability_on_ties(self):
        rows = [{"k": value % 2, "seq": i} for i, value in enumerate(range(20))]
        for ascending in (True, False):
            ordered = list(rows)
            columnar_sort(ordered, [("k", ascending)])
            expected = sorted(rows, key=sort_key_function([("k", ascending)]))
            assert ordered == expected

    def test_encode_column_orders_like_sortkey(self):
        for values in ([3, 1, 2], [3.5, None, 1.0], ["b", "a", "c"], [True, False]):
            for ascending in (True, False):
                encoded = _encode_sort_column(list(values), ascending)
                wrapped = [SortKey(value, ascending) for value in values]
                # Compare pairwise ordering decisions instead of sharing a
                # sort: encodings must rank every pair exactly as SortKey.
                for i in range(len(values)):
                    for j in range(len(values)):
                        assert (encoded[i] == encoded[j]) == (wrapped[i] == wrapped[j])
                        assert (encoded[i] < encoded[j]) == (wrapped[i] < wrapped[j])

    def test_not_worse_mask_follows_sortkey(self):
        values = [5.0, 1.0, 3.0, 3.0, NAN, None, float("nan")]
        batch = [{"v": value} for value in values]
        for ascending in (True, False):
            for threshold in (3.0, NAN, None):
                expected = [
                    not SortKey(threshold, ascending) < SortKey(value, ascending)
                    for value in values
                ]
                mask = _not_worse_mask(batch, "v", ascending, threshold)
                # Exact, but for a NaN newcomer against a number: ``<`` is
                # false both ways there, so it is kept for the merge to rank.
                for keep, want, value in zip(mask, expected, values):
                    assert keep == want or (keep and value != value), (threshold, value)

    def test_sorted_with_keys_matches_ordering_key_getter(self):
        rows = _rows_with_nulls()
        for columns in (["price"], ["name", "qty"], ["price", "id"]):
            keys, ordered = _sorted_with_keys(list(rows), columns)
            key_of = _ordering_key_getter(columns)
            assert ordered == sorted(rows, key=key_of)
            assert keys == [key_of(row) for row in ordered]
        assert _sorted_with_keys([], ["price"]) == ([], [])


def _database(rows):
    db = Database(buffer_pool_pages=200)
    sample = dict(rows[0], price=1.0)  # row 0's price may be NULL or NaN
    db.create_table("t", sample_row=sample, tups_per_page=16)
    db.load("t", rows)
    return db


def _priced(prices):
    return [
        {"id": i, "name": "ada", "price": price, "qty": 0}
        for i, price in enumerate(prices)
    ]


NAN = float("nan")

#: name -> (rows, ORDER BY, k): the corners of the top-k threshold prefilter.
#: Scan batches are whole 16-row pages, so every case spans many batches.
TOP_K_PREFILTER_CASES = {
    # Every row ties with the k-th on the leading key: equals are kept and
    # the arrival seq decides -- the first-seen rows win ...
    "leading_ties_first_seen_wins": (_rows_with_nulls(400), ("qty",), 90),
    # ... unless a later column prefers the newcomer.
    "leading_ties_later_column_decides": (_rows_with_nulls(400), ("qty", "-id"), 90),
    "desc_leading_ties_later_column_decides": (
        _rows_with_nulls(400),
        ("-qty", "-id"),
        90,
    ),
    # NULLs in the leading column rank by SortKey's rules (ASC last, DESC
    # first), never by `<`: NULL newcomers and a NULL k-th row both switch
    # the prefilter off.
    "nulls_asc_real_threshold": (_rows_with_nulls(400), ("price",), 7),
    "nulls_asc_null_threshold": (_rows_with_nulls(400), ("price", "id"), 350),
    "nulls_desc_null_threshold": (_rows_with_nulls(400), ("-price", "id"), 7),
    "sparse_nulls_desc_real_threshold": (
        _rows_with_nulls(400, null_share=0.02),
        ("-price",),
        20,
    ),
    "desc_string_leading": (_rows_with_nulls(400), ("-name", "id"), 9),
    "mixed_directions": (_rows_with_nulls(400), ("qty", "-name", "price"), 25),
    # Every batch beats all rows before it: the prefilter never prunes.
    "best_rows_arrive_last": (_rows_with_nulls(400), ("-id",), 13),
    "k_at_least_n": (_rows_with_nulls(400), ("-price", "name"), 400),
    "k_is_one": (_rows_with_nulls(400), ("price",), 1),
    # NaN sorts above every number and below NULL: NaNs arriving once k
    # better rows are held (kept by the prefilter, then cut), a NaN that is
    # itself the k-th row, and NaNs ranking first descending.
    "nan_newcomers": (
        _priced([float(i) if i < 40 or i % 5 else NAN for i in range(400)]),
        ("price",),
        13,
    ),
    "nan_threshold": (_priced([NAN] + [float(i) for i in range(399)]), ("price",), 1),
    "nans_and_nulls_desc": (
        _priced([None if i % 7 == 0 else NAN if i % 11 == 0 else float(i) for i in range(400)]),
        ("-price", "id"),
        80,
    ),
}


def check_exact(db, query, rows, **options):
    """Invariance, then the rows in exactly the model's order.

    ``t`` is unclustered and scanned sequentially, so the engine's input
    order is the model's (load order) and a stable sort, a first-seen group
    order or a left-to-right float sum leaves nothing to choose.
    """
    result = assert_batch_size_invariant(db, query, force="seq_scan", **options)
    expected = evaluate(query, {"t": rows})
    assert [user_columns(row) for row in result.rows] == expected.rows
    return result


class TestEndToEndColumnarParity:
    """Whole queries on shapes the columnar kernels own, with NULLs."""

    @pytest.mark.parametrize(
        "order_by", [("price",), ("-price",), ("name", "-price"), ("-name", "qty", "id")]
    )
    def test_order_by_with_nulls(self, order_by):
        rows = _rows_with_nulls(400)
        check_exact(_database(rows), Query.select("t").order_by(*order_by), rows)

    @pytest.mark.parametrize("limit", [1, 7, 100, 1000])
    def test_top_k_with_nulls_and_duplicate_keys(self, limit):
        rows = _rows_with_nulls(400)
        query = Query.select("t").order_by("-price", "name").with_limit(limit)
        check_exact(_database(rows), query, rows)

    def test_top_k_across_batch_boundaries(self):
        rows = _rows_with_nulls(400)
        query = Query.select("t").order_by("qty", "-id").with_limit(13)
        check_exact(_database(rows), query, rows, batch_sizes=(1, 7, 16, 17, 256))

    @pytest.mark.parametrize("case", TOP_K_PREFILTER_CASES)
    def test_top_k_threshold_prefilter(self, case):
        rows, order_by, limit = TOP_K_PREFILTER_CASES[case]
        db = _database(rows)
        query = Query.select("t").order_by(*order_by).with_limit(limit)
        result = check_exact(db, query, rows)
        assert len(result.rows) == min(limit, len(rows))

    @pytest.mark.parametrize(
        "aggregate",
        [
            Aggregate.count(alias="v"),
            Aggregate.sum("price", alias="v"),
            Aggregate.avg("price", alias="v"),
            Aggregate.count_distinct("price", alias="v"),
        ],
    )
    def test_grouped_aggregates_bit_identical(self, aggregate):
        # price has no NULLs here (sum over None raises); float sums must
        # equal the model's left-to-right fold bit for bit, so == not approx.
        rows = [
            {"id": i, "g": i % 7, "h": i % 3, "price": (i * 0.17) % 13.0}
            for i in range(500)
        ]
        db = Database(buffer_pool_pages=200)
        db.create_table("t", sample_row=rows[0], tups_per_page=16)
        db.load("t", rows)
        for grouping in (["g"], ["g", "h"]):
            query = Query.select("t", aggregate=aggregate).group_by(*grouping)
            check_exact(db, query, rows)

    def test_fused_projection_over_each_scan_shape(self, indexed_database, item_rows):
        for force in ("seq_scan", "sorted_index_scan", "pipelined_index_scan"):
            query = Query.select(
                "items", Between("price", 1000, 2500), projection=("itemid", "price")
            )
            result = assert_batch_size_invariant(indexed_database, query, force=force)
            assert result.rows_matched > 0
            assert all(set(row) == {"itemid", "price"} for row in result.rows)
            assert_matches_model(result, query, {"items": item_rows})


class TestSortMergeJoinVectorized:
    """The columnar merge against the model, and against the lazy merge.

    A sized pull runs the vectorized merge; the one-row-at-a-time view runs
    the lazy one (``SortMergeJoin._merge``), so batch-size invariance here
    compares two merge bodies, counters included.
    """

    def _load(self, outer, inner, samples=(None, None)):
        db = Database(buffer_pool_pages=200)
        db.create_table("outer_t", sample_row=samples[0] or outer[0], tups_per_page=16)
        db.load("outer_t", outer)
        db.create_table("inner_t", sample_row=samples[1] or inner[0], tups_per_page=16)
        db.load("inner_t", inner)
        return db, {"outer_t": outer, "inner_t": inner}

    def _check(self, db, tables, query):
        result = assert_batch_size_invariant(
            db, query, force="seq_scan", force_join="sort_merge_join"
        )
        assert result.access_method == "sort_merge_join"
        assert_matches_model(result, query, tables)
        return result

    def _random_tables(self):
        rng = random.Random(11)
        outer = [{"okey": rng.randrange(60), "opayload": i} for i in range(300)]
        inner = [{"ikey": rng.randrange(60), "ipayload": i} for i in range(120)]
        return self._load(outer, inner)

    def test_duplicate_key_cross_products(self):
        db, tables = self._random_tables()
        query = Query.select("outer_t").join("inner_t", on=("okey", "ikey"))
        assert self._check(db, tables, query).rows_matched > 0

    def test_inner_exhausted_before_outer(self):
        # Outer keys 0..49 four times each, inner keys 0..9 eight times each:
        # the merge matches ten groups (10 * 4 * 8 rows), meets the end of
        # the inner side while skipping towards key 10 -- that group's four
        # rows are counted as probes -- and never looks at keys 11..49.
        outer = [{"okey": i % 50, "opayload": i} for i in range(200)]
        inner = [{"ikey": i % 10, "ipayload": i} for i in range(80)]
        db, tables = self._load(outer, inner)
        query = Query.select("outer_t").join("inner_t", on=("okey", "ikey"))
        result = self._check(db, tables, query)
        assert result.rows_matched == 320
        assert result.join_probes == 44

    def test_empty_outer_never_reads_inner(self):
        db, tables = self._random_tables()
        query = Query.select("outer_t", Equals("okey", -1)).join(
            "inner_t", on=("okey", "ikey")
        )
        result = self._check(db, tables, query)
        assert result.rows_matched == 0
        # 300 outer rows on 16-row pages; not one inner page.
        assert result.pages_visited == 19

    def test_null_join_keys_match_like_the_model(self):
        # NULL matches no key, in the merge as in the hash and nested-loop
        # operators (and the model); NULL keys sort after every value.
        outer = [{"okey": None if i % 4 == 0 else i % 9, "o": i} for i in range(80)]
        inner = [{"ikey": None if i % 5 == 0 else i % 9, "i": i} for i in range(60)]
        db, tables = self._load(
            outer, inner, samples=({"okey": 0, "o": 0}, {"ikey": 0, "i": 0})
        )
        query = Query.select("outer_t").join("inner_t", on=("okey", "ikey"))
        result = self._check(db, tables, query)
        assert result.rows and not any(row["okey"] is None for row in result.rows)
