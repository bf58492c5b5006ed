"""Tests for correlation-statistics collection (Section 4.2)."""

import random

import pytest

from repro.core.bucketing import WidthBucketer
from repro.core.composite import CompositeKeySpec
from repro.core.statistics import (
    StatisticsCollector,
    c_per_u_from_cardinalities,
    exact_c_per_u,
)


def city_state_rows():
    """The paper's running example: city soft-determines state."""
    pairs = [
        ("Boston", "MA"),
        ("Boston", "MA"),
        ("Boston", "NH"),
        ("Springfield", "MA"),
        ("Springfield", "OH"),
        ("Cambridge", "MA"),
        ("Toledo", "OH"),
        ("Jackson", "MS"),
        ("Manchester", "NH"),
        ("Manchester", "MN"),
    ]
    return [{"city": c, "state": s, "salary": i} for i, (c, s) in enumerate(pairs)]


def test_c_per_u_from_cardinalities():
    assert c_per_u_from_cardinalities(distinct_uc=9, distinct_u=6) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        c_per_u_from_cardinalities(1, 0)


def test_exact_correlation_profile_city_state():
    collector = StatisticsCollector(city_state_rows())
    profile = collector.correlation_profile("city", "state")
    # 9 distinct (city, state) pairs over 6 distinct cities.
    assert profile.c_per_u == pytest.approx(9 / 6)
    # 10 rows over 5 states and 6 cities.
    assert profile.c_tups == pytest.approx(10 / 5)
    assert profile.u_tups == pytest.approx(10 / 6)


def test_perfect_functional_dependency_has_c_per_u_one():
    rows = [{"zip": i, "state": "MA" if i < 50 else "NH"} for i in range(100)]
    collector = StatisticsCollector(rows)
    assert collector.correlation_profile("zip", "state").c_per_u == pytest.approx(1.0)


def test_uncorrelated_attributes_have_high_c_per_u():
    rng = random.Random(0)
    rows = [{"a": rng.randrange(20), "b": rng.randrange(20)} for _ in range(5000)]
    collector = StatisticsCollector(rows)
    profile = collector.correlation_profile("a", "b")
    # Nearly every (a, b) combination appears: c_per_u approaches |b| = 20.
    assert profile.c_per_u > 15


def test_composite_key_is_stronger_determinant():
    """(city, state) determines zip better than city alone (Section 1)."""
    rows = []
    for i in range(200):
        state = "MA" if i % 2 == 0 else "OH"
        rows.append({"city": "Springfield", "state": state, "zip": f"{state}-1"})
    rows += [{"city": f"c{i}", "state": "MA", "zip": f"z{i}"} for i in range(50)]
    collector = StatisticsCollector(rows)
    single = collector.correlation_profile("city", "zip")
    composite = collector.correlation_profile(
        CompositeKeySpec.build(["city", "state"]), "zip"
    )
    assert composite.c_per_u < single.c_per_u


def test_bucketed_key_reduces_distinct_count_not_below_targets():
    rows = [{"price": float(i), "cat": i // 100} for i in range(1000)]
    collector = StatisticsCollector(rows)
    bucketed = CompositeKeySpec.build(["price"], {"price": WidthBucketer(100)})
    profile = collector.correlation_profile(bucketed, "cat")
    # Buckets align exactly with categories: perfect correlation.
    assert profile.c_per_u == pytest.approx(1.0)
    unbucketed = collector.correlation_profile("price", "cat")
    assert unbucketed.c_per_u == pytest.approx(1.0)
    assert len({bucketed.key_of(row) for row in rows}) == 10


def test_estimated_profile_matches_exact_on_strong_correlation():
    rng = random.Random(5)
    rows = []
    for i in range(20_000):
        c = rng.randrange(500)
        rows.append({"u": c * 2 + rng.randrange(2), "c": c})
    collector = StatisticsCollector(rows)
    exact = collector.correlation_profile("u", "c")
    sample = collector.collect_sample(sample_size=5000, seed=2)
    estimated = collector.estimated_correlation_profile("u", "c", sample)
    assert exact.c_per_u == pytest.approx(1.0)
    assert estimated.c_per_u < 2.5


def test_estimated_profile_reuses_provided_sample():
    rows = [{"u": i % 10, "c": i % 5} for i in range(1000)]
    collector = StatisticsCollector(rows)
    sample = collector.collect_sample(sample_size=200, seed=7)
    a = collector.estimated_correlation_profile("u", "c", sample)
    b = collector.estimated_correlation_profile("u", "c", sample)
    assert a == b


def test_estimated_profile_defaults_to_the_collected_sample():
    rng = random.Random(4)
    rows = [{"u": rng.randrange(500), "c": rng.randrange(50)} for _ in range(40_000)]
    collector = StatisticsCollector(rows)
    default = collector.estimated_correlation_profile("u", "c")
    assert default == collector.estimated_correlation_profile(
        "u", "c", collector.collect_sample()
    )
    assert default != collector.estimated_correlation_profile(
        "u", "c", collector.collect_sample(seed=1)
    )


def test_empty_rows_profile_is_zero():
    collector = StatisticsCollector([])
    profile = collector.correlation_profile("a", "b")
    assert profile.c_per_u == 0.0
    assert collector.total_rows == 0


def test_exact_c_per_u_helper():
    rows = city_state_rows()
    assert exact_c_per_u(rows, "city", "state") == pytest.approx(9 / 6)
    assert exact_c_per_u([], "city", "state") == 0.0


class TestDeleteHeavyBoundsRebuild:
    """`observe_delete` churn must re-tighten per-attribute min/max."""

    def _stats(self, threshold):
        from repro.core.statistics import IncrementalTableStatistics

        return IncrementalTableStatistics(
            sample_capacity=10_000, bounds_rebuild_deletes=threshold
        )

    def test_bounds_tighten_after_enough_deletes(self):
        stats = self._stats(threshold=50)
        rows = [{"v": i} for i in range(1000)]
        for row in rows:
            stats.observe_insert(row)
        assert stats.attribute_range("v") == (0, 999)
        # Delete the top half; the 500th delete crosses the threshold well
        # past the removed maximum, so the bounds come back from the sample.
        for row in rows[500:]:
            stats.observe_delete(row)
        assert stats.attribute_range("v") == (0, 499)
        assert stats.total_rows == 500

    def test_bounds_stay_wide_below_the_threshold(self):
        stats = self._stats(threshold=100)
        rows = [{"v": i} for i in range(200)]
        for row in rows:
            stats.observe_insert(row)
        for row in rows[150:]:  # 50 deletes < threshold
            stats.observe_delete(row)
        # Conservatively wide until enough churn accumulates.
        assert stats.attribute_range("v") == (0, 199)

    def test_inserts_after_rebuild_keep_widening(self):
        stats = self._stats(threshold=10)
        rows = [{"v": i} for i in range(100)]
        for row in rows:
            stats.observe_insert(row)
        for row in rows[90:]:
            stats.observe_delete(row)
        assert stats.attribute_range("v") == (0, 89)
        stats.observe_insert({"v": 500})
        assert stats.attribute_range("v") == (0, 500)

    def test_subsampled_reservoir_keeps_conservative_bounds(self):
        # With an incomplete sample the reservoir's extremes can lie strictly
        # inside the live domain; rebuilding from it would flip the safe
        # over-estimate into an under-estimate, so the rebuild must not fire.
        from repro.core.statistics import IncrementalTableStatistics

        stats = IncrementalTableStatistics(
            sample_capacity=100, bounds_rebuild_deletes=50
        )
        rows = [{"v": i} for i in range(10_000)]
        for row in rows:
            stats.observe_insert(row)
        assert not stats.sample_is_complete
        for row in rows[4_000:4_200]:  # interior deletes only
            stats.observe_delete(row)
        # 0 and 9999 are both still live; the bounds must not clip inward.
        assert stats.attribute_range("v") == (0, 9_999)

    def test_rebuild_threshold_validation(self):
        import pytest as _pytest

        from repro.core.statistics import IncrementalTableStatistics

        with _pytest.raises(ValueError):
            IncrementalTableStatistics(bounds_rebuild_deletes=0)

    def test_between_lookup_estimate_tracks_a_shrinking_domain(self):
        """The planner's range lookup count follows the rebuilt bounds."""
        from repro.engine.database import Database
        from repro.engine.predicates import Between
        from repro.engine.query import Query

        db = Database(buffer_pool_pages=200, stats_sample_size=10_000)
        db.create_table("t", columns=["k", "v"], tups_per_page=20)
        db.load("t", [{"k": i, "v": i % 7} for i in range(1000)])
        db.cluster("t", "k")
        table = db.table("t")
        table.statistics.bounds_rebuild_deletes = 50
        query = Query.select("t", Between("k", 0, 99))

        before = db.planner._estimate_n_lookups(table, query.predicates, ["k"])
        db.delete("t", [Between("k", 500, 999)])
        after = db.planner._estimate_n_lookups(table, query.predicates, ["k"])
        # The rebuilt bounds shrink the assumed domain to the live one, so
        # the 100-wide window keeps estimating ~100 predicated values.  With
        # the stale (0, 999) bounds the halved cardinality would cut the
        # estimate to ~50 -- the systematic mis-estimate this fix removes.
        assert table.attribute_range("k") == (0, 499)
        assert 90 <= before <= 110
        assert 90 <= after <= 110


class TestNullAndNaNBounds:
    """NULL and NaN have no place on the number line, so neither moves a
    min/max bound, on either insert path or in the rebuild after deletes."""

    ROWS = [
        {"v": 3.0},
        {"v": float("nan")},
        {"v": None},
        {"v": -1.5},
        {"v": float("nan")},
        {"v": 7.25},
    ]

    @pytest.mark.parametrize("bulk", [False, True], ids=["row_at_a_time", "bulk"])
    def test_nan_and_null_move_no_bound(self, bulk):
        from repro.core.statistics import IncrementalTableStatistics

        stats = IncrementalTableStatistics()
        if bulk:
            stats.observe_rows(self.ROWS)
        else:
            for row in self.ROWS:
                stats.observe_insert(row)
        assert stats.attribute_range("v") == (-1.5, 7.25)

    def test_a_column_of_only_nan_and_null_has_no_range(self):
        from repro.core.statistics import IncrementalTableStatistics

        stats = IncrementalTableStatistics()
        stats.observe_rows([{"v": float("nan")}, {"v": None}])
        stats.observe_insert({"v": float("nan")})
        assert stats.attribute_range("v") is None
        stats.observe_insert({"v": 4})
        assert stats.attribute_range("v") == (4, 4)

    def test_bounds_rebuilt_after_deletes_skip_nan(self):
        from repro.core.statistics import IncrementalTableStatistics

        stats = IncrementalTableStatistics(
            sample_capacity=10_000, bounds_rebuild_deletes=10
        )
        rows = [{"v": float(i)} for i in range(100)]
        nan_row = {"v": float("nan")}
        stats.observe_rows(rows + [nan_row])
        for row in rows[90:]:
            stats.observe_delete(row)
        # The rebuild reads the complete sample, NaN row included.
        assert stats.attribute_range("v") == (0.0, 89.0)
        stats.observe_delete(nan_row)
        assert stats.attribute_range("v") == (0.0, 89.0)
        assert stats.total_rows == 90
