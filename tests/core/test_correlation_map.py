"""Tests for the Correlation Map data structure (Section 5)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketing import IdentityBucketer, WidthBucketer
from repro.core.composite import CompositeKeySpec, ValueConstraint
from repro.core.correlation_map import CorrelationMap


def city_cm():
    """The Figure 4 example CM on city with clustered attribute state."""
    rows = [
        {"city": "Boston", "state": "MA"},
        {"city": "Boston", "state": "MA"},
        {"city": "Boston", "state": "NH"},
        {"city": "Cambridge", "state": "MA"},
        {"city": "Manchester", "state": "NH"},
        {"city": "Manchester", "state": "MN"},
        {"city": "Springfield", "state": "MA"},
        {"city": "Springfield", "state": "OH"},
        {"city": "Toledo", "state": "OH"},
        {"city": "Jackson", "state": "MS"},
    ]
    cm = CorrelationMap("cm_city", CompositeKeySpec.build(["city"]), "state")
    cm.build(rows)
    return cm, rows


class TestBuildAndLookup:
    def test_figure4_mapping(self):
        cm, _rows = city_cm()
        assert cm.lookup({"city": "Boston"}) == ["MA", "NH"]
        assert cm.lookup({"city": "Springfield"}) == ["MA", "OH"]
        assert cm.lookup({"city": "Toledo"}) == ["OH"]

    def test_lookup_of_multiple_values_unions_targets(self):
        """Figure 4 query: city = 'Boston' OR city = 'Springfield'."""
        cm, _rows = city_cm()
        targets = cm.lookup([{"city": "Boston"}, {"city": "Springfield"}])
        assert targets == ["MA", "NH", "OH"]

    def test_lookup_of_unknown_value_is_empty(self):
        cm, _rows = city_cm()
        assert cm.lookup({"city": "Lyon"}) == []

    def test_co_occurrence_counts(self):
        cm, _rows = city_cm()
        assert cm.co_occurrence_count(("Boston",), "MA") == 2
        assert cm.co_occurrence_count(("Boston",), "NH") == 1
        assert cm.co_occurrence_count(("Boston",), "OH") == 0

    def test_distinct_keys_and_entries(self):
        cm, _rows = city_cm()
        assert cm.distinct_keys == 6
        assert cm.total_entries == 9  # unique (city, state) pairs
        assert cm.total_rows_represented == 10

    def test_measured_c_per_u(self):
        cm, _rows = city_cm()
        assert cm.measured_c_per_u() == pytest.approx(9 / 6)


class TestMaintenance:
    def test_insert_adds_target(self):
        cm, _rows = city_cm()
        cm.insert({"city": "Boston", "state": "OH"})
        assert cm.lookup({"city": "Boston"}) == ["MA", "NH", "OH"]

    def test_delete_decrements_and_removes_at_zero(self):
        """Algorithm 1's deletion counts: Boston->MA has count 2."""
        cm, _rows = city_cm()
        assert cm.delete({"city": "Boston", "state": "MA"})
        assert cm.lookup({"city": "Boston"}) == ["MA", "NH"]
        assert cm.delete({"city": "Boston", "state": "MA"})
        assert cm.lookup({"city": "Boston"}) == ["NH"]

    def test_delete_removes_key_when_empty(self):
        cm, _rows = city_cm()
        cm.delete({"city": "Jackson", "state": "MS"})
        assert cm.lookup({"city": "Jackson"}) == []
        assert ("Jackson",) not in cm.keys()

    def test_delete_of_absent_row_returns_false(self):
        cm, _rows = city_cm()
        assert not cm.delete({"city": "Lyon", "state": "FR"})
        assert not cm.delete({"city": "Boston", "state": "TX"})

    def test_update_is_delete_plus_insert(self):
        cm, _rows = city_cm()
        cm.update(
            {"city": "Toledo", "state": "OH"}, {"city": "Toledo", "state": "ES"}
        )
        assert cm.lookup({"city": "Toledo"}) == ["ES"]

    def test_build_then_delete_everything_leaves_empty_map(self):
        cm, rows = city_cm()
        for row in rows:
            assert cm.delete(row)
        assert cm.distinct_keys == 0
        assert cm.total_entries == 0
        assert cm.total_rows_represented == 0


class TestMaintenanceEdgeCases:
    """Algorithm 1 corner cases: unrepresented deletes, cross-bucket moves,
    and count-reaches-zero eviction of targets and keys."""

    def test_delete_of_unrepresented_row_leaves_map_untouched(self):
        cm, _rows = city_cm()
        keys_before = sorted(cm.keys())
        entries_before = cm.total_entries
        rows_before = cm.total_rows_represented
        # Unknown key, and known key with an unrepresented target.
        assert not cm.delete({"city": "Lyon", "state": "FR"})
        assert not cm.delete({"city": "Boston", "state": "TX"})
        assert sorted(cm.keys()) == keys_before
        assert cm.total_entries == entries_before
        assert cm.total_rows_represented == rows_before
        assert cm.co_occurrence_count(("Boston",), "MA") == 2

    def test_count_reaches_zero_evicts_target_but_not_key(self):
        cm, _rows = city_cm()
        # Boston -> {MA: 2, NH: 1}; dropping NH evicts the target only.
        assert cm.delete({"city": "Boston", "state": "NH"})
        assert cm.lookup({"city": "Boston"}) == ["MA"]
        assert ("Boston",) in cm.keys()
        assert cm.co_occurrence_count(("Boston",), "NH") == 0

    def test_count_reaches_zero_evicts_key_when_last_target_goes(self):
        cm, _rows = city_cm()
        assert cm.delete({"city": "Jackson", "state": "MS"})
        assert ("Jackson",) not in cm.keys()
        # A later insert resurrects the key cleanly.
        cm.insert({"city": "Jackson", "state": "TN"})
        assert cm.lookup({"city": "Jackson"}) == ["TN"]
        assert cm.co_occurrence_count(("Jackson",), "TN") == 1

    def test_update_moving_row_across_clustered_bucket_boundary(self):
        """An update that changes the clustered target (Section 5.1): the old
        bucket's count decrements (evicting at zero) and the new bucket's
        increments -- exactly a delete followed by an insert."""
        rows = [
            {"price": 10.0, "bucket": 0},
            {"price": 10.0, "bucket": 0},
            {"price": 20.0, "bucket": 1},
        ]
        cm = CorrelationMap(
            "cm",
            CompositeKeySpec.build(["price"]),
            "bucket",
            target_of=lambda row: row["bucket"],
        ).build(rows)
        assert cm.lookup({"price": 10.0}) == [0]
        # Move one price=10 row from bucket 0 to bucket 2.
        cm.update({"price": 10.0, "bucket": 0}, {"price": 10.0, "bucket": 2})
        assert cm.lookup({"price": 10.0}) == [0, 2]
        assert cm.co_occurrence_count((10.0,), 0) == 1
        # Move the second one too: bucket 0 is evicted from the key.
        cm.update({"price": 10.0, "bucket": 0}, {"price": 10.0, "bucket": 2})
        assert cm.lookup({"price": 10.0}) == [2]
        assert cm.co_occurrence_count((10.0,), 2) == 2


class TestBucketedCM:
    def test_bucketing_both_sides_section54_example(self):
        """The temperature/humidity example of Section 5.4."""
        pairs = [
            (12.3, 17.5), (12.3, 18.3),
            (12.7, 18.9), (12.7, 20.1),
            (14.4, 20.7), (14.4, 22.0),
            (14.9, 21.3), (14.9, 22.2),
            (17.8, 25.6), (17.8, 25.9),
        ]
        rows = [{"temperature": t, "humidity": h} for t, h in pairs]
        cm = CorrelationMap(
            "cm_temp",
            CompositeKeySpec.build(
                ["temperature"], {"temperature": WidthBucketer(1.0)}
            ),
            "humidity",
            target_of=lambda row, b=WidthBucketer(1.0): b.bucket(row["humidity"]),
        )
        cm.build(rows)
        assert cm.lookup({"temperature": 12.5}) == [17.0, 18.0, 20.0]
        assert cm.lookup({"temperature": 14.0}) == [20.0, 21.0, 22.0]
        assert cm.lookup({"temperature": 17.9}) == [25.0]
        # Bucketing shrinks the key count from 5 values to 3 buckets.
        assert cm.distinct_keys == 3

    def test_bucketing_reduces_size(self):
        rng = random.Random(0)
        # Price is correlated with the category (the eBay data set's soft FD).
        rows = []
        for _ in range(5000):
            price = rng.uniform(0, 10_000)
            rows.append({"price": price, "cat": int(price // 100)})
        fine = CorrelationMap(
            "fine", CompositeKeySpec.build(["price"]), "cat"
        ).build(rows)
        coarse = CorrelationMap(
            "coarse",
            CompositeKeySpec.build(["price"], {"price": WidthBucketer(500)}),
            "cat",
        ).build(rows)
        assert coarse.size_bytes() < fine.size_bytes() / 10

    def test_range_lookup_on_bucketed_key(self):
        rows = [{"price": float(i), "cat": i // 10} for i in range(100)]
        cm = CorrelationMap(
            "cm_price",
            CompositeKeySpec.build(["price"], {"price": WidthBucketer(10)}),
            "cat",
        ).build(rows)
        targets = cm.lookup_constraints({"price": ValueConstraint.between(25, 44)})
        assert targets == [2, 3, 4]

    def test_target_of_override(self):
        rows = [{"u": i % 5, "c": i, "bucket": i // 10} for i in range(50)]
        cm = CorrelationMap(
            "cm",
            CompositeKeySpec.build(["u"]),
            "c",
            target_of=lambda row: row["bucket"],
        ).build(rows)
        assert cm.lookup({"u": 0}) == [0, 1, 2, 3, 4]


class TestCompositeCM:
    def test_composite_lookup_exact(self):
        rows = [
            {"ra": 1.0, "dec": 1.0, "objid": 10},
            {"ra": 1.0, "dec": 2.0, "objid": 20},
            {"ra": 2.0, "dec": 1.0, "objid": 30},
        ]
        cm = CorrelationMap(
            "cm_radec", CompositeKeySpec.build(["ra", "dec"]), "objid"
        ).build(rows)
        assert cm.lookup({"ra": 1.0, "dec": 2.0}) == [20]

    def test_composite_constraint_lookup_with_ranges(self):
        rows = []
        for ra in range(10):
            for dec in range(10):
                rows.append({"ra": float(ra), "dec": float(dec), "objid": ra * 10 + dec})
        cm = CorrelationMap(
            "cm_radec",
            CompositeKeySpec.build(
                ["ra", "dec"], {"ra": WidthBucketer(2), "dec": WidthBucketer(2)}
            ),
            "objid",
        ).build(rows)
        targets = cm.lookup_constraints(
            {
                "ra": ValueConstraint.between(2.0, 3.0),
                "dec": ValueConstraint.between(4.0, 5.0),
            }
        )
        assert targets == [24, 25, 34, 35]

    def test_partially_constrained_composite_key(self):
        rows = [
            {"ra": 1.0, "dec": 1.0, "objid": 10},
            {"ra": 1.0, "dec": 2.0, "objid": 20},
            {"ra": 2.0, "dec": 1.0, "objid": 30},
        ]
        cm = CorrelationMap(
            "cm_radec", CompositeKeySpec.build(["ra", "dec"]), "objid"
        ).build(rows)
        targets = cm.lookup_constraints({"ra": ValueConstraint.equals(1.0)})
        assert targets == [10, 20]


class TestSizeAccounting:
    def test_cm_much_smaller_than_dense_structure(self):
        """A CM stores value pairs, not tuples: duplicates collapse."""
        rng = random.Random(1)
        rows = [
            {"cat5": f"cat{rng.randrange(200)}", "catid": rng.randrange(50)}
            for _ in range(20_000)
        ]
        cm = CorrelationMap(
            "cm", CompositeKeySpec.build(["cat5"]), "catid"
        ).build(rows)
        dense_entries = len(rows)
        assert cm.total_entries < dense_entries / 2
        assert cm.size_bytes() < dense_entries * 20 / 2

    def test_stats_summary(self):
        cm, _rows = city_cm()
        stats = cm.stats()
        assert stats.distinct_keys == 6
        assert stats.total_entries == 9
        assert stats.max_targets_per_key == 2
        assert stats.avg_targets_per_key == pytest.approx(1.5)
        assert stats.size_bytes == cm.size_bytes()

    def test_size_pages(self):
        cm, _rows = city_cm()
        assert cm.size_pages() == 1

    def test_describe(self):
        cm, _rows = city_cm()
        assert "city" in cm.describe()
        assert "state" in cm.describe()


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 10)),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_lookup_matches_reference(self, pairs):
        """CM lookups agree with a brute-force co-occurrence computation."""
        rows = [{"u": u, "c": c} for u, c in pairs]
        cm = CorrelationMap("cm", CompositeKeySpec.build(["u"]), "c").build(rows)
        reference: dict[int, set[int]] = {}
        for u, c in pairs:
            reference.setdefault(u, set()).add(c)
        for u, targets in reference.items():
            assert cm.lookup({"u": u}) == sorted(targets)
        assert cm.total_rows_represented == len(rows)

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 5)),
            min_size=1,
            max_size=200,
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_insert_delete_roundtrip(self, pairs, data):
        """Deleting the same multiset of rows that was inserted empties the CM."""
        rows = [{"u": u, "c": c} for u, c in pairs]
        cm = CorrelationMap("cm", CompositeKeySpec.build(["u"]), "c").build(rows)
        order = data.draw(st.permutations(range(len(rows))))
        for index in order:
            assert cm.delete(rows[index])
        assert cm.distinct_keys == 0
        assert cm.total_entries == 0
