"""Tests for attribute bucketing (Sections 5.4 and 6.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketing import (
    IdentityBucketer,
    QuantileBucketer,
    WidthBucketer,
    assign_clustered_buckets,
    candidate_bucketings,
)


class TestIdentityBucketer:
    def test_identity(self):
        bucketer = IdentityBucketer()
        assert bucketer.bucket("Boston") == "Boston"
        assert bucketer.bucket(3.7) == 3.7
        assert bucketer.describe() == "none"

    def test_equality_and_hash(self):
        assert IdentityBucketer() == IdentityBucketer()
        assert len({IdentityBucketer(), IdentityBucketer()}) == 1


class TestWidthBucketer:
    def test_truncation_to_lower_bound(self):
        bucketer = WidthBucketer(1.0)
        assert bucketer.bucket(12.3) == 12.0
        assert bucketer.bucket(12.7) == 12.0
        assert bucketer.bucket(14.4) == 14.0

    def test_paper_temperature_example(self):
        """The Section 5.4 example: 1-degree buckets merge 12.3 and 12.7."""
        bucketer = WidthBucketer(1.0)
        assert bucketer.bucket(12.3) == bucketer.bucket(12.7)
        assert bucketer.bucket(12.3) != bucketer.bucket(14.4)

    def test_origin_offsets_buckets(self):
        bucketer = WidthBucketer(10, origin=5)
        assert bucketer.bucket(5) == 5
        assert bucketer.bucket(14.9) == 5
        assert bucketer.bucket(15) == 15

    def test_negative_values(self):
        bucketer = WidthBucketer(10)
        assert bucketer.bucket(-1) == -10
        assert bucketer.bucket(-10) == -10
        assert bucketer.bucket(-11) == -20

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            WidthBucketer(0)

    def test_equality(self):
        assert WidthBucketer(8) == WidthBucketer(8)
        assert WidthBucketer(8) != WidthBucketer(16)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
        st.integers(1, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_bucket_is_lower_bound(self, value, width):
        bucketer = WidthBucketer(width)
        key = bucketer.bucket(value)
        assert key <= value < key + width


class TestQuantileBucketer:
    def test_from_sample_equal_counts(self):
        values = list(range(100))
        bucketer = QuantileBucketer.from_sample(values, 4)
        buckets = [bucketer.bucket(v) for v in values]
        counts = {b: buckets.count(b) for b in set(buckets)}
        assert len(counts) == 4
        assert all(20 <= c <= 30 for c in counts.values())

    def test_skewed_sample_gets_variable_widths(self):
        values = [1] * 50 + list(range(2, 52))
        bucketer = QuantileBucketer.from_sample(values, 5)
        # The heavy value 1 gets (at least) a bucket of its own; the tail of
        # rare values is spread over the remaining buckets.
        assert bucketer.bucket(1) != bucketer.bucket(51)
        assert bucketer.num_buckets >= 3

    def test_empty_sample(self):
        bucketer = QuantileBucketer.from_sample([], 4)
        assert bucketer.bucket(42) == 0

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            QuantileBucketer.from_sample([1, 2], 0)


class TestCandidateBucketings:
    def test_few_valued_attribute_only_identity(self):
        """Table 4: 'mode' (3 values) is offered without bucketing."""
        options = candidate_bucketings("mode", [1, 2, 3] * 10)
        assert [o.level for o in options] == [0]

    def test_many_valued_numeric_attribute_gets_levels(self):
        """Table 4: psfMag_g (196k values) gets bucket widths 2^2 ~ 2^16."""
        values = [i * 0.01 for i in range(20_000)]
        options = candidate_bucketings("psfMag_g", values)
        levels = [o.level for o in options if o.level > 0]
        assert min(levels) == 1
        assert max(levels) >= 12
        # Every option keeps the bucket count within the configured range.
        for option in options:
            if option.level > 0:
                assert 4 <= option.estimated_buckets <= 2 ** 16

    def test_levels_scale_exponentially(self):
        """The paper's example: a 100-value column considers 2^1 ... 2^5.

        (2^6 = 64 values per bucket would yield fewer than 4 buckets.)
        """
        values = list(range(100))
        options = candidate_bucketings("x", values)
        levels = [o.level for o in options if o.level > 0]
        assert levels == [1, 2, 3, 4, 5]

    def test_non_numeric_attribute_only_identity(self):
        options = candidate_bucketings("city", [f"city{i}" for i in range(1000)])
        assert [o.level for o in options] == [0]

    def test_nan_counts_once_and_null_not_at_all(self):
        """Distinct values follow the value order: two numbers and any number
        of NaN objects are three values, so the column stays unbucketed."""
        nans = [float("nan") for _ in range(5)]
        options = candidate_bucketings("a", [0.0, 1.0] + nans + [None, None])
        assert [(o.level, o.estimated_buckets) for o in options] == [(0, 3)]

    def test_null_and_nan_stay_out_of_the_numeric_span(self):
        values = [float(i) for i in range(100)]
        plain = candidate_bucketings("x", values)
        options = candidate_bucketings("x", values + [None, float("nan")] * 10)
        # One more distinct value (the NaN), the same 100-value span.
        assert [o.level for o in options] == [o.level for o in plain]
        for option, reference in zip(options[1:], plain[1:]):
            assert option.bucketer.origin == 0.0
            assert option.bucketer.width == reference.bucketer.width

    def test_all_null_column_is_offered_unbucketed(self):
        options = candidate_bucketings("x", [None] * 10)
        assert [(o.level, o.estimated_buckets) for o in options] == [(0, 1)]

    def test_strings_beside_nan_stay_unbucketed(self):
        """A NaN among strings neither breaks the distinct count nor makes
        the column numeric."""
        values = [f"city{i}" for i in range(100)] + [float("nan")] * 3
        options = candidate_bucketings("city", values)
        assert [(o.level, o.estimated_buckets) for o in options] == [(0, 101)]

    def test_constant_attribute(self):
        options = candidate_bucketings("x", [7] * 50)
        assert [o.level for o in options] == [0]

    def test_describe(self):
        options = candidate_bucketings("x", list(range(100)))
        assert options[0].describe() == "none"
        assert options[1].describe() == "2^1"


class TestClusteredBucketing:
    def test_rejects_non_positive_bucket_size(self):
        with pytest.raises(ValueError):
            assign_clustered_buckets([1, 2, 3], 0)

    def test_empty_input(self):
        ids, buckets = assign_clustered_buckets([], 10)
        assert ids == []
        assert buckets == []

    def test_simple_even_split(self):
        keys = [1, 1, 2, 2, 3, 3]
        ids, buckets = assign_clustered_buckets(keys, 2)
        assert ids == [0, 0, 1, 1, 2, 2]
        assert len(buckets) == 3
        assert (buckets[0].first_row, buckets[0].last_row) == (0, 1)

    def test_value_never_straddles_buckets(self):
        """Section 6.1.1: a clustered value must stay within one bucket."""
        keys = [1, 1, 1, 1, 1, 2, 2, 3]
        ids, buckets = assign_clustered_buckets(keys, 2)
        # All five 1s stay in bucket 0 even though the target size is 2.
        assert ids[:5] == [0] * 5
        assert ids[5] == 1
        by_value = {}
        for key, bucket_id in zip(keys, ids):
            by_value.setdefault(key, set()).add(bucket_id)
        assert all(len(bucket_ids) == 1 for bucket_ids in by_value.values())

    def test_bucket_descriptors_cover_all_rows(self):
        keys = sorted([i // 3 for i in range(100)])
        ids, buckets = assign_clustered_buckets(keys, 7)
        covered = []
        for bucket in buckets:
            covered.extend(range(bucket.first_row, bucket.last_row + 1))
        assert covered == list(range(100))
        assert [ids[b.first_row] for b in buckets] == [b.bucket_id for b in buckets]

    def test_bucket_ids_are_consecutive(self):
        keys = sorted([i % 50 for i in range(500)])
        ids, buckets = assign_clustered_buckets(keys, 13)
        assert ids == sorted(ids)
        assert [b.bucket_id for b in buckets] == list(range(len(buckets)))

    def test_num_rows_property(self):
        keys = [1, 1, 2, 3]
        _ids, buckets = assign_clustered_buckets(keys, 10)
        assert buckets[0].num_rows == 4

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_invariants(self, raw_keys, bucket_size):
        keys = sorted(raw_keys)
        ids, buckets = assign_clustered_buckets(keys, bucket_size)
        assert len(ids) == len(keys)
        # Bucket ids are non-decreasing and consecutive starting at zero.
        assert ids == sorted(ids)
        assert set(ids) == set(range(len(buckets)))
        # No clustered value appears in two buckets.
        value_to_buckets = {}
        for key, bucket_id in zip(keys, ids):
            value_to_buckets.setdefault(key, set()).add(bucket_id)
        assert all(len(s) == 1 for s in value_to_buckets.values())
        # Buckets reach the target size unless cut short by a value boundary
        # or the end of the table.
        for bucket in buckets[:-1]:
            next_key = keys[bucket.last_row + 1]
            assert bucket.num_rows >= bucket_size or keys[bucket.last_row] != next_key
