"""Tests for the CM Advisor (Section 6)."""

import random

import pytest

from repro.core.advisor import CMAdvisor, CMDesign, TrainingQuery
from repro.core.composite import CompositeKeySpec, ValueConstraint
from repro.core.model import TableProfile
from repro.datasets.sdss import SDSSConfig, generate_photoobj
from repro.datasets.workloads import sdss_sx6_training_query


def correlated_rows(n=20_000, seed=0):
    """price soft-determines catid; zipcode needs (longitude, latitude)."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        price = rng.uniform(0, 100_000)
        catid = int(price // 1000)
        longitude = rng.uniform(-100, -70)
        latitude = rng.uniform(30, 45)
        zipcode = int((longitude + 100) // 2) * 100 + int((latitude - 30) // 1)
        rows.append(
            {
                "itemid": i,
                "catid": catid,
                "price": price,
                "longitude": longitude,
                "latitude": latitude,
                "zipcode": zipcode,
                "noise": rng.randrange(5000),
            }
        )
    return rows


@pytest.fixture(scope="module")
def rows():
    return correlated_rows()


@pytest.fixture(scope="module")
def advisor(rows):
    # The rows are treated as a sample of a 100x larger deployed table (the
    # paper's advisor likewise works from a sample plus catalog statistics).
    return CMAdvisor(
        rows,
        "catid",
        table_profile=TableProfile(total_tups=100 * len(rows), tups_per_page=100),
        sample_size=5_000,
        seed=1,
    )


def test_requires_rows():
    with pytest.raises(ValueError):
        CMAdvisor([], "catid")


class TestBucketingEnumeration:
    def test_few_valued_attribute_unbucketed(self, advisor):
        options = advisor.bucketing_candidates("catid")
        assert [o.level for o in options][0] == 0

    def test_many_valued_attribute_gets_levels(self, advisor):
        options = advisor.bucketing_candidates("price")
        levels = [o.level for o in options]
        assert 0 in levels
        assert max(levels) >= 8

    def test_bucketing_report_table4_shape(self, advisor):
        report = advisor.bucketing_report(["catid", "price", "noise"])
        assert [row["column"] for row in report] == ["catid", "price", "noise"]
        price_row = next(row for row in report if row["column"] == "price")
        assert price_row["cardinality"] > 10_000
        assert price_row["bucket_levels"]
        catid_row = next(row for row in report if row["column"] == "catid")
        assert catid_row["bucket_widths"].startswith("none")


class TestCandidateEnumeration:
    def test_single_attribute_query(self, advisor):
        query = TrainingQuery.over_attributes("price")
        candidates = advisor.enumerate_candidates(query)
        assert all(spec.attributes == ("price",) for spec in candidates)
        assert len(candidates) > 3  # identity plus several bucket levels

    def test_composite_query_includes_subsets_and_combinations(self, advisor):
        query = TrainingQuery.over_attributes("longitude", "latitude")
        candidates = advisor.enumerate_candidates(query)
        attribute_sets = {spec.attributes for spec in candidates}
        assert ("latitude",) in attribute_sets
        assert ("longitude",) in attribute_sets
        assert ("latitude", "longitude") in attribute_sets or (
            "longitude", "latitude",
        ) in attribute_sets

    def test_clustered_attribute_excluded(self, advisor):
        query = TrainingQuery.over_attributes("catid", "price")
        candidates = advisor.enumerate_candidates(query)
        assert all("catid" not in spec.attributes for spec in candidates)

    def test_candidate_cap_respected(self, rows):
        advisor = CMAdvisor(rows, "catid", sample_size=2000)
        # Four many-valued attributes offer ~10 bucketings each, so their
        # subsets up to four attributes exceed the cap of 2 048 candidates.
        query = TrainingQuery.over_attributes("price", "longitude", "latitude", "noise")
        assert len(advisor.enumerate_candidates(query)) == 2048

    def test_unselective_predicates_pruned(self, rows):
        advisor = CMAdvisor(rows, "catid", sample_size=2000)
        # A predicate over a one-valued attribute selects the whole table,
        # more than the half the selectivity threshold allows, and is pruned.
        for row in rows:
            row["flag"] = 0
        try:
            query = TrainingQuery.over_attributes("flag", "price")
            candidates = advisor.enumerate_candidates(query)
            assert all("flag" not in spec.attributes for spec in candidates)
        finally:
            for row in rows:
                row.pop("flag", None)


class TestDesignEvaluation:
    def test_correlated_design_has_low_c_per_u(self, advisor):
        design = advisor.evaluate_design(CompositeKeySpec.build(["price"]))
        assert design.estimated_c_per_u < 3.0
        assert design.estimated_size_bytes > 0
        assert design.baseline_size_bytes > design.estimated_size_bytes

    def test_uncorrelated_design_has_high_c_per_u(self, advisor):
        correlated = advisor.evaluate_design(CompositeKeySpec.build(["price"]))
        uncorrelated = advisor.evaluate_design(CompositeKeySpec.build(["noise"]))
        assert uncorrelated.estimated_c_per_u > 3 * correlated.estimated_c_per_u

    def test_bucketing_shrinks_estimated_size(self, advisor):
        options = advisor.bucketing_candidates("price")
        coarse = next(o for o in options if o.level == max(opt.level for opt in options))
        bucketed = advisor.evaluate_design(
            CompositeKeySpec.build(["price"], {"price": coarse.bucketer})
        )
        unbucketed = advisor.evaluate_design(CompositeKeySpec.build(["price"]))
        assert bucketed.estimated_size_bytes < unbucketed.estimated_size_bytes
        assert bucketed.estimated_distinct_keys < unbucketed.estimated_distinct_keys

    def test_design_describe_and_ratios(self, advisor):
        design = advisor.evaluate_design(CompositeKeySpec.build(["price"]))
        assert "price" in design.describe()
        assert 0 <= design.size_ratio <= 1.5
        assert isinstance(design.slowdown, float)


class TestRecommendation:
    def test_recommends_a_small_cm_for_a_correlated_attribute(self, advisor):
        recommendation = advisor.recommend(TrainingQuery.over_attributes("price"))
        assert recommendation.recommended is not None
        chosen = recommendation.recommended
        # The chosen design is within the performance target and is the
        # smallest such design.
        assert chosen.slowdown <= advisor.performance_target + 1e-9
        within = [
            d for d in recommendation.designs if d.slowdown <= advisor.performance_target
        ]
        assert chosen.estimated_size_bytes == min(d.estimated_size_bytes for d in within)
        # Orders of magnitude smaller than the dense B+Tree.
        assert chosen.size_ratio < 0.2

    def test_designs_sorted_by_slowdown(self, advisor):
        recommendation = advisor.recommend(TrainingQuery.over_attributes("price"))
        slowdowns = [d.slowdown for d in recommendation.designs_by_slowdown()]
        assert slowdowns == sorted(slowdowns)

    def test_composite_recommendation_beats_single_attributes(self, advisor):
        """The (longitude, latitude) -> zipcode style correlation of Section 6.

        Among *compact* designs (meaningfully bucketed keys), the composite
        key is a much stronger determinant of the clustered attribute than
        either coordinate alone -- an unbucketed unique single attribute also
        has c_per_u = 1, but it is as large as a dense index and is excluded
        by the size filter.
        """
        advisor_zip = CMAdvisor(
            advisor.rows, "zipcode", sample_size=5_000, seed=2,
            table_profile=TableProfile(total_tups=len(advisor.rows), tups_per_page=100),
        )
        query = TrainingQuery.over_attributes("longitude", "latitude")
        recommendation = advisor_zip.recommend(query)
        compact = [
            d for d in recommendation.designs if d.estimated_distinct_keys <= 2_000
        ]
        composite = [d for d in compact if len(d.key_spec) == 2]
        singles = [d for d in compact if len(d.key_spec) == 1]
        assert composite and singles
        assert min(d.estimated_c_per_u for d in composite) < 0.7 * min(
            d.estimated_c_per_u for d in singles
        )

    def test_design_table_rows_have_table5_columns(self, advisor):
        rows = advisor.design_table(TrainingQuery.over_attributes("price"), limit=5)
        assert rows
        assert set(rows[0]) >= {"runtime", "cm_design", "size_ratio"}
        assert len(rows) <= 5


class TestSDSSAdvisorIntegration:
    """The advisor applied to the SX6 query on the synthetic SDSS data."""

    @pytest.fixture(scope="class")
    def sdss_advisor(self):
        rows = generate_photoobj(SDSSConfig(fields_ra=16, fields_dec=16, objects_per_field=10))
        return CMAdvisor(rows, "objid", sample_size=10_000, seed=3)

    def test_sx6_recommendation_includes_fieldid(self, sdss_advisor):
        recommendation = sdss_advisor.recommend(sdss_sx6_training_query())
        assert recommendation.designs
        best = recommendation.designs_by_slowdown()[0]
        assert best.estimated_c_per_u >= 0
        # fieldid is the strongly correlated attribute: some recommended or
        # low-slowdown design must include it.
        top_attrs = {
            attr
            for design in recommendation.designs_by_slowdown()[:10]
            for attr in design.key_spec.attributes
        }
        assert "fieldid" in top_attrs

    def test_table4_bucketings_for_sx6_attributes(self, sdss_advisor):
        report = sdss_advisor.bucketing_report(["mode", "type", "psfmag_g", "fieldid"])
        by_column = {row["column"]: row for row in report}
        assert by_column["mode"]["bucket_widths"].startswith("none")
        assert by_column["psfmag_g"]["bucket_levels"]


class TestNullAndNaNColumns:
    """Columns holding NULL or NaN count distinct values in the value order."""

    @pytest.fixture(scope="class")
    def advisor(self):
        rows = [
            {
                "c": i // 20,
                "u": None if i % 50 == 0 else float(i % 97) * 1.5,
                "v": float("nan") if i % 7 == 0 else float((i * 31) % 500),
                "w": None if i % 2 else 0.0,
                "z": float("nan"),
            }
            for i in range(2_000)
        ]
        return CMAdvisor(rows, "c", sample_size=1_000)

    @pytest.mark.parametrize("attribute", ["u", "v"])
    def test_recommend_evaluates_designs(self, advisor, attribute):
        recommendation = advisor.recommend(TrainingQuery.over_attributes(attribute))
        assert recommendation.designs
        for design in recommendation.designs:
            assert design.estimated_cost_ms == design.estimated_cost_ms  # not NaN

    def test_bucketing_report_counts_nan_once_and_null_not_at_all(self, advisor):
        report = advisor.bucketing_report(["u", "v"])
        assert [(row["column"], row["cardinality"]) for row in report] == [
            ("u", 97),
            ("v", 501),  # every residue below 500, and NaN
        ]

    @pytest.mark.parametrize("attribute", ["w", "z"])
    def test_one_valued_predicate_is_pruned(self, advisor, attribute):
        """``w`` holds one number beside NULLs, ``z`` a fresh NaN object per
        row: each is one value, so an equality on it selects the whole table
        and the selectivity threshold prunes it."""
        candidates = advisor.enumerate_candidates(
            TrainingQuery.over_attributes(attribute, "u")
        )
        assert candidates
        assert all(attribute not in spec.attributes for spec in candidates)
        assert any("u" in spec.attributes for spec in candidates)

    def test_clustered_column_with_null_and_nan(self):
        """The clustered side is bucketed over its numbers alone: NULL and NaN
        each add at most one target per key, not value granularity."""

        def rows(gaps):
            return [
                {
                    "c": (
                        None if gaps and i % 40 == 0
                        else float("nan") if gaps and i % 45 == 0
                        else float(i // 20)
                    ),
                    "u": float(i % 97),
                }
                for i in range(2_000)
            ]

        spec = CompositeKeySpec.build(["u"])
        clean = CMAdvisor(rows(False), "c", sample_size=1_000)
        advisor = CMAdvisor(rows(True), "c", sample_size=1_000)
        assert (
            advisor.evaluate_design(spec).estimated_c_per_u
            <= clean.evaluate_design(spec).estimated_c_per_u + 2
        )
        recommendation = advisor.recommend(TrainingQuery.over_attributes("u"))
        assert recommendation.designs
        for design in recommendation.designs:
            assert design.estimated_cost_ms == design.estimated_cost_ms  # not NaN
