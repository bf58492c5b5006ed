"""Distinct-value estimators computed from a uniform random sample.

The CM Advisor must evaluate hundreds of candidate composite CM designs
(Section 6.1.3); running a full Distinct Sampling scan per candidate is not
feasible, so the paper estimates composite cardinalities from an in-memory
random sample of ~30 000 tuples using the *Adaptive Estimator* (AE) of
Charikar, Chaudhuri, Motwani and Narasayya (PODS 2000).

Two estimators are provided:

``gee_estimate``
    The Guaranteed-Error Estimator: ``sqrt(n/r) * f1 + sum_{j>=2} f_j`` where
    ``f_j`` is the number of values appearing exactly ``j`` times in the
    sample.  It matches the paper's lower bound on estimation error.

``adaptive_estimate``
    The AE refinement: values that are frequent in the sample are assumed to
    be fully observed, while the number of unseen *rare* values is estimated
    by modelling rare-value frequencies as (approximately) Poisson.  AE is
    more accurate than GEE on skewed data, which is why the paper prefers it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Hashable, Iterable, Sequence


def frequency_of_frequencies(sample: Iterable[Hashable]) -> Counter:
    """Return ``f_j``: how many distinct values occur exactly ``j`` times."""
    counts = Counter(sample)
    return Counter(counts.values())


def _validate(sample_size: int, total_rows: int) -> None:
    if sample_size <= 0:
        raise ValueError("sample must not be empty")
    if total_rows < sample_size:
        raise ValueError("total_rows must be at least the sample size")


def gee_estimate(sample: Sequence[Hashable], total_rows: int) -> float:
    """Guaranteed-Error Estimator for the number of distinct values."""
    sample = list(sample)
    _validate(len(sample), total_rows)
    freq = frequency_of_frequencies(sample)
    f1 = freq.get(1, 0)
    higher = sum(count for j, count in freq.items() if j >= 2)
    scale = math.sqrt(total_rows / len(sample))
    estimate = scale * f1 + higher
    return min(float(total_rows), max(estimate, float(len(set(sample)))))


def adaptive_estimate(sample: Sequence[Hashable], total_rows: int) -> float:
    """Adaptive Estimator (AE) for the number of distinct values.

    The sample's values are split into *rare* (sample frequency below a
    cut-off) and *frequent* classes.  Frequent values are assumed to all have
    been seen.  For rare values the estimator solves for the Poisson rate
    ``m`` that makes the observed ``f_1``/``f_2`` counts consistent and scales
    the number of distinct rare values accordingly (equation (9) of Charikar
    et al.); when the sample has no duplicates among rare values it falls back
    to the GEE scaling, which is the correct limit.
    """
    sample = list(sample)
    _validate(len(sample), total_rows)
    counts = Counter(sample)
    distinct_in_sample = len(counts)
    r = len(sample)
    n = total_rows

    # Charikar et al. treat values with sample frequency > sqrt(r) as
    # frequent; small samples use a floor of 2 so f1/f2 stay meaningful.
    rare_threshold = max(2, int(math.sqrt(r)))

    rare_counts = {value: c for value, c in counts.items() if c <= rare_threshold}
    frequent_distinct = distinct_in_sample - len(rare_counts)
    rare_rows_in_sample = sum(rare_counts.values())
    distinct_rare_in_sample = len(rare_counts)

    if distinct_rare_in_sample == 0:
        return float(distinct_in_sample)

    freq = Counter(rare_counts.values())
    f1 = freq.get(1, 0)
    f2 = freq.get(2, 0)

    # Estimated number of rows (in the whole table) belonging to rare values:
    # rows not consumed by frequent values, assuming frequent values occur in
    # the table in proportion to their sample frequency.
    frequent_rows_in_sample = r - rare_rows_in_sample
    rare_rows_total = max(
        rare_rows_in_sample, n - frequent_rows_in_sample * (n / r) if r else 0
    )

    if f1 == 0:
        # Every rare value was seen at least twice; the sample very likely
        # covers all of them.
        return float(distinct_in_sample)

    if f2 == 0:
        # No collisions among rare values: fall back to the GEE-style scaling
        # restricted to the rare class.
        scale = math.sqrt(rare_rows_total / max(1, rare_rows_in_sample))
        rare_estimate = scale * f1 + (distinct_rare_in_sample - f1)
    else:
        # Poisson model: if rare values have average multiplicity m in the
        # rare sub-table, then f1/f2 ~= 2/m for a Poisson(m) mixture, so
        # m ~= 2 * f2 / f1.  The number of distinct rare values is then the
        # number of rare rows divided by the average multiplicity, corrected
        # so it is never below what the sample itself witnessed.
        sampling_fraction = rare_rows_in_sample / rare_rows_total
        mean_multiplicity_in_sample = rare_rows_in_sample / distinct_rare_in_sample
        mean_multiplicity = max(
            mean_multiplicity_in_sample, 2.0 * f2 / f1 / max(sampling_fraction, 1e-12)
        )
        # Guard: multiplicity cannot exceed what would place every rare row
        # on a single value, nor fall below 1.
        mean_multiplicity = min(max(mean_multiplicity, 1.0), rare_rows_total)
        rare_estimate = rare_rows_total / mean_multiplicity

    rare_estimate = max(rare_estimate, float(distinct_rare_in_sample))
    estimate = frequent_distinct + rare_estimate
    return min(float(n), max(estimate, float(distinct_in_sample)))
