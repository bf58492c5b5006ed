"""Bucketing of unclustered and clustered attributes (Sections 5.4 and 6.1).

Bucketing is what keeps correlation maps orders of magnitude smaller than
secondary B+Trees:

* the *unclustered* attribute (the CM key) is bucketed by truncating values
  into fixed-width ranges, trading CM size against false positives;
* the *clustered* attribute is bucketed by assigning consecutive runs of
  tuples to numbered buckets during clustering, so the CM can map to compact
  bucket ids instead of (possibly many-valued) clustered keys.

This module provides the bucketer objects used as CM keys, the enumeration of
candidate bucket widths considered by the CM Advisor (between 2**2 and 2**16
buckets, widths scaling exponentially), and the clustered-side bucket
assignment algorithm of Section 6.1.1.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.ordering import NAN_KEY, order_key

#: The advisor considers bucketings that produce between 2**2 and 2**16
#: buckets (Section 6.1.2).
MIN_BUCKETS = 2 ** 2
MAX_BUCKETS = 2 ** 16


class Bucketer(ABC):
    """Maps attribute values to bucket keys (the value stored in the CM).

    A NULL or a NaN buckets to its own order key
    (:func:`~repro.core.ordering.order_key`), which sorts above every bucket
    of a value, so a range lookup finds a NaN only when open above.
    """

    @abstractmethod
    def bucket(self, value: Any) -> Any:
        """Return the bucket key for ``value``."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable description used in advisor reports."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class IdentityBucketer(Bucketer):
    """No bucketing: every distinct value is its own bucket."""

    def bucket(self, value: Any) -> Any:
        return order_key(value)

    def describe(self) -> str:
        return "none"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IdentityBucketer)

    def __hash__(self) -> int:
        return hash("IdentityBucketer")


class WidthBucketer(Bucketer):
    """Truncates numeric values into fixed-width ranges.

    The bucket key is the lower bound of the range (the paper stores "only
    the lower bounds of the intervals"): ``floor((v - origin) / width)``
    scaled back to value units.
    """

    def __init__(self, width: float, *, origin: float = 0.0) -> None:
        if width <= 0:
            raise ValueError("bucket width must be positive")
        self.width = width
        self.origin = origin

    def bucket(self, value: Any) -> Any:
        if value is None or value != value:
            return order_key(value)
        index = math.floor((value - self.origin) / self.width)
        return self.origin + index * self.width

    def describe(self) -> str:
        if float(self.width).is_integer():
            return f"width={int(self.width)}"
        return f"width={self.width:g}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WidthBucketer)
            and other.width == self.width
            and other.origin == self.origin
        )

    def __hash__(self) -> int:
        return hash(("WidthBucketer", self.width, self.origin))


class QuantileBucketer(Bucketer):
    """Variable-width buckets with (approximately) equal tuple counts.

    This implements the paper's future-work extension for skewed value
    distributions: boundaries are chosen from a sample so that each bucket
    holds roughly the same number of tuples.  The bucket key is the bucket's
    ordinal number.
    """

    def __init__(self, boundaries: Sequence[Any]) -> None:
        self.boundaries = sorted(boundaries)

    @classmethod
    def from_sample(cls, values: Iterable[Any], num_buckets: int) -> "QuantileBucketer":
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        ordered = sorted(v for v in values if v is not None and v == v)
        if not ordered:
            return cls([])
        boundaries = []
        for i in range(1, num_buckets):
            index = int(round(i * len(ordered) / num_buckets))
            index = min(max(index, 0), len(ordered) - 1)
            boundaries.append(ordered[index])
        return cls(sorted(set(boundaries)))

    def bucket(self, value: Any) -> Any:
        if value is None or value != value:
            return order_key(value)
        return bisect_right(self.boundaries, value)

    @property
    def num_buckets(self) -> int:
        return len(self.boundaries) + 1

    def describe(self) -> str:
        return f"quantile({self.num_buckets} buckets)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuantileBucketer) and other.boundaries == self.boundaries

    def __hash__(self) -> int:
        return hash(("QuantileBucketer", tuple(self.boundaries)))


@dataclass(frozen=True)
class BucketingOption:
    """One candidate bucketing for an attribute, as enumerated by the advisor.

    ``level`` is the paper's "bucket level": each bucket covers ``2**level``
    distinct values of the attribute (level 0 = no bucketing).
    """

    attribute: str
    level: int
    bucketer: Bucketer
    estimated_buckets: int

    def describe(self) -> str:
        if self.level == 0:
            return "none"
        return f"2^{self.level}"


def candidate_bucketings(attribute: str, values: Sequence[Any]) -> list[BucketingOption]:
    """Enumerate the bucketings the CM Advisor considers for one attribute.

    Follows Section 6.1.2: bucket sizes scale exponentially (2, 4, 8, ...
    distinct values per bucket) and only bucketings yielding between
    :data:`MIN_BUCKETS` and :data:`MAX_BUCKETS` buckets are kept.  Few-valued
    attributes (cardinality at most :data:`MIN_BUCKETS`) are offered
    unbucketed only, as in Table 4 of the paper ("mode", "type").

    Numeric attributes are bucketed by value truncation (:class:`WidthBucketer`
    with a width of ``2**level`` times the attribute's average value gap);
    non-numeric attributes only admit the identity bucketing.  Distinct
    values are counted in the value order (:mod:`repro.core.ordering`): every
    NaN is one value, NULL none; neither enters the numeric span.
    """
    keys = {order_key(v) for v in values if v is not None}
    cardinality = len(keys)
    options = [BucketingOption(attribute, 0, IdentityBucketer(), max(1, cardinality))]
    if cardinality <= MIN_BUCKETS:
        return options
    numbers = [k for k in keys if k is not NAN_KEY]
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in numbers)
    if not numbers or not numeric:
        return options

    low = float(min(numbers))
    span = float(max(numbers)) - low
    if span <= 0:
        return options
    average_gap = span / max(1, len(numbers) - 1)

    level = 1
    while True:
        values_per_bucket = 2 ** level
        estimated_buckets = math.ceil(cardinality / values_per_bucket)
        if estimated_buckets < MIN_BUCKETS:
            break
        if estimated_buckets <= MAX_BUCKETS:
            width = values_per_bucket * average_gap
            bucketer = WidthBucketer(width, origin=low)
            # Remember which "2^level values per bucket" produced this width,
            # so advisor reports can describe the design the way the paper
            # does (e.g. "psfMag_g(2^13)").
            bucketer.level = level
            options.append(
                BucketingOption(attribute, level, bucketer, estimated_buckets)
            )
        level += 1
    return options


@dataclass(frozen=True)
class ClusteredBucket:
    """One clustered-attribute bucket: a contiguous run of tuples/pages."""

    bucket_id: int
    first_row: int
    last_row: int

    @property
    def num_rows(self) -> int:
        return self.last_row - self.first_row + 1


def assign_clustered_buckets(
    clustered_keys: Sequence[Any], tuples_per_bucket: int
) -> tuple[list[int], list[ClusteredBucket]]:
    """Assign clustered-bucket ids to rows sorted by the clustered attribute.

    Implements the algorithm of Section 6.1.1: rows are assigned to bucket
    ``i`` until ``tuples_per_bucket`` rows have been read *and* the clustered
    key changes, which guarantees that no clustered value straddles a bucket
    boundary.  Returns the per-row bucket ids plus the bucket descriptors.

    ``clustered_keys`` must already be sorted (the heap is clustered).
    """
    if tuples_per_bucket <= 0:
        raise ValueError("tuples_per_bucket must be positive")
    ids: list[int] = []
    buckets: list[ClusteredBucket] = []
    if not clustered_keys:
        return ids, buckets

    bucket_id = 0
    bucket_start = 0
    count_in_bucket = 0
    boundary_key: Any = None

    for position, key in enumerate(clustered_keys):
        if boundary_key is not None and key != boundary_key:
            buckets.append(
                ClusteredBucket(
                    bucket_id=bucket_id,
                    first_row=bucket_start,
                    last_row=position - 1,
                )
            )
            bucket_id += 1
            bucket_start = position
            count_in_bucket = 0
            boundary_key = None
        ids.append(bucket_id)
        count_in_bucket += 1
        if count_in_bucket >= tuples_per_bucket and boundary_key is None:
            # Keep extending the bucket until the clustered value changes.
            boundary_key = key

    buckets.append(
        ClusteredBucket(
            bucket_id=bucket_id,
            first_row=bucket_start,
            last_row=len(clustered_keys) - 1,
        )
    )
    return ids, buckets
