"""Composite CM keys: multiple attributes, each with its own bucketing.

Composite CMs matter when no single attribute soft-determines the clustered
attribute but a combination does -- the paper's (longitude, latitude) -> zip
code example, and the (ra, dec) -> objID correlation of Experiment 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.bucketing import Bucketer, IdentityBucketer
from repro.core.ordering import NULL_KEY, order_key, order_keys


@dataclass(frozen=True)
class AttributeBucketing:
    """One attribute of a composite CM key together with its bucketer."""

    attribute: str
    bucketer: Bucketer = field(default_factory=IdentityBucketer)

    def bucket(self, value: Any) -> Any:
        return self.bucketer.bucket(value)

    def describe(self) -> str:
        description = self.bucketer.describe()
        if description == "none":
            return self.attribute
        return f"{self.attribute}({description})"


@dataclass(frozen=True)
class CompositeKeySpec:
    """Ordered list of bucketed attributes forming a CM key.

    A single-attribute CM is simply a :class:`CompositeKeySpec` of length one;
    the key is always a tuple so that lookups and size accounting treat both
    cases uniformly.
    """

    parts: tuple[AttributeBucketing, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a CM key needs at least one attribute")
        names = [part.attribute for part in self.parts]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute in composite key")

    @classmethod
    def build(
        cls,
        attributes: Sequence[str],
        bucketers: Mapping[str, Bucketer] | None = None,
    ) -> "CompositeKeySpec":
        """Build a spec from attribute names and an optional bucketer map."""
        bucketers = bucketers or {}
        parts = tuple(
            AttributeBucketing(attr, bucketers.get(attr, IdentityBucketer()))
            for attr in attributes
        )
        return cls(parts)

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(part.attribute for part in self.parts)

    def key_of(self, row: Mapping[str, Any]) -> tuple[Any, ...]:
        """The (bucketed) CM key of a row."""
        return tuple(part.bucket(row[part.attribute]) for part in self.parts)

    def keys_of(self, rows: Iterable[Mapping[str, Any]]) -> Iterator[tuple[Any, ...]]:
        """:meth:`key_of` of every row, streamed: one pass for many rows."""
        if len(self.parts) > 1:
            return map(self.key_of, rows)
        (part,) = self.parts
        if type(part.bucketer) is IdentityBucketer:
            return zip(order_keys(list(map(itemgetter(part.attribute), rows))))
        return zip(map(part.bucketer.bucket, map(itemgetter(part.attribute), rows)))

    def key_of_values(self, values: Mapping[str, Any]) -> tuple[Any, ...]:
        """The CM key of a full assignment of predicate values."""
        return self.key_of(values)

    def bucket_constraints(
        self, constraints: Mapping[str, "ValueConstraint"]
    ) -> list["BucketConstraint"]:
        """Translate per-attribute predicate constraints to bucket level.

        Attributes without a constraint are unconstrained (match anything);
        NULL, matching no comparison, is no value to look up.
        """
        result = []
        for position, part in enumerate(self.parts):
            constraint = constraints.get(part.attribute)
            if constraint is None:
                result.append(BucketConstraint(position, None, None, None))
                continue
            if constraint.values is not None:
                bucketed = {part.bucket(v) for v in constraint.values if v is not None}
                result.append(BucketConstraint(position, bucketed, None, None))
            else:
                low = part.bucket(constraint.low) if constraint.low is not None else None
                high = part.bucket(constraint.high) if constraint.high is not None else None
                result.append(BucketConstraint(position, None, low, high))
        return result

    def describe(self) -> str:
        return ", ".join(part.describe() for part in self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class ValueConstraint:
    """A predicate over one attribute, in value space.

    Either ``values`` (an explicit set, from ``=`` or ``IN``) or an inclusive
    ``[low, high]`` range (either bound may be ``None`` for open ranges).
    """

    values: frozenset[Any] | None = None
    low: Any = None
    high: Any = None

    @classmethod
    def equals(cls, value: Any) -> "ValueConstraint":
        return cls(values=frozenset([value]))

    @classmethod
    def in_set(cls, values: Iterable[Any]) -> "ValueConstraint":
        return cls(values=frozenset(values))

    @classmethod
    def between(cls, low: Any, high: Any) -> "ValueConstraint":
        return cls(low=low, high=high)

    def matches(self, value: Any) -> bool:
        """Whether ``value`` satisfies the constraint, by the value order's rule."""
        key = order_key(value)
        if self.values is not None:
            return key is not NULL_KEY and key in map(order_key, self.values)
        return BucketConstraint(0, None, self.low, self.high).matches(key)


@dataclass(frozen=True)
class BucketConstraint:
    """A predicate over one position of a composite CM key, in bucket space."""

    position: int
    buckets: frozenset[Any] | set[Any] | None
    low: Any
    high: Any

    @property
    def constrains(self) -> bool:
        """False for the match-anything constraint of an unpredicated attribute."""
        return (
            self.buckets is not None or self.low is not None or self.high is not None
        )

    def matches(self, bucket_key: Any) -> bool:
        """Whether a stored key position (an order key) satisfies the constraint."""
        if self.buckets is not None:
            return bucket_key in self.buckets
        if not self.constrains:
            return True
        return (
            bucket_key is not NULL_KEY
            and (self.low is None or not bucket_key < self.low)
            and (self.high is None or bucket_key <= self.high)
        )


def key_matches(key: tuple[Any, ...], constraints: Sequence[BucketConstraint]) -> bool:
    """Whether a stored CM key satisfies every bucket-level constraint."""
    return all(constraint.matches(key[constraint.position]) for constraint in constraints)
