"""The Correlation Map (CM) access method (Section 5).

A CM maps each distinct *value* (or bucket of values) of an unclustered
attribute to the set of clustered-attribute values (or clustered bucket ids)
it co-occurs with, together with a co-occurrence count used by deletions
(Algorithm 1 of the paper).  Because the mapping is at value granularity
rather than tuple granularity, and because both sides can be bucketed, a CM
is typically orders of magnitude smaller than the equivalent secondary
B+Tree, small enough to remain cached in memory even while heavily updated.

Lookups return the co-occurring clustered targets for a set of predicated
values (``cm_lookup`` in Section 5.2); the executor then scans the clustered
index for those targets and re-applies the original predicate to discard
false positives.  The same lookup serves two engine roles: single-table
``CorrelationMapScan`` plans, and the CM-guided inner path of an
index-nested-loop join, where each outer row's join-key value is looked up
to find the clustered buckets worth sweeping.

A CM is a plain in-memory structure that can also be used standalone::

    >>> from repro.core.composite import CompositeKeySpec
    >>> from repro.core.correlation_map import CorrelationMap
    >>> cm = CorrelationMap("cm_city", CompositeKeySpec.build(["city"]), "state")
    >>> _ = cm.build([
    ...     {"city": "boston", "state": "MA"},
    ...     {"city": "salem", "state": "MA"},
    ...     {"city": "salem", "state": "OR"},
    ... ])
    >>> cm.lookup({"city": "salem"})
    ['MA', 'OR']
    >>> cm.measured_c_per_u()   # avg clustered targets per stored key
    1.5
    >>> cm.delete({"city": "salem", "state": "OR"})   # Algorithm 1
    True
    >>> cm.lookup({"city": "salem"})
    ['MA']
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product, tee
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.composite import (
    BucketConstraint,
    CompositeKeySpec,
    ValueConstraint,
    key_matches,
)
from repro.core.ordering import SortedRun, order_key, order_keys

#: Byte estimates used for size reporting.  A CM entry stores one clustered
#: target and its co-occurrence count under an already-stored key.
_TARGET_BYTES = 8
_COUNT_BYTES = 4
_ENTRY_BYTES = _TARGET_BYTES + _COUNT_BYTES
_KEY_OVERHEAD_BYTES = 8


def _value_bytes(value: Any) -> int:
    if isinstance(value, tuple):
        # A plain loop: this runs once per new CM key, on the insert path.
        size = 0
        for part in value:
            size += _value_bytes(part)
        return size
    if isinstance(value, str):
        return max(4, len(value))
    return 8


#: The position a key directory is sorted by.
_LEADING = itemgetter(0)


@dataclass
class CMStats:
    """Summary statistics reported by :meth:`CorrelationMap.stats`."""

    distinct_keys: int
    total_entries: int
    size_bytes: int
    max_targets_per_key: int
    avg_targets_per_key: float


class CorrelationMap:
    """A compressed mapping from unclustered values to clustered targets.

    Parameters
    ----------
    name:
        Name of the CM (used in catalogs and reports).
    key_spec:
        The (possibly composite, possibly bucketed) CM attribute(s).
    clustered_attribute:
        The clustered attribute whose values (or bucket ids) the CM stores.
    target_of:
        Optional callable ``row -> target`` overriding how the clustered
        target of a row is derived; a table clustered into buckets
        (Section 6.1.1) passes one that reads the row's bucket id.  Defaults
        to the order key of the row's ``clustered_attribute`` value.
    """

    def __init__(
        self,
        name: str,
        key_spec: CompositeKeySpec,
        clustered_attribute: str,
        *,
        target_of: Callable[[Mapping[str, Any]], Any] | None = None,
    ) -> None:
        self.name = name
        self.key_spec = key_spec
        self.clustered_attribute = clustered_attribute
        self._target_of = target_of
        #: key tuple -> {clustered target -> co-occurrence count}
        self._mapping: dict[tuple[Any, ...], dict[Any, int]] = {}
        self._total_rows = 0
        #: Size counters, maintained by :meth:`insert` / :meth:`delete`:
        #: stored (key, target) pairs and the bytes of the stored keys.
        self._entries = 0
        self._key_bytes = 0
        #: The key directory: the stored keys sorted by their leading
        #: position, for range lookups (:meth:`matching_keys`).  Built by
        #: the first one; from then on :meth:`insert` / :meth:`delete` touch
        #: it only when a key appears or disappears.
        self._directory: SortedRun | None = None

    # -- derivation of keys and targets ---------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.key_spec.attributes

    def key_of(self, row: Mapping[str, Any]) -> tuple[Any, ...]:
        return self.key_spec.key_of(row)

    def _targets_of(self, rows: Iterable[Mapping[str, Any]]) -> Iterator[Any]:
        """:meth:`target_of` of every row, streamed: one pass for many rows."""
        if self._target_of is not None:
            return map(self._target_of, rows)
        return iter(order_keys(list(map(itemgetter(self.clustered_attribute), rows))))

    def target_of(self, row: Mapping[str, Any]) -> Any:
        if self._target_of is not None:
            return self._target_of(row)
        return order_key(row[self.clustered_attribute])

    # -- construction and maintenance (Algorithm 1) -----------------------------

    def build(self, rows: Iterable[Mapping[str, Any]]) -> "CorrelationMap":
        """Build the CM with one scan of the table (Algorithm 1).

        The scan counts each ``(key, target)`` pair as it streams by; the
        counts then enter the map in the order their pairs first appeared.
        The result -- mapping and its dict order, counters, key directory --
        is the one an :meth:`insert` per row would leave.
        """
        key_rows, target_rows = tee(rows)
        pairs = Counter(
            zip(self.key_spec.keys_of(key_rows), self._targets_of(target_rows))
        )
        for (key, target), count in pairs.items():
            self._add(key, target, count)
        return self

    def insert(self, row: Mapping[str, Any]) -> None:
        """Maintain the CM for one inserted tuple."""
        self._add(self.key_of(row), self.target_of(row), 1)

    def _add(self, key: tuple[Any, ...], target: Any, count: int) -> None:
        """Count ``count`` more rows with ``key`` that map to ``target``."""
        targets = self._mapping.get(key)
        if targets is None:
            targets = self._mapping[key] = {}
            self._key_bytes += _value_bytes(key) + _KEY_OVERHEAD_BYTES
            if self._directory is not None:
                self._directory.add(key)
        previous = targets.get(target)
        if previous is None:
            targets[target] = count
            self._entries += 1
        else:
            targets[target] = previous + count
        self._total_rows += count

    def delete(self, row: Mapping[str, Any]) -> bool:
        """Maintain the CM for one deleted tuple.

        Decrements the co-occurrence count and removes the clustered target
        once its count reaches zero; removes the key once it has no targets.
        Returns ``False`` when the row was not represented (already absent).
        """
        key = self.key_of(row)
        target = self.target_of(row)
        targets = self._mapping.get(key)
        if not targets or target not in targets:
            return False
        targets[target] -= 1
        if targets[target] <= 0:
            del targets[target]
            self._entries -= 1
            if not targets:
                del self._mapping[key]
                self._key_bytes -= _value_bytes(key) + _KEY_OVERHEAD_BYTES
                if self._directory is not None:
                    self._directory.remove(key)
        self._total_rows -= 1
        return True

    def update(self, old_row: Mapping[str, Any], new_row: Mapping[str, Any]) -> None:
        """Updates are a delete followed by an insert (Section 5.1)."""
        self.delete(old_row)
        self.insert(new_row)

    # -- lookups (Section 5.2) -----------------------------------------------------

    def lookup(self, values: Iterable[Mapping[str, Any]] | Mapping[str, Any]) -> list[Any]:
        """``cm_lookup({v1 ... vN})``: clustered targets for exact key values.

        ``values`` is either one assignment of CM attributes to values or an
        iterable of such assignments; the result is the sorted union of the
        clustered targets of every assignment.
        """
        if isinstance(values, Mapping):
            values = [values]
        targets: set[Any] = set()
        for assignment in values:
            key = self.key_spec.key_of_values(assignment)
            targets.update(self._mapping.get(key, {}))
        return sorted(targets)

    def lookup_constraints(
        self, constraints: Mapping[str, ValueConstraint]
    ) -> list[Any]:
        """Clustered targets for arbitrary per-attribute constraints.

        Exact equality constraints over all attributes probe the dictionary
        directly; range predicates and partially-constrained composite keys
        take the union over :meth:`matching_keys` -- a bisection of the
        sorted key directory when the leading attribute carries a range, a
        pass over the stored keys otherwise.
        """
        bucket_constraints = self.key_spec.bucket_constraints(constraints)
        if self._all_equality(bucket_constraints):
            return self._lookup_equality(bucket_constraints)
        targets: set[Any] = set()
        for key in self.matching_keys(bucket_constraints):
            targets.update(self._mapping[key])
        return sorted(targets)

    def matching_keys(
        self, bucket_constraints: Sequence[BucketConstraint]
    ) -> Sequence[tuple[Any, ...]]:
        """The stored keys satisfying every bucket-level constraint.

        The one place keys are tested against constraints: the planner
        counts the result (``n_lookups`` at bucket granularity),
        :meth:`lookup_constraints` unions its targets.  A range on the
        leading key position is answered from the key directory -- the
        stored keys sorted by that position, bisected for the range, the
        remaining positions filtered over the slice alone.  Without such a
        range every stored key is tested.  Keys hold order keys
        (:mod:`repro.core.ordering`), so both routes place NULL and NaN
        alike: a NULL key in no range, a NaN key only in one open above.
        """
        leading = next((c for c in bucket_constraints if c.position == 0), None)
        if leading is not None and leading.buckets is None and leading.constrains:
            directory = self._key_directory()
            start, stop = directory.span(leading.low, leading.high)
            keys = directory.items[start:stop]
            rest = [c for c in bucket_constraints if c is not leading and c.constrains]
            if rest:
                keys = [key for key in keys if key_matches(key, rest)]
            return keys
        return [key for key in self._mapping if key_matches(key, bucket_constraints)]

    def _key_directory(self) -> SortedRun:
        """The sorted key directory, built on first use."""
        if self._directory is None:
            self._directory = SortedRun.build(self._mapping, key=_LEADING)
        return self._directory

    @staticmethod
    def _all_equality(constraints: Sequence[BucketConstraint]) -> bool:
        return all(constraint.buckets is not None for constraint in constraints)

    def _lookup_equality(self, constraints: Sequence[BucketConstraint]) -> list[Any]:
        targets: set[Any] = set()
        bucket_sets = [sorted(constraint.buckets) for constraint in constraints]
        for combination in product(*bucket_sets):
            targets.update(self._mapping.get(tuple(combination), {}))
        return sorted(targets)

    def keys(self) -> list[tuple[Any, ...]]:
        return list(self._mapping)

    def targets_of_key(self, key: tuple[Any, ...]) -> dict[Any, int]:
        return dict(self._mapping.get(key, {}))

    def co_occurrence_count(self, key: tuple[Any, ...], target: Any) -> int:
        return self._mapping.get(key, {}).get(target, 0)

    # -- size accounting -------------------------------------------------------------
    #
    # The planner prices a CM on every plan (``size_pages``,
    # ``measured_c_per_u``), so these are counters kept by Algorithm 1's
    # insert/delete -- ``_entries`` moves when a (key, target) pair appears
    # or its count reaches zero, ``_key_bytes`` when a key does -- and
    # reading them never walks the mapping.

    @property
    def distinct_keys(self) -> int:
        return len(self._mapping)

    @property
    def total_entries(self) -> int:
        """Number of (key, clustered target) pairs stored."""
        return self._entries

    @property
    def total_rows_represented(self) -> int:
        return self._total_rows

    def size_bytes(self) -> int:
        """Approximate in-memory / on-disk size of the CM."""
        return self._key_bytes + self._entries * _ENTRY_BYTES

    def size_pages(self) -> int:
        """Size in 8 KiB pages, at least one."""
        return max(1, -(-self.size_bytes() // 8192))

    def stats(self) -> CMStats:
        return CMStats(
            distinct_keys=self.distinct_keys,
            total_entries=self.total_entries,
            size_bytes=self.size_bytes(),
            # The one figure no counter can keep under deletes; nothing on
            # a query path reads it.
            max_targets_per_key=max(map(len, self._mapping.values()), default=0),
            avg_targets_per_key=self.measured_c_per_u(),
        )

    def measured_c_per_u(self) -> float:
        """The CM's own bucket-level ``c_per_u``: avg targets per stored key."""
        if not self._mapping:
            return 0.0
        return self._entries / len(self._mapping)

    def describe(self) -> str:
        return f"CM({self.key_spec.describe()}) -> {self.clustered_attribute}"
