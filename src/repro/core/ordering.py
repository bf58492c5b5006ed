"""One value order: where NULL and NaN sit in every comparison of column values.

Every structure that compares column values -- predicate kernels, sorts and
top-k, CLUSTER and the clustered page bounds, B+Tree keys, sorted sample
columns, CM key directories, min/max bounds, bucketers, range partitioning --
orders them by one rule, with PostgreSQL's semantics:

* NULL matches no comparison (``=``, ``IN``, ``BETWEEN``, either open
  range); a row that lacks a column reads as NULL;
* NaN equals NaN and sorts above every number, so ``BETWEEN lo AND hi``
  excludes it while ``>= lo``, ``= NaN`` and ``IN (..., NaN)`` match it;
* ascending order is numbers, then NaN, then NULL; descending reverses it.

A structure keeps :func:`order_key` of each value.  Only a NULL or a NaN is
ever replaced, by one of two singleton sentinels, :data:`NAN_KEY` and
:data:`NULL_KEY`, which rank above every value (a value compared with one
falls back to the sentinel's reflected comparison) and equal only
themselves -- except that :data:`NAN_KEY` also equals a raw NaN, so a
predicate bound to it matches NaN rows.  Every other value is its own key,
so a column without NULL or NaN runs on raw values throughout.

The rule needs a column's values to compare with one another, so a column
holds one *family* (:data:`_FAMILY_OF_TYPE`), fixed by its first non-NULL
value and checked on every write (:func:`claim_families`).  A
:class:`SortedRun` is the sorted list behind plan-time range questions: a
sorted sample column (range selectivity) and a CM key directory.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from datetime import date, datetime
from functools import total_ordering
from itertools import chain
from operator import itemgetter, ne
from typing import Any, Callable, Iterable, Mapping, Sequence

#: Exact type -> the family whose members compare totally with one another.
#: Exact types only: a subclass may override its comparisons.
_FAMILY_OF_TYPE: dict[type, type] = {
    bool: float,
    int: float,
    float: float,
    str: str,
    bytes: bytes,
    date: date,
    datetime: datetime,
}


@total_ordering
class _Sentinel:
    """The order key of a NULL (rank 2) or a NaN (rank 1): above every value."""

    __slots__ = ("_rank", "_name")

    def __init__(self, rank: int, name: str) -> None:
        self._rank = rank
        self._name = name

    def __eq__(self, other: object) -> bool:
        return other is self or (self._rank == 1 and other != other)

    __hash__ = object.__hash__

    def __lt__(self, other: Any) -> bool:
        # A raw NaN ranks as NAN_KEY: the top-k prefilter compares with one.
        rank = other._rank if type(other) is _Sentinel else int(other != other)
        return self._rank < rank

    def __reduce__(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return self._name


#: The order key of NaN: above every number, equal to any NaN.
NAN_KEY = _Sentinel(1, "NAN_KEY")
#: The order key of NULL: above everything, NaN included.
NULL_KEY = _Sentinel(2, "NULL_KEY")


def order_key(value: Any) -> Any:
    """``value``'s place in the value order: itself, or a NULL/NaN sentinel."""
    if value is None:
        return NULL_KEY
    if value != value:
        return NAN_KEY
    return value


def order_keys(values: list[Any]) -> list[Any]:
    """:func:`order_key` of every value; ``values`` itself when it holds neither
    a NULL nor a NaN (only a ``float`` can be one)."""
    kinds = set(map(type, values))
    if type(None) in kinds or float in kinds and any(map(ne, values, values)):
        return list(map(order_key, values))
    return values


def columns(rows: Sequence[Mapping[str, Any]]) -> dict[str, list[Any]]:
    """column -> its value in every row, for every column of ``rows`` in
    order of first appearance; a row that lacks a column reads as NULL."""
    if rows and all(map(len(rows[0]).__eq__, map(len, rows))):
        try:
            return {column: list(map(itemgetter(column), rows)) for column in rows[0]}
        except KeyError:  # equally long rows with other columns
            pass
    names = dict.fromkeys(chain.from_iterable(rows))
    return {column: [row.get(column) for row in rows] for column in names}


def claim_families(
    families: dict[str, type], values_of: Mapping[str, list[Any]], table: str
) -> None:
    """Check a batch of rows, read as :func:`columns`, against ``table``'s
    column ``families``; record new ones.

    Every non-NULL value must belong to its column's family, which the
    column's first non-NULL value fixes.  A value of another family, or of a
    type with none, raises ``TypeError`` naming the table and the column;
    ``families`` changes only once every row has passed.
    """
    known = dict(families)
    for column, values in values_of.items():
        kinds = set(map(type, values)) - {type(None)}
        if not kinds:
            continue
        first = next(value for value in values if value is not None)
        family = known.setdefault(column, _FAMILY_OF_TYPE.get(type(first)))
        for kind in kinds:
            if family is None or _FAMILY_OF_TYPE.get(kind) is not family:
                raise TypeError(
                    f"table {table!r}, column {column!r}: a {kind.__name__} value "
                    "is not of the column's value family"
                )
    families.update(known)


class SortedRun:
    """A sorted list of order keys, kept sorted under add/remove.

    ``key`` extracts the ordered part of an entry (a CM key tuple is ordered
    by its leading position); ``None`` orders the entries themselves.
    Entries whose ordered parts are equal stay in arrival order.
    """

    __slots__ = ("items", "_key")

    def __init__(self, items: list[Any], key: Callable[[Any], Any] | None) -> None:
        self.items = items
        self._key = key

    @classmethod
    def build(
        cls, entries: Iterable[Any], *, key: Callable[[Any], Any] | None = None
    ) -> "SortedRun":
        """The sorted run of ``entries``."""
        return cls(sorted(entries, key=key), key)

    def add(self, entry: Any) -> None:
        """Insert ``entry`` after the entries it ties with."""
        insort(self.items, entry, key=self._key)

    def remove(self, entry: Any) -> None:
        """Remove one entry equal to ``entry``; ``ValueError`` if none is held."""
        items, key = self.items, self._key
        ordered = entry if key is None else key(entry)
        start = bisect_left(items, ordered, key=key)
        del items[items.index(entry, start, bisect_right(items, ordered, key=key))]

    def span(self, low: Any, high: Any) -> tuple[int, int]:
        """``[start, stop)`` of the entries with ``low <= ordered part <= high``.

        Either bound may be ``None`` (open); no NULL falls in any range, and
        a NaN only in one open above.  A bound of another family than the
        entries raises ``TypeError`` when bisection compares it with one.
        """
        items, key = self.items, self._key
        start = 0 if low is None else bisect_left(items, low, key=key)
        bound, cut = (NULL_KEY, bisect_left) if high is None else (high, bisect_right)
        return start, max(start, cut(items, bound, key=key))
