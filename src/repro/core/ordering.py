"""Sorted runs: the ``bisect`` behind plan-time range questions.

Two structures answer "which entries fall inside ``[low, high]``" at plan
time -- a sorted column of the statistics sample (range selectivity) and the
sorted key directory of a correlation map (range lookups).  Both are a
:class:`SortedRun`: a sorted list that is only ever built over values from
one *totally ordered family*, so that ``bisect`` over it counts exactly what
a comparison of every entry against the bounds would count.

The family rule is what makes that equality hold.  ``None`` and mixed types
raise on comparison; NaN compares false with everything, so a range
predicate *accepts* it (``not value < low and not value > high``) while no
position in a sorted list represents it; sets and other partial orders sort
without complaint into an order ``bisect`` cannot use.  A run therefore
admits only the builtin scalars whose ``<`` is a total order, all from the
same family, and its owner falls back to the linear pass for anything else.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from datetime import date, datetime
from operator import ne
from typing import Any, Callable, Iterable, Sequence

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


def order_family(value: Any) -> type | None:
    """The totally ordered family ``value`` belongs to; ``None`` for none."""
    family = _FAMILY_OF_TYPE.get(type(value))
    if family is float and value != value:  # NaN
        return None
    return family


def orders_totally(values: Sequence[Any]) -> bool:
    """Whether every value belongs to one ordered family (vacuously for none).

    Over such values ``<`` is a total order, so ``sorted``, ``bisect``,
    ``min`` and ``max`` agree with a comparison of every value against every
    other -- and none of them raises.
    """
    families = {_FAMILY_OF_TYPE.get(kind) for kind in set(map(type, values))}
    if None in families or len(families) > 1:
        return False
    return float not in families or not any(map(ne, values, values))  # NaN


class SortedRun:
    """A sorted list over one ordered family, kept sorted under add/remove.

    ``key`` extracts the ordered part of an entry (a CM key tuple is ordered
    by its leading position); ``None`` orders the entries themselves.
    Entries whose ordered parts are equal stay in arrival order.
    """

    __slots__ = ("items", "_key")

    def __init__(self, items: list[Any], key: Callable[[Any], Any] | None) -> None:
        self.items = items
        self._key = key

    @property
    def family(self) -> type | None:
        """The family every entry belongs to; ``None`` while the run is empty."""
        return order_family(self._ordered(self.items[0])) if self.items else None

    def _ordered(self, entry: Any) -> Any:
        return entry if self._key is None else self._key(entry)

    @classmethod
    def build(
        cls, entries: Iterable[Any], *, key: Callable[[Any], Any] | None = None
    ) -> "SortedRun | None":
        """The sorted run of ``entries``; ``None`` when they do not order."""
        items = list(entries)
        ordered = items if key is None else list(map(key, items))
        if not orders_totally(ordered):
            return None
        items.sort(key=key)
        return cls(items, key)

    def add(self, entry: Any) -> bool:
        """Insert ``entry``; ``False`` (run unchanged) if it does not order."""
        family = order_family(self._ordered(entry))
        if family is None or self.family not in (None, family):
            return False
        insort(self.items, entry, key=self._key)
        return True

    def remove(self, entry: Any) -> bool:
        """Remove one entry equal to ``entry``; ``False`` if none is held."""
        items, ordered = self.items, self._ordered(entry)
        if not items or order_family(ordered) is not self.family:
            return False
        position = bisect_left(items, ordered, key=self._key)
        while position < len(items):
            candidate = items[position]
            if candidate == entry:
                del items[position]
                return True
            if self._ordered(candidate) != ordered:
                break
            position += 1
        return False

    def span(self, low: Any, high: Any) -> tuple[int, int] | None:
        """``[start, stop)`` of the entries with ``low <= ordered part <= high``.

        Either bound may be ``None`` (open).  ``None`` when a bound is not
        of the run's family -- the caller's linear pass decides what such a
        comparison means (or raises, as it always did).
        """
        items, key, family = self.items, self._key, self.family
        if not items:
            return 0, 0
        start, stop = 0, len(items)
        if low is not None:
            if order_family(low) is not family:
                return None
            start = bisect_left(items, low, key=key)
        if high is not None:
            if order_family(high) is not family:
                return None
            stop = bisect_right(items, high, key=key)
        return start, max(start, stop)
