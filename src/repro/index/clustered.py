"""The clustered index over a heap file.

After a table is clustered on attribute ``Ac`` the heap is physically sorted
by that attribute, and the clustered index maps key values (or key ranges) to
the heap pages that may contain them.  Lookups cost ``btree_height`` random
page reads to descend the index, followed by a sequential scan of the
qualifying heap pages -- the access pattern at the heart of the paper's cost
model (Section 4.1).

The index is implemented as a sparse array of per-page key bounds (one entry
per heap page, the classic clustering-index layout) with a B+Tree-like height
charged for descents.  It also records the clustered *bucket* layout produced
by the CM Advisor's clustered-attribute bucketing (Section 6.1.1), mapping
each bucket id to its contiguous heap page range.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterable

from repro.core.ordering import order_key
from repro.storage.buffer_pool import BufferPool

#: Fanout assumed when deriving the height of the clustered index from its
#: number of leaf entries; 256 matches the default secondary index order.
_HEIGHT_FANOUT = 256


class ClusteredIndex:
    """Maps clustered-attribute values to heap page ranges."""

    def __init__(self, name: str, attribute: str, buffer_pool: BufferPool) -> None:
        self.name = name
        self.attribute = attribute
        self.buffer_pool = buffer_pool
        #: Per heap page: the smallest clustered key stored on it.
        self._page_min_keys: list[Any] = []
        #: Per heap page: the largest clustered key stored on it.
        self._page_max_keys: list[Any] = []
        #: Bucket id -> inclusive (first_page, last_page) range.
        self._bucket_pages: dict[Any, tuple[int, int]] = {}

    # -- construction -----------------------------------------------------------

    def build(self, page_key_bounds: Iterable[tuple[Any, Any]]) -> None:
        """Build from per-page ``(min_key, max_key)`` bounds in page order.

        The bounds are order keys (:func:`~repro.core.ordering.order_key`),
        so a page of NULLs or NaNs sorts after every page of values.
        """
        self._page_min_keys = []
        self._page_max_keys = []
        for min_key, max_key in page_key_bounds:
            self._page_min_keys.append(min_key)
            self._page_max_keys.append(max_key)

    def register_bucket(self, bucket_id: Any, first_page: int, last_page: int) -> None:
        """Record the heap page range covered by a clustered bucket."""
        if last_page < first_page:
            raise ValueError("bucket page range is inverted")
        self._bucket_pages[bucket_id] = (first_page, last_page)

    # -- properties --------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return len(self._page_min_keys)

    @property
    def num_buckets(self) -> int:
        return len(self._bucket_pages)

    @property
    def btree_height(self) -> int:
        """Height charged for a descent (``btree_height`` of Table 1)."""
        pages = max(1, self.num_pages)
        return max(1, math.ceil(math.log(pages, _HEIGHT_FANOUT)) + 1)

    # -- lookups ------------------------------------------------------------------

    def _charge_descent(self) -> None:
        for level in range(self.btree_height):
            self.buffer_pool.access(self.name, level)

    def charge_descents(self, n: int = 1) -> None:
        """Charge the I/O of ``n`` root-to-leaf descents of the index.

        Public entry point for executors that batch their descents (e.g. one
        per contiguous page run of a correlation-map scan).
        """
        for _ in range(max(0, n)):
            self._charge_descent()

    def pages_for_value(self, value: Any) -> list[int]:
        """Heap pages that may contain ``value`` (contiguous by construction)."""
        self._charge_descent()
        return self._pages_for_range(order_key(value), order_key(value))

    def pages_for_range(self, low: Any, high: Any) -> list[int]:
        """Heap pages that may contain keys in ``[low, high]``."""
        self._charge_descent()
        return self._pages_for_range(low, high)

    def _pages_for_range(self, low: Any, high: Any) -> list[int]:
        if not self._page_min_keys:
            return []
        if low is None:
            first = 0
        else:
            # First page whose largest key reaches the start of the range.
            first = bisect.bisect_left(self._page_max_keys, low)
        if high is None:
            last = len(self._page_min_keys) - 1
        else:
            # Last page whose smallest key does not exceed the range end.
            last = bisect.bisect_right(self._page_min_keys, high) - 1
        if first >= len(self._page_min_keys) or last < first:
            return []
        return list(range(first, last + 1))

    def pages_for_bucket(self, bucket_id: Any) -> list[int]:
        """Heap pages covered by a clustered bucket id."""
        if bucket_id not in self._bucket_pages:
            return []
        self._charge_descent()
        first, last = self._bucket_pages[bucket_id]
        return list(range(first, last + 1))
