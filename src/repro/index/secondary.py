"""Secondary (unclustered) B+Tree indexes.

A secondary index maps values of one or more unclustered attributes to the
RIDs of the tuples containing them.  Like PostgreSQL's nbtree, the index is
*dense*: every tuple contributes one entry, keyed by ``(value, RID)`` so that
duplicates of a popular value spread across many leaf pages.  This is what
makes secondary indexes large (hundreds of megabytes for the paper's data
sets), what fills the buffer pool with dirty leaf pages during updates, and
what correlation maps replace with a value-level mapping a few orders of
magnitude smaller.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.core.ordering import NULL_KEY, order_key
from repro.index.btree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import RID

#: Rough per-entry byte cost used for size reporting: key bytes + 6-byte RID
#: + item header, matching PostgreSQL's ~20 byte index tuple overhead.
_ENTRY_OVERHEAD_BYTES = 20


def _key_size_bytes(key: Any) -> int:
    if isinstance(key, tuple):
        return sum(_key_size_bytes(part) for part in key)
    if isinstance(key, str):
        return max(4, len(key))
    if isinstance(key, float):
        return 8
    return 8


class SecondaryIndex:
    """A dense unclustered B+Tree index over ``attributes`` of a table.

    Parameters
    ----------
    name:
        Index (and file) name used for buffer-pool accounting.
    attributes:
        Attribute names forming the index key, in order.  Composite keys are
        stored as tuples, so only a prefix of the key can drive range
        predicates (the limitation Experiment 5 demonstrates).
    buffer_pool:
        Shared buffer pool; traversals and maintenance charge page accesses.
    order:
        B+Tree fanout (index entries per node page).
    """

    def __init__(
        self,
        name: str,
        attributes: Iterable[str],
        buffer_pool: BufferPool,
        *,
        order: int = 256,
    ) -> None:
        self.name = name
        self.attributes = tuple(attributes)
        if not self.attributes:
            raise ValueError("a secondary index needs at least one attribute")
        self.buffer_pool = buffer_pool
        self.tree = BPlusTree(order=order, name=name)
        self._key_bytes_total = 0

    # -- key handling ----------------------------------------------------------

    def key_of(self, row: dict[str, Any]) -> Any:
        """The index key of ``row``: its value's order key (a tuple of them
        for composites; see :mod:`repro.core.ordering`)."""
        if len(self.attributes) == 1:
            return order_key(row[self.attributes[0]])
        return tuple(order_key(row[attr]) for attr in self.attributes)

    @staticmethod
    def _entry_key(key: Any, rid: RID) -> tuple[Any, RID]:
        """The dense tree key: the attribute value(s) plus the heap TID."""
        return (key, rid)

    # -- build / maintenance -----------------------------------------------------

    def build(self, rows_with_rids: Iterable[tuple[RID, dict[str, Any]]]) -> None:
        """Bulk build the index (no buffer-pool traffic, like CREATE INDEX)."""
        for rid, row in rows_with_rids:
            key = self.key_of(row)
            self.tree.insert(self._entry_key(key, rid), rid)
            self._key_bytes_total += _key_size_bytes(key)

    def insert(self, rid: RID, row: dict[str, Any], *, charge_io: bool = True) -> None:
        """Index maintenance for one inserted tuple.

        The root-to-leaf path is read through the buffer pool and the leaf
        (plus any split pages) is dirtied, which is what fills the buffer pool
        with dirty index pages during bulk updates.
        """
        key = self.key_of(row)
        modified = self.tree.insert(self._entry_key(key, rid), rid)
        self._key_bytes_total += _key_size_bytes(key)
        if charge_io:
            self._charge_path(modified)

    def delete(self, rid: RID, row: dict[str, Any], *, charge_io: bool = True) -> None:
        key = self.key_of(row)
        modified = self.tree.delete(self._entry_key(key, rid), rid)
        if modified:
            self._key_bytes_total -= _key_size_bytes(key)
        if charge_io and modified:
            self._charge_path(modified)

    def _charge_path(self, page_numbers: list[int]) -> None:
        if not page_numbers:
            return
        # All but the last traversed page are interior reads; the final pages
        # (leaf and split victims) are modified.
        for page_no in page_numbers[:-1]:
            self.buffer_pool.access(self.name, page_no)
        self.buffer_pool.access(self.name, page_numbers[-1], dirty=True)

    # -- lookups -------------------------------------------------------------------

    def _charge_scan(self, entries_scanned: int) -> None:
        """Charge one descent plus the leaf pages walked along the leaf chain."""
        descent = self.tree.height
        leaf_pages = max(1, -(-entries_scanned // max(1, self.tree.order)))
        for offset in range(descent + leaf_pages):
            self.buffer_pool.access(self.name, offset)

    def _iter_entries_from(self, key: Any) -> Iterator[tuple[Any, RID]]:
        """Iterate ``(value, rid)`` entries starting at the first entry >= key."""
        for entry_key, _payloads in self.tree.range_scan((key,)):
            yield entry_key

    def probe(self, key: Any) -> list[RID]:
        """Return the RIDs stored under ``key``, charging a root-to-leaf read."""
        key = order_key(key) if len(self.attributes) == 1 else tuple(map(order_key, key))
        rids = []
        scanned = 0
        for value, rid in self._iter_entries_from(key):
            if value != key:
                break
            rids.append(rid)
            scanned += 1
        self._charge_scan(scanned)
        return rids

    def probe_range(self, low: Any = None, high: Any = None) -> list[RID]:
        """Return RIDs for all keys in the inclusive range ``[low, high]``.

        ``None`` bounds are open; no NULL key is in range, and a NaN key
        only when the range is open above.
        """
        rids: list[RID] = []
        scanned = 0
        if low is None:
            iterator = (entry for entry, _ in self.tree.range_scan())
        else:
            iterator = self._iter_entries_from(low)
        for value, rid in iterator:
            if value > high if high is not None else value is NULL_KEY:
                break
            rids.append(rid)
            scanned += 1
        self._charge_scan(scanned)
        return rids

    def probe_prefix_range(self, low: Any = None, high: Any = None) -> list[RID]:
        """RIDs whose *first* key attribute lies in ``[low, high]``.

        Composite indexes can only use the leading attribute of their key for
        a range predicate (the B+Tree(ra, dec) limitation of Experiment 5);
        the remaining attributes must be filtered on the fetched tuples.
        """
        if len(self.attributes) == 1:
            return self.probe_range(low, high)
        # An equality on the prefix arrives as the range (value, value).
        low, high = (bound if bound is None else order_key(bound) for bound in (low, high))
        rids: list[RID] = []
        scanned = 0
        if low is None:
            iterator = (entry for entry, _ in self.tree.range_scan())
        else:
            iterator = (entry for entry, _ in self.tree.range_scan(((low,),)))
        for value, rid in iterator:
            if value[0] > high if high is not None else value[0] is NULL_KEY:
                break
            rids.append(rid)
            scanned += 1
        self._charge_scan(scanned)
        return rids

    def distinct_keys(self) -> list[Any]:
        """All distinct attribute values in key order (catalog use; no I/O)."""
        seen: list[Any] = []
        for entry_key, _payloads in self.tree.items():
            value = entry_key[0]
            if not seen or seen[-1] != value:
                seen.append(value)
        return seen

    # -- size accounting ---------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self.tree.num_entries

    @property
    def btree_height(self) -> int:
        return self.tree.height

    def size_bytes(self) -> int:
        """Approximate on-disk size: dense entries plus node overhead."""
        return self._key_bytes_total + self.tree.num_entries * _ENTRY_OVERHEAD_BYTES

    def size_pages(self) -> int:
        page_size = self.buffer_pool.disk.params.page_size_bytes
        return max(1, -(-self.size_bytes() // page_size))
