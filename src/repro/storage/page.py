"""Pages and record identifiers.

A :class:`Page` is the unit of disk transfer and buffer-pool residency.  Heap
pages hold a fixed number of tuples (``tups_per_page`` in the paper's cost
model); index files use pages to account for node storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

#: Default page size used for size accounting (PostgreSQL's 8 KB pages).
PAGE_SIZE_BYTES = 8192


@dataclass(frozen=True, order=True, slots=True)
class RID:
    """A record identifier: heap page number plus slot within the page.

    ``slots=True``: RIDs exist by the million (one per tuple, held by every
    secondary index), so dropping the per-instance ``__dict__`` measurably
    shrinks index memory and speeds attribute access on the probe hot path.
    """

    page_no: int
    slot: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RID({self.page_no}, {self.slot})"


@dataclass(slots=True)
class Page:
    """A slotted heap page holding up to ``capacity`` tuples.

    Tuples are stored as plain dictionaries keyed by column name.  Deleted
    slots are set to ``None`` so that RIDs of surviving tuples stay valid.
    ``slots=True`` keeps the per-page object slim and its attribute reads
    cheap -- the page sweep touches ``page.live`` once per page.

    ``creators`` / ``deleters`` are the page's *version summary*: the
    transaction ids its slots were stamped with, as told by whoever placed
    a stamped row here or stamped a placed one (:meth:`note_creator`,
    :meth:`note_deleter`; the page itself never looks inside a row).  Both
    only grow -- a physical :meth:`delete` leaves them alone -- so they are
    a superset of the stamps on the live slots, which is all a reader needs
    to decide a whole page at once (``Snapshot.sees_page``).  A page that
    was only ever bulk-loaded shares the one empty ``frozenset``.

    :attr:`live` is the page's live-row list, built on first read and kept
    until the next write.  A list that was handed out is never mutated:
    :meth:`append` and :meth:`delete` drop it (the next read builds a new
    one), so a lazy sweep still holding the old list while its consumer
    deletes from the page walks exactly the rows it was given.  ``slots``
    is written only here, which is what keeps the cached list honest.
    """

    page_no: int
    capacity: int
    slots: list[dict[str, Any] | None] = field(default_factory=list)
    creators: frozenset[int] = frozenset()
    deleters: frozenset[int] = frozenset()
    _live: list[dict[str, Any]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def filled(
        cls, page_no: int, capacity: int, rows: list[dict[str, Any]]
    ) -> "Page":
        """A page holding ``rows`` in slots ``0..len(rows) - 1``.

        The page takes ``rows`` as its slot list (pass a list nobody else
        writes); the result equals a fresh page given each row through
        :meth:`append`.
        """
        if len(rows) > capacity:
            raise ValueError(f"{len(rows)} rows do not fit a {capacity}-slot page")
        return cls(page_no, capacity, rows)

    @property
    def live(self) -> list[dict[str, Any]]:
        """The live (non-deleted) rows in slot order; treat as read-only."""
        live = self._live
        if live is None:
            live = self._live = [row for row in self.slots if row is not None]
        return live

    @property
    def num_tuples(self) -> int:
        """Number of live (non-deleted) tuples on the page."""
        return len(self.live)

    @property
    def is_full(self) -> bool:
        return len(self.slots) >= self.capacity

    def append(self, row: dict[str, Any]) -> int:
        """Append ``row`` and return its slot number.

        Raises :class:`ValueError` when the page is full; the heap file is
        responsible for allocating a new page in that case.
        """
        if self.is_full:
            raise ValueError(f"page {self.page_no} is full ({self.capacity} slots)")
        self.slots.append(row)
        self._live = None
        return len(self.slots) - 1

    def get(self, slot: int) -> dict[str, Any] | None:
        if slot < 0 or slot >= len(self.slots):
            raise IndexError(f"slot {slot} out of range on page {self.page_no}")
        return self.slots[slot]

    def delete(self, slot: int) -> dict[str, Any] | None:
        """Mark ``slot`` deleted and return the tuple it held (if any)."""
        row = self.get(slot)
        self.slots[slot] = None
        self._live = None
        return row

    def note_creator(self, xid: int) -> None:
        """Record that a slot here holds a version created by ``xid``."""
        if xid not in self.creators:
            self.creators |= {xid}

    def note_deleter(self, xid: int) -> None:
        """Record that a slot here holds a version delete-stamped by ``xid``."""
        if xid not in self.deleters:
            self.deleters |= {xid}

    def live_rows(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Yield ``(slot, row)`` pairs for live tuples, in slot order."""
        for slot, row in enumerate(self.slots):
            if row is not None:
                yield slot, row
