"""Reservoir sampling.

The CM Advisor needs a uniform random sample of table rows to feed the
Adaptive Estimator.  The paper collects this sample "during the DS table
scan, yielding an optimum random sample" (Section 4.2); reservoir sampling is
the standard single-pass way to do that.
"""

from __future__ import annotations

import random
from itertools import count, islice
from typing import Any, Iterable, Iterator


class ReservoirSampler:
    """Maintain a uniform random sample of fixed size over a stream.

    Algorithm R (Vitter): the first ``capacity`` items fill the reservoir;
    each later item replaces a random slot with probability
    ``capacity / items_seen``.

    The reservoir is unordered, so deletions (:meth:`discard`) use
    swap-remove, and an identity index maps stored objects to their slot --
    deleting an item that is *the* sampled object (the common case when the
    caller feeds the same row objects it stores) is O(1).
    """

    def __init__(self, capacity: int, *, seed: int | None = None) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._items: list[Any] = []
        self._seen = 0
        #: id(stored object) -> its slot in ``_items``.  Entries exist exactly
        #: for the objects currently stored, so ids are never stale.
        self._slot_of: dict[int, int] = {}

    @property
    def items_seen(self) -> int:
        return self._seen

    @property
    def sample(self) -> list[Any]:
        """The current reservoir contents (a copy; iterate the sampler to read in place)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def add(self, item: Any) -> tuple[bool, Any]:
        """Offer one stream item; report what the reservoir did with it.

        Returns ``(admitted, evicted)``: whether ``item`` is now stored, and
        the stored item it replaced (``None`` when it replaced nothing), so
        a structure derived from the contents can follow them exactly.
        """
        self._seen += 1
        if len(self._items) < self.capacity:
            self._slot_of[id(item)] = len(self._items)
            self._items.append(item)
            return True, None
        slot = self._rng.randrange(self._seen)
        if slot >= self.capacity:
            return False, None
        evicted = self._items[slot]
        self._slot_of.pop(id(evicted), None)
        self._items[slot] = item
        self._slot_of[id(item)] = slot
        return True, evicted

    def extend(self, items: Iterable[Any]) -> None:
        """Offer every item in turn: the state of one :meth:`add` per item.

        While the reservoir has room every item is admitted and nothing is
        drawn, so those items are stored -- and indexed -- in one step;
        past capacity each goes through :meth:`add`, which keeps the random
        stream, and so every later decision, exactly the per-item one.
        """
        stream = iter(items)
        stored = self._items
        start = len(stored)
        stored.extend(islice(stream, max(0, self.capacity - start)))
        self._slot_of.update(zip(map(id, islice(stored, start, None)), count(start)))
        self._seen += len(stored) - start
        for item in stream:
            self.add(item)

    def discard(self, item: Any) -> bool:
        """Account for one deletion in the sampled stream.

        The stream length shrinks regardless; the sampled copy of ``item`` is
        removed when present.  Identity lookups hit the slot index in O(1);
        an equal-but-distinct object falls back to one linear scan.  Returns
        ``True`` when a sampled copy was removed.  Deletions keep the
        reservoir approximately uniform -- and exactly complete whenever the
        reservoir held the whole stream to begin with.
        """
        self._seen = max(0, self._seen - 1)
        slot = self._slot_of.get(id(item))
        if slot is None or self._items[slot] is not item:
            slot = next(
                (i for i, stored in enumerate(self._items) if stored == item), None
            )
            if slot is None:
                return False
        self._swap_remove(slot)
        return True

    def _swap_remove(self, slot: int) -> None:
        removed = self._items[slot]
        self._slot_of.pop(id(removed), None)
        last = self._items.pop()
        if slot < len(self._items):
            self._items[slot] = last
            self._slot_of[id(last)] = slot

    @classmethod
    def from_iterable(
        cls, items: Iterable[Any], capacity: int, *, seed: int | None = None
    ) -> "ReservoirSampler":
        sampler = cls(capacity, seed=seed)
        sampler.extend(items)
        return sampler
