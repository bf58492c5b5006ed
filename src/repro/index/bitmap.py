"""Page bitmaps used by sorted (bitmap) index scans.

PostgreSQL's bitmap heap scan -- the "sorted index scan" of Section 3.2 --
collects the heap pages that contain matching tuples into a bitmap, then
visits them in ascending page order so that the disk head sweeps the file
once.  This class models that bitmap and reports how fragmented the resulting
access pattern is (number of contiguous page runs), which determines how many
seeks the sweep performs.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class PageBitmap:
    """A set of heap page numbers visited in ascending order."""

    def __init__(self, pages: Iterable[int] = ()) -> None:
        self._pages: set[int] = set()
        for page_no in pages:
            self.add(page_no)

    def add(self, page_no: int) -> None:
        if page_no < 0:
            raise ValueError("page numbers must be non-negative")
        self._pages.add(page_no)

    def intersection(self, other: "PageBitmap") -> "PageBitmap":
        result = PageBitmap()
        result._pages = self._pages & other._pages
        return result

    def __contains__(self, page_no: int) -> bool:
        return page_no in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def __bool__(self) -> bool:
        return bool(self._pages)

    def __iter__(self) -> Iterator[int]:
        """Iterate pages in ascending order (the sweep order)."""
        return iter(sorted(self._pages))

    def pages(self) -> list[int]:
        return sorted(self._pages)

    def runs(self) -> list[tuple[int, int]]:
        """Contiguous page runs as inclusive ``(start, end)`` pairs."""
        runs: list[tuple[int, int]] = []
        start = prev = None
        for page_no in sorted(self._pages):
            if start is None:
                start = prev = page_no
            elif page_no == prev + 1:
                prev = page_no
            else:
                runs.append((start, prev))
                start = prev = page_no
        if start is not None:
            runs.append((start, prev))
        return runs

    @property
    def num_runs(self) -> int:
        """Number of contiguous runs; each run costs one seek on disk."""
        return len(self.runs())
