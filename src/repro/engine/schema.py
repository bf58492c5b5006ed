"""Table schemas.

Schemas are intentionally light-weight: a named list of columns with
per-column byte widths, used to derive ``tups_per_page`` (how many tuples fit
on an 8 KB page), which in turn drives every cost formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

#: Default width assumed for columns without an explicit byte width.
DEFAULT_COLUMN_BYTES = 8
#: Per-tuple header overhead (PostgreSQL's ~24 byte tuple header + item id).
TUPLE_OVERHEAD_BYTES = 28


@dataclass(frozen=True)
class TableSchema:
    """Column layout of one table."""

    name: str
    columns: tuple[str, ...]
    column_bytes: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("a table needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        unknown = set(self.column_bytes) - set(self.columns)
        if unknown:
            raise ValueError(f"column_bytes refers to unknown columns: {sorted(unknown)}")

    @classmethod
    def from_columns(cls, name: str, columns: Sequence[str]) -> "TableSchema":
        """Columns of the default width."""
        return cls(name=name, columns=tuple(columns))

    @classmethod
    def infer(cls, name: str, sample_row: Mapping[str, Any]) -> "TableSchema":
        """Infer a schema (and column widths) from one example row."""
        widths = {}
        for column, value in sample_row.items():
            if isinstance(value, str):
                widths[column] = max(4, len(value) + 1)
            elif isinstance(value, float):
                widths[column] = 8
            elif isinstance(value, bool):
                widths[column] = 1
            else:
                widths[column] = 8
        return cls(name=name, columns=tuple(sample_row), column_bytes=widths)

    def has_column(self, column: str) -> bool:
        return column in self.columns

    def row_bytes(self) -> int:
        """Estimated bytes per tuple including header overhead."""
        payload = sum(
            self.column_bytes.get(column, DEFAULT_COLUMN_BYTES) for column in self.columns
        )
        return payload + TUPLE_OVERHEAD_BYTES

    def tups_per_page(self, page_size_bytes: int = 8192) -> int:
        """How many tuples fit on one page (at least 1)."""
        return max(1, page_size_bytes // self.row_bytes())

    def with_column(self, column: str) -> "TableSchema":
        """A copy of the schema with one extra column (e.g. the bucket id) of
        the default width."""
        if column in self.columns:
            return self
        return TableSchema(
            name=self.name,
            columns=self.columns + (column,),
            column_bytes={**dict(self.column_bytes), column: DEFAULT_COLUMN_BYTES},
        )
