"""Tests for table schemas."""

import pytest

from repro.engine.schema import DEFAULT_COLUMN_BYTES, TUPLE_OVERHEAD_BYTES, TableSchema


def test_requires_columns():
    with pytest.raises(ValueError):
        TableSchema(name="t", columns=())


def test_rejects_duplicate_columns():
    with pytest.raises(ValueError):
        TableSchema.from_columns("t", ["a", "a"])


def test_rejects_unknown_column_bytes():
    with pytest.raises(ValueError):
        TableSchema("t", ("a",), {"b": 4})


def test_from_columns_and_has_column():
    schema = TableSchema.from_columns("t", ["a", "b"])
    assert schema.has_column("a")
    assert not schema.has_column("z")


def test_columns_without_a_width_take_the_default():
    schema = TableSchema.from_columns("t", ["a", "b"])
    assert schema.row_bytes() == 2 * DEFAULT_COLUMN_BYTES + TUPLE_OVERHEAD_BYTES
    inferred = TableSchema.infer("t", {"name": "a long city name"})
    extended = inferred.with_column("_cm_bucket")
    assert extended.column_bytes["_cm_bucket"] == DEFAULT_COLUMN_BYTES
    assert extended.row_bytes() == inferred.row_bytes() + DEFAULT_COLUMN_BYTES


def test_infer_from_sample_row():
    schema = TableSchema.infer("items", {"id": 1, "name": "Boston", "price": 9.5, "flag": True})
    assert schema.columns == ("id", "name", "price", "flag")
    assert schema.column_bytes["name"] >= 7
    assert schema.column_bytes["flag"] == 1


def test_row_bytes_includes_overhead():
    schema = TableSchema("t", ("a", "b"), {"a": 8, "b": 8})
    assert schema.row_bytes() == 16 + 28


def test_tups_per_page():
    schema = TableSchema("t", ("a",), {"a": 8})
    assert schema.tups_per_page(8192) == 8192 // 36
    # A very wide row still fits at least one tuple per page.
    wide = TableSchema("w", ("blob",), {"blob": 100_000})
    assert wide.tups_per_page(8192) == 1


def test_with_column_adds_once():
    schema = TableSchema.from_columns("t", ["a"])
    extended = schema.with_column("_cm_bucket")
    assert extended.has_column("_cm_bucket")
    assert extended.with_column("_cm_bucket") is extended
    # The original is unchanged (schemas are immutable values).
    assert not schema.has_column("_cm_bucket")
