"""Bad fixture: MVCC stamps written where no page summary is kept."""

from repro.engine import transactions
from repro.engine.transactions import XMAX_COLUMN, XMIN_COLUMN


def revive(row):  # noqa: fixtures skip typed-defs
    del row[XMAX_COLUMN]  # line 8: REPRO102 (a stamp removed off the books)


def backdate(rows, xid):
    for row in rows:
        row[XMIN_COLUMN] = xid  # line 13: REPRO102
        row["_xmax"] = xid  # line 14: REPRO102 (the literal is the same column)
        row[transactions.XMAX_COLUMN] = xid  # line 15: REPRO102


def insert_version(row, xid):
    row[XMIN_COLUMN] = xid  # line 19: REPRO102 (right name, wrong module)
    return {XMIN_COLUMN: row.get(XMIN_COLUMN)}  # reading a stamp is fine
