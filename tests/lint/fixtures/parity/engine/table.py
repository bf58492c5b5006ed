"""Good fixture: the two stamping sites, each telling the page."""

from repro.engine.transactions import XMAX_COLUMN, XMIN_COLUMN


class Table:
    def insert_version(self, row, xid):  # noqa: fixtures skip typed-defs
        versioned = dict(row)
        versioned[XMIN_COLUMN] = xid  # allowed here: _place tells the page
        return self._place(versioned, creator=xid)

    def mark_deleted(self, rid, xid):
        row = self.heap.fetch(rid)
        self.heap.pages[rid.page_no].note_deleter(xid)
        row[XMAX_COLUMN] = xid  # allowed here
        return row

    def _note_versions(self, placed):
        for rid, row in placed:
            xmin = row.get(XMIN_COLUMN)  # re-placement reads stamps, never writes
            if xmin is not None:
                self.heap.pages[rid.page_no].note_creator(xmin)
