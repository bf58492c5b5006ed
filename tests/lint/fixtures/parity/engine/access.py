"""Good fixture: the one-sweep shapes (examined counted pre-filter)."""


def _sweep(self, context, pages_per_read, project=None):
    heap = self.table.heap
    page_filter = self._page_filter(context, project)
    by_page = context.snapshot is not None
    pages = self._target_pages(context)
    for start in range(0, len(pages), pages_per_read):
        for page in heap.read_pages(pages[start : start + pages_per_read]):  # allowed
            context.counters.pages_visited += 1
            live = page.live
            survivors = page_filter(live, page) if by_page else page_filter(live)
            yield page, live, survivors


def _stream(self, context):
    counters = context.counters
    for _page, live, survivors in self._sweep(context, 1):
        position = charged = 0
        for row in survivors:
            while live[position] is not row:
                position += 1
            position += 1
            counters.rows_examined += position - charged  # positional charge
            charged = position
            yield row
        counters.rows_examined += len(live) - charged


def _drain(self, context, batch_size, project=None):
    batch = []
    for _page, live, survivors in self._sweep(context, 4, project):
        context.counters.rows_examined += len(live)  # the unfiltered list
        batch.extend(survivors)
    yield batch


def visible_matches(table, predicates, snapshot):
    for page, _live, survivors in SeqScan(table, predicates)._sweep(snapshot, 1):
        yield from ((page.page_no, row) for row in survivors)


def build_index(index, heap):
    index.build(heap.scan(charge_io=False))  # an uncharged build


def fetch_rows(rows, predicates, counters, visible):
    for row in rows:
        counters.rows_examined += 1  # charged first, then filtered
        if visible(row) and predicates.matches(row):
            yield row


class SeqScan(AccessPath):
    def _stream(self, context):  # an access path's _stream *is* the lazy sweep
        yield from _stream(self, context)


class ProbeJoin(JoinOperator):
    def _stream_batches(self, context, batch_size, demand):
        # The row generator lives inside the one body, under its own name.
        yield from _chunk_rows(self._probe_lazily(context), batch_size, demand)

    def _probe_lazily(self, context):
        for outer_row in self.source.iter_rows(context.child()):
            yield outer_row
