"""Good fixture: the shared-kernel shapes (examined counted pre-filter)."""


def _sweep_pages(heap, page_filter, counters, by_page):
    for page in heap.read_pages(range(heap.num_pages)):  # allowed here
        live = [row for row in page.slots if row is not None]
        survivors = page_filter(live, page) if by_page else page_filter(live)
        position = charged = 0
        for row in survivors:
            while live[position] is not row:
                position += 1
            position += 1
            counters.rows_examined += position - charged  # positional charge
            charged = position
            yield row
        counters.rows_examined += len(live) - charged


def _sweep_pages_batched(heap, page_filter, counters, by_page):
    for page in heap.read_pages(range(heap.num_pages)):  # allowed here
        live = [row for row in page.slots if row is not None]
        counters.rows_examined += len(live)  # the unfiltered list
        yield page_filter(live, page) if by_page else page_filter(live)


def fetch_rows(rows, predicates, counters, visible):
    for row in rows:
        counters.rows_examined += 1  # charged first, then filtered
        if visible(row) and predicates.matches(row):
            yield row


class SeqScan(AccessPath):
    def _stream(self, context):  # an access path's _stream *is* the lazy sweep
        yield from self._sweep_pages(self._target_pages(context), context)


class ProbeJoin(JoinOperator):
    def _stream_batches(self, context, batch_size, demand):
        # The row generator lives inside the one body, under its own name.
        yield from _chunk_rows(self._probe_lazily(context), batch_size, demand)

    def _probe_lazily(self, context):
        for outer_row in self.source.iter_rows(context.child()):
            yield outer_row
