"""Bad fixture: a read policy threaded beside the protocol's demand."""


class ProbeJoin(JoinOperator):  # noqa: fixtures skip typed-defs
    def _stream_batches(self, context, batch_size, demand, read_runs):  # line 5
        yield from self.source.iter_batches(context, batch_size, None, False)


class SeqScan(AccessPath):
    def iter_batches(
        self,
        context=None,
        batch_size=256,
        demand=None,
        *,
        read_ahead=True,  # line 16: REPRO102 (keyword-only counts too)
    ):
        yield from self._stream_batches(context, batch_size, demand)

    def _stream_batches(self, context, batch_size, demand, **policy):  # line 20
        yield from self._sweep(context, batch_size, demand, **policy)


class ScanNode(PlanNode):
    def _stream_batches(self, context, batch_size, demand):  # the protocol: clean
        return self.path._stream_batches(context, batch_size, demand)
