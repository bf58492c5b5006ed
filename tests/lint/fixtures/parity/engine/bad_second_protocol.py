"""Bad fixture: plan nodes that bring the row-at-a-time protocol back."""


class LimitNode(DecoratorNode):  # noqa: fixtures skip typed-defs
    def _stream(self, context):  # line 5: REPRO102 (a second operator body)
        yield from self.source.iter_rows(context)

    def _stream_batches(self, context, batch_size, demand):
        yield from self.source.iter_batches(context, batch_size, demand)


class CachedJoin(JoinOperator):
    def iter_rows(self, context=None):  # line 13: REPRO102 (the view is PlanNode's)
        yield from self._cache
