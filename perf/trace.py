"""Span tracing around the engine's public layer entry points.

The wrappers live here, not in ``src/``: :func:`install` replaces a fixed
list of public methods with timing wrappers for the duration of the traced
phase and :func:`uninstall` restores them.  A span is ``(name, start, end,
parent, op id)``; spans are kept in memory and written out when the run
ends.  A layer's *self time* is its spans' duration minus the part covered
by their child spans, so the self times of one operation add up to the
operation's own span exactly.

Generator-based operators (scan kernels, joins, sort, group-by) have no
call boundary to wrap; their time shows up as the self time of
``Database.run_query`` / ``QueryScheduler.step`` and is measured by the
differencing probes instead.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: ``(layer, module, class or None, attribute)`` -- the wrapped entry points.
ENTRY_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    ("database", "repro.engine.database", "Database", "run_query"),
    ("database", "repro.engine.database", "Database", "insert"),
    ("database", "repro.engine.database", "Database", "checkpoint"),
    ("transactions", "repro.engine.database", "Database", "tx_insert"),
    ("transactions", "repro.engine.database", "Database", "tx_update"),
    ("transactions", "repro.engine.database", "Database", "tx_delete"),
    ("transactions", "repro.engine.transactions", "Transaction", "commit"),
    ("planner", "repro.engine.planner", "Planner", "choose"),
    ("planner", "repro.engine.planner", "Planner", "choose_join"),
    ("planner", "repro.engine.planner", "Planner", "choose_partitioned"),
    ("planner", "repro.engine.planner", "Planner", "choose_partitioned_join"),
    ("core", "repro.engine.table", "Table", "estimate_matching_rows"),
    ("core", "repro.core.correlation_map", "CorrelationMap", "lookup_constraints"),
    ("core", "repro.core.correlation_map", "CorrelationMap", "insert"),
    ("index", "repro.index.secondary", "SecondaryIndex", "probe"),
    ("index", "repro.index.secondary", "SecondaryIndex", "probe_range"),
    ("index", "repro.index.secondary", "SecondaryIndex", "probe_prefix_range"),
    ("index", "repro.index.secondary", "SecondaryIndex", "insert"),
    ("storage", "repro.storage.heap", "HeapFile", "read_pages"),
    ("storage", "repro.storage.buffer_pool", "BufferPool", "access_run"),
    ("storage", "repro.storage.disk", "DiskModel", "read_page_run"),
    ("storage", "repro.storage.wal", "WriteAheadLog", "append"),
    ("storage", "repro.storage.wal", "WriteAheadLog", "flush"),
    ("scheduler", "repro.engine.scheduler", "QueryScheduler", "submit"),
    ("scheduler", "repro.engine.scheduler", "QueryScheduler", "step"),
    ("parallel", "repro.engine.parallel", None, "maybe_run_parallel"),
)

#: The root span the harness opens around each step; its self time is the
#: part of the operation no wrapped entry point covers.
OP_SPAN = "op"
OP_LAYER = "unattributed"

LAYERS = tuple(dict.fromkeys(layer for layer, *_rest in ENTRY_POINTS)) + (OP_LAYER,)


class Tracer:
    """Collects spans from the installed wrappers."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent index, op id]`` per span.
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._originals: list[tuple[Any, str, Any]] = []
        self._layer_of: dict[str, str] = {OP_SPAN: OP_LAYER}

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self._op_id]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for layer, module_name, class_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            label = f"{class_name or module_name.rsplit('.', 1)[-1]}.{attribute}"
            self._layer_of[label] = layer
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(label, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    # -- the per-op root span ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, perf_counter_ns(), 0, -1, op_id])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter_ns()

    # -- folding -----------------------------------------------------------------

    def fold(self) -> dict[str, Any]:
        """Per-layer self time, call counts and inclusive time per span name."""
        self_ns = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                self_ns[span[3]] -= span[2] - span[1]
        layer_self: dict[str, int] = defaultdict(int)
        name_self: dict[str, int] = defaultdict(int)
        name_inclusive: dict[str, int] = defaultdict(int)
        name_calls: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self_ns):
            name = span[0]
            layer_self[self._layer_of[name]] += own
            name_self[name] += own
            name_inclusive[name] += span[2] - span[1]
            name_calls[name] += 1
        return {
            "op_ns": name_inclusive[OP_SPAN],
            "ops": name_calls[OP_SPAN],
            "layer_self_ns": {layer: layer_self.get(layer, 0) for layer in LAYERS},
            "by_name": {
                name: {
                    "layer": self._layer_of[name],
                    "calls": name_calls[name],
                    "self_ns": name_self[name],
                    "inclusive_ns": name_inclusive[name],
                }
                for name in sorted(name_calls)
            },
        }

    def planner_inclusive_ns(self) -> int:
        """Time inside the outermost ``Planner.choose*`` span of each op."""
        total = 0
        for span in self.spans:
            if self._layer_of[span[0]] != "planner":
                continue
            parent = span[3]
            while parent >= 0 and self._layer_of[self.spans[parent][0]] != "planner":
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def write(self, path: Path, header: dict[str, Any]) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: position for position, name in enumerate(names)}
        payload = {
            **header,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
            "names": names,
            "spans": [[index[span[0]], *span[1:]] for span in self.spans],
            "folded": self.fold(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")
