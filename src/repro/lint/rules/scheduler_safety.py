"""REPRO104: nothing may stall or bloat a quantum-suspended pipeline.

The cooperative scheduler advances each admitted query one batch per
quantum via ``next(entry._iterator)``; fairness and the documented
latency bounds only hold if a quantum is short and bounded.  Two shapes
break that:

* ``time.sleep`` anywhere in the engine -- a blocking sleep inside an
  operator stalls every other query sharing the scheduler (and in tests
  it hides ordering bugs behind wall-clock waits);
* draining an entire row source eagerly inside scheduler code
  (``list(plan.iter_batches(...))``, ``sorted(...iter_rows())``, the same
  over a held ``_iterator``) -- one quantum would then materialize an
  unbounded intermediate, defeating batch-at-a-time admission control.  Operators that legitimately
  materialize (sort, hash build) do it behind their own operators, not
  in the scheduler loop.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleSource
from repro.lint.registry import Rule, register_rule
from repro.lint.rules._common import (
    import_aliases,
    qualified_call_name,
    terminal_attribute,
)
from repro.lint.violations import Violation

#: Eager drains banned in scheduler modules when fed by a row source.
MATERIALIZERS = frozenset({"list", "tuple", "sorted", "set"})

#: Row-source pulls that mark an argument as "a pipeline".
PIPELINE_CALLS = frozenset({"iter_rows", "iter_batches"})


def _drains_pipeline(call: ast.Call) -> bool:
    """Whether a ``list``/``sorted``/... call consumes a pipeline operand."""
    for arg in call.args:
        if isinstance(arg, ast.Call):
            if terminal_attribute(arg.func) in PIPELINE_CALLS:
                return True
        name = terminal_attribute(arg)
        if name is not None and "iterator" in name.lower():
            return True
    return False


@register_rule
class SchedulerSafetyRule(Rule):
    rule_id = "REPRO104"
    name = "scheduler-safety"
    description = (
        "no blocking sleeps in the engine and no unbounded materialization "
        "inside the cooperative scheduler's quantum loop"
    )

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        aliases = import_aliases(module.tree)
        in_scheduler = "scheduler" in module.relpath.rsplit("/", 1)[-1]
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = qualified_call_name(node, aliases)
            if qualified == "time.sleep":
                yield self.violation(
                    module,
                    node.lineno,
                    node.col_offset + 1,
                    "time.sleep() blocks every query sharing the cooperative "
                    "scheduler; yield control instead",
                )
                continue
            if not in_scheduler:
                continue
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in MATERIALIZERS
                and _drains_pipeline(node)
            ):
                yield self.violation(
                    module,
                    node.lineno,
                    node.col_offset + 1,
                    f"{node.func.id}(...) drains a suspended pipeline in one "
                    "quantum; pull one batch per quantum with next()",
                )
