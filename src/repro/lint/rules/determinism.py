"""REPRO103: the engine must be replayable from a seed.

The differential fuzzer and the anomaly suites replay whole workloads
from a single integer seed; one ambient clock read or module-level
``random.random()`` call makes a failure unreproducible.  The rule bans:

* wall-clock reads (``time.time``, ``datetime.now`` ...) and timers
  (``perf_counter``/``process_time``/``strftime``/``gmtime``) everywhere in
  ``src/repro`` -- wall time is measured only by ``perf/``, outside the
  package;
* module-level randomness (``random.random()``, ``random.shuffle`` ...)
  and ``from random import`` of anything but ``Random``.  Seeded
  ``random.Random(seed)`` instances are the sanctioned source.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleSource
from repro.lint.registry import Rule, register_rule
from repro.lint.rules._common import import_aliases, qualified_call_name
from repro.lint.violations import Violation

#: Ambient clock and timer reads, banned everywhere (replay would diverge).
CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.localtime",
        "time.ctime",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.strftime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register_rule
class DeterminismRule(Rule):
    rule_id = "REPRO103"
    name = "determinism"
    description = (
        "no ambient clocks or module-level random in the engine; randomness "
        "must come from seeded random.Random instances"
    )

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                qualified = qualified_call_name(node, aliases)
                if qualified is None:
                    continue
                if qualified in CLOCK_CALLS:
                    yield self.violation(
                        module,
                        node.lineno,
                        node.col_offset + 1,
                        f"ambient clock read {qualified}() breaks "
                        "replay-from-seed; thread explicit timestamps instead",
                    )
                elif (
                    qualified.startswith("random.")
                    and qualified != "random.Random"
                ):
                    yield self.violation(
                        module,
                        node.lineno,
                        node.col_offset + 1,
                        f"module-level {qualified}() shares hidden global "
                        "state; use a seeded random.Random instance",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    for alias in node.names:
                        if alias.name != "Random":
                            yield self.violation(
                                module,
                                node.lineno,
                                node.col_offset + 1,
                                f"'from random import {alias.name}' pulls the "
                                "shared global generator; import Random and "
                                "seed an instance",
                            )
