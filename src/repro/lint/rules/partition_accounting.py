"""REPRO108: partition fan-out code never touches heap pages directly.

The bit-identical parity contract between single-heap, partitioned-serial
and partitioned-parallel execution (``tests/engine/test_fuzz_parity.py``)
holds because every physical page a partitioned plan reads flows through
the same page sweep as an unpartitioned plan (``AccessPath._sweep`` in
``engine/access.py``, pinned by REPRO102).  The partition layer itself --
partition routing, pruning, the exchange fan-out and the process-parallel
worker protocol -- must therefore stay *accounting-free*: it may hand
devices and child scan
nodes around, but it may not pull heap pages or poke the buffer pool
itself, or partitioned counters would drift from the single-heap baseline
in ways the differential fuzzer can only detect after the fact.

This rule extends REPRO102 inside the partition fan-out modules
(``engine/partition.py``, ``engine/parallel.py`` and the exchange
operators in ``engine/exchange.py`` -- the k-way merge, broadcast and
repartition nodes move rows between partition subtrees but never read
pages) with the *full* heap read surface -- including ``fetch`` and an
uncharged ``scan``, which maintenance code elsewhere may use -- plus direct
buffer-pool page access (``access``/``access_run``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleSource
from repro.lint.registry import Rule, register_rule
from repro.lint.rules._common import terminal_attribute, walk_functions, walk_own_nodes
from repro.lint.violations import Violation

#: Modules implementing the partition fan-out (routing, pruning, exchange
#: operators, process-parallel workers).  They orchestrate scans but never
#: perform them.
FANOUT_MODULES = (
    "engine/partition.py",
    "engine/parallel.py",
    "engine/exchange.py",
)

#: Every page-pulling heap API, a superset of REPRO102's ``PAGE_READS``.
HEAP_READS = frozenset(
    {"read_page", "read_pages", "read_page_run", "fetch", "scan", "iter_pages"}
)

#: Direct buffer-pool page access -- physical I/O accounting lives behind
#: the page sweep, never in fan-out code.
POOL_ACCESS = frozenset({"access", "access_run"})


@register_rule
class PartitionAccountingRule(Rule):
    rule_id = "REPRO108"
    name = "partition-accounting"
    description = (
        "partition fan-out modules must not read heap pages or touch the "
        "buffer pool directly; all physical access goes through the one "
        "page sweep"
    )

    def applies_to(self, path: str) -> bool:
        return path.endswith(FANOUT_MODULES)

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        for function in walk_functions(module.tree):
            for node in walk_own_nodes(function):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                name = terminal_attribute(node.func)
                if name in HEAP_READS:
                    yield self.violation(
                        module,
                        node.lineno,
                        node.col_offset + 1,
                        f".{name}() in partition fan-out code -- heap pages "
                        "are read only by the one page sweep in "
                        "engine/access.py so partitioned counters stay "
                        "bit-identical to the single-heap plan",
                    )
                elif name in POOL_ACCESS:
                    yield self.violation(
                        module,
                        node.lineno,
                        node.col_offset + 1,
                        f".{name}() in partition fan-out code -- buffer-pool "
                        "page access belongs to the page sweep, not the "
                        "exchange/worker layer",
                    )
