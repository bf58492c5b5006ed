"""REPRO101: the planner must never touch the heap.

Plan enumeration and costing work exclusively off sampled statistics
(:class:`~repro.core.statistics.IncrementalTableStatistics`); a single heap
or buffer-pool read inside ``candidate_plans``/``choose`` would silently
turn every EXPLAIN into physical I/O.  The dynamic twin of this rule is
``benchmarks/test_planner_overhead.py`` (``HeapFile.logical_page_reads``
must stay zero across plan enumeration); this checker rejects the code
shapes that could ever charge a page before that test runs:

* importing any ``repro.storage`` module into a costing/planning module
  (``if TYPE_CHECKING:`` imports are exempt -- annotations never read a
  page);
* calling a storage read API (``read_page``, ``read_pages``, ``access``,
  ``fetch``, ``live_rows``, ...) or executing a row source
  (``iter_rows``/``iter_batches``/``execute``) from one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleSource
from repro.lint.registry import Rule, register_rule
from repro.lint.rules._common import terminal_attribute
from repro.lint.violations import Violation

#: Modules bound by the purity contract (planning and costing).
PLANNER_MODULES = ("core/cost.py", "core/statistics.py", "engine/planner.py")

#: Attribute calls that read (or could read) heap/buffer pages, plus the
#: execution entry points that would drive such reads.
READ_APIS = frozenset(
    {
        "read_page",
        "read_pages",
        "read_page_run",
        "access",
        "access_run",
        "fetch",
        "scan",
        "iter_pages",
        "all_rows",
        "live_rows",
        "iter_rows",
        "iter_batches",
        "execute",
    }
)


@register_rule
class PlannerPurityRule(Rule):
    rule_id = "REPRO101"
    name = "planner-purity"
    description = (
        "planning/costing modules may not import storage or call heap/buffer "
        "read APIs (static twin of benchmarks/test_planner_overhead.py)"
    )

    def applies_to(self, path: str) -> bool:
        return path.endswith(PLANNER_MODULES)

    @staticmethod
    def _type_checking_imports(tree: ast.Module) -> set[ast.AST]:
        """Import nodes living under an ``if TYPE_CHECKING:`` guard."""
        guarded: set[ast.AST] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.If):
                continue
            if terminal_attribute(node.test) != "TYPE_CHECKING":
                continue
            for child in node.body:
                for sub in ast.walk(child):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        guarded.add(sub)
        return guarded

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        guarded = self._type_checking_imports(module.tree)
        for node in ast.walk(module.tree):
            if node in guarded:
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.storage"):
                        yield self.violation(
                            module,
                            node.lineno,
                            node.col_offset + 1,
                            f"planner module imports storage module {alias.name!r}",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").startswith("repro.storage"):
                    yield self.violation(
                        module,
                        node.lineno,
                        node.col_offset + 1,
                        f"planner module imports from storage module {node.module!r}",
                    )
            elif isinstance(node, ast.Call):
                name = terminal_attribute(node.func)
                if isinstance(node.func, ast.Attribute) and name in READ_APIS:
                    yield self.violation(
                        module,
                        node.lineno,
                        node.col_offset + 1,
                        f"planner module calls read API .{name}() -- planning "
                        "must work from sampled statistics only",
                    )
