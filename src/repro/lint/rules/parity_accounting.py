"""REPRO102: every batch size and the lazy view report bit-identical
counters.

There is one execution protocol (``PlanNode.iter_batches``); its eager and
lazy pulls, at any batch size, must report identical counters for the same
snapshot.  The dynamic twins are the execution goldens
(``tests/engine/test_exec_goldens.py``), the model oracle
(``tests/engine/model.py``, behind ``test_fuzz_parity.py``) and the
page-slot oracle in ``tests/engine/test_access.py``; this checker pins the
code shapes they rely on:

* heap pages are read in one place: ``read_pages`` (and the
  ``read_page``/``read_page_run`` of the layers below) may only be called
  from the one page sweep in ``engine/access.py`` (``AccessPath._sweep``),
  and nothing else under ``engine/`` may walk a heap charged -- no
  ``.iter_pages(...)``, no ``.scan(...)`` without ``charge_io=False`` (the
  uncharged index and CM builds).  Every scan and every write's victim
  search consumes the sweep, so accounting lives in exactly one place;
* a charge to an examined counter must not be *survivor-counted*: its
  amount may not mention a name bound to filter output (``len(survivors)``),
  and a bare constant may not be charged where only survivors reach it --
  under an ``if`` testing a filter, in a ``for`` over filter output, or
  after a filter-guarded ``continue``.  ``examined += len(live)`` before
  the filter and the lazy sweep's positional charge (the survivor's index
  in the live list, found by walking that list) both pass: they derive
  from the pre-filter list;
* the second protocol cannot come back: in ``engine/``, a plan node (a class
  deriving from ``PlanNode``, ``JoinOperator`` or any ``*Node``/``*Join``)
  may neither define ``_stream`` nor override ``iter_rows``.  A row
  generator lives inside ``_stream_batches`` under its own name; access
  paths are not plan nodes (their ``_stream`` *is* the lazy sweep);
* the protocol keeps three parameters: in ``engine/``, an ``iter_batches``
  or ``_stream_batches`` method -- a plan node's, an access path's, the
  ``RowSource`` protocol's -- may take nothing beyond ``(context,
  batch_size, demand)``.  The demand alone says how a pull reads; a read
  policy threaded beside it once let one batch size read pages ahead of a
  probe that another did not;
* MVCC stamps have two homes: a subscript store (or ``del``) keyed by
  ``XMIN_COLUMN`` / ``XMAX_COLUMN`` or their literals is allowed only in
  ``Table.insert_version`` and ``Table.mark_deleted`` (``engine/table.py``,
  storage included in this check).  Those two keep each page's version
  summary in step with the stamps on its slots; the page filter skips the
  per-row visibility check on the summary's word, so a stamp written
  anywhere else is a row some snapshot reads wrongly;
* a page's slot list has one writer: a store to ``.slots`` (plain,
  augmented, subscript or slice), a ``del`` of it or of its items, or a
  mutating list method on it (``.slots.append(...)``) is allowed only in
  ``storage/page.py`` (storage included in this check).  ``Page.append`` /
  ``Page.delete`` drop the page's cached live list, which the sweep reads
  instead of the slots; a slot written anywhere else leaves that list
  stale, and a sweep yields a deleted row or misses an inserted one.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.engine import ModuleSource
from repro.lint.registry import Rule, register_rule
from repro.lint.rules._common import (
    terminal_attribute,
    walk_functions,
    walk_own_nodes,
)
from repro.lint.violations import Violation

#: The only function allowed to pull heap pages.
SHARED_KERNELS = frozenset({"_sweep"})
KERNEL_MODULE = "engine/access.py"

#: Page-pulling heap APIs owned by the sweep.
PAGE_READS = frozenset({"read_page", "read_pages", "read_page_run"})

#: Whole-heap walks; under ``engine/`` only an uncharged ``scan`` is allowed.
HEAP_WALKS = frozenset({"iter_pages", "scan"})

#: Counter names whose ``+=`` constitutes "charging" an examined row.
CHARGE_NAMES = frozenset({"examined", "rows_examined"})

#: Calls that drop rows: MVCC visibility, predicate evaluation, the compiled
#: batch kernel, the sweep's per-page filter step.
FILTER_CALLS = frozenset({"visible", "matches", "kernel", "page_filter"})

#: The MVCC stamp columns, by constant name and by literal, and the only
#: functions that may store under them (they keep the page version summary).
STAMP_KEYS = frozenset({"XMIN_COLUMN", "XMAX_COLUMN", "_xmin", "_xmax"})
STAMPING_SITES = frozenset({"insert_version", "mark_deleted"})
STAMPING_MODULE = "engine/table.py"

#: The one module that may write a page's slot list, and the list methods
#: that count as a write.
SLOTS_MODULE = "storage/page.py"
LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
)

#: Base-class names that make a class a plan node, and the methods of the
#: deleted row-at-a-time protocol such a class may not carry.
PLAN_NODE_BASE = re.compile(r"(Node|Join|JoinOperator)$")
SECOND_PROTOCOL = frozenset({"_stream", "iter_rows"})

#: The execution protocol's methods and the only parameters they may take
#: after ``self``.
PROTOCOL_METHODS = frozenset({"iter_batches", "_stream_batches"})
PROTOCOL_PARAMETERS = ("context", "batch_size", "demand")

_Function = ast.FunctionDef | ast.AsyncFunctionDef


def _filter_line(node: ast.AST) -> int | None:
    """Line of the first filter call inside ``node``, if any."""
    lines = [
        call.lineno
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and terminal_attribute(call.func) in FILTER_CALLS
    ]
    return min(lines, default=None)


def _names(node: ast.AST) -> set[str]:
    """Names ``node`` mentions, minus those its own comprehensions bind."""
    names: set[str] = set()
    bound: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.comprehension):
            bound |= {
                name.id for name in ast.walk(child.target) if isinstance(name, ast.Name)
            }
    return names - bound


def _charged_walk(call: ast.Call) -> bool:
    """Whether ``call`` walks a whole heap on its charged scan."""
    name = terminal_attribute(call.func)
    if not isinstance(call.func, ast.Attribute) or name not in HEAP_WALKS:
        return False
    return name == "iter_pages" or not any(
        keyword.arg == "charge_io"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is False
        for keyword in call.keywords
    )


def _survivor_names(function: _Function) -> set[str]:
    """Names bound (transitively) to the output of a filter call."""
    bindings: list[tuple[ast.AST, ast.AST]] = []
    for node in walk_own_nodes(function):
        if isinstance(node, ast.Assign):
            bindings.extend((target, node.value) for target in node.targets)
        elif isinstance(node, (ast.For, ast.comprehension)):
            bindings.append((node.target, node.iter))
    survivors: set[str] = set()
    while True:
        found = {
            name
            for target, value in bindings
            if _filter_line(value) is not None or _names(value) & survivors
            for name in _names(target)
        }
        if found <= survivors:
            return survivors
        survivors |= found


def _is_charge(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and terminal_attribute(node.target) in CHARGE_NAMES
    )


def _survivor_counted(function: _Function) -> Iterator[tuple[int, int]]:
    """``(filter line, charge line)`` of every survivor-counted charge."""
    survivors = _survivor_names(function)

    def visit(statements: list[ast.stmt], guard: int | None) -> Iterator[tuple[int, int]]:
        for statement in statements:
            if _is_charge(statement):
                assert isinstance(statement, ast.AugAssign)
                if _names(statement.value) & survivors:
                    yield statement.lineno, statement.lineno
                elif guard is not None and isinstance(statement.value, ast.Constant):
                    yield guard, statement.lineno
                continue
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are checked on their own
            inner = guard
            if isinstance(statement, ast.If):
                inner = guard or _filter_line(statement.test)
            elif isinstance(statement, ast.For):
                if _filter_line(statement.iter) or _names(statement.iter) & survivors:
                    inner = guard or statement.lineno
            for field in ("body", "orelse", "finalbody"):
                yield from visit(getattr(statement, field, []), inner)
            for handler in getattr(statement, "handlers", []):
                yield from visit(handler.body, inner)
            # ``if <filter>: continue`` -- only survivors reach what follows.
            if (
                isinstance(statement, ast.If)
                and isinstance(statement.body[-1], (ast.Continue, ast.Break, ast.Return))
            ):
                guard = guard or _filter_line(statement.test)

    yield from visit(function.body, None)


def _second_protocol(tree: ast.Module) -> Iterator[tuple[str, _Function]]:
    """``(class name, method)`` of every row-protocol method on a plan node."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
            PLAN_NODE_BASE.search(terminal_attribute(base) or "")
            for base in node.bases
        ):
            continue
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in SECOND_PROTOCOL
            ):
                yield node.name, item


def _protocol_extras(tree: ast.Module) -> Iterator[tuple[str, _Function, ast.arg]]:
    """``(class name, method, first extra parameter)`` of every protocol
    method taking more than :data:`PROTOCOL_PARAMETERS`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (
                not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                or item.name not in PROTOCOL_METHODS
            ):
                continue
            args = item.args
            positional = [*args.posonlyargs, *args.args][1 + len(PROTOCOL_PARAMETERS) :]
            extras = [*positional, args.vararg, *args.kwonlyargs, args.kwarg]
            extra = next((arg for arg in extras if arg is not None), None)
            if extra is not None:
                yield node.name, item, extra


def _stamp_stores(tree: ast.Module, in_stamping_module: bool) -> Iterator[ast.Subscript]:
    """Every ``row[<stamp column>] = ...`` / ``del`` outside the stamping sites."""
    allowed: set[int] = set()
    if in_stamping_module:
        for function in walk_functions(tree):
            if function.name in STAMPING_SITES:
                allowed.update(id(node) for node in walk_own_nodes(function))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and id(node) not in allowed
        ):
            key = node.slice
            name = key.value if isinstance(key, ast.Constant) else terminal_attribute(key)
            if name in STAMP_KEYS:
                yield node


def _is_slots(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "slots"


def _slot_writes(tree: ast.Module) -> Iterator[ast.AST]:
    """Every write to a ``.slots`` attribute or through it."""
    for node in ast.walk(tree):
        writes = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if writes and _is_slots(node):
            yield node  # x.slots = ..., x.slots += ..., del x.slots
        elif writes and isinstance(node, ast.Subscript) and _is_slots(node.value):
            yield node  # x.slots[i] = ..., x.slots[a:b] = ..., del x.slots[i]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LIST_MUTATORS
            and _is_slots(node.func.value)
        ):
            yield node  # x.slots.append(...)


@register_rule
class ParityAccountingRule(Rule):
    rule_id = "REPRO102"
    name = "parity-accounting"
    description = (
        "heap page reads and charged heap walks only inside the one page "
        "sweep, examined counters taken over the unfiltered live list, never "
        "over survivors, "
        "no second execution protocol on a plan node, no protocol parameter "
        "beyond (context, batch_size, demand), MVCC stamps "
        "written only where the page version summary is kept, and page "
        "slots written only by the page itself"
    )

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        parts = module.relpath.split("/")[:-1]
        for store in _stamp_stores(
            module.tree, module.relpath.endswith(STAMPING_MODULE)
        ):
            yield self.violation(
                module,
                store.lineno,
                store.col_offset + 1,
                "MVCC stamp written outside Table.insert_version / "
                "Table.mark_deleted -- only those keep the page version "
                "summary that lets a sweep skip the per-row visibility check",
            )
        if not module.relpath.endswith(SLOTS_MODULE):
            for write in _slot_writes(module.tree):
                yield self.violation(
                    module,
                    write.lineno,
                    write.col_offset + 1,
                    "page slots written outside storage/page.py -- only "
                    "Page.append / Page.delete drop the cached live list "
                    "the sweep reads, so any other write leaves it stale",
                )
        if "storage" in parts:
            return  # storage owns the read APIs themselves
        if "engine" in parts:
            for class_name, method in _second_protocol(module.tree):
                yield self.violation(
                    module,
                    method.lineno,
                    method.col_offset + 1,
                    f"plan node {class_name!r} defines {method.name!r}: a "
                    "node runs through iter_batches only -- keep a row "
                    "generator as the lazy branch inside _stream_batches, "
                    "and iter_rows as the one view on PlanNode",
                )
            for class_name, method, extra in _protocol_extras(module.tree):
                yield self.violation(
                    module,
                    extra.lineno,
                    extra.col_offset + 1,
                    f"{class_name}.{method.name} takes {extra.arg!r} beyond "
                    "(context, batch_size, demand) -- the demand alone says "
                    "how a pull reads, so every batch size reads alike",
                )
        in_kernel_module = module.relpath.endswith(KERNEL_MODULE)
        for function in walk_functions(module.tree):
            allowed = in_kernel_module and function.name in SHARED_KERNELS
            if not allowed:
                for node in walk_own_nodes(function):
                    if not isinstance(node, ast.Call):
                        continue
                    name = terminal_attribute(node.func)
                    if isinstance(node.func, ast.Attribute) and name in PAGE_READS:
                        yield self.violation(
                            module,
                            node.lineno,
                            node.col_offset + 1,
                            f".{name}() outside the one page sweep -- consume "
                            "AccessPath._sweep so parity accounting stays in "
                            "one place",
                        )
                    elif "engine" in parts and _charged_walk(node):
                        yield self.violation(
                            module,
                            node.lineno,
                            node.col_offset + 1,
                            f"charged .{name}() walk outside the one page "
                            "sweep -- find rows through AccessPath._sweep "
                            "(visible_matches for a write), or pass "
                            "charge_io=False for an uncharged build",
                        )
            for filter_line, charge_line in _survivor_counted(function):
                yield self.violation(
                    module,
                    filter_line,
                    1,
                    f"{function.name!r} counts examined rows over filter "
                    f"survivors (charge on line {charge_line}); take the "
                    "count over the unfiltered live list so the lazy and "
                    "the full-drain sweep agree",
                )
