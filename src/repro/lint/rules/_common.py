"""Shared AST helpers for the rule implementations."""

from __future__ import annotations

import ast
from typing import Iterator


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local alias -> fully qualified name, from the module's imports.

    ``import time`` maps ``time -> time``; ``import numpy as np`` maps
    ``np -> numpy``; ``from time import sleep as s`` maps
    ``s -> time.sleep``.  Only top-level and nested plain imports are
    considered (relative imports carry no useful qualified name here).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def qualified_call_name(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """The fully qualified name a call resolves to, via the import table.

    ``time.time()`` resolves to ``time.time`` when ``time`` was imported;
    ``s()`` resolves to ``time.sleep`` under ``from time import sleep as
    s``.  Calls on local objects (``self.x()``, ``rng.random()``) resolve
    to ``None`` -- their root name is not an imported module.
    """
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    qualified_root = aliases.get(root)
    if qualified_root is None:
        return None
    return f"{qualified_root}.{rest}" if rest else qualified_root


def walk_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_own_nodes(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Nodes of ``function``'s own body, excluding nested def/lambda bodies."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested defs are visited on their own
        stack.extend(ast.iter_child_nodes(node))


def terminal_attribute(node: ast.AST) -> str | None:
    """The final identifier of a Name/Attribute expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
