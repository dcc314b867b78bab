"""Name resolution for the AST rules: local names -> canonical dotted paths.

The determinism rules need to know that ``rng()`` came from ``from
numpy.random import default_rng``, that ``t.time()`` is ``time.time``
behind ``import time as t``, and that ``npr.normal()`` is a
``numpy.random`` global-state call behind ``import numpy.random as
npr``.  :func:`import_bindings` extracts that mapping from a module's
import statements, and :func:`canonical_call` rewrites a call's dotted
name through it, so every rule matches against one canonical spelling
(``numpy.random.default_rng``, ``time.perf_counter``,
``datetime.datetime.now``) regardless of how the file imported it.

Resolution is deliberately module-level only: a name rebound inside a
function shadows the import at runtime but keeps its import-time
canonical form here.  That trades a sliver of false positives for a
resolver simple enough to audit — and the inline ``lint: ignore[...]``
escape hatch covers the exceptions.
"""

from __future__ import annotations

import ast
from typing import Iterable


def import_bindings(
    tree: ast.AST, nodes: Iterable[ast.AST] | None = None
) -> dict[str, str]:
    """Map local names to the canonical dotted path they were bound from.

    ``import numpy as np`` yields ``{"np": "numpy"}``; ``from
    numpy.random import default_rng as rng`` yields ``{"rng":
    "numpy.random.default_rng"}``.  Plain ``import numpy.random`` binds
    only the root name (``{"numpy": "numpy"}``), matching Python's
    scoping.  Relative imports are skipped — their canonical prefix is
    unknowable without package context.  A caller that has already
    walked ``tree`` passes its ``nodes`` so the tree is not walked again.
    """
    bindings: dict[str, str] = {}
    for node in ast.walk(tree) if nodes is None else nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return bindings


def dotted_name(node: ast.expr) -> str | None:
    """Return the source-level dotted name of an expression, if it is one.

    ``np.random.default_rng`` -> ``"np.random.default_rng"``; anything
    that is not a plain ``Name``/``Attribute`` chain returns ``None``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def canonicalize(dotted: str, bindings: dict[str, str]) -> str:
    """Rewrite a dotted name's first segment through the import bindings."""
    head, _, rest = dotted.partition(".")
    canonical_head = bindings.get(head)
    if canonical_head is None:
        return dotted
    return f"{canonical_head}.{rest}" if rest else canonical_head


def canonical_call(node: ast.Call, bindings: dict[str, str]) -> str | None:
    """Return the canonical dotted name a call resolves to, if resolvable."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    return canonicalize(dotted, bindings)
