"""Intraprocedural dataflow IR for the flow-sensitive lint rules.

The syntactic rules match one AST node at a time, so a
``default_rng(s)`` whose ``s`` was assigned three lines earlier from a
wall-clock read, or a lambda smuggled into a ``WalkJob`` through a
local, sails straight past them.  This module adds the missing layer —
a small, auditable def-use/alias IR — without growing a full SSA
compiler:

* :class:`Origin` — where a value ultimately comes from: a function
  parameter, a constant, a call result, an attribute chain rooted at a
  parameter, an imported name, a lambda/local function, or a mutable
  container literal.  Origins carry the source location of the
  expression that produced them so findings can point at the smuggle
  site, not just the sink.
* :class:`FunctionDataflow` — one function's def-use map.  It records
  every local assignment (including tuple packing/unpacking, loop
  targets, ``with ... as`` targets, and comprehension targets), each
  parameter's default, and locally-defined functions, then answers
  ``origins(expr)``: the set of ultimate origins an expression's value
  can have, resolved through local aliases with arithmetic, tuple
  packing, and f-strings treated as lineage-preserving.  Rules do not
  build one themselves: :meth:`repro.analysis.engine.SourceFile.dataflow`
  builds each function's map once, on first use, and every rule shares
  it.
* :func:`module_global_assigns` — the module-level assignments, so a
  rule can resolve a name to a module constant.

The analysis is deliberately flow-*insensitive* within a function: a
name's origins are the union over every assignment to it, in any
branch.  That over-approximates reality (a value reassigned on one
branch contributes both origins) but never under-approximates it, which
is the right polarity for lint rules — the ``lint: ignore[...]`` escape
hatch covers the over-approximation, silence would hide real bugs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.analysis.names import canonical_call, canonicalize, dotted_name

#: The origin taxonomy.  ``attribute`` chains are rooted at a parameter
#: or module-level name (``job.fault_plan.seed``); ``container`` covers
#: mutable literals *and* comprehensions; ``function`` is a locally
#: ``def``-ed function (a closure hazard at pickle boundaries).
ORIGIN_KINDS = (
    "param",
    "const",
    "call",
    "attribute",
    "import",
    "global",
    "lambda",
    "function",
    "container",
    "unknown",
)

#: Builtin calls that preserve their arguments' lineage: the seed in
#: ``default_rng(int(seed))`` still derives from ``seed``.
_PASSTHROUGH_CALLS = frozenset(
    {"int", "float", "abs", "min", "max", "sum", "round", "tuple"}
)

#: Recursion ceiling for alias resolution; deeper chains resolve to
#: ``unknown`` rather than recursing without bound.
_MAX_DEPTH = 16


@dataclass(frozen=True)
class Origin:
    """One ultimate source of a value, with the site that produced it.

    Attributes:
        kind: one of :data:`ORIGIN_KINDS`.
        detail: the kind-specific payload — parameter name, canonical
            call target, dotted attribute chain, constant repr.
        line, col: 1-based line / 0-based column of the producing
            expression (0/0 when synthesized).
    """

    kind: str
    detail: str = ""
    line: int = 0
    col: int = 0

    def describe(self) -> str:
        """Return the compact human rendering used in rule messages."""
        return f"{self.kind}:{self.detail}" if self.detail else self.kind


def _origin(kind: str, detail: str, node: ast.AST) -> Origin:
    return Origin(
        kind=kind,
        detail=detail,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
    )


def _scope_nodes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Yield every node of ``func``'s body in its own scope, each once.

    The body of a nested function, lambda or class is another scope and
    is not entered; what the enclosing scope evaluates for it (its
    decorators, parameter defaults and class bases) is.
    """
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(getattr(node, "decorator_list", []))
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef):
            stack.extend(node.decorator_list)
            stack.extend(node.bases)
            stack.extend(node.keywords)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _local_statements(func: ast.AST) -> Iterator[ast.stmt]:
    """Yield every statement in ``func``'s own scope, skipping nested defs.

    Nested functions and lambdas open their own scopes; their
    assignments must not pollute the enclosing function's def-use map.
    The nested ``def`` statement itself *is* yielded (it binds a local
    name), but its body is not descended into.
    """
    stack: list[ast.stmt] = list(getattr(func, "body", []))
    while stack:
        statement = stack.pop()
        yield statement
        if isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for child_field in (
            "body",
            "orelse",
            "finalbody",
            "handlers",
            "cases",
        ):
            for child in getattr(statement, child_field, []):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)
                elif hasattr(child, "body"):  # match cases
                    stack.extend(getattr(child, "body", []))


def _pair_targets(
    target: ast.expr, value: ast.expr
) -> Iterator[tuple[str, ast.expr]]:
    """Yield ``(name, expr)`` pairs for one assignment target.

    Tuple targets against tuple values pair element-wise (``a, b = x,
    y``); a tuple target against anything else maps every name to the
    whole value (``a, b = f()`` — both are "some part of f()'s
    result"), which is the right lineage even though it is not the
    runtime value.
    """
    if isinstance(target, ast.Name):
        yield target.id, value
    elif isinstance(target, ast.Starred):
        yield from _pair_targets(target.value, value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
            target.elts
        ):
            for sub_target, sub_value in zip(target.elts, value.elts):
                yield from _pair_targets(sub_target, sub_value)
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "enumerate"
            and value.args
            and len(target.elts) == 2
        ):
            # ``for i, item in enumerate(xs)``: the index is the
            # enumerate call, the item is an element of ``xs``.
            yield from _pair_targets(target.elts[0], value)
            yield from _pair_targets(target.elts[1], value.args[0])
        else:
            for sub_target in target.elts:
                yield from _pair_targets(sub_target, value)
    # Attribute/Subscript targets define no local name; skip.


class FunctionDataflow:
    """The def-use/alias map of one function body.

    Args:
        func: the function's AST node.
        bindings: the module's import bindings (see
            :func:`repro.analysis.names.import_bindings`); used to
            canonicalize call targets during origin resolution.
    """

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        bindings: Mapping[str, str],
    ) -> None:
        self.func = func
        self.bindings = dict(bindings)
        self.params: set[str] = set()
        self.defaults: dict[str, ast.expr] = {}
        self.assignments: dict[str, list[ast.expr]] = {}
        self.local_functions: set[str] = set()
        self._collect()

    # -- construction ------------------------------------------------------

    def _collect(self) -> None:
        args = self.func.args
        positional = list(args.posonlyargs) + list(args.args)
        for arg in positional + list(args.kwonlyargs):
            self.params.add(arg.arg)
        if args.vararg is not None:
            self.params.add(args.vararg.arg)
        if args.kwarg is not None:
            self.params.add(args.kwarg.arg)
        # Positional defaults are right-aligned onto the parameter list.
        for arg, default in zip(
            positional[len(positional) - len(args.defaults) :], args.defaults
        ):
            self.defaults[arg.arg] = default
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                self.defaults[arg.arg] = kw_default

        for statement in _local_statements(self.func):
            self._collect_statement(statement)
        for node in _scope_nodes(self.func):
            # Comprehension targets live in their own scope but carry
            # useful lineage: bind each to its iterable.
            if isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for comp in node.generators:
                    self._record(comp.target, comp.iter)
            # NamedExpr (walrus) can hide anywhere in an expression.
            elif isinstance(node, ast.NamedExpr):
                self._record(node.target, node.value)

    def _collect_statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                self._record(target, statement.value)
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is not None:
                self._record(statement.target, statement.value)
        elif isinstance(statement, ast.AugAssign):
            self._record(statement.target, statement.value)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            self._record(statement.target, statement.iter)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                if item.optional_vars is not None:
                    self._record(item.optional_vars, item.context_expr)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.local_functions.add(statement.name)

    def _record(self, target: ast.expr, value: ast.expr) -> None:
        for name, expr in _pair_targets(target, value):
            self.assignments.setdefault(name, []).append(expr)

    # -- resolution --------------------------------------------------------

    def origins(self, node: ast.expr) -> frozenset[Origin]:
        """Return every ultimate origin the expression's value can have."""
        return self._origins(node, frozenset(), 0)

    def _origins(
        self, node: ast.expr, visiting: frozenset[str], depth: int
    ) -> frozenset[Origin]:
        if depth > _MAX_DEPTH:
            return frozenset({_origin("unknown", "", node)})
        if isinstance(node, ast.Name):
            return self._name_origins(node, visiting, depth)
        if isinstance(node, ast.Constant):
            return frozenset({_origin("const", repr(node.value), node)})
        if isinstance(node, ast.Attribute):
            return self._attribute_origins(node, visiting, depth)
        if isinstance(node, ast.Call):
            return self._call_origins(node, visiting, depth)
        if isinstance(node, ast.Lambda):
            return frozenset({_origin("lambda", "<lambda>", node)})
        if isinstance(node, (ast.List, ast.Set)):
            out = {_origin("container", type(node).__name__.lower(), node)}
            for element in node.elts:
                out |= self._origins(element, visiting, depth + 1)
            return frozenset(out)
        if isinstance(node, ast.Dict):
            out = {_origin("container", "dict", node)}
            for value in node.values:
                if value is not None:
                    out |= self._origins(value, visiting, depth + 1)
            return frozenset(out)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            kind = "container" if not isinstance(node, ast.GeneratorExp) else "call"
            out = {_origin(kind, type(node).__name__.lower(), node)}
            element = node.value if isinstance(node, ast.DictComp) else node.elt
            out |= self._origins(element, visiting, depth + 1)
            return frozenset(out)
        if isinstance(node, ast.Tuple):
            # Tuple literals are immutable packing: pure lineage.
            out: set[Origin] = set()
            for element in node.elts:
                out |= self._origins(element, visiting, depth + 1)
            return frozenset(out or {_origin("const", "()", node)})
        if isinstance(node, ast.BinOp):
            return self._origins(node.left, visiting, depth + 1) | self._origins(
                node.right, visiting, depth + 1
            )
        if isinstance(node, ast.UnaryOp):
            return self._origins(node.operand, visiting, depth + 1)
        if isinstance(node, ast.BoolOp):
            out = set()
            for value in node.values:
                out |= self._origins(value, visiting, depth + 1)
            return frozenset(out)
        if isinstance(node, ast.Compare):
            out = self._origins(node.left, visiting, depth + 1)
            for comparator in node.comparators:
                out |= self._origins(comparator, visiting, depth + 1)
            return frozenset(out)
        if isinstance(node, ast.IfExp):
            return self._origins(node.body, visiting, depth + 1) | self._origins(
                node.orelse, visiting, depth + 1
            )
        if isinstance(node, ast.Starred):
            return self._origins(node.value, visiting, depth + 1)
        if isinstance(node, ast.Subscript):
            return self._origins(node.value, visiting, depth + 1)
        if isinstance(node, ast.JoinedStr):
            out = {_origin("const", "<fstring>", node)}
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self._origins(value.value, visiting, depth + 1)
            return frozenset(out)
        if isinstance(node, ast.NamedExpr):
            return self._origins(node.value, visiting, depth + 1)
        return frozenset({_origin("unknown", "", node)})

    def _name_origins(
        self, node: ast.Name, visiting: frozenset[str], depth: int
    ) -> frozenset[Origin]:
        name = node.id
        if name in self.params:
            out = {_origin("param", name, node)}
            default = self.defaults.get(name)
            if default is not None:
                out |= self._origins(default, visiting, depth + 1)
            return frozenset(out)
        if name in self.local_functions:
            return frozenset({_origin("function", name, node)})
        if name in self.assignments:
            if name in visiting:
                # Cycle (x = x + n): this occurrence contributes nothing;
                # the other assignments to the name provide the base case.
                return frozenset()
            out = set()
            for value in self.assignments[name]:
                out |= self._origins(value, visiting | {name}, depth + 1)
            return frozenset(out or {_origin("unknown", name, node)})
        if name in self.bindings:
            return frozenset({_origin("import", self.bindings[name], node)})
        return frozenset({_origin("global", name, node)})

    def _attribute_origins(
        self, node: ast.Attribute, visiting: frozenset[str], depth: int
    ) -> frozenset[Origin]:
        dotted = dotted_name(node)
        if dotted is not None:
            head = dotted.partition(".")[0]
            if head in self.bindings and head not in self.params:
                return frozenset(
                    {_origin("import", canonicalize(dotted, self.bindings), node)}
                )
        out: set[Origin] = set()
        for base in self._origins(node.value, visiting, depth + 1):
            if base.kind in ("param", "attribute", "global", "import"):
                out.add(
                    Origin(
                        kind="attribute",
                        detail=f"{base.detail}.{node.attr}",
                        line=getattr(node, "lineno", base.line),
                        col=getattr(node, "col_offset", base.col),
                    )
                )
            else:
                out.add(base)
        return frozenset(out)

    def _call_origins(
        self, node: ast.Call, visiting: frozenset[str], depth: int
    ) -> frozenset[Origin]:
        canonical = canonical_call(node, self.bindings)
        if canonical in _PASSTHROUGH_CALLS:
            out: set[Origin] = set()
            for argument in node.args:
                out |= self._origins(argument, visiting, depth + 1)
            for keyword in node.keywords:
                out |= self._origins(keyword.value, visiting, depth + 1)
            return frozenset(out or {_origin("call", canonical or "", node)})
        detail = canonical or dotted_name(node.func) or "<call>"
        return frozenset({_origin("call", detail, node)})


# ---------------------------------------------------------------------------
# Module-level view: globals.
# ---------------------------------------------------------------------------


def module_global_assigns(
    tree: ast.AST,
) -> Iterator[tuple[list[str], ast.expr]]:
    """Yield ``(names, value)`` for every module-level assignment."""
    for statement in getattr(tree, "body", []):
        if isinstance(statement, ast.Assign):
            names = [
                t.id for t in statement.targets if isinstance(t, ast.Name)
            ]
            if names:
                yield names, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            if isinstance(statement.target, ast.Name):
                yield [statement.target.id], statement.value


__all__ = [
    "ORIGIN_KINDS",
    "Origin",
    "FunctionDataflow",
    "module_global_assigns",
]
