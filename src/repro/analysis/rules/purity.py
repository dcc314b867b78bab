"""PUR001: everything crossing the process boundary is a pure value.

The fleet engine pickles :class:`~repro.fleet.executor.WalkJob`\\ s into
worker processes and promises that two jobs with equal fields produce
equal results.  That promise dies quietly the moment a job (or a
:class:`~repro.faults.plan.FaultPlan` riding on one) grows a lambda, an
open handle, a lock, or a mutable field — some of those fail loudly at
pickle time, but mutable fields just produce jobs whose equality and
hashing lie.  This rule pins the convention at the source: dataclasses
defined in the ``repro.fleet`` and ``repro.faults`` packages are frozen
pure values, and nobody hands a lambda to the executor entry points.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, Rule, SourceFile
from repro.analysis.names import canonicalize, dotted_name

#: Package path fragments whose dataclasses cross the process boundary.
_BOUNDARY_PACKAGES = ("repro/fleet/", "repro/faults/")

#: Constructors whose result can never ride on a frozen boundary value.
_IMPURE_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Event",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "open",
        "io.open",
    }
)

#: Annotation heads naming mutable containers (hash/equality hazards).
_MUTABLE_TYPES = frozenset(
    {"list", "dict", "set", "bytearray", "List", "Dict", "Set"}
)

#: Fleet entry points whose arguments get pickled into workers.
_BOUNDARY_CALLS = frozenset(
    {
        "repro.fleet.run_walks",
        "repro.fleet.iter_walks",
        "repro.fleet.executor.run_walks",
        "repro.fleet.executor.iter_walks",
        "repro.fleet.executor.execute_job",
    }
)


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | ast.Call | None:
    """Return the ``@dataclass`` decorator node, if present."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = dotted_name(target)
        if dotted in ("dataclass", "dataclasses.dataclass"):
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    """Return True when the dataclass decorator passes ``frozen=True``."""
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def _annotation_head(annotation: ast.expr | None) -> str | None:
    """Return the outermost type name of a field annotation.

    Handles string annotations (``"FaultPlan | None"``) by re-parsing,
    and subscripted generics (``list[int]``) by looking at the base.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return dotted_name(annotation)


class ProcessBoundaryPurity(Rule):
    """PUR001: boundary dataclasses are frozen; their fields are pure.

    In the fleet/faults packages, every ``@dataclass`` must declare
    ``frozen=True``, and its fields may not be typed as mutable
    containers, defaulted to lambdas/locks/handles, or built from a
    ``default_factory`` producing a mutable container.  Additionally,
    anywhere in ``src``, passing a ``lambda`` to a fleet entry point
    (``run_walks``/``iter_walks``) is flagged — lambdas don't pickle.
    """

    id = "PUR001"
    tier = "error"
    title = "impure value at the process boundary"

    def check(self, file: SourceFile) -> list[Finding]:
        if not file.in_src:
            return []
        findings: list[Finding] = []
        if any(fragment in file.display for fragment in _BOUNDARY_PACKAGES):
            for node in file.nodes:
                if isinstance(node, ast.ClassDef):
                    findings.extend(self._check_dataclass(file, node))
        findings.extend(self._check_boundary_calls(file))
        return findings

    def _check_dataclass(
        self, file: SourceFile, node: ast.ClassDef
    ) -> list[Finding]:
        decorator = _dataclass_decorator(node)
        if decorator is None:
            return []
        findings: list[Finding] = []
        if not _is_frozen(decorator):
            findings.append(
                self.finding(
                    file,
                    node,
                    f"dataclass {node.name} crosses the process boundary "
                    "but is not frozen=True; boundary values must be "
                    "immutable and hashable",
                )
            )
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            findings.extend(self._check_field(file, node.name, statement))
        return findings

    def _check_field(
        self, file: SourceFile, class_name: str, field_node: ast.AnnAssign
    ) -> list[Finding]:
        findings: list[Finding] = []
        name = (
            field_node.target.id
            if isinstance(field_node.target, ast.Name)
            else "<field>"
        )
        head = _annotation_head(field_node.annotation)
        if head in _MUTABLE_TYPES:
            findings.append(
                self.finding(
                    file,
                    field_node,
                    f"{class_name}.{name} is typed as mutable {head}; use "
                    "tuple/frozenset (or a frozen dataclass) on boundary "
                    "values",
                )
            )
        default = field_node.value
        if default is None:
            return findings
        bindings = file.bindings
        for sub in ast.walk(default):
            if isinstance(sub, ast.Lambda):
                findings.append(
                    self.finding(
                        file,
                        sub,
                        f"{class_name}.{name} defaults to a lambda; "
                        "lambdas don't pickle across the process boundary",
                    )
                )
            elif isinstance(sub, (ast.List, ast.Dict, ast.Set)):
                findings.append(
                    self.finding(
                        file,
                        sub,
                        f"{class_name}.{name} has a mutable default "
                        "container; boundary fields must be immutable",
                    )
                )
            elif isinstance(sub, ast.Call):
                dotted = dotted_name(sub.func)
                if dotted is None:
                    continue
                canonical = canonicalize(dotted, bindings)
                if canonical in _IMPURE_CONSTRUCTORS:
                    findings.append(
                        self.finding(
                            file,
                            sub,
                            f"{class_name}.{name} defaults to "
                            f"{canonical}(); locks and handles cannot "
                            "cross the process boundary",
                        )
                    )
                elif canonical in ("dataclasses.field", "field"):
                    findings.extend(
                        self._check_factory(file, class_name, name, sub)
                    )
        return findings

    def _check_factory(
        self, file: SourceFile, class_name: str, name: str, call: ast.Call
    ) -> list[Finding]:
        for keyword in call.keywords:
            if keyword.arg != "default_factory":
                continue
            factory = dotted_name(keyword.value)
            if factory in _MUTABLE_TYPES:
                return [
                    self.finding(
                        file,
                        call,
                        f"{class_name}.{name} uses default_factory="
                        f"{factory}; boundary fields must be immutable "
                        "(use a tuple default)",
                    )
                ]
        return []

    def _check_boundary_calls(self, file: SourceFile) -> list[Finding]:
        bindings = file.bindings
        findings: list[Finding] = []
        for node in file.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            canonical = canonicalize(dotted, bindings)
            short = canonical.rpartition(".")[2]
            if (
                canonical not in _BOUNDARY_CALLS
                and short not in ("run_walks", "iter_walks")
            ):
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                for sub in ast.walk(argument):
                    if isinstance(sub, ast.Lambda):
                        findings.append(
                            self.finding(
                                file,
                                sub,
                                f"lambda passed into {short}(); closures "
                                "don't pickle across the process boundary",
                            )
                        )
        return findings
