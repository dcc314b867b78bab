"""PUR101: nothing impure *escapes* into the process boundary.

PUR001 is structural: it inspects the boundary dataclass definitions
and flags a literal lambda in a ``run_walks`` argument list.  What it
cannot see is a value that picks up its impurity earlier and arrives at
the boundary through a local — a closure bound to a variable, a
function defined three lines up, a list built in a loop and passed as a
``WalkJob`` field, or a mutable container arriving via a parameter's
default.  PUR101 runs the same boundary check through the dataflow IR:
every argument's :class:`~repro.analysis.dataflow.Origin` set is
resolved, and any path that can carry a lambda, a locally-defined
function, a mutable container (for job *fields*), or a lock/handle
constructor is an error — with the finding pointing at the line where
the impure value was born, not just where it escaped.
"""

from __future__ import annotations

import ast

from repro.analysis.dataflow import FunctionDataflow, Origin
from repro.analysis.engine import Finding, Rule, SourceFile

#: Constructors whose result can never cross the boundary (same set
#: PUR001 polices in dataclass defaults, applied here to dataflow).
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

#: Executor entry points: arguments are pickled into workers.  Mutable
#: containers are fine here (the jobs list itself is one); callables
#: are not.
_EXECUTOR_SHORT_NAMES = frozenset({"run_walks", "iter_walks", "execute_job"})

#: Boundary value constructors: every field must be a pure value, so
#: mutable containers are errors too.
_JOB_SHORT_NAMES = frozenset({"WalkJob"})


def _site(origin: Origin) -> str:
    """Render where the impure value was born, for the message."""
    return f"line {origin.line}" if origin.line else "an unknown site"


class EscapeAnalysis(Rule):
    """PUR101: impure values may not reach the fleet boundary via locals.

    For each call to ``run_walks``/``iter_walks``/``execute_job`` or a
    ``WalkJob`` construction in ``src`` scope, every argument's origin
    set is resolved through the function's def-use map.  Lambdas and
    locally-defined functions are errors at both sinks (closures don't
    pickle); mutable containers and lock/file constructors are errors
    for job fields (boundary values must be immutable and hashable).
    """

    id = "PUR101"
    tier = "error"
    title = "impure value escapes to the process boundary via dataflow"

    def check(self, file: SourceFile) -> list[Finding]:
        if not file.in_src:
            return []
        findings: list[Finding] = []
        for func, call, canonical in file.function_calls:
            if canonical is None:
                continue
            short = canonical.rpartition(".")[2]
            if short in _EXECUTOR_SHORT_NAMES or short in _JOB_SHORT_NAMES:
                findings.extend(
                    self._check_sink(
                        file,
                        file.dataflow(func),
                        call,
                        short,
                        fields=short in _JOB_SHORT_NAMES,
                    )
                )
        return findings

    def _check_sink(
        self,
        file: SourceFile,
        flow: FunctionDataflow,
        call: ast.Call,
        short: str,
        fields: bool,
    ) -> list[Finding]:
        findings: list[Finding] = []
        arguments: list[tuple[str, ast.expr]] = [
            (f"argument {i + 1}", a) for i, a in enumerate(call.args)
        ] + [(f"field {kw.arg}", kw.value) for kw in call.keywords if kw.arg]
        for label, argument in arguments:
            # Lambda literals written directly in an executor argument
            # are PUR001's finding; PUR101 adds the *smuggled* paths.
            direct_lambdas = (
                frozenset(
                    (n.lineno, n.col_offset)
                    for n in ast.walk(argument)
                    if isinstance(n, ast.Lambda)
                )
                if not fields
                else frozenset()
            )
            for origin in sorted(
                flow.origins(argument), key=lambda o: (o.line, o.col)
            ):
                if (
                    origin.kind == "lambda"
                    and (origin.line, origin.col) in direct_lambdas
                ):
                    continue
                finding = self._classify(
                    file, argument, origin, short, label, fields
                )
                if finding is not None:
                    findings.append(finding)
                    break  # one finding per argument is enough
        return findings

    def _classify(
        self,
        file: SourceFile,
        argument: ast.expr,
        origin: Origin,
        short: str,
        label: str,
        fields: bool,
    ) -> Finding | None:
        if origin.kind == "lambda":
            return self.finding(
                file,
                argument,
                f"{label} of {short}() can carry a lambda (born at "
                f"{_site(origin)}); closures don't pickle across the "
                "process boundary",
            )
        if origin.kind == "function":
            return self.finding(
                file,
                argument,
                f"{label} of {short}() can carry locally-defined function "
                f"{origin.detail!r} (born at {_site(origin)}); nested "
                "functions don't pickle — use a module-level function",
            )
        if origin.kind == "call" and origin.detail in _IMPURE_CONSTRUCTORS:
            return self.finding(
                file,
                argument,
                f"{label} of {short}() can carry a {origin.detail}() "
                f"result (born at {_site(origin)}); locks and handles "
                "cannot cross the process boundary",
            )
        if fields and origin.kind == "container":
            return self.finding(
                file,
                argument,
                f"{label} of {short}() can carry a mutable "
                f"{origin.detail or 'container'} (born at {_site(origin)}); "
                "boundary fields must be immutable — use a tuple",
            )
        return None
