"""DET101: every RNG seed must *derive* from a declared seed.

DET001 catches ``default_rng()`` with no argument; it says nothing
about what the argument is.  ``default_rng(0)`` buried in a class
initializer, ``default_rng(x)`` where ``x`` was computed from a length
or an index, or an RNG object parked in a module global all pass the
syntactic rule while silently detaching a result from the experiment's
seed tree.  DET101 closes that gap with the dataflow IR: the seed
expression's :class:`~repro.analysis.dataflow.Origin` set must contain
at least one value whose lineage reaches a *seed-named* parameter,
attribute, or module constant (``seed``, ``walk_seed``,
``self.plan.seed``, ``DEFAULT_SEED``, ...) — arithmetic, tuple
packing, and local aliasing are traced through.

Two sink-side shapes are additionally errors: an RNG constructed at
module scope (a process-global stream, order-dependent by
construction) and an RNG object flowing into the fleet boundary
(``WalkJob`` fields / ``run_walks`` arguments must carry seeds, not
generators — generators don't pickle portably and hide their lineage).
"""

from __future__ import annotations

import ast
import re

from repro.analysis.dataflow import (
    FunctionDataflow,
    Origin,
    module_global_assigns,
)
from repro.analysis.engine import Finding, Rule, SourceFile
from repro.analysis.names import canonical_call

#: Canonical constructors whose result is an RNG stream.
_RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
    }
)

#: A name "is a seed" when any underscore-separated token is ``seed``
#: or ``seeds`` (optionally numbered): ``seed``, ``walk_seed``,
#: ``DEFAULT_SEED``, ``seed0``, ``tx_seed`` — but not ``seeded_from``.
_SEED_TOKEN = re.compile(r"(?i)(^|_)seeds?\d*(_|$)")

#: Call results that *are* seed material: deriving from a seed sequence
#: keeps lineage (``SeedSequence(seed).spawn(...)`` and friends).
_SEED_CALL_MARKERS = ("SeedSequence", ".spawn", "seed_for", "derive_seed")

#: Fleet boundary sinks (mirrors PUR001's entry-point list): RNG
#: objects must not flow into these.
_BOUNDARY_SHORT_NAMES = frozenset({"run_walks", "iter_walks", "WalkJob"})


def _is_seed_named(detail: str) -> bool:
    """Return True when a dotted detail's final segment is seed-named."""
    final = detail.rpartition(".")[2]
    return bool(_SEED_TOKEN.search(final))


def _is_seed_lineage(origin: Origin) -> bool:
    """Return True when one origin counts as seed-derived."""
    if origin.kind in ("param", "attribute", "global", "import"):
        return _is_seed_named(origin.detail)
    if origin.kind == "call":
        final = origin.detail.rpartition(".")[2]
        return _is_seed_named(final) or any(
            marker in origin.detail for marker in _SEED_CALL_MARKERS
        )
    return False


class SeedLineage(Rule):
    """DET101: RNG seeds derive from seed parameters; RNGs stay local.

    For every ``default_rng(expr)`` in ``src`` scope, ``expr``'s origin
    set (through local assignments, tuple packing, arithmetic, and
    defaults) must include at least one seed-named parameter,
    attribute chain, or module constant.  A seed built from constants
    or untraceable values alone is an error.  RNG objects assigned to
    module globals, or flowing into ``WalkJob``/``run_walks``/
    ``iter_walks`` arguments, are errors regardless of how they were
    seeded.
    """

    id = "DET101"
    tier = "error"
    title = "RNG seed with no seed-parameter lineage"

    def check(self, file: SourceFile) -> list[Finding]:
        if not file.in_src:
            return []
        findings = self._check_module_globals(file)
        for func, call, canonical in file.function_calls:
            if canonical in _RNG_CONSTRUCTORS:
                findings.extend(self._check_seed_expr(file, file.dataflow(func), call))
            elif canonical is not None:
                short = canonical.rpartition(".")[2]
                if short in _BOUNDARY_SHORT_NAMES:
                    findings.extend(
                        self._check_boundary_args(
                            file, file.dataflow(func), call, short
                        )
                    )
        return findings

    def _check_module_globals(self, file: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for names, value in module_global_assigns(file.tree):
            for sub in ast.walk(value):
                if not isinstance(sub, ast.Call):
                    continue
                if canonical_call(sub, file.bindings) in _RNG_CONSTRUCTORS:
                    findings.append(
                        self.finding(
                            file,
                            sub,
                            f"RNG stored in module global {names[0]!r}; a "
                            "process-global stream makes results depend on "
                            "call order — construct RNGs from seeds at the "
                            "point of use",
                        )
                    )
        return findings

    def _check_seed_expr(
        self, file: SourceFile, flow: FunctionDataflow, call: ast.Call
    ) -> list[Finding]:
        seed_exprs = list(call.args) + [
            kw.value for kw in call.keywords if kw.arg == "seed"
        ]
        if not seed_exprs:
            return []  # the no-argument case is DET001's
        origins: set[Origin] = set()
        for expr in seed_exprs:
            origins |= flow.origins(expr)
        if any(_is_seed_lineage(origin) for origin in origins):
            return []
        if all(origin.kind == "const" for origin in origins):
            return [
                self.finding(
                    file,
                    call,
                    "RNG seeded from constants only; derive the seed from "
                    "a seed parameter (walk/plan/config) so the stream "
                    "joins the experiment's seed tree",
                )
            ]
        described = ", ".join(
            sorted(o.describe() for o in origins if o.kind != "const")
        )
        return [
            self.finding(
                file,
                call,
                f"RNG seed does not derive from any seed parameter "
                f"(origins: {described or 'unknown'}); thread an explicit "
                "seed through instead",
            )
        ]

    def _check_boundary_args(
        self,
        file: SourceFile,
        flow: FunctionDataflow,
        call: ast.Call,
        short: str,
    ) -> list[Finding]:
        findings: list[Finding] = []
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        for argument in arguments:
            for origin in flow.origins(argument):
                if origin.kind == "call" and origin.detail in _RNG_CONSTRUCTORS:
                    findings.append(
                        self.finding(
                            file,
                            argument,
                            f"RNG object (from {origin.detail} at line "
                            f"{origin.line}) flows into {short}(); pass the "
                            "seed across the process boundary, not the "
                            "generator",
                        )
                    )
        return findings
