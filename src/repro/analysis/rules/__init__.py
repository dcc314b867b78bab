"""The built-in rule registry for ``repro lint``.

Adding a rule is three steps: subclass
:class:`~repro.analysis.engine.Rule` in a module here, instantiate it in
:func:`default_rules`, and drop a known-bad fixture under
``tests/analysis/fixtures/`` so the rule's behavior is pinned.  A rule
sees one file at a time and returns findings; the engine handles
everything else (inline ignores, CLI/CI wiring).  A rule reads the
facts its :class:`~repro.analysis.engine.SourceFile` derives once per
file — ``nodes``, ``parent_of``, ``bindings``, ``functions``,
``function_calls`` and ``dataflow(func)`` — and never walks from the
root itself.  Rules that need to reason about where a value *came
from* (rather than what one AST node looks like) use the dataflow IR
in :mod:`repro.analysis.dataflow`; see DESIGN.md's rule-author guide.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.determinism import (
    DET002_ALLOWED_MODULES,
    UnseededRandomness,
    WallClockRead,
)
from repro.analysis.rules.escape import EscapeAnalysis
from repro.analysis.rules.purity import ProcessBoundaryPurity
from repro.analysis.rules.seed_lineage import SeedLineage
from repro.analysis.rules.units import UnitSuffixConvention

__all__ = [
    "DET002_ALLOWED_MODULES",
    "EscapeAnalysis",
    "ProcessBoundaryPurity",
    "SeedLineage",
    "UnitSuffixConvention",
    "UnseededRandomness",
    "WallClockRead",
    "default_rules",
]


def default_rules() -> list[Rule]:
    """Return one fresh instance of every built-in rule, id-ordered."""
    rules: list[Rule] = [
        UnseededRandomness(),
        WallClockRead(),
        SeedLineage(),
        ProcessBoundaryPurity(),
        EscapeAnalysis(),
        UnitSuffixConvention(),
    ]
    return sorted(rules, key=lambda rule: rule.id)
