"""Repo-specific static analysis: the engine behind ``repro lint``.

Four invariants make this repro trustworthy — explicit seeding,
clock-free deterministic paths, pure process-boundary values, and
unit-suffixed quantities — and none of them is checkable by ruff or
mypy.  This package checks them: a per-file plugin rule protocol, an
AST runner that parses, walks and binds each file once and shares those
facts with every rule, and human, JSON and SARIF reporting.  See
README's "Static analysis" section for the workflow and DESIGN.md for
the module map.
"""

from repro.analysis.engine import (
    ANALYSIS_VERSION,
    Finding,
    LintEngine,
    LintReport,
    Rule,
    SourceFile,
    discover_files,
)
from repro.analysis.rules import default_rules

__all__ = [
    "ANALYSIS_VERSION",
    "Finding",
    "LintEngine",
    "LintReport",
    "Rule",
    "SourceFile",
    "default_rules",
    "discover_files",
]
