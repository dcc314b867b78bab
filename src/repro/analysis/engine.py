"""The repo-specific static-analysis engine behind ``repro lint``.

The repo's correctness story rests on invariants no off-the-shelf
linter checks: every RNG is explicitly seeded, no wall-clock value
leaks into a simulation or cache-key path, everything crossing the
``ProcessPoolExecutor`` boundary is a frozen pure value, and every
physical quantity carries its unit in its name.  This engine polices
those invariants at review time — as plain AST rules over ``src/`` and
``tests/`` — instead of via flaky bisects after a figure stops
reproducing.

Architecture:

* :class:`SourceFile` — one file read, decoded, parsed, walked and
  bound once: its node list, parent map, import bindings, functions
  (innermost first), the calls inside them and one
  :class:`~repro.analysis.dataflow.FunctionDataflow` per function are
  facts every rule reads instead of re-deriving.
* :class:`Rule` — the plugin protocol.  A rule inspects one parsed
  :class:`SourceFile` at a time (``check``) and returns its findings;
  no rule sees more than one file.
* :class:`LintEngine` — file discovery and inline ``lint: ignore[RULE]``
  suppression; every file takes one path to its findings
  (``_check_file``).
* :class:`LintReport` — the scored result, renderable as a fixed-width
  human table or the ``--format json`` machine format.

Exit semantics mirror the CLI contract: error-tier findings fail the
build, warn-tier findings inform.  Directories named ``fixtures`` are
skipped during discovery so the test suite can keep known-bad snippets
on disk without tripping the whole-tree gate.
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import tokenize
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.dataflow import FunctionDataflow
from repro.analysis.names import canonical_call, import_bindings
from repro.formats import format_header

#: Version of the ``--format json`` report (its shared header).
ANALYSIS_VERSION = 3

REPORT_FORMAT = "lint_report"

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Directory names never descended into during discovery.  ``fixtures``
#: is deliberate: the analyzer's own test fixtures are known-bad
#: snippets that must not fail the whole-tree gate.
EXCLUDED_DIR_NAMES = frozenset(
    {
        "__pycache__",
        ".git",
        ".hg",
        ".mypy_cache",
        ".pytest_cache",
        ".repro-cache",
        ".ruff_cache",
        ".venv",
        "build",
        "dist",
        "fixtures",
        "node_modules",
        "venv",
    }
)

#: Inline suppression marker: ``# lint: ignore[DET001]`` on the flagged
#: line silences that rule for that line (comma-separate several IDs).
IGNORE_MARKER = "lint: ignore["

TIERS = ("error", "warn")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    tier: str
    path: str
    line: int
    col: int
    message: str

    def fingerprint(self) -> str:
        """Return the finding's stable id (SARIF ``partialFingerprints``).

        Deliberately excludes the line/column so reformatting a file
        does not churn the id; a moved violation is still the same
        violation.
        """
        raw = f"{self.rule}\x00{self.path}\x00{self.message}"
        return hashlib.sha256(raw.encode()).hexdigest()[:16]

    def describe(self) -> str:
        """Return the one-line human rendering."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.tier}] {self.message}"
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialize for the ``--format json`` report."""
        return {
            "rule": self.rule,
            "tier": self.tier,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


class SourceFile:
    """One parsed file, the path-derived scopes the rules key on, and
    the per-file facts every rule reads.

    The tree is walked once, at construction; the import bindings, the
    functions, the calls inside them and each function's dataflow are
    derived from that walk on first use and shared by every rule.  A
    rule reads these facts and never walks from the root again.
    """

    def __init__(
        self, display: str, text: str, in_src: bool | None = None
    ) -> None:
        self.display = display
        self.text = text
        self.lines = text.splitlines()
        #: True for production code under ``src/repro`` — the scope in
        #: which the determinism/purity invariants are enforced.  Tests
        #: may freely measure wall time.
        self.in_src = (
            in_src
            if in_src is not None
            else ("src/repro/" in display or display.startswith("repro/"))
        )
        self.tree: ast.AST = ast.parse(text)
        #: Every node, in ``ast.walk`` (breadth-first) order.
        self.nodes: list[ast.AST] = [self.tree]
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in self.nodes:  # the list grows as it is read
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
                self.nodes.append(child)
        self._flows: dict[FunctionNode, FunctionDataflow] = {}

    @classmethod
    def load(cls, path: Path, display: str) -> "SourceFile":
        """Read, decode (honouring a PEP 263 cookie) and parse one file.

        Raises:
            SyntaxError: the file does not parse, or its encoding
                declaration is invalid.
            UnicodeDecodeError: the bytes do not decode in the declared
                encoding.
        """
        data = path.read_bytes()
        encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
        return cls(display, data.decode(encoding))

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        """Return a node's syntactic parent."""
        return self._parents.get(node)

    @cached_property
    def bindings(self) -> dict[str, str]:
        """The module's import bindings (see :func:`import_bindings`)."""
        return import_bindings(self.tree, self.nodes)

    @cached_property
    def functions(self) -> list[FunctionNode]:
        """Every function node, nested ones included, innermost first.

        Reversing the breadth-first walk yields deeper functions before
        their enclosing ones.
        """
        return [
            node
            for node in reversed(self.nodes)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    @cached_property
    def function_calls(self) -> list[tuple[FunctionNode, ast.Call, str | None]]:
        """Every call inside a function, with its canonical name.

        Each call is attributed to the innermost function containing it
        (its decorators and defaults included); calls at module or class
        level are not listed.  Functions come innermost first, and each
        function's calls in walk order.
        """
        owned: dict[ast.AST, list[ast.Call]] = {func: [] for func in self.functions}
        for node in self.nodes:
            if not isinstance(node, ast.Call):
                continue
            scope = self._parents.get(node)
            while scope is not None and scope not in owned:
                scope = self._parents.get(scope)
            if scope is not None:
                owned[scope].append(node)
        return [
            (func, call, canonical_call(call, self.bindings))
            for func in self.functions
            for call in owned[func]
        ]

    def dataflow(self, func: FunctionNode) -> FunctionDataflow:
        """Return ``func``'s def-use map, built once per file."""
        flow = self._flows.get(func)
        if flow is None:
            flow = self._flows[func] = FunctionDataflow(func, self.bindings)
        return flow

    def ignored_rules(self, line: int) -> frozenset[str]:
        """Return the rule IDs suppressed inline on ``line`` (1-based)."""
        if not 1 <= line <= len(self.lines):
            return frozenset()
        text = self.lines[line - 1]
        start = text.find(IGNORE_MARKER)
        if start < 0:
            return frozenset()
        end = text.find("]", start)
        if end < 0:
            return frozenset()
        inner = text[start + len(IGNORE_MARKER) : end]
        return frozenset(part.strip() for part in inner.split(",") if part.strip())


class Rule:
    """The plugin protocol every analyzer rule implements.

    Subclasses set the class attributes and override :meth:`check`.
    """

    id: str = "RULE000"
    tier: str = "error"
    title: str = ""

    def check(self, file: SourceFile) -> list[Finding]:
        """Inspect one file; return its findings."""
        raise NotImplementedError

    def finding(
        self, file: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            rule=self.id,
            tier=self.tier,
            path=file.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class LintReport:
    """The scored outcome of one lint run."""

    findings: list[Finding]
    n_files: int = 0
    n_suppressed_inline: int = 0

    @property
    def n_errors(self) -> int:
        """Return the number of error-tier findings."""
        return sum(1 for f in self.findings if f.tier == "error")

    @property
    def n_warnings(self) -> int:
        """Return the number of warn-tier findings."""
        return sum(1 for f in self.findings if f.tier == "warn")

    def counts_by_rule(self) -> dict[str, int]:
        """Return ``{rule id: finding count}``, sorted by rule id."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict[str, Any]:
        """Serialize as the ``--format json`` machine format."""
        return {
            **format_header(REPORT_FORMAT, ANALYSIS_VERSION),
            "counts": {
                "errors": self.n_errors,
                "warnings": self.n_warnings,
                "files": self.n_files,
                "suppressed_inline": self.n_suppressed_inline,
                "by_rule": self.counts_by_rule(),
            },
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        """Render the human-readable report."""
        lines = [f.describe() for f in self.findings]
        if lines:
            lines.append("")
        suppressed = ""
        if self.n_suppressed_inline:
            suppressed = f" ({self.n_suppressed_inline} inline-ignored)"
        lines.append(
            f"{self.n_errors} error(s), {self.n_warnings} warning(s) "
            f"across {self.n_files} file(s){suppressed}"
        )
        return "\n".join(lines)


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into the sorted list of ``.py`` files.

    Raises:
        FileNotFoundError: when a named path does not exist.
    """
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            found.add(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in EXCLUDED_DIR_NAMES
            )
            for name in filenames:
                if name.endswith(".py"):
                    found.add(Path(dirpath) / name)
    return sorted(found)


def display_path(path: Path) -> str:
    """Return the normalized (posix, cwd-relative when possible) path."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


class LintEngine:
    """Run a rule set over files, applying inline ignores.

    Args:
        rules: rule instances to run (defaults to the full registry).
    """

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules = list(rules)

    def _check_file(self, file: SourceFile) -> tuple[list[Finding], int]:
        """Run every rule over one parsed file, applying inline ignores.

        Returns the kept findings and the number suppressed inline.
        """
        kept: list[Finding] = []
        suppressed = 0
        for rule in self.rules:
            for finding in rule.check(file):
                if finding.rule in file.ignored_rules(finding.line):
                    suppressed += 1
                else:
                    kept.append(finding)
        return kept, suppressed

    def lint_paths(self, paths: Iterable[str | Path]) -> LintReport:
        """Discover, analyze, and score the given paths."""
        files = discover_files(paths)
        report = LintReport(findings=[], n_files=len(files))
        raw_findings: list[Finding] = []
        for path in files:
            display = display_path(path)
            try:
                source = SourceFile.load(path, display)
            except (SyntaxError, UnicodeDecodeError) as exc:
                raw_findings.append(_unreadable(display, exc))
                continue
            kept, suppressed = self._check_file(source)
            raw_findings.extend(kept)
            report.n_suppressed_inline += suppressed
        report.findings = _in_order(raw_findings)
        return report

    def lint_text(
        self, text: str, display: str, in_src: bool | None = None
    ) -> list[Finding]:
        """Analyze one in-memory snippet."""
        kept, _ = self._check_file(SourceFile(display, text, in_src=in_src))
        return _in_order(kept)


def _unreadable(display: str, exc: SyntaxError | UnicodeDecodeError) -> Finding:
    """Return the ``PARSE`` error for a file that cannot be decoded or parsed."""
    if isinstance(exc, UnicodeDecodeError):
        line = exc.object[: exc.start].count(b"\n") + 1
        col, message = 1, f"cannot decode: {exc}"
    else:
        line, col = exc.lineno or 1, (exc.offset or 0) + 1
        message = f"cannot parse: {exc.msg}"
    return Finding(
        rule="PARSE",
        tier="error",
        path=display,
        line=line,
        col=col,
        message=message,
    )


def _in_order(findings: list[Finding]) -> list[Finding]:
    """Return the findings sorted by location, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
