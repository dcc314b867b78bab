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

* :class:`Rule` — the plugin protocol.  A rule inspects one parsed
  :class:`SourceFile` at a time (``check``) and returns its findings;
  no rule sees more than one file.
* :class:`LintEngine` — file discovery, inline ``lint: ignore[RULE]``
  suppression, per-file result caching keyed on content hash (a cached
  entry holds the file's kept findings and its suppressed count; the
  cache artifact carries the shared :mod:`repro.formats` header, like
  every other on-disk artifact in the repo).
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
import inspect
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.formats import check_header, format_header

#: Bump to invalidate every cached lint result at once.
ANALYSIS_VERSION = 2

CACHE_FORMAT = "lint_cache"
REPORT_FORMAT = "lint_report"

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
        """Serialize for the ``--json`` report and the result cache."""
        return {
            "rule": self.rule,
            "tier": self.tier,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Finding":
        """Rebuild a finding from its serialized form."""
        return cls(
            rule=data["rule"],
            tier=data["tier"],
            path=data["path"],
            line=data["line"],
            col=data["col"],
            message=data["message"],
        )


class SourceFile:
    """One parsed file plus the path-derived scopes the rules key on."""

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
        self._parents: dict[ast.AST, ast.AST] | None = None

    @classmethod
    def load(cls, path: Path, display: str) -> "SourceFile":
        """Read and parse one file from disk."""
        return cls(display, path.read_text())

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        """Return a node's syntactic parent (map built on first use)."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents.get(node)

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
    #: Bump when the rule's logic changes, to invalidate cached results.
    version: int = 1

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


def _rule_source_hash(rule: Rule) -> str:
    """Hash a rule's implementation source, falling back to its version.

    The manual ``version`` attribute only invalidates the cache when an
    author remembers to bump it; hashing the rule class's actual source
    (via :mod:`inspect`) makes every logic edit a cache miss.  Rules
    whose source is unavailable (REPL-defined, C extensions) degrade to
    the declared version — no worse than the old behavior.
    """
    try:
        source = inspect.getsource(type(rule))
    except (OSError, TypeError):
        return f"v{rule.version}"
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def rules_fingerprint(rules: Sequence[Rule]) -> str:
    """Hash the engine + rule identities; keys the per-file result cache.

    The fingerprint folds in each rule's id, declared version, *and* a
    hash of its class source, so editing a rule's logic (with or
    without a version bump) invalidates previously cached results.
    """
    spec = {
        "analysis_version": ANALYSIS_VERSION,
        "rules": sorted(
            (rule.id, rule.version, _rule_source_hash(rule)) for rule in rules
        ),
    }
    raw = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(raw.encode()).hexdigest()[:12]


@dataclass
class LintReport:
    """The scored outcome of one lint run."""

    findings: list[Finding]
    n_files: int = 0
    n_cached: int = 0
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
                "cached_files": self.n_cached,
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
            f"across {self.n_files} file(s), {self.n_cached} cached"
            f"{suppressed}"
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


@dataclass
class _CacheEntry:
    """One file's lint outcome: findings left after inline ignores."""

    sha: str
    findings: list[Finding]
    n_suppressed: int = 0


class LintEngine:
    """Run a rule set over files, with per-file result caching.

    Args:
        rules: rule instances to run (defaults to the full registry).
        cache_path: JSON file for per-file result caching; ``None``
            disables persistence (every file is re-analyzed).
    """

    def __init__(
        self,
        rules: Sequence[Rule] | None = None,
        cache_path: str | Path | None = None,
    ) -> None:
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules = list(rules)
        self.cache_path = Path(cache_path) if cache_path is not None else None
        self._fingerprint = rules_fingerprint(self.rules)

    # -- caching -----------------------------------------------------------

    def _load_cache(self) -> dict[str, _CacheEntry]:
        if self.cache_path is None or not self.cache_path.exists():
            return {}
        try:
            payload = json.loads(self.cache_path.read_text())
            check_header(
                payload, CACHE_FORMAT, ANALYSIS_VERSION, source=self.cache_path
            )
        except (OSError, ValueError):
            return {}  # any unreadable/foreign cache is simply cold
        if payload.get("rules") != self._fingerprint:
            return {}
        entries: dict[str, _CacheEntry] = {}
        for display, spec in payload.get("files", {}).items():
            entries[display] = _CacheEntry(
                sha=spec["sha"],
                findings=[Finding.from_dict(f) for f in spec["findings"]],
                n_suppressed=spec["suppressed"],
            )
        return entries

    def _save_cache(self, entries: dict[str, _CacheEntry]) -> None:
        if self.cache_path is None:
            return
        payload = {
            **format_header(CACHE_FORMAT, ANALYSIS_VERSION),
            "rules": self._fingerprint,
            "files": {
                display: {
                    "sha": entry.sha,
                    "findings": [f.to_dict() for f in entry.findings],
                    "suppressed": entry.n_suppressed,
                }
                for display, entry in sorted(entries.items())
            },
        }
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.cache_path.with_name(
            self.cache_path.name + f".tmp{os.getpid()}"
        )
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self.cache_path)

    # -- the run -----------------------------------------------------------

    def _check_file(self, file: SourceFile) -> _CacheEntry:
        """Run every rule over one parsed file, applying inline ignores."""
        entry = _CacheEntry(
            sha=hashlib.sha256(file.text.encode()).hexdigest(), findings=[]
        )
        for rule in self.rules:
            for finding in rule.check(file):
                if finding.rule in file.ignored_rules(finding.line):
                    entry.n_suppressed += 1
                else:
                    entry.findings.append(finding)
        return entry

    def lint_paths(self, paths: Iterable[str | Path]) -> LintReport:
        """Discover, analyze, and score the given paths."""
        files = discover_files(paths)
        cache = self._load_cache()
        report = LintReport(findings=[], n_files=len(files))
        fresh: dict[str, _CacheEntry] = {}
        raw_findings: list[Finding] = []

        for path in files:
            display = display_path(path)
            text = path.read_text()
            sha = hashlib.sha256(text.encode()).hexdigest()
            cached = cache.get(display)
            if cached is not None and cached.sha == sha:
                entry = cached
                report.n_cached += 1
            else:
                try:
                    source = SourceFile(display, text)
                except SyntaxError as exc:
                    raw_findings.append(
                        Finding(
                            rule="PARSE",
                            tier="error",
                            path=display,
                            line=exc.lineno or 1,
                            col=(exc.offset or 0) + 1,
                            message=f"cannot parse: {exc.msg}",
                        )
                    )
                    continue
                entry = self._check_file(source)
            fresh[display] = entry
            raw_findings.extend(entry.findings)
            report.n_suppressed_inline += entry.n_suppressed

        self._save_cache(fresh)
        report.findings = _in_order(raw_findings)
        return report

    def lint_text(
        self, text: str, display: str, in_src: bool | None = None
    ) -> list[Finding]:
        """Analyze one in-memory snippet (no cache)."""
        entry = self._check_file(SourceFile(display, text, in_src=in_src))
        return _in_order(entry.findings)


def _in_order(findings: list[Finding]) -> list[Finding]:
    """Return the findings sorted by location, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
