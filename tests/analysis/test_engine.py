"""Engine behavior: discovery, caching, inline suppression."""

import json

import pytest

from repro.analysis import (
    ANALYSIS_VERSION,
    Finding,
    LintEngine,
    discover_files,
)

BAD = "from numpy.random import default_rng\nrng = default_rng()\n"


def make_tree(root):
    (root / "pkg").mkdir()
    (root / "pkg" / "bad.py").write_text(BAD)
    (root / "pkg" / "fixtures").mkdir()
    (root / "pkg" / "fixtures" / "worse.py").write_text(BAD)
    (root / "pkg" / "__pycache__").mkdir()
    (root / "pkg" / "__pycache__" / "junk.py").write_text(BAD)
    (root / "pkg" / "notes.txt").write_text("not python")
    return root / "pkg"


class TestDiscovery:
    def test_skips_fixture_and_cache_dirs(self, tmp_path):
        files = discover_files([make_tree(tmp_path)])
        assert [path.name for path in files] == ["bad.py"]

    def test_explicit_file_always_included(self, tmp_path):
        pkg = make_tree(tmp_path)
        files = discover_files([pkg / "fixtures" / "worse.py"])
        assert [path.name for path in files] == ["worse.py"]

    def test_missing_path_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_files([tmp_path / "nope"])


class TestCaching:
    def test_second_run_is_served_from_cache(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        first = LintEngine(cache_path=cache).lint_paths([pkg])
        assert first.n_cached == 0 and len(first.findings) == 1
        second = LintEngine(cache_path=cache).lint_paths([pkg])
        assert second.n_cached == 1
        assert [f.to_dict() for f in second.findings] == [
            f.to_dict() for f in first.findings
        ]

    def test_content_change_invalidates_entry(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        LintEngine(cache_path=cache).lint_paths([pkg])
        (pkg / "bad.py").write_text(BAD + "\nx = 1\n")
        report = LintEngine(cache_path=cache).lint_paths([pkg])
        assert report.n_cached == 0 and len(report.findings) == 1

    def test_rule_version_bump_invalidates_cache(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        LintEngine(cache_path=cache).lint_paths([pkg])
        payload = json.loads(cache.read_text())
        payload["rules"] = "stale-fingerprint"
        cache.write_text(json.dumps(payload))
        report = LintEngine(cache_path=cache).lint_paths([pkg])
        assert report.n_cached == 0

    def test_rule_source_change_invalidates_cache(self, tmp_path):
        """Editing a rule's logic must be a cache miss even when the
        author forgets to bump ``version`` — the fingerprint hashes the
        rule class source, not just the (id, version) pair."""
        from repro.analysis.engine import Rule, rules_fingerprint

        class EditionOne(Rule):
            id = "TST001"
            version = 1

            def check(self, file):
                return []

        class EditionTwo(Rule):
            id = "TST001"
            version = 1

            def check(self, file):
                return [self.finding(file, file.tree, "changed logic")]

        assert rules_fingerprint([EditionOne()]) != rules_fingerprint(
            [EditionTwo()]
        )

        pkg = make_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        LintEngine(rules=[EditionOne()], cache_path=cache).lint_paths([pkg])
        report = LintEngine(rules=[EditionTwo()], cache_path=cache).lint_paths(
            [pkg]
        )
        assert report.n_cached == 0
        assert [f.message for f in report.findings] == ["changed logic"]

    def test_corrupt_cache_is_treated_as_cold(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "lint-cache.json"
        cache.write_text("{not json")
        report = LintEngine(cache_path=cache).lint_paths([pkg])
        assert report.n_cached == 0 and len(report.findings) == 1


class TestSuppression:
    def test_inline_ignore_silences_one_line(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "from numpy.random import default_rng\n"
            "a = default_rng()  # lint: ignore[DET001]\n"
            "b = default_rng()\n"
        )
        report = LintEngine(cache_path=None).lint_paths([pkg])
        assert len(report.findings) == 1
        assert report.findings[0].line == 3
        assert report.n_suppressed_inline == 1

    def test_inline_ignore_survives_a_cached_run(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "ok.py").write_text(
            "from numpy.random import default_rng\n"
            "rng = default_rng()  # lint: ignore[DET001]\n"
        )
        cache = tmp_path / "lint-cache.json"
        for expected_cached in (0, 1):
            report = LintEngine(cache_path=cache).lint_paths([pkg])
            assert report.n_cached == expected_cached
            assert report.findings == []
            assert report.n_suppressed_inline == 1


class TestFindings:
    def test_fingerprint_ignores_line_numbers(self):
        a = Finding("DET001", "error", "src/x.py", 3, 1, "boom")
        b = Finding("DET001", "error", "src/x.py", 99, 7, "boom")
        c = Finding("DET001", "error", "src/y.py", 3, 1, "boom")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "broken.py").write_text("def f(:\n")
        report = LintEngine(cache_path=None).lint_paths([pkg])
        assert [f.rule for f in report.findings] == ["PARSE"]
        assert report.n_errors == 1

    def test_report_dict_carries_format_header(self, tmp_path):
        pkg = make_tree(tmp_path)
        payload = LintEngine(cache_path=None).lint_paths([pkg]).to_dict()
        assert payload["format"] == "lint_report"
        assert payload["version"] == ANALYSIS_VERSION
        assert payload["counts"]["errors"] == 1
        assert payload["counts"]["by_rule"] == {"DET001": 1}
        assert payload["findings"][0]["fingerprint"]

    def test_render_summarizes_counts(self, tmp_path):
        pkg = make_tree(tmp_path)
        text = LintEngine(cache_path=None).lint_paths([pkg]).render()
        assert "1 error(s), 0 warning(s)" in text
        assert "DET001" in text
