"""Engine behavior: discovery, decoding, inline suppression, one pass."""

import sys

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


class TestSuppression:
    def test_inline_ignore_silences_one_line(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "from numpy.random import default_rng\n"
            "a = default_rng()  # lint: ignore[DET001]\n"
            "b = default_rng()\n"
        )
        report = LintEngine().lint_paths([pkg])
        assert len(report.findings) == 1
        assert report.findings[0].line == 3
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
        report = LintEngine().lint_paths([pkg])
        assert [f.rule for f in report.findings] == ["PARSE"]
        assert report.n_errors == 1

    def test_report_dict_carries_format_header(self, tmp_path):
        pkg = make_tree(tmp_path)
        payload = LintEngine().lint_paths([pkg]).to_dict()
        assert payload["format"] == "lint_report"
        assert payload["version"] == ANALYSIS_VERSION
        assert payload["counts"]["errors"] == 1
        assert payload["counts"]["by_rule"] == {"DET001": 1}
        assert payload["findings"][0]["fingerprint"]

    def test_render_summarizes_counts(self, tmp_path):
        pkg = make_tree(tmp_path)
        text = LintEngine().lint_paths([pkg]).render()
        assert "1 error(s), 0 warning(s)" in text
        assert "DET001" in text


class TestDecoding:
    def test_pep263_cookie_is_honoured(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "latin.py").write_bytes(
            b"# -*- coding: latin-1 -*-\n"
            b"from numpy.random import default_rng\n"
            b"name = '\xe9'\n"
            b"rng = default_rng()\n"
        )
        report = LintEngine().lint_paths([pkg])
        assert [(f.rule, f.line) for f in report.findings] == [("DET001", 4)]

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        pkg = make_tree(tmp_path)
        (pkg / "garbled.py").write_bytes(b"x = 1\ny = '\xff\xfe'\n")
        report = LintEngine().lint_paths([pkg])
        by_file = {f.path.rpartition("/")[2]: f for f in report.findings}
        assert sorted((name, f.rule) for name, f in by_file.items()) == [
            ("bad.py", "DET001"),
            ("garbled.py", "PARSE"),
        ]
        assert by_file["garbled.py"].line == 2
        assert by_file["garbled.py"].message.startswith("cannot decode")
        assert report.n_files == 2 and report.n_errors == 2


NESTED = """\
from numpy.random import default_rng


def outer(seed):
    def inner(walk_seed):
        return default_rng(walk_seed)

    return inner(seed), default_rng(seed)
"""


class TestOnePass:
    def test_bindings_and_dataflow_are_built_once(self, tmp_path, monkeypatch):
        """Every rule runs, yet the file is bound once and each function's
        dataflow is built once: the rules share the file's facts."""
        from repro.analysis import dataflow, names

        real_bindings = names.import_bindings
        real_flow = dataflow.FunctionDataflow
        calls: dict[str, list[str]] = {"bindings": [], "dataflow": []}

        def counting_bindings(*args):
            calls["bindings"].append("file")
            return real_bindings(*args)

        class CountingFlow(real_flow):
            def __init__(self, func, bindings):
                calls["dataflow"].append(func.name)
                super().__init__(func, bindings)

        for name, module in list(sys.modules.items()):
            if not name.startswith("repro.analysis"):
                continue
            if getattr(module, "import_bindings", None) is real_bindings:
                monkeypatch.setattr(module, "import_bindings", counting_bindings)
            if getattr(module, "FunctionDataflow", None) is real_flow:
                monkeypatch.setattr(module, "FunctionDataflow", CountingFlow)

        path = tmp_path / "src" / "repro" / "nested.py"
        path.parent.mkdir(parents=True)
        path.write_text(NESTED)
        monkeypatch.chdir(tmp_path)
        report = LintEngine().lint_paths([path])

        assert report.findings == []
        assert calls["bindings"] == ["file"]
        assert sorted(calls["dataflow"]) == ["inner", "outer"]
