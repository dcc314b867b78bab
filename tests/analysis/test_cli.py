"""The ``repro lint`` CLI contract, including the whole-tree gate."""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD = "from numpy.random import default_rng\nrng = default_rng()\n"


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD)
    return path


def test_error_findings_exit_1(bad_file, capsys):
    assert main(["lint", str(bad_file)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "1 error(s)" in out


def test_json_report(bad_file, capsys):
    assert main(["lint", str(bad_file), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "lint_report"
    assert payload["counts"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "DET001"


def test_rule_filter(bad_file, capsys):
    assert main(["lint", str(bad_file), "--rule", "UNIT001"]) == 0
    assert main(["lint", str(bad_file), "--rule", "det001"]) == 1
    capsys.readouterr()


def test_unknown_rule_is_usage_error(bad_file, capsys):
    assert main(["lint", str(bad_file), "--rule", "NOPE99"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert "lint:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [
        ["--json"],
        ["--baseline", "b.json"],
        ["--write-baseline", "b.json"],
        ["--no-cache"],
        ["--cache-path", "c.json"],
    ],
    ids=["json", "baseline", "write-baseline", "no-cache", "cache-path"],
)
def test_json_alias_and_baseline_flags_are_gone(bad_file, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(bad_file), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_whole_tree_is_clean(capsys, monkeypatch):
    """The dogfooding gate: ``repro lint src tests`` reports nothing.

    Every rule runs over the real tree; a finding here
    means a violation was introduced (fix it) or a rule regressed into
    false positives (fix the rule).  This mirrors the CI lint step.
    """
    monkeypatch.chdir(REPO_ROOT)
    code = main(["lint", "src", "tests", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["counts"]["errors"] == 0
    assert payload["counts"]["warnings"] == 0
    assert payload["counts"]["files"] > 100
    assert code == 0
