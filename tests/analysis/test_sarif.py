"""SARIF serialization: driver metadata, result mapping, fingerprints."""

import json

from repro.analysis import LintEngine, default_rules
from repro.analysis.sarif import SARIF_VERSION, to_sarif

BAD = "from numpy.random import default_rng\nrng = default_rng()\n"


def bad_report(tmp_path):
    (tmp_path / "bad.py").write_text(BAD)
    return LintEngine().lint_paths([tmp_path / "bad.py"])


class TestToSarif:
    def test_log_shape_and_driver_rules(self, tmp_path):
        rules = default_rules()
        log = to_sarif(bad_report(tmp_path), rules)
        assert log["version"] == SARIF_VERSION
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert [r["id"] for r in driver["rules"]] == [
            rule.id for rule in rules
        ]
        assert all(r["shortDescription"]["text"] for r in driver["rules"])

    def test_result_maps_finding_fields(self, tmp_path):
        report = bad_report(tmp_path)
        log = to_sarif(report, default_rules())
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 2
        assert (
            result["partialFingerprints"]["reproLint/v1"]
            == report.findings[0].fingerprint()
        )
        assert result["ruleIndex"] == [
            r.id for r in default_rules()
        ].index("DET001")

    def test_warn_tier_maps_to_warning_level(self, tmp_path):
        rules = default_rules()
        warn_rule = next(rule for rule in rules if rule.tier == "warn")
        descriptors = to_sarif(bad_report(tmp_path), rules)["runs"][0][
            "tool"
        ]["driver"]["rules"]
        match = next(d for d in descriptors if d["id"] == warn_rule.id)
        assert match["defaultConfiguration"]["level"] == "warning"

    def test_clean_report_serializes_with_empty_results(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = LintEngine().lint_paths([tmp_path / "ok.py"])
        log = to_sarif(report, default_rules())
        assert log["runs"][0]["results"] == []
        json.dumps(log)  # must be JSON-serializable end to end


def test_cli_format_sarif(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "ok.py"
    target.write_text("x = 1\n")
    assert main(["lint", str(target), "--format", "sarif"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == SARIF_VERSION
