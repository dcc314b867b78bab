"""SARIF 2.1.0 serialization for lint reports.

``repro lint --format sarif`` emits the minimal profile GitHub code
scanning ingests: one run, one tool driver listing every rule that was
active (so the UI can show rule metadata even for clean runs), one
result per finding with a physical location and the engine's stable
fingerprint under ``partialFingerprints``, which leaves out the line and
column, so alert identity survives reformatting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.analysis.engine import LintReport, Rule

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

#: Map the engine's finding tiers onto SARIF result levels.
_LEVELS = {"error": "error", "warn": "warning"}


def _rule_descriptor(rule: Rule) -> dict[str, Any]:
    doc = (type(rule).__doc__ or "").strip()
    summary = doc.splitlines()[0].strip() if doc else rule.id
    return {
        "id": rule.id,
        "name": type(rule).__name__,
        "shortDescription": {"text": summary},
        "defaultConfiguration": {
            "level": _LEVELS.get(rule.tier, "warning"),
        },
    }


def to_sarif(report: LintReport, rules: list[Rule]) -> dict[str, Any]:
    """Render ``report`` as a SARIF 2.1.0 log object.

    Args:
        report: the lint result to serialize.
        rules: the rules that were active for the run — all of them,
            not just those with findings, so the driver metadata is
            complete for clean runs too.
    """
    from repro import __version__

    descriptors = [_rule_descriptor(rule) for rule in rules]
    rule_index = {d["id"]: i for i, d in enumerate(descriptors)}
    results = []
    for finding in report.findings:
        result: dict[str, Any] = {
            "ruleId": finding.rule,
            "level": _LEVELS.get(finding.tier, "warning"),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": max(finding.col, 1),
                        },
                    }
                }
            ],
            "partialFingerprints": {
                "reproLint/v1": finding.fingerprint(),
            },
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": __version__,
                        "rules": descriptors,
                    }
                },
                "results": results,
            }
        ],
    }
