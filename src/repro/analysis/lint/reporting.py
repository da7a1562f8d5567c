"""Text and JSON renderings of a :class:`~.runner.LintReport`.

Both renderings are pure functions of the report — no timestamps, no
host names — so two runs over one tree emit identical bytes (the lint
pass holds itself to the invariant it enforces).
"""

from __future__ import annotations

import json

from .findings import Finding, FindingStatus
from .registry import all_program_checkers
from .runner import LintReport

__all__ = ["render_json", "render_sarif", "render_text"]


def render_text(report: LintReport, *, verbose: bool = False) -> str:
    """Human-readable findings listing plus a one-line verdict."""
    lines: list[str] = []
    for finding in report.findings:
        if finding.status is FindingStatus.NEW:
            lines.append(finding.render())
        elif verbose:
            lines.append(f"{finding.render()} [{finding.status.value}]")
    for error in report.parse_errors:
        lines.append(f"error: {error}")
    if report.stale_baseline:
        total = sum(report.stale_baseline.values())
        lines.append(
            f"note: {total} stale baseline entr{'y' if total == 1 else 'ies'} never "
            "matched — run with --update-baseline to drop them"
        )
    if report.baseline_missing_files:
        listing = ", ".join(report.baseline_missing_files)
        lines.append(
            f"warning: baseline references deleted file"
            f"{'s' if len(report.baseline_missing_files) != 1 else ''}: {listing} "
            "— run with --update-baseline to prune"
        )
    new = len(report.new)
    summary = (
        f"{report.files_scanned} files scanned: {new} finding{'s' if new != 1 else ''}, "
        f"{len(report.baselined)} baselined, {len(report.suppressed)} suppressed"
    )
    lines.append(("FAIL " if not report.clean else "OK ") + summary)
    return "\n".join(lines)


_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _sarif_suppressions(finding: Finding) -> list[dict[str, str]]:
    """SARIF suppression objects for non-NEW findings.

    Code-scanning UIs hide suppressed results by default, which matches
    the text report only listing NEW findings: ``inSource`` for
    ``# repro-lint: disable=`` comments, ``external`` for the baseline.
    """
    if finding.status is FindingStatus.SUPPRESSED:
        return [{"kind": "inSource"}]
    if finding.status is FindingStatus.BASELINED:
        return [{"kind": "external"}]
    return []


def _sarif_result(finding: Finding) -> dict[str, object]:
    result: dict[str, object] = {
        "ruleId": finding.code,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.column, 1),
                    },
                }
            }
        ],
        # The baseline key doubles as a stable result identity, so two
        # uploads of the same finding dedup instead of piling up alerts.
        "partialFingerprints": {"reproLint/baselineKey": finding.baseline_key()},
    }
    suppressions = _sarif_suppressions(finding)
    if suppressions:
        result["suppressions"] = suppressions
    return result


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 rendering for code-scanning uploads.

    Deterministic like the other renderings: rules sorted by code,
    results in report order, sorted keys, no timestamps or host names.
    Every registered rule is listed (not just triggered ones) so the
    catalogue is visible in scanning UIs; parse errors surface as tool
    execution notifications.
    """
    rules = [
        {
            "id": checker.code,
            "name": checker.name,
            "shortDescription": {"text": checker.name},
            "fullDescription": {"text": checker.description},
            "defaultConfiguration": {"level": "error"},
        }
        for checker in all_program_checkers()
    ]
    notifications = [
        {"level": "error", "message": {"text": error}} for error in report.parse_errors
    ]
    run: dict[str, object] = {
        "tool": {
            "driver": {
                "name": "repro-lint",
                "informationUri": "docs/ANALYSIS.md",
                "rules": rules,
            }
        },
        "results": [_sarif_result(f) for f in report.findings],
        "columnKind": "utf16CodeUnits",
    }
    if notifications:
        run["invocations"] = [
            {
                "executionSuccessful": False,
                "toolExecutionNotifications": notifications,
            }
        ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [run],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def render_json(report: LintReport) -> str:
    """Canonical JSON report (sorted keys, fixed separators)."""
    payload = {
        "version": 1,
        "clean": report.clean,
        "files_scanned": report.files_scanned,
        "counts": report.counts(),
        "findings": [f.to_dict() for f in report.findings],
        "parse_errors": list(report.parse_errors),
        "stale_baseline": dict(sorted(report.stale_baseline.items())),
        "baseline_missing_files": list(report.baseline_missing_files),
        "totals": {
            "new": len(report.new),
            "baselined": len(report.baselined),
            "suppressed": len(report.suppressed),
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
