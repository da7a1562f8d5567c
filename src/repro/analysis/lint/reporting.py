"""Text and JSON renderings of a :class:`~.runner.LintReport`.

Both renderings are pure functions of the report — no timestamps, no
host names — so two runs over one tree emit identical bytes (the lint
pass holds itself to the invariant it enforces).
"""

from __future__ import annotations

import json

from .findings import FindingStatus
from .runner import LintReport

__all__ = ["render_json", "render_text"]


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
    new = len(report.new)
    summary = (
        f"{report.files_scanned} files scanned: {new} finding{'s' if new != 1 else ''}, "
        f"{len(report.suppressed)} suppressed"
    )
    lines.append(("FAIL " if not report.clean else "OK ") + summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Canonical JSON report (sorted keys, fixed separators)."""
    payload = {
        "version": 2,
        "clean": report.clean,
        "files_scanned": report.files_scanned,
        "counts": report.counts(),
        "findings": [f.to_dict() for f in report.findings],
        "parse_errors": list(report.parse_errors),
        "totals": {
            "new": len(report.new),
            "suppressed": len(report.suppressed),
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
