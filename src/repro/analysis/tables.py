"""Plain-text table rendering for the experiment harness.

The CLI and the examples print Figure-1 style tables; keeping the
formatting here (instead of inside each caller) makes every table uniform
and easy to diff.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["format_table", "format_figure1_row", "render_records"]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], *, float_format: str = "{:.3f}"
) -> str:
    """Render a simple aligned text table."""
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered: list[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_figure1_row(
    problem: str,
    weighted: bool,
    approximation: str,
    rounds: object,
    space: object,
    reference: str,
) -> dict[str, object]:
    """Build one Figure-1 style record."""
    return {
        "problem": problem,
        "weighted": "Y" if weighted else "",
        "approximation": approximation,
        "rounds": rounds,
        "space_per_machine": space,
        "reference": reference,
    }


def render_records(records: Sequence[Mapping[str, object]]) -> str:
    """Render a list of homogeneous dict records as a table (keys of the first record)."""
    if not records:
        return "(no records)"
    headers = list(records[0].keys())
    rows = [[record.get(h, "") for h in headers] for record in records]
    return format_table(headers, rows)
