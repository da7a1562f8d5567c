"""Plain-text table rendering for the experiment harness.

Every table the CLI prints goes through :func:`format_table`, which keeps
them uniform and easy to diff.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table"]


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
