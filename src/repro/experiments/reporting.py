"""Plain-text reporting for experiment results."""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["format_table", "print_result"]


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = ()) -> str:
    """Render a list of row dicts as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns else list(rows[0].keys())
    rendered = [[_format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(line[index].ljust(widths[index]) for index in range(len(columns)))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])


def print_result(result: "ExperimentResult") -> None:  # noqa: F821 - forward ref
    """Print one experiment result as a ``python -m repro.experiments`` table."""
    print(f"== {result.name} ==")
    if result.description:
        print(result.description)
    print(format_table(result.rows))
    for note in result.notes:
        print(f"note: {note}")
    print()
