"""Plain-text rendering for reports and experiment tables.

Everything in the analysis layer returns structured report objects; this
module turns them into aligned text tables for the CLI and the examples.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Any]], pad: int = 2
) -> str:
    """Render rows as an aligned text table with a header rule."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = " " * pad

    def line(cells):
        return sep.join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def format_solution_report(report) -> str:
    """Render a :class:`~repro.games.solution.SolutionReport`."""
    lines = [
        f"{report.concept}: {'HOLDS' if report.holds else 'VIOLATED'} "
        f"({report.checks} checks"
        + (
            f", margin {report.margin:.4g})"
            if report.margin not in (None, float('inf'))
            else ")"
        )
    ]
    for violation in report.violations[:10]:
        lines.append(
            f"  - coalition {violation.coalition} malicious "
            f"{violation.malicious} types {violation.types}: "
            f"{violation.detail}"
        )
    if len(report.violations) > 10:
        lines.append(f"  ... and {len(report.violations) - 10} more")
    return "\n".join(lines)


def format_outcome_samples(samples: dict, max_rows: int = 8) -> str:
    """Render {types: [action profiles]} as frequency tables."""
    blocks = []
    for types, rows in samples.items():
        counts: dict[tuple, int] = {}
        for row in rows:
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        table = format_table(
            ["outcome", "freq"],
            [
                (outcome, f"{count / len(rows):.3f}")
                for outcome, count in sorted(
                    counts.items(), key=lambda kv: -kv[1]
                )[:max_rows]
            ],
        )
        blocks.append(f"types {types}:\n{table}")
    return "\n\n".join(blocks)
