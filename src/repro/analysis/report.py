"""ASCII rendering helpers for benchmark reports.

:func:`ascii_table` lives with the campaign tables, the lowest layer
that renders one, and is re-exported here.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

from repro.campaign.tables import ascii_table

__all__ = ["ascii_table", "format_quantity", "format_series", "save_report"]


def format_quantity(value: float, unit: str = "") -> str:
    """Engineering-style formatting (inf-safe)."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    if math.isinf(value):
        return "inf"
    prefixes = [
        (1e-15, 1e18, "a"),
        (1e-12, 1e15, "f"),
        (1e-9, 1e12, "p"),
        (1e-6, 1e9, "n"),
        (1e-3, 1e6, "u"),
        (1.0, 1e3, "m"),
        (1e3, 1.0, ""),
    ]
    magnitude = abs(value)
    if magnitude == 0:
        return f"0 {unit}".strip()
    for limit, scale, prefix in prefixes:
        if magnitude < limit:
            return f"{value * scale:.3g} {prefix}{unit}".strip()
    return f"{value:.3g} {unit}".strip()


def format_series(
    x_label: str,
    y_label: str,
    xs: Sequence[float],
    ys: Sequence[float],
) -> str:
    """Render a data series as aligned columns (a text 'figure')."""
    lines = [f"{x_label:>12s}  {y_label}"]
    for x, y in zip(xs, ys):
        if isinstance(y, float) and math.isinf(y):
            lines.append(f"{x:12.4g}  inf")
        else:
            lines.append(f"{x:12.4g}  {y:.6g}")
    return "\n".join(lines)


def save_report(name: str, text: str, directory: str | Path = None) -> Path:
    """Persist a benchmark report under ``benchmarks/out``."""
    if directory is None:
        directory = Path(__file__).resolve().parents[3] / "benchmarks" / "out"
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    return path
