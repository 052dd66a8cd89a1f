"""Shared helpers for the experiment runners."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple


#: Experiment scale factor when none is given: 1.0 is the paper's
#: workload size; a tenth keeps every experiment within a minute.
DEFAULT_SCALE = 0.1


def timed(func: Callable, *args, **kwargs) -> Tuple[float, object]:
    """Run *func* and return ``(elapsed_seconds, result)``."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - start, result


def linear_fit_r2(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Coefficient of determination of the best linear fit.

    Used to verify the paper's central scalability claim: time grows
    *linearly* with workload size / plan size / KB size.
    """
    n = len(xs)
    if n < 2:
        return 1.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        return 1.0
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


@dataclass
class ExperimentTable:
    """A small result table with headers and an optional commentary."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, index: int) -> List[object]:
        return [row[index] for row in self.rows]

    def to_text(self) -> str:
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        body = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max([len(h)] + [len(row[i]) for row in body]) if body else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"* {note}")
        return "\n".join(lines)
