"""Deterministic CSV and SVG emission for experiment results.

CSV columns are fixed (see ``CSV_COLUMNS``); floats are serialized with
``repr`` so a round trip through :func:`parse_csv` reproduces rows exactly.
SVG charts are built by string assembly with fixed formatting, so identical
rows always produce identical bytes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from ..svgp import BoundReport


@dataclass(kw_only=True)
class ResultRow(BoundReport):
    """One (experiment, seed, N, M) result: a BoundReport plus identity, timing and flags."""

    experiment: str
    seed: int
    n: int
    m: int
    method: str
    time_select: float
    time_solve: float
    time_bounds: float
    violation: str


# The shipped column order: identity, the BoundReport fields, timing, flags.
CSV_COLUMNS = (
    ("experiment", "seed", "n", "m", "method")
    + tuple(f.name for f in fields(BoundReport))
    + ("time_select", "time_solve", "time_bounds", "violation")
)

_INT_COLUMNS = {"seed", "n", "m"}
_STR_COLUMNS = {"experiment", "method", "violation"}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_table(path: str, header, records) -> None:
    """The one ``csv.writer`` of every table: a cell with a comma, quote or newline is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)


def emit_csv(rows: list[ResultRow], path: str) -> None:
    """Write rows in the fixed column order; empty input gives a header-only file."""
    _write_table(path, CSV_COLUMNS, ([_cell(getattr(r, c)) for c in CSV_COLUMNS] for r in rows))


def parse_csv(path: str) -> list[ResultRow]:
    """Read a results file back into ResultRow values (exact float round trip)."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        for record in reader:
            if len(record) != len(CSV_COLUMNS):
                raise ValueError(
                    f"line {reader.line_num}: {len(record)} cells, expected {len(CSV_COLUMNS)}"
                )
            values = {}
            for col, cell in zip(CSV_COLUMNS, record):
                if col in _STR_COLUMNS:
                    values[col] = cell
                elif col in _INT_COLUMNS:
                    values[col] = int(cell)
                else:
                    values[col] = None if cell == "" else float(cell)
            rows.append(ResultRow(**values))
    return rows


def emit_selection_csv(selections, path: str) -> None:
    """Write ``(run_id, method, seed, indices)`` selections, indices sorted and space-separated."""
    records = ((*key, " ".join(str(i) for i in sorted(map(int, idx)))) for *key, idx in selections)
    _write_table(path, ("run_id", "method", "seed", "indices"), records)


@dataclass(frozen=True)
class PlotSpec:
    """What to plot: x column, y columns (median across seeds), scales, title."""

    x: str
    ys: tuple[str, ...]
    log_x: bool = True
    log_y: bool = True
    title: str = ""


_WIDTH, _HEIGHT = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 36, 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _median_series(rows, spec: PlotSpec) -> dict[str, list[tuple[float, float]]]:
    series: dict[str, list[tuple[float, float]]] = {}
    xs = sorted({getattr(r, spec.x) for r in rows})
    for y_col in spec.ys:
        pts = []
        for x in xs:
            vals = [
                getattr(r, y_col)
                for r in rows
                if getattr(r, spec.x) == x and getattr(r, y_col) is not None
            ]
            if vals:
                pts.append((float(x), float(np.median(vals))))
        series[y_col] = pts
    return series


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_d = math.floor(math.log10(lo))
        hi_d = math.ceil(math.log10(hi))
        return [10.0**d for d in range(int(lo_d), int(hi_d) + 1)]
    step = (hi - lo) / 4.0
    return [lo + i * step for i in range(5)]


def _text(x, y, size, body, anchor="") -> str:
    """Every SVG text element of a chart: position, optional anchor, font size, body."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}">{body}</text>'
    )


def _line(x1, y1, x2, y2, stroke="black", width="") -> str:
    """Every SVG line element of a chart: two end points, stroke, optional width."""
    width = f' stroke-width="{width}"' if width else ""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{width}/>'


def render_svg(rows, spec: PlotSpec) -> str:
    """Render a line chart of per-x medians as a standalone SVG string."""
    series = _median_series(rows, spec)
    points = [p for pts in series.values() for p in pts]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(_WIDTH // 2, 20, 14, spec.title, "middle"),
    ]
    if points:
        floor = 1e-300
        xs = [p[0] for p in points]
        ys = [max(p[1], floor) if spec.log_y else p[1] for p in points]
        tx, ty = (
            (lambda v: math.log10(max(v, floor))) if log else (lambda v: v)
            for log in (spec.log_x, spec.log_y)
        )
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if spec.log_y:
            y_lo = max(y_lo, y_hi * 1e-12)
        span_x = tx(x_hi) - tx(x_lo) or 1.0
        span_y = ty(y_hi) - ty(y_lo) or 1.0

        def px(v):
            return _ML + (tx(v) - tx(x_lo)) / span_x * (_WIDTH - _ML - _MR)

        def py(v):
            return _HEIGHT - _MB - (ty(max(v, y_lo)) - ty(y_lo)) / span_y * (
                _HEIGHT - _MT - _MB
            )

        parts.append(
            f'<rect x="{_ML}" y="{_MT}" width="{_WIDTH - _ML - _MR}" '
            f'height="{_HEIGHT - _MT - _MB}" fill="none" stroke="black"/>'
        )
        for tick in _ticks(x_lo, x_hi, spec.log_x):
            if x_lo <= tick <= x_hi:
                x = _fmt(px(tick))
                parts.append(_line(x, _HEIGHT - _MB, x, _HEIGHT - _MB + 5))
                parts.append(_text(x, _HEIGHT - _MB + 18, 11, f"{tick:g}", "middle"))
        for tick in _ticks(y_lo, y_hi, spec.log_y):
            if y_lo <= tick <= y_hi * (1 + 1e-12):
                y = py(tick)
                parts.append(_line(_ML - 5, _fmt(y), _ML, _fmt(y)))
                parts.append(_text(_ML - 8, _fmt(y + 4), 11, f"{tick:.3g}", "end"))
        for idx, (y_col, pts) in enumerate(series.items()):
            if not pts:
                continue
            color = _PALETTE[idx % len(_PALETTE)]
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            legend_y = _MT + 16 * idx + 12
            key_x = _WIDTH - _MR - 130
            parts.append(_line(key_x, legend_y - 4, key_x + 20, legend_y - 4, color, "1.5"))
            parts.append(_text(key_x + 25, legend_y, 11, y_col))
        parts.append(_text(_WIDTH // 2, _HEIGHT - 12, 12, spec.x, "middle"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(rows, spec: PlotSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_svg(rows, spec))
