"""Tiny dependency-free SVG line plots with logarithmic axes.

Just enough plotting for the three-curve experiment reports: log-scaled axes,
one polyline per series, tick labels, and a legend.  Not a general plotting
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Series", "line_plot"]

_PALETTE = ("#1f77b4", "#000000", "#d62728", "#2ca02c", "#9467bd")


@dataclass(frozen=True)
class Series:
    label: str
    x: tuple
    y: tuple
    color: str | None = None
    dash: str | None = None


def _decades(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)]


def _fmt(value: float) -> str:
    return f"{value:g}"


def line_plot(path, series, *, title: str, x_label: str, y_label: str) -> Path:
    """Render the series to ``path`` as a standalone SVG file on log-log axes."""
    series = list(series)
    if not series:
        raise ValueError("need at least one series")
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y if float(v) > 0.0]
    if not xs or not ys:
        raise ValueError("series contain no drawable points")
    if min(xs) <= 0.0:
        raise ValueError("log x axis needs positive x values")

    width, height = 720, 480
    margin_left, margin_right, margin_top, margin_bottom = 76, 16, 40, 56
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    def x_ticks():
        unique = sorted(set(xs))
        return unique if len(unique) <= 9 else _decades(min(xs), max(xs))

    ticks_x = x_ticks()
    ticks_y = _decades(min(ys), max(ys))
    lo_x = math.log10(min(xs + ticks_x))
    hi_x = math.log10(max(xs + ticks_x))
    lo_y, hi_y = math.log10(ticks_y[0]), math.log10(ticks_y[-1])
    if hi_x == lo_x:
        hi_x = lo_x + 1.0
    if hi_y == lo_y:
        hi_y = lo_y + 1.0

    def px(value: float) -> float:
        return margin_left + (math.log10(value) - lo_x) / (hi_x - lo_x) * plot_w

    def py(value: float) -> float:
        return margin_top + plot_h - (math.log10(value) - lo_y) / (hi_y - lo_y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    parts.append(f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>')

    # frame and ticks
    parts.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333"/>'
    )
    for tick in ticks_x:
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{margin_top + plot_h}" x2="{x:.1f}" y2="{margin_top + plot_h + 5}" stroke="#333333"/>')
        parts.append(f'<text x="{x:.1f}" y="{margin_top + plot_h + 19}" text-anchor="middle">{_fmt(tick)}</text>')
    for tick in ticks_y:
        y = py(tick)
        parts.append(f'<line x1="{margin_left - 5}" y1="{y:.1f}" x2="{margin_left}" y2="{y:.1f}" stroke="#333333"/>')
        parts.append(f'<line x1="{margin_left}" y1="{y:.1f}" x2="{margin_left + plot_w}" y2="{y:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{margin_left - 9}" y="{y + 4:.1f}" text-anchor="end">{_fmt(tick)}</text>')
    parts.append(
        f'<text x="{margin_left + plot_w / 2:.1f}" y="{height - 14}" text-anchor="middle">{x_label}</text>'
    )
    cx, cy = 18, margin_top + plot_h / 2
    parts.append(f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" transform="rotate(-90 {cx} {cy:.1f})">{y_label}</text>')

    # series
    for idx, s in enumerate(series):
        color = s.color or _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{px(float(x)):.1f},{py(float(y)):.1f}"
            for x, y in zip(s.x, s.y)
            if float(y) > 0.0
        )
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"{dash}/>')

    # legend, top right inside the frame
    legend_x = margin_left + plot_w - 230
    legend_y = margin_top + 10
    for idx, s in enumerate(series):
        color = s.color or _PALETTE[idx % len(_PALETTE)]
        y = legend_y + 18 * idx
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        parts.append(f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 26}" y2="{y}" stroke="{color}" stroke-width="1.8"{dash}/>')
        parts.append(f'<text x="{legend_x + 32}" y="{y + 4}">{s.label}</text>')

    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
