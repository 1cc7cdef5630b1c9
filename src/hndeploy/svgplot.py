"""Hand-emitted SVG line charts (no plotting dependency, fully deterministic).

One polyline per (series value, y column) pair; linear axes with ticks
chosen by the usual nice-number rule (steps of 1, 2 or 5 times a power of
ten, aiming for about six ticks per axis). The output is a single
self-contained SVG document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 30
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 55


@dataclass(frozen=True)
class PlotSpec:
    x_column: str
    y_columns: Tuple[str, ...]
    series_key: str = ""
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    width: int = 720
    height: int = 480

    def __post_init__(self):
        if not self.y_columns:
            raise ValueError("at least one y column is required")
        if self.width < 100 or self.height < 100:
            raise ValueError("plot must be at least 100x100 pixels")


def nice_ticks(lo: float, hi: float, target: int = 6) -> List[float]:
    """Tick positions covering [lo, hi] at a 1/2/5 * 10^k step."""
    if lo == hi:
        # 0.5 is below the float spacing once |lo| >= 2^53
        pad = max(0.5, math.ulp(lo))
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(f"cannot place ticks on [{lo}, {hi}]: the range is not finite")
    raw = span / max(1, target - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    ticks = []
    t = math.ceil(lo / step) * step
    # at most target ticks fit in [lo, hi]; the cap and the stall check end
    # the loop when step is below the ulp of t and t += step cannot move
    while t <= hi + 1e-9 * span and len(ticks) <= target:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:
            break
        t += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _collect_series(rows: Sequence[Dict[str, str]], spec: PlotSpec) -> Dict[str, List[Tuple[float, float]]]:
    series: Dict[str, List[Tuple[float, float]]] = {}
    multi_y = len(spec.y_columns) > 1
    for row in rows:
        if row[spec.x_column] == "":
            continue
        prefix = row[spec.series_key] if spec.series_key else ""
        for y_col in spec.y_columns:
            if row[y_col] == "":
                continue
            if prefix and multi_y:
                key = f"{prefix}:{y_col}"
            elif prefix:
                key = prefix
            else:
                key = y_col
            point = (float(row[spec.x_column]), float(row[y_col]))
            if not all(map(math.isfinite, point)):
                raise ValueError(f"cannot plot non-finite ({spec.x_column}, {y_col}) = {point}")
            series.setdefault(key, []).append(point)
    for points in series.values():
        points.sort()
    return series


def render_line_chart(rows: Sequence[Dict[str, str]], spec: PlotSpec) -> str:
    """Render a CSV-style table (sequence of string dicts) as an SVG line chart."""
    if not rows:
        raise ValueError("no data rows to plot")
    needed = [spec.x_column, *spec.y_columns] + ([spec.series_key] if spec.series_key else [])
    missing = [c for c in needed if c not in rows[0]]
    if missing:
        raise ValueError(f"missing columns: {missing}")
    series = _collect_series(rows, spec)
    if not series:
        raise ValueError("no plottable data rows (all values empty)")

    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_ticks = nice_ticks(min(xs), max(xs))
    y_ticks = nice_ticks(min(ys), max(ys))
    x_lo, x_hi = min(min(xs), x_ticks[0]), max(max(xs), x_ticks[-1])
    y_lo, y_hi = min(min(ys), y_ticks[0]), max(max(ys), y_ticks[-1])
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = spec.width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = spec.height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">'
    )
    out.append(f'<rect width="{spec.width}" height="{spec.height}" fill="white"/>')
    if spec.title:
        out.append(
            f'<text x="{spec.width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(spec.title)}</text>'
        )
    # axes
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for t in x_ticks:
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="black"/>')
        out.append(
            f'<text x="{x:.2f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in y_ticks:
        y = py(t)
        out.append(f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    if spec.x_label:
        out.append(
            f'<text x="{x0 + plot_w / 2:.1f}" y="{spec.height - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(spec.x_label)}</text>'
        )
    if spec.y_label:
        cx, cy = 18, _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{_escape(spec.y_label)}</text>'
        )
    # polylines and legend; sorted keys keep byte output stable
    for i, key in enumerate(sorted(series)):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in series[key])
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = _MARGIN_TOP + 8 + 18 * i
        lx = x0 + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{_escape(key)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
