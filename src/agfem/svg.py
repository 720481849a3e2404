"""Minimal SVG line charts; no plotting dependency.

Charts are derived artifacts: every figure-producing command also emits
the underlying CSV.
"""

from __future__ import annotations

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    span = hi - lo or 1.0
    step = 10 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def line_chart(path, series, xlabel: str = "", ylabel: str = "",
               logx: bool = False, logy: bool = False, title: str = ""):
    """Write a polyline chart; `series` is a list of (label, xs, ys).

    Points with a non-finite coordinate, or a non-positive one on a log
    axis, are not drawn."""
    def finite(x, y):
        return math.isfinite(x) and math.isfinite(y)

    points = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
              if finite(x, y)]
    xs_all = [x for x, _ in points]
    ys_all = [y for _, y in points if not (logy and y <= 0)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [1.0], [1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo * 0.9 or -1, x_hi * 1.1 or 1
    if y_lo == y_hi:
        y_lo, y_hi = y_lo * 0.9 or -1, y_hi * 1.1 or 1

    def sx(v):
        a, b = (math.log10(x_lo), math.log10(x_hi)) if logx else (x_lo, x_hi)
        t = (math.log10(v) if logx else v)
        return _ML + (t - a) / (b - a) * (_W - _ML - _MR)

    def sy(v):
        a, b = (math.log10(y_lo), math.log10(y_hi)) if logy else (y_lo, y_hi)
        t = (math.log10(v) if logy else v)
        return _H - _MB - (t - a) / (b - a) * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'font-family="sans-serif" font-size="11">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if title:
        parts.append(f'<text x="{_W / 2}" y="18" text-anchor="middle" '
                     f'font-size="13">{title}</text>')
    # axes
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
                 f'y2="{_H - _MB}" stroke="black"/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
                 f'stroke="black"/>')
    for t in _ticks(x_lo, x_hi, logx):
        if t < x_lo * (1 - 1e-9) or t > x_hi * (1 + 1e-9):
            continue
        x = sx(t)
        parts.append(f'<line x1="{x}" y1="{_H - _MB}" x2="{x}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi, logy):
        if t < y_lo * (1 - 1e-9) or t > y_hi * (1 + 1e-9):
            continue
        y = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y}" x2="{_ML}" y2="{y}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
    if xlabel:
        parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{ylabel}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                       if finite(x, y) and not (logy and y <= 0)
                       and not (logx and x <= 0))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" '
                     f'x2="{_W - _MR - 110}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 105}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
