"""Minimal deterministic SVG line charts.

The bench harness needs vector plots whose bytes are identical across runs
and machines, so this module renders polyline charts directly: fixed canvas
geometry, a fixed palette, and fixed ``%.2f`` coordinate formatting.  No
styling is configurable beyond the title, axis labels, and series names.
"""

from __future__ import annotations

import math
import sys

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 64, 168, 48, 52  # margins: left, right (legend), top, bottom


def _half_span(lo: float, hi: float) -> float:
    """(hi - lo) / 2, which cannot overflow for finite ends; halving first is
    exact for normal doubles, so it keeps the bits of the plain difference."""
    return hi / 2 - lo / 2


def _axis(lo: float, hi: float, share: float):
    """The drawn range of data in [lo, hi]: padded by ``share`` of its span.
    A span that halves to below the smallest normal double (a constant series
    among them) is padded by a tenth of |lo|, at least 1, instead.  The ends
    are clamped to finite doubles."""
    half = _half_span(lo, hi)
    pad = 2 * share * half if half >= sys.float_info.min else max(1.0, abs(lo) * 0.1)
    return max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)


def _nice_ticks(lo: float, hi: float, want: int = 5):
    """Round tick positions covering [lo, hi], for finite lo < hi."""
    raw = _half_span(lo, hi) / want * 2
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        if v + step == v:  # step at most half an ulp of v: no further tick
            break
        v += step
    return ticks


def _tick_label(v: float) -> str:
    return format(v, ".6g")


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def line_chart(title: str, x_label: str, y_label: str, series) -> str:
    """Render (name, xs, ys) series to a self-contained SVG document.

    Identical inputs produce identical bytes; series sharing identical data
    produce coincident polylines.
    """
    series = [(str(name), [float(v) for v in xs], [float(v) for v in ys])
              for name, xs, ys in series]
    if not series or any(len(xs) != len(ys) or not xs for _, xs, ys in series):
        raise ValueError("each series needs equally many x and y values (>= 1)")
    if not all(math.isfinite(v) for _, xs, ys in series for v in xs + ys):
        raise ValueError("chart values must be finite")
    x_lo, x_hi = _axis(min(min(xs) for _, xs, _ in series),
                       max(max(xs) for _, xs, _ in series), 0.0)
    y_lo, y_hi = _axis(min(min(ys) for _, _, ys in series),
                       max(max(ys) for _, _, ys in series), 0.05)

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x):
        return _ML + _half_span(x_lo, x) / _half_span(x_lo, x_hi) * plot_w

    def py(y):
        return _MT + plot_h - _half_span(y_lo, y) / _half_span(y_lo, y_hi) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W // 2}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="16">{_esc(title)}</text>']

    for v in _nice_ticks(x_lo, x_hi):
        if not x_lo <= v <= x_hi:
            continue
        x = _fmt(px(v))
        out.append(f'<line x1="{x}" y1="{_MT}" x2="{x}" y2="{_MT + plot_h}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{x}" y="{_MT + plot_h + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_tick_label(v)}</text>')
    for v in _nice_ticks(y_lo, y_hi):
        if not y_lo <= v <= y_hi:
            continue
        y = _fmt(py(v))
        out.append(f'<line x1="{_ML}" y1="{y}" x2="{_ML + plot_w}" y2="{y}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 8}" y="{y}" text-anchor="end" dy="4" '
                   f'font-family="sans-serif" font-size="11">{_tick_label(v)}</text>')

    out.append(f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{_ML + plot_w // 2}" y="{_H - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{_esc(x_label)}</text>')
    out.append(f'<text x="18" y="{_MT + plot_h // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {_MT + plot_h // 2})">{_esc(y_label)}</text>')

    for i, (name, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = _MT + 16 + 18 * i
        lx = _ML + plot_w + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{_esc(name)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
