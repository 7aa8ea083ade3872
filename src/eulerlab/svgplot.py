"""Minimal deterministic SVG line plots.

Hand-rolled so that identical inputs produce byte-identical files: no
timestamps, no library version strings, fixed float formatting.
"""

from __future__ import annotations

import math
import sys

__all__ = ["write_line_svg"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_NTICKS = 5
_MAX = sys.float_info.max


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _span(lo: float, hi: float) -> tuple:
    """``(s, hi * s - lo * s)``: ``s`` is 1, or 1/8 where ``hi - lo`` times
    ``_NTICKS - 1`` overflows.  Scaling by 1/8 is exact at that size, and
    the scaled span stays finite even times ``_NTICKS - 1``.  Every
    difference from ``lo`` is formed at the same scale."""
    s = 1.0 if math.isfinite((hi - lo) * (_NTICKS - 1)) else 0.125
    return s, hi * s - lo * s


def _ticks(lo: float, hi: float) -> list:
    # the top tick may round past hi, and so past the float range
    s, span = _span(lo, hi)
    return [min((lo * s + span * i / (_NTICKS - 1)) / s, _MAX) for i in range(_NTICKS)]


def _nonzero(lo: float, hi: float, below: float, above: float) -> tuple:
    """``(lo, hi)``, widened to ``(lo - below, hi + above)`` when it is a single
    point.  Beyond 2**53 those steps round away, and the point then widens by
    a relative 1e-15 toward zero, which cannot overflow."""
    if hi == lo:
        lo, hi = lo - below, hi + above
    if hi == lo:
        edge = lo * (1.0 - 1e-15)
        lo, hi = min(lo, edge), max(lo, edge)
    return lo, hi


def write_line_svg(path, xs, series, labels, title, xlabel, ylabel):
    """Write a line plot of one or more labelled y-series over shared x values."""
    xs = [float(x) for x in xs]
    series = [[float(y) for y in ys] for ys in series]
    x_lo, x_hi = _nonzero(min(xs), max(xs), 0.0, 1.0)
    ally = [y for ys in series for y in ys]
    y_lo, y_hi = _nonzero(min(ally), max(ally), 0.5, 0.5)
    s, span = _span(y_lo, y_hi)
    pad = 0.05 * span / s
    y_lo, y_hi = max(y_lo - pad, -_MAX), min(y_hi + pad, _MAX)
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB
    sx, x_span = _span(x_lo, x_hi)
    sy, y_span = _span(y_lo, y_hi)

    def px(x):
        return _ML + (x * sx - x_lo * sx) / x_span * pw

    def py(y):
        return _MT + (y_hi * sy - y * sy) / y_span * ph

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
               f'viewBox="0 0 {_W} {_H}">')
    out.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>')
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
               'stroke="black" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        X = _fmt(px(tx))
        out.append(f'<line x1="{X}" y1="{_MT + ph}" x2="{X}" y2="{_MT + ph + 5}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{X}" y="{_MT + ph + 18}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        Y = _fmt(py(ty))
        out.append(f'<line x1="{_ML - 5}" y1="{Y}" x2="{_ML}" y2="{Y}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 8}" y="{Y}" font-size="11" text-anchor="end" '
                   f'dominant-baseline="middle" font-family="sans-serif">{_fmt(ty)}</text>')
    for i, ys in enumerate(series):
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        color = _COLORS[i % len(_COLORS)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 5}" y="{_MT + 15 + 14 * i}" font-size="11" '
                   f'text-anchor="end" fill="{color}" '
                   f'font-family="sans-serif">{labels[i]}</text>')
    out.append(f'<text x="{_W // 2}" y="18" font-size="13" text-anchor="middle" '
               f'font-family="sans-serif">{title}</text>')
    out.append(f'<text x="{_ML + pw // 2}" y="{_H - 12}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>')
    out.append(f'<text x="16" y="{_MT + ph // 2}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'transform="rotate(-90 16 {_MT + ph // 2})">{ylabel}</text>')
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")
