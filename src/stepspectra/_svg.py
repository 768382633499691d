"""Minimal deterministic SVG writer for scatter plots and line profiles.

Hand-rolled on purpose: byte-identical output for identical inputs, no
timestamps or library-generated ids.
"""

from __future__ import annotations

import math

_WIDTH = 640
_HEIGHT = 440
_MARGIN = 56


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class Canvas:
    def __init__(self, x_range, y_range, title=""):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        if not (self.x_hi > self.x_lo and self.y_hi > self.y_lo):
            raise ValueError("degenerate axis range")
        self.parts = []
        self.title = title

    def _map(self, x: float, y: float):
        px = _MARGIN + (x - self.x_lo) / (self.x_hi - self.x_lo) * (_WIDTH - 2 * _MARGIN)
        py = _HEIGHT - _MARGIN - (y - self.y_lo) / (self.y_hi - self.y_lo) * (_HEIGHT - 2 * _MARGIN)
        return px, py

    def rect(self, x0, x1, y0, y1):
        px0, py0 = self._map(x0, y1)
        px1, py1 = self._map(x1, y0)
        self.parts.append(
            f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" width="{_fmt(px1 - px0)}" '
            f'height="{_fmt(py1 - py0)}" fill="none" stroke="#888888" '
            'stroke-dasharray="4,3"/>'
        )

    def circle(self, x, y, color):
        px, py = self._map(x, y)
        self.parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.0" fill="{color}"/>')

    def polyline(self, xs, ys, color):
        pts = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (self._map(x, y) for x, y in zip(xs, ys))
        )
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )

    def _axes(self):
        x0, y0 = self._map(self.x_lo, self.y_lo)
        x1, y1 = self._map(self.x_hi, self.y_hi)
        out = [
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" stroke="#000"/>',
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" stroke="#000"/>',
        ]
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.x_lo + frac * (self.x_hi - self.x_lo)
            yv = self.y_lo + frac * (self.y_hi - self.y_lo)
            px, py = self._map(xv, self.y_lo)
            out.append(
                f'<text x="{_fmt(px)}" y="{_fmt(py + 18)}" font-size="10" '
                f'text-anchor="middle">{_fmt(xv)}</text>'
            )
            px, py = self._map(self.x_lo, yv)
            out.append(
                f'<text x="{_fmt(px - 6)}" y="{_fmt(py + 3)}" font-size="10" '
                f'text-anchor="end">{_fmt(yv)}</text>'
            )
        if self.title:
            out.append(
                f'<text x="{_WIDTH / 2}" y="20" font-size="12" text-anchor="middle">'
                f"{self.title}</text>"
            )
        return out

    def render(self) -> str:
        body = "\n".join(self._axes() + self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )


def scatter_svg(points, colors, boxes, title="") -> str:
    """Scatter of complex points in their colours and one dashed box per
    (re_lo, re_hi, im_lo, im_hi) in ``boxes``."""
    xs = [p.real for p in points] + [x for b in boxes for x in b[:2]]
    ys = [p.imag for p in points] + [y for b in boxes for y in b[2:]]
    pad_x = 0.05 * (max(xs) - min(xs) or 1.0)
    pad_y = 0.05 * (max(ys) - min(ys) or 1.0)
    canvas = Canvas(
        (min(xs) - pad_x, max(xs) + pad_x),
        (min(ys) - pad_y, max(ys) + pad_y),
        title=title,
    )
    for box in boxes:
        canvas.rect(*box)
    for p, color in zip(points, colors):
        canvas.circle(p.real, p.imag, color=color)
    return canvas.render()


def profile_svg(xs, curves, title="") -> str:
    """Line profiles on a shared grid; curves is a list of (ys, color)."""
    ys_all = [y for ys, _ in curves for y in ys if math.isfinite(y)]
    if not ys_all:
        ys_all = [0.0, 1.0]
    lo, hi = min(ys_all), max(ys_all)
    pad = 0.05 * ((hi - lo) or 1.0)
    canvas = Canvas((min(xs), max(xs)), (lo - pad, hi + pad), title=title)
    for ys, color in curves:
        canvas.polyline(xs, ys, color=color)
    return canvas.render()
