"""Minimal deterministic SVG line and scatter plots (fixed 800x500 viewport).

Hand-rolled renderer so that byte-identical output depends only on the
data: fixed viewport, fixed formatting of pixel coordinates, no
timestamps or generator metadata.
"""

from __future__ import annotations

import math

__all__ = ["line_plot", "scatter_plot"]

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 75
MARGIN_RIGHT = 25
MARGIN_TOP = 25
MARGIN_BOTTOM = 55

_PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
_PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _px(value: float) -> str:
    return format(value, ".2f")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _label(value: float) -> str:
    return format(value, ".4g")


class _Frame:
    """Data-to-pixel mapping over the fixed plot rectangle."""

    def __init__(self, xs, ys):
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys), max(ys)
        if xhi == xlo:
            xlo, xhi = xlo - 0.5, xhi + 0.5
        if yhi == ylo:
            ylo, yhi = ylo - 0.5, yhi + 0.5
        xpad = 0.05 * (xhi - xlo)
        ypad = 0.05 * (yhi - ylo)
        self.xlo, self.xhi = xlo - xpad, xhi + xpad
        self.ylo, self.yhi = ylo - ypad, yhi + ypad

    def x(self, v: float) -> float:
        return MARGIN_LEFT + _PLOT_W * (v - self.xlo) / (self.xhi - self.xlo)

    def y(self, v: float) -> float:
        return MARGIN_TOP + _PLOT_H * (self.yhi - v) / (self.yhi - self.ylo)

    def contains_y(self, v: float) -> bool:
        return self.ylo <= v <= self.yhi


def _header() -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]


def _axes(frame: _Frame, xlabel: str, ylabel: str) -> list[str]:
    parts = [
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{_PLOT_W}" '
        f'height="{_PLOT_H}" fill="none" stroke="black" stroke-width="1"/>'
    ]
    for tick in _ticks(frame.xlo, frame.xhi):
        px = _px(frame.x(tick))
        y0 = MARGIN_TOP + _PLOT_H
        parts.append(
            f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px}" y="{y0 + 20}" font-size="12" '
            f'text-anchor="middle">{_label(tick)}</text>'
        )
    for tick in _ticks(frame.ylo, frame.yhi):
        py = _px(frame.y(tick))
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py}" x2="{MARGIN_LEFT}" '
            f'y2="{py}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py}" font-size="12" '
            f'text-anchor="end" dominant-baseline="middle">{_label(tick)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + _PLOT_W / 2:.0f}" y="{HEIGHT - 12}" '
        f'font-size="14" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + _PLOT_H / 2:.0f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 18 '
        f'{MARGIN_TOP + _PLOT_H / 2:.0f})">{ylabel}</text>'
    )
    return parts


def line_plot(
    points: list[tuple[float, float]],
    xlabel: str,
    ylabel: str,
    hline: float | None = None,
) -> str:
    """Render a polyline plot; optional dashed horizontal marker."""
    pts = [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
    if not pts:
        raise ValueError("line plot needs at least one finite point")
    frame = _Frame([p[0] for p in pts], [p[1] for p in pts])
    parts = _header()
    parts.extend(_axes(frame, xlabel, ylabel))
    if hline is not None and frame.contains_y(hline):
        py = _px(frame.y(hline))
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{py}" x2="{MARGIN_LEFT + _PLOT_W}" '
            f'y2="{py}" stroke="gray" stroke-dasharray="6 4"/>'
        )
    path = " ".join(
        f"{'M' if i == 0 else 'L'} {_px(frame.x(x))} {_px(frame.y(y))}"
        for i, (x, y) in enumerate(pts)
    )
    parts.append(
        f'<path d="{path}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_plot(
    points: list[tuple[float, float]],
    xlabel: str,
    ylabel: str,
    extent: tuple[float, float, float, float],
) -> str:
    """Render a dot plot in the frame ``extent`` (xlo, xhi, ylo, yhi)."""
    pts = [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
    frame = _Frame([extent[0], extent[1]], [extent[2], extent[3]])
    parts = _header()
    parts.extend(_axes(frame, xlabel, ylabel))
    for x, y in pts:
        parts.append(
            f'<circle cx="{_px(frame.x(x))}" cy="{_px(frame.y(y))}" r="4" '
            f'fill="steelblue"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
