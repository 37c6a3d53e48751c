"""Deterministic SVG rendering of instances with tour / fractional overlays.

Style follows the conventions used throughout the package's figures:
edges of weight 1 are drawn solid, edges of weight 1/2 (more precisely,
weight < 0.75) dashed.  Output depends only on the inputs: coordinates are
emitted with fixed 6-decimal formatting, edges in sorted order, and no
timestamps or random ids, so identical input yields byte-identical SVG.

Three-dimensional instances are drawn with a fixed oblique projection
(x + 0.45 z, y + 0.28 z).
"""

from __future__ import annotations

import numpy as np

from ..core import EdgeWeightVector, Instance, Tour, edge_index

# Fixed oblique projection coefficients for d=3 input.
_OBLIQUE_X = 0.45
_OBLIQUE_Y = 0.28

_CANVAS = 640.0
_MARGIN = 48.0

_POINT_STYLE = 'fill="#111111"'
_POINT_RADIUS = 3.5
_SOLID_STYLE = 'stroke="#111111" stroke-width="2"'
_DASHED_STYLE = 'stroke="#555555" stroke-width="1.6" stroke-dasharray="6 4"'
_TOUR_STYLE = 'stroke="#2563eb" stroke-width="2.4"'
_LABEL_STYLE = 'font-family="monospace" font-size="11" fill="#333333"'

# Weight at or above this renders solid; below, dashed (the fractional
# vectors used here only carry weights 1 and 1/2).
_SOLID_CUTOFF = 0.75


def _project(inst: Instance) -> np.ndarray:
    pts = inst.points
    if inst.dim == 1:
        return np.column_stack([pts[:, 0], np.zeros(inst.n)])
    if inst.dim == 2:
        return pts.copy()
    if inst.dim == 3:
        return np.column_stack(
            [pts[:, 0] + _OBLIQUE_X * pts[:, 2], pts[:, 1] + _OBLIQUE_Y * pts[:, 2]]
        )
    raise ValueError(f"cannot draw {inst.dim}-dimensional instances")


def _fit(projected: np.ndarray) -> np.ndarray:
    """Scale into the canvas, preserving aspect ratio, y flipped for SVG."""
    lo = projected.min(axis=0)
    hi = projected.max(axis=0)
    span = hi - lo
    side = _CANVAS - 2.0 * _MARGIN
    widest = max(span[0], span[1])
    scale = side / widest if widest > 0 else 1.0
    out = np.empty_like(projected)
    # Center each axis within the canvas.
    off = (np.array([_CANVAS, _CANVAS]) - scale * span) / 2.0
    out[:, 0] = off[0] + scale * (projected[:, 0] - lo[0])
    out[:, 1] = _CANVAS - (off[1] + scale * (projected[:, 1] - lo[1]))
    return out


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _line(a: np.ndarray, b: np.ndarray, style: str) -> str:
    return (
        f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
        f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" {style} />'
    )


def render_svg(
    inst: Instance,
    *,
    tour: Tour | None = None,
    fractional: EdgeWeightVector | None = None,
    labels: bool = False,
) -> str:
    """Render points with optional tour and fractional-edge overlays."""
    if tour is not None and tour.n != inst.n:
        raise ValueError(f"tour on {tour.n} vertices, instance has {inst.n}")
    if fractional is not None and fractional.n != inst.n:
        raise ValueError(f"fractional vector on {fractional.n} vertices, instance has {inst.n}")
    xy = _fit(_project(inst))
    side = _fmt(_CANVAS)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {side} {side}" '
        f'width="{side}" height="{side}">',
        f'<rect width="{side}" height="{side}" fill="#ffffff" />',
    ]
    if fractional is not None:
        iu, iv = edge_index(inst.n)
        for k in np.flatnonzero(fractional.values):
            style = _SOLID_STYLE if fractional.values[k] >= _SOLID_CUTOFF else _DASHED_STYLE
            parts.append(_line(xy[iu[k]], xy[iv[k]], style))
    if tour is not None:
        order = tour.order
        for idx in range(len(order)):
            a, b = order[idx], order[(idx + 1) % len(order)]
            parts.append(_line(xy[a], xy[b], _TOUR_STYLE))
    for idx in range(inst.n):
        parts.append(
            f'<circle cx="{_fmt(xy[idx, 0])}" cy="{_fmt(xy[idx, 1])}" '
            f'r="{_POINT_RADIUS}" {_POINT_STYLE} />'
        )
    if labels and inst.labels is not None:
        for idx in range(inst.n):
            parts.append(
                f'<text x="{_fmt(xy[idx, 0] + 6.0)}" y="{_fmt(xy[idx, 1] - 6.0)}" '
                f"{_LABEL_STYLE}>{inst.labels[idx]}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
