"""Hand-emitted SVG output for family plots.

No plotting dependency: a fixed 800 x 800 viewport, a linear chart-to-pixel
map, polylines, labelled marks, and dashed level sets, each extracted by one
numpy marching-squares pass over the whole grid.  All coordinates are
formatted with fixed precision so identical inputs produce byte-identical
files; a polyline or level-set path formats all its coordinates in one ``%``
call, which gives the same bytes as ``_fmt`` per value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VIEWPORT = 800
MARGIN = 40

#: declared upper bound, in pixels, for polyline chord lengths
STEP_BOUND_PX = 24.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


@dataclass
class SvgCanvas:
    bounds: tuple[float, float, float, float]  # x0, x1, y0, y1
    elements: list[str] = field(default_factory=list)
    mark_count: int = 0

    def to_pixels(self, z):
        """Pixel coordinates ``(px, py)`` of a chart point, or of each point of an array."""
        x0, x1, y0, y1 = self.bounds
        px = MARGIN + (z.real - x0) / (x1 - x0) * (VIEWPORT - 2 * MARGIN)
        py = VIEWPORT - MARGIN - (z.imag - y0) / (y1 - y0) * (VIEWPORT - 2 * MARGIN)
        return px, py

    def add_comment(self, text: str) -> None:
        self.elements.append(f"<!-- {text} -->")

    def add_mark(self, z: complex | None, label: str, color: str = "#222222") -> None:
        """A labelled dot; ``z=None`` places the infinity indicator in the corner."""
        if z is None:
            px, py = VIEWPORT - MARGIN / 2.0, MARGIN / 2.0
        else:
            px, py = self.to_pixels(z)
        self.elements.append(
            f'<circle class="mark" cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="{color}"/>')
        self.elements.append(
            f'<text class="mark-label" x="{_fmt(px + 7)}" y="{_fmt(py - 7)}" '
            f'font-size="14" fill="{color}">{label}</text>')
        self.mark_count += 1

    def add_polyline(self, points, color: str, css_class: str,
                     dashed: bool = False, width: float = 1.8) -> None:
        """A polyline through ``points``, each chord split into equal pieces
        of at most 0.9 ``STEP_BOUND_PX`` pixels."""
        z = np.asarray(points, dtype=complex)
        if z.size < 2:
            return
        px, py = self.to_pixels(z)
        dx, dy = np.diff(px), np.diff(py)
        pieces = np.maximum(1, np.ceil(np.hypot(dx, dy) / (0.9 * STEP_BOUND_PX)).astype(int))
        # piece k = 1..pieces of chord i ends at a + (b - a) * k / pieces
        chord = np.repeat(np.arange(dx.size), pieces)
        k = np.arange(1, chord.size + 1) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        xs = np.concatenate([px[:1], px[chord] + dx[chord] * k / pieces[chord]])
        ys = np.concatenate([py[:1], py[chord] + dy[chord] * k / pieces[chord]])
        body = " ".join(["%.2f,%.2f"] * xs.size) % tuple(np.column_stack((xs, ys)).ravel().tolist())
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.elements.append(
            f'<polyline class="{css_class}" data-step-bound="{STEP_BOUND_PX:g}" '
            f'points="{body}" fill="none" stroke="{color}" stroke-width="{width:g}"{dash}/>')

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT}" '
            f'height="{VIEWPORT}" viewBox="0 0 {VIEWPORT} {VIEWPORT}">\n'
            f'<rect width="{VIEWPORT}" height="{VIEWPORT}" fill="white"/>'
        )
        return head + "\n" + "\n".join(self.elements) + "\n</svg>\n"


def level_set_segments(values, xs, ys, level) -> np.ndarray:
    """Marching-squares segments of ``values == level`` on a rectangular grid.

    ``values[iy][ix]`` is sampled at (xs[ix], ys[iy]).  Returns an ``(m, 2)``
    complex array of chart-plane segments, in row-major cell order.  A cell
    edge is crossed where ``(va - level) * (vb - level) < 0``, at
    ``xa + t (xb - xa)`` with ``t = (level - va) / (vb - va)``, the edges
    taken in corner order 00, 10, 11, 01.  A cell with two crossings gives
    one segment; a saddle cell with four joins them in that order, first to
    second and third to fourth.  Cells with a non-finite corner, or with one
    or three crossings (a corner exactly on the level), give none.

    The crossing test runs over every grid edge, each shared edge once
    (the product commutes, so both of its cells see the same result); ``t``
    and the crossing point are computed only at the kept edges of kept cells.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        w = v - level
        across = w[:, :-1] * w[:, 1:] < 0.0  # the edge from node (iy, ix) to (iy, ix + 1)
        up = w[:-1, :] * w[1:, :] < 0.0  # the edge from node (iy, ix) to (iy + 1, ix)
    # the edges of every cell in corner order: 00-10, 10-11, 11-01, 01-00
    edges = (across[:-1], up[:, 1:], across[1:], up[:, :-1])
    finite = np.isfinite(v)
    usable = finite[:-1, :-1] & finite[:-1, 1:] & finite[1:, 1:] & finite[1:, :-1]
    # two or four crossings: some edge is crossed, and an even number of them
    some = edges[0] | edges[1] | edges[2] | edges[3]
    odd = edges[0] ^ edges[1] ^ edges[2] ^ edges[3]
    iy, ix = np.nonzero(usable & some & ~odd)
    cell, edge = np.nonzero(np.stack([e[iy, ix] for e in edges], axis=-1))
    iy, ix = iy[cell], ix[cell]
    # node offsets of the corners 00, 10, 11, 01, and of 00 again: edge k
    # runs from corner k to corner k + 1
    dx, dy = np.array((0, 1, 1, 0, 0)), np.array((0, 0, 1, 1, 0))
    rows_a, cols_a = iy + dy[edge], ix + dx[edge]
    rows_b, cols_b = iy + dy[edge + 1], ix + dx[edge + 1]
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    va, xa, ya = v[rows_a, cols_a], x[cols_a], y[rows_a]
    with np.errstate(all="ignore"):
        t = (level - va) / (v[rows_b, cols_b] - va)
        points = np.empty(edge.size, dtype=complex)
        points.real = xa + t * (x[cols_b] - xa)
        points.imag = ya + t * (y[rows_b] - ya)
    return points.reshape(-1, 2)


def add_level_sets(canvas: SvgCanvas, values, xs, ys, levels, color: str = "#8888bb") -> None:
    for level in levels:
        segs = level_set_segments(values, xs, ys, level)
        if not len(segs):
            continue
        px, py = canvas.to_pixels(segs)
        ends = np.column_stack((px[:, 0], py[:, 0], px[:, 1], py[:, 1])).ravel().tolist()
        path = " ".join(["M %.2f %.2f L %.2f %.2f"] * len(segs)) % tuple(ends)
        canvas.elements.append(
            f'<path class="levelset" d="{path}" fill="none" '
            f'stroke="{color}" stroke-width="0.8" stroke-dasharray="4,4"/>')
