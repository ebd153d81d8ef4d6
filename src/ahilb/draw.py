"""Deterministic SVG rendering of the partitioned simplex.

The simplex is drawn as an equilateral triangle via the barycentric map
(p1,p2,p3)/n -> (p2 + p3/2, p3*sqrt(3)/2), applied at render time only;
all upstream geometry stays exact.  Solid lines show the partition with
strength labels, dotted lines the tesselation; optional labels show the
invariant ratio on every interior edge.
"""

from __future__ import annotations

from itertools import combinations
from math import sqrt

from .fan import Fan
from .lattice import (
    LatticeContext,
    Vec3,
    cross3,
    on_simplex_boundary,
    primitive_in_monomial_lattice,
    sign_fixed,
)
from .monomials import ratio_str
from .partition import Partition, unit_edges

SIZE = 520.0
MARGIN = 45.0


def _project(q: Vec3, n: int) -> tuple[float, float]:
    x = (q[1] + q[2] / 2.0) / n
    y = (q[2] * sqrt(3.0) / 2.0) / n
    return (MARGIN + x * SIZE, MARGIN + (sqrt(3.0) / 2.0) * SIZE - y * SIZE)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _segment(a: Vec3, b: Vec3, n: int, style: str) -> str:
    xa, ya = _project(a, n)
    xb, yb = _project(b, n)
    return (f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" '
            f'y2="{_fmt(yb)}" {style}/>')


def render_svg(ctx: LatticeContext, part: Partition, fan: Fan,
               ratios: bool = False) -> str:
    n = ctx.n
    width = 2 * MARGIN + SIZE
    height = 2 * MARGIN + SIZE * sqrt(3.0) / 2.0
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
    ]

    # The fan's edges are its cones' sides; those on partition sides are solid.
    edges = {e for c in fan.cones for e in combinations(sorted(c.vertices), 2)}
    solid = {seg for tri in part.triangles
             for seg in unit_edges(tri.vertices, tri.r)}
    dotted = sorted(edges - solid)
    out += [_segment(a, b, n, 'stroke="#888888" stroke-width="1" '
                              'stroke-dasharray="4 3"')
            for a, b in dotted]
    out += [_segment(a, b, n, 'stroke="black" stroke-width="2"')
            for a, b in sorted(solid)]

    # Strength labels on the interior lines, placed a third of the way out.
    for line in part.lines.values():
        xa, ya = _project(line.anchor, n)
        xb, yb = _project(line.defeat_point, n)
        lx, ly = xa + (xb - xa) / 3.0, ya + (yb - ya) / 3.0
        out.append(
            f'<text x="{_fmt(lx + 4)}" y="{_fmt(ly - 4)}" '
            f'font-size="13" fill="#c0392b">{line.strength}</text>'
        )

    if ratios:
        for a, b in sorted(e for e in edges if not on_simplex_boundary(*e)):
            label = ratio_str(_edge_ratio(ctx, a, b))
            xa, ya = _project(a, n)
            xb, yb = _project(b, n)
            mx, my = (xa + xb) / 2.0, (ya + yb) / 2.0
            out.append(
                f'<text x="{_fmt(mx + 3)}" y="{_fmt(my - 3)}" '
                f'font-size="10" fill="#2c3e50">{label}</text>'
            )

    for q in fan.rays:
        x, y = _project(q, n)
        out.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.4" fill="black"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _edge_ratio(ctx: LatticeContext, a: Vec3, b: Vec3) -> Vec3:
    return sign_fixed(primitive_in_monomial_lattice(ctx, cross3(a, b)))

