"""Tesselation of regular triangles into basic triangles, the resolution
fan, crepancy checks and the census of exceptional surfaces."""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import InvariantError
from .lattice import (
    LatticeContext,
    Vec3,
    chart,
    cross2,
    det3,
    dot,
    multiple,
    on_simplex_boundary,
    smul,
    vadd,
    vsub,
)
from .partition import Partition, RegularTriangle


class BasicTriangle(NamedTuple):
    """One unimodular cell of a regular triangle's tesselation.

    steps = (i, j, k) counts how far the three sides of the parent were
    pushed inwards: i+j+k = r-1 for an "up" cell (a shrunken parallel copy
    of the parent), i+j+k = r+1 with i,j,k > 0 for a "down" cell (an
    inverted copy).  vertices[t] has parent-barycentric coordinate t
    extremal, matching the parent's vertex order.
    """

    parent: int  # index into Partition.triangles
    kind: str  # "up" | "down"
    steps: tuple[int, int, int]
    vertices: tuple[Vec3, Vec3, Vec3]

    def key(self) -> tuple[Vec3, Vec3, Vec3]:
        return tuple(sorted(self.vertices))


def tesselate(tri: RegularTriangle, parent_index: int) -> list[BasicTriangle]:
    """The r^2 unimodular cells of a side-r regular triangle, the one at
    parent_index in the partition: C(r+1, 2) up cells, then C(r, 2) down
    cells.  Each side is exactly r times its primitive direction, so the
    grid steps (w2 - w1)/r and (w3 - w1)/r are side_directions[2], [1]."""
    r = tri.r
    w1 = tri.vertices[0]
    u, w = tri.side_directions[2], tri.side_directions[1]

    def grid(alpha: int, beta: int, gamma: int) -> Vec3:
        # Barycentric steps (alpha, beta, gamma), alpha+beta+gamma = r.
        return vadd(vadd(w1, smul(beta, u)), smul(gamma, w))

    cells = []
    for i in range(r):
        for j in range(r - i):
            k = r - 1 - i - j
            cells.append(BasicTriangle(
                parent_index, "up", (i, j, k),
                (grid(i + 1, j, k), grid(i, j + 1, k), grid(i, j, k + 1)),
            ))
    for i in range(1, r):
        for j in range(1, r + 1 - i):
            k = r + 1 - i - j
            cells.append(BasicTriangle(
                parent_index, "down", (i, j, k),
                (grid(i - 1, j, k), grid(i, j - 1, k), grid(i, j, k - 1)),
            ))
    return cells


class Fan(NamedTuple):
    """The junior-plane cross-section of the resolution fan."""

    rays: tuple[Vec3, ...]  # all cone generators, scaled by n
    cones: tuple[BasicTriangle, ...]
    edges: frozenset[tuple[Vec3, Vec3]]  # sorted pairs of ray points
    interior: frozenset[Vec3]  # vertices inside some triangle's tesselation


def build_fan(part: Partition) -> Fan:
    """Merge the tesselations of all partition triangles: r^2 cells each,
    so as many cones as the group order (build_partition checked that the
    r^2 sum to it)."""
    cones = [c for t, tri in enumerate(part.triangles)
             for c in tesselate(tri, t)]
    verts = sorted({v for c in cones for v in c.vertices})
    # Vertex t of a cell sits at steps + e_t (up) or steps - e_t (down).
    interior = set()
    for c in cones:
        sign = 1 if c.kind == "up" else -1
        for t, v in enumerate(c.vertices):
            if all(s + sign * (u == t) > 0 for u, s in enumerate(c.steps)):
                interior.add(v)
    edges: dict[tuple[Vec3, Vec3], int] = {}
    for c in cones:
        for e in combinations(sorted(c.vertices), 2):
            edges[e] = edges.get(e, 0) + 1
    for e, mult in edges.items():
        if mult > 2:
            raise InvariantError("an edge borders more than two cones")
        if mult == 1 and not on_simplex_boundary(*e):
            raise InvariantError(
                f"interior edge {e} borders only one cone: "
                "tesselations do not match across triangles"
            )
    return Fan(tuple(verts), tuple(cones), frozenset(edges),
               frozenset(interior))


def verify_fan(ctx: LatticeContext, fan: Fan) -> list[str]:
    """Crepancy and smoothness checks; returns violations (empty = pass).

    One determinant per cone settles both smoothness and completeness.
    Every cone vertex is a ray, so a vertex off the lattice is reported
    there, and a lattice point pairs to a multiple of n with every row of
    the monomial basis B.  The quotients form the matrix P*B^T/n, P the
    rows of the cone's vertices.  |det B| = N, the index of M in Z^3, and
    det P = n*cross2 of two sides' charts (P's rows sum to n, the sides'
    cross product is a multiple of (1, 1, 1)), so |det| = |cross2|*N/n^2:
    the pair index of two sides, twice the lattice area, 1 on a basic
    cone and N on the simplex.  So when every det is +-1 and there are N
    cones, their areas sum to the simplex's, and no area is added up.
    """
    out = []
    n = ctx.n
    for p in fan.rays:
        if sum(p) != n:
            out.append(f"ray {p} is off the junior plane")
        elif not ctx.is_lattice_point(p):
            out.append(f"ray {p} is not a lattice point")
    if len(fan.cones) != ctx.order:
        out.append(
            f"cone count {len(fan.cones)} differs from group order {ctx.order}"
        )
    for c in fan.cones:
        det = det3([[dot(row, p) // n for row in ctx.monomial_basis]
                    for p in c.vertices])
        if det not in (1, -1):
            out.append(f"cone {c.vertices} is not unimodular (det {det})")
    return out


class SurfaceClass(NamedTuple):
    """The compact exceptional surface at one interior vertex, read off
    from the cyclically ordered star.

    Around vertex v with neighbors u_0..u_{t-1} the integers b_t satisfy
    u_{t-1} + u_{t+1} = b_t * u_t - c_t * v with c_t = b_t - 2; the b_t are
    the negatives of the self-intersections of the curves of the star.
    """

    vertex: Vec3
    valency: int
    neighbors: tuple[Vec3, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    label: str


def vertex_stars(fan: Fan) -> dict[Vec3, tuple[Vec3, ...]]:
    """Cyclically ordered neighbor lists of the interior vertices."""
    nbrs: dict[Vec3, set[Vec3]] = {}
    for a, b in fan.edges:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    out = {}
    for v in fan.rays:
        if 0 in v:
            continue  # boundary of the simplex

        def around(p, q):
            ca = chart(vsub(p, v))
            cb = chart(vsub(q, v))
            ha = (ca[1], -ca[0]) > (0, 0)
            hb = (cb[1], -cb[0]) > (0, 0)
            if ha != hb:
                return -1 if ha else 1
            c = cross2(ca, cb)
            return 0 if c == 0 else (-1 if c > 0 else 1)

        out[v] = tuple(sorted(nbrs[v], key=cmp_to_key(around)))
    return out


def surface_census(fan: Fan) -> list[SurfaceClass]:
    """Classify the surface at every interior vertex of the fan."""
    out = []
    for v, star in sorted(vertex_stars(fan).items()):
        t = len(star)
        if not 3 <= t <= 6:
            raise InvariantError(f"vertex {v} has valency {t}")
        bs = []
        for idx in range(t):
            lhs = vadd(
                vsub(star[(idx - 1) % t], v), vsub(star[(idx + 1) % t], v)
            )
            mid = vsub(star[idx], v)
            b = multiple(lhs, mid)
            if b is None:
                raise InvariantError(f"star relation at {v} is not integral")
            bs.append(b)
        cs = tuple(b - 2 for b in bs)
        label = _surface_label(fan, v, t, bs)
        out.append(SurfaceClass(v, t, star, tuple(bs), cs, label))
    return out


def _surface_label(fan, v, valency, bs) -> str:
    if valency == 3:
        if bs != [-1, -1, -1]:
            raise InvariantError(f"valency-3 star at {v} is not a plane")
        return "P2"
    if valency == 4:
        n = max(abs(b) for b in bs)
        if sorted(bs) != sorted([0, n, 0, -n]):
            raise InvariantError(f"valency-4 star at {v} is not a scroll: {bs}")
        return f"F{n}"
    if valency == 5:
        return "scroll-blowup-1"
    if v in fan.interior:
        if bs != [1] * 6:
            raise InvariantError(
                f"tesselation-interior vertex {v} without hexagonal star"
            )
        return "dP6"
    return "scroll-blowup-2"


def dp6_count(part: Partition) -> int:
    """Count interior tesselation points by the binomial formula; must
    agree with the census labels."""
    return sum(comb(tri.r - 1, 2) for tri in part.triangles)
