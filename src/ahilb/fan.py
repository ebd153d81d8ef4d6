"""Tesselation of regular triangles into basic triangles, the resolution
fan, crepancy checks and the census of exceptional surfaces."""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import InvariantError
from .lattice import (
    LatticeContext,
    Vec3,
    cross2,
    det3,
    on_simplex_boundary,
    vadd,
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


def tesselate(tri: RegularTriangle, parent_index: int) -> list[BasicTriangle]:
    """The r^2 unimodular cells of a side-r regular triangle, the one at
    parent_index in the partition: C(r+1, 2) up cells, then C(r, 2) down
    cells.  Each side is exactly r times its primitive direction, so the
    grid steps are ``tri.step(0, 1)`` and ``tri.step(0, 2)``.
    The (r+1)(r+2)/2 grid points are computed once, and each cell picks
    three of them, so the cells share their vertex tuples."""
    r = tri.r
    u, w = tri.step(0, 1), tri.step(0, 2)
    # grid[beta][gamma] = w1 + beta*u + gamma*w: barycentric steps
    # (alpha, beta, gamma) with alpha = r - beta - gamma.
    grid = []
    start = tri.vertices[0]
    for beta in range(r + 1):
        row = [start]
        for _ in range(r - beta):
            row.append(vadd(row[-1], w))
        grid.append(row)
        start = vadd(start, u)

    cells = []
    for i in range(r):
        for j in range(r - i):
            k = r - 1 - i - j
            cells.append(BasicTriangle(
                parent_index, "up", (i, j, k),
                (grid[j][k], grid[j + 1][k], grid[j][k + 1]),
            ))
    for i in range(1, r):
        for j in range(1, r + 1 - i):
            k = r + 1 - i - j
            cells.append(BasicTriangle(
                parent_index, "down", (i, j, k),
                (grid[j][k], grid[j - 1][k], grid[j][k - 1]),
            ))
    return cells


class Fan(NamedTuple):
    """The junior-plane cross-section of the resolution fan."""

    rays: tuple[Vec3, ...]  # all cone generators, scaled by n
    cones: tuple[BasicTriangle, ...]
    # Each vertex off the simplex boundary, in ray order, with its
    # neighbours counter-clockwise in the chart, starting at the first one
    # in the half-plane z > 0 (or z = 0, y < 0) around it.
    stars: dict[Vec3, tuple[Vec3, ...]]


def build_fan(part: Partition) -> Fan:
    """Merge the tesselations of all partition triangles: r^2 cells each,
    so as many cones as the group order (build_partition checked that the
    r^2 sum to it).

    Every cone vertex is indexed in one sorted ray table, and the edge
    and star bookkeeping runs on table indexes, which compare as the
    points do.  The cones are the tesselations' own cells.
    A down cell is the point reflection of an up cell, a rotation by pi,
    so every cell has its parent's orientation, and the triangle's
    ``ccw`` orients its cells counter-clockwise in the chart.  At each
    vertex x of a cone (x, u, w) so oriented, x's successor map takes u to
    w: the cone is the wedge from u to w around x.  A cone on the left of
    the directed edge x -> u puts the key u at x; one on its right puts
    the key x at u and the value u at x.  Of three cones on an edge two
    are on one side and repeat a key at one end.  A lone cone leaves a key
    u at x without the key x at u, which only an edge on the simplex
    boundary may do.  Around a vertex off the boundary every key is then
    also a value, and no value repeats, as that would repeat a key at the
    other end: the map is a permutation of the neighbours, and following
    it once around gives the star in counter-clockwise order with no
    angle sort.

    The edge matching is also the one certificate that the partition
    tiles the simplex S.  A cell edge is a primitive lattice segment (a
    side is r primitive steps), so cell edges on one line coincide or
    share at most an endpoint: index pairs match edges as segments.  By
    the two raises, an edge off the boundary of S has a cone on each
    side, and one on it at most one, inside S.  So the cells, oriented by
    ``ccw``, form a 2-chain C whose boundary is a 0/1 cycle on the
    boundary of S, equal on the two unit segments at each lattice point
    there: that of S, or 0, which would leave no cell, but the areas
    (build_partition's only tiling check, the one guard against an empty
    fan) rule it out.  So C = S: each point off the edges is covered
    once.  Any consistent orientation of all cells passes (C = -S); the
    census rejects clockwise stars.
    """
    cells = [(tri.ccw(), tesselate(tri, t))
             for t, tri in enumerate(part.triangles)]
    rays = sorted({v for _, tes in cells for c in tes for v in c.vertices})
    index = {v: i for i, v in enumerate(rays)}
    nexts: list[dict[int, int]] = [{} for _ in rays]
    cones = []
    for ccw, tes in cells:
        cones += tes
        for c in tes:
            v0, v1, v2 = c.vertices if ccw else c.vertices[::-1]
            a, b, d = index[v0], index[v1], index[v2]
            for x, u, w in ((a, b, d), (b, d, a), (d, a, b)):
                succ = nexts[x]
                if u in succ:
                    raise InvariantError("an edge borders more than two cones")
                succ[u] = w

    stars = {}
    for i, v in enumerate(rays):
        succ = nexts[i]
        for u in succ:
            if i not in nexts[u] and not on_simplex_boundary(v, rays[u]):
                e = (v, rays[u]) if i < u else (rays[u], v)
                raise InvariantError(
                    f"interior edge {e} borders only one cone: "
                    "tesselations do not match across triangles"
                )
        if 0 not in v:
            stars[v] = _star(v, succ, rays)
    return Fan(tuple(rays), tuple(cones), stars)


def _star(v: Vec3, succ: dict[int, int],
          rays: list[Vec3]) -> tuple[Vec3, ...]:
    """The star of a vertex v off the simplex boundary, whose successor
    map succ permutes its neighbours' indexes: the neighbours in the
    map's order, counter-clockwise in the chart, starting where the
    half-plane z > 0 (or z = 0, y < 0) around v begins, which is where
    sorting them by angle from the y axis starts."""
    first = next(iter(succ))
    cycle = [rays[first]]
    u = succ[first]
    while u != first:
        cycle.append(rays[u])
        u = succ[u]
    if len(cycle) != len(succ):
        raise InvariantError(
            f"star of vertex {v} is pinched: its cones make more than one cycle"
        )
    _, y, z = v
    upper = [p[2] > z or p[2] == z and p[1] < y for p in cycle]
    start = next((k for k in range(len(cycle))
                  if upper[k] and not upper[k - 1]), 0)
    return (*cycle[start:], *cycle[:start])


def verify_fan(ctx: LatticeContext, fan: Fan) -> list[str]:
    """Crepancy and smoothness checks; returns violations (empty = pass).

    One determinant per cone settles both smoothness and completeness.
    Every cone vertex is a ray, so a vertex off the lattice is reported
    there, and a lattice point pairs to a multiple of n with every row of
    the monomial basis B.  The quotients form the matrix P*B^T/n, P the
    rows of the cone's vertices, whose determinant det P * det B / n^3
    ``cone_determinants`` reads.  |det B| = N, the index of M in Z^3, and
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
    for c, det in zip(fan.cones, cone_determinants(ctx, fan.cones)):
        if det not in (1, -1):
            out.append(f"cone {c.vertices} is not unimodular (det {det})")
    return out


def cone_determinants(ctx: LatticeContext, cones) -> list[int]:
    """Per cone, the determinant ``verify_fan`` tests: that of P*B^T/n,
    the matrix of the pairings p.B_t / n of the cone's vertices p with
    the rows B_t of the monomial basis.  It is det P * det B / n^3, with
    the same sign, and the division is exact on lattice points: each
    entry of P*B^T is then a multiple of n."""
    basis, cube = det3(ctx.monomial_basis), ctx.n ** 3
    return [det3(cone.vertices) * basis // cube for cone in cones]


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


def surface_census(fan: Fan) -> list[SurfaceClass]:
    """Classify the surface at every vertex of the fan off the simplex
    boundary.

    The star relation is solved in the chart: the differences of points
    of the junior plane have coordinate sum 0, so a difference is fixed by
    its chart and u_{t-1} + u_{t+1} - 2v = b_t (u_t - v) holds exactly when
    it holds in the chart.

    The star must also run counter-clockwise, each arm u_t turning
    counter-clockwise from u_{t-1}: a star read clockwise gives the same
    b's in reverse order, so no other test here would see it.  Once the
    relations hold, one turn settles it, since every turn has the same
    cross product: cross(u_t, u_{t+1}) = cross(u_t, b_t u_t - u_{t-1})
    = cross(u_{t-1}, u_t), the arms taken relative to v."""
    out = []
    for v, star in fan.stars.items():
        t = len(star)
        if not 3 <= t <= 6:
            raise InvariantError(f"vertex {v} has valency {t}")
        _, y, z = v
        arms = [(p[1] - y, p[2] - z) for p in star]
        bs = []
        for idx in range(t):
            (py, pz), (my, mz), (qy, qz) = (
                arms[idx - 1], arms[idx], arms[(idx + 1) % t])
            ly, lz = py + qy, pz + qz
            b, rem = divmod(ly, my) if my else divmod(lz, mz)
            if rem or b * my != ly or b * mz != lz:
                raise InvariantError(f"star relation at {v} is not integral")
            bs.append(b)
        cs = tuple(b - 2 for b in bs)
        label = _surface_label(v, t, bs)
        if cross2(arms[-1], arms[0]) <= 0:
            raise InvariantError(f"star at {v} is not counter-clockwise")
        out.append(SurfaceClass(v, t, star, tuple(bs), cs, label))
    return out


def _surface_label(v, valency, bs) -> str:
    """The surface of a star of valency 3..6 with integers bs.  A valency-6
    star is the fan of dP6, the plane blown up in its three coordinate
    points, exactly when every b_t is 1: each arm u_t - v is then the sum
    of the two beside it, so the arms are +-e, +-f and +-(e + f), the
    toric dP6's hexagon.  Any other one is a scroll blown up twice."""
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
    return "dP6" if bs == [1] * 6 else "scroll-blowup-2"


def dp6_count(part: Partition) -> int:
    """Count interior tesselation points by the binomial formula; must
    agree with the number of hexagonal stars in the census."""
    return sum(comb(tri.r - 1, 2) for tri in part.triangles)
