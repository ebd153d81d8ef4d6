import random
import re
from functools import cache, cmp_to_key
from itertools import combinations
from math import comb

import pytest
from test_cli import PINNED, SWEEP
import test_lattice
from test_clusters import CELLS, LINES, PRODUCTS
from test_lattice import segment_points
from test_tiling import cyclic_groups

import ahilb.fan
from ahilb import junior_points, lattice_context, parse_group_spec
from ahilb.errors import InvariantError
from ahilb.fan import (
    BasicTriangle,
    Fan,
    build_fan,
    cone_determinants,
    dp6_count,
    surface_census,
    tesselate,
    verify_fan,
)
from ahilb.lattice import (
    chart,
    cross2,
    det3,
    dot,
    on_simplex_boundary,
    pair_index,
    smul,
    vadd,
    vsub,
)
from ahilb.draw import _segment, render_svg
from ahilb.resolution import Resolution


def pipeline(text):
    ctx = lattice_context(parse_group_spec(text))
    part = Resolution(ctx).partition
    return ctx, part, build_fan(part)


def test_tesselate_counts():
    ctx, part, _ = pipeline("1/2(1,1,0)+1/2(0,1,1)")
    cells = tesselate(part.triangles[0], 0)
    assert len(cells) == 4
    assert sum(1 for c in cells if c.kind == "up") == 3
    assert sum(1 for c in cells if c.kind == "down") == 1


def test_tesselate_side_one():
    ctx, part, _ = pipeline("1/1(0,0,0)")
    cells = tesselate(part.triangles[0], 0)
    assert len(cells) == 1 and cells[0].kind == "up"


def test_tesselate_side_five():
    # A synthetic side-5 triangle: the whole simplex of Z/5 + Z/5.
    ctx, part, _ = pipeline("1/5(1,4,0)+1/5(0,1,4)")
    cells = tesselate(part.triangles[0], 0)
    assert len(cells) == 25
    assert sum(1 for c in cells if c.kind == "up") == 15
    assert sum(1 for c in cells if c.kind == "down") == 10


def test_tesselate_step_sums():
    ctx, part, _ = pipeline("1/4(1,3,0)+1/4(0,1,3)")
    for c in tesselate(part.triangles[0], 0):
        i, j, k = c.steps
        if c.kind == "up":
            assert i + j + k == 3
        else:
            assert i + j + k == 5 and min(i, j, k) >= 1


def test_build_fan_counts():
    for text, cones in (("1/11(1,2,8)", 11), ("1/2(1,1,0)+1/2(0,1,1)", 4),
                        ("1/1(0,0,0)", 1), ("1/30(25,2,3)", 30)):
        ctx, part, fan = pipeline(text)
        assert len(fan.cones) == cones
        assert verify_fan(ctx, fan) == []


def test_fan_rays_are_all_junior_points():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/101(1,7,93)"):
        ctx, part, fan = pipeline(text)
        assert set(fan.rays) == set(junior_points(ctx))


def test_fan_euler_vertices_11():
    ctx, part, fan = pipeline("1/11(1,2,8)")
    assert len(fan.rays) == 8  # 3 corners + 5 interior


def test_verify_fan_detects_off_plane_ray():
    ctx, part, fan = pipeline("1/11(1,2,8)")
    cones = list(fan.cones)
    bad_vertex = None
    for t, c in enumerate(cones):
        for v in c.vertices:
            if 0 not in v:
                bad_vertex = v
                break
        if bad_vertex:
            break
    moved = vadd(bad_vertex, (1, 0, 0))
    new_cones = tuple(
        c._replace(
            vertices=tuple(moved if v == bad_vertex else v for v in c.vertices),
        )
        for c in cones
    )
    rays = tuple(moved if r == bad_vertex else r for r in fan.rays)
    bad_fan = fan._replace(rays=rays, cones=new_cones)
    assert any("junior plane" in msg for msg in verify_fan(ctx, bad_fan))


def test_verify_fan_detects_non_unimodular_cone():
    ctx, part, fan = pipeline("1/11(1,2,8)")
    c0 = fan.cones[0]
    a, b, _ = c0.vertices
    # Replace one vertex by a far lattice point, so the cone stops being
    # basic, or by another vertex of the cone, so it is flat.
    far = next(q for q in junior_points(ctx) if q not in c0.vertices)
    big, flat = (c0._replace(vertices=(a, b, v)) for v in (far, a))
    for bad in (big, flat):
        msgs = verify_fan(ctx, fan._replace(cones=(bad,) + fan.cones[1:]))
        assert any(m.startswith(f"cone {bad.vertices} is not unimodular")
                   for m in msgs)
    assert f"cone {flat.vertices} is not unimodular (det 0)" in msgs


def test_census_p2_at_center_of_z3():
    ctx, part, fan = pipeline("1/3(1,1,1)")
    census = surface_census(fan)
    assert len(census) == 1
    entry = census[0]
    assert entry.vertex == (1, 1, 1)
    assert entry.valency == 3
    assert entry.label == "P2"
    assert entry.b == (-1, -1, -1)
    assert entry.c == (-3, -3, -3)


def test_census_dp6_at_center_of_z3z3():
    ctx, part, fan = pipeline("1/3(1,2,0)+1/3(0,1,2)")
    census = surface_census(fan)
    assert [s.label for s in census] == ["dP6"]
    assert census[0].vertex == (1, 1, 1)
    assert census[0].valency == 6
    assert census[0].b == (1, 1, 1, 1, 1, 1)


def test_census_valencies_in_range():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
                 "1/101(1,7,93)", "1/13(1,5,7)"):
        ctx, part, fan = pipeline(text)
        for s in surface_census(fan):
            assert 3 <= s.valency <= 6


@pytest.mark.parametrize("arms, message", [
    ([(1, 0), (0, 1)], "vertex (1, 1, 1) has valency 2"),
    # At the first arm its neighbours sum to (1, 2), off its line.
    ([(1, 0), (0, 1), (1, 1)], "star relation at (1, 1, 1) is not integral"),
    # Arms on one line: the relations hold with b = (0, -2, 0).
    ([(1, 0), (-1, 0), (1, 0)], "valency-3 star at (1, 1, 1) is not a plane"),
    ([(1, 0), (-1, 0), (1, 0), (-1, 0)],
     "valency-4 star at (1, 1, 1) is not a scroll: [-2, -2, -2, -2]"),
    # A plane's star read clockwise: b = (-1, -1, -1) either way.
    ([(1, 0), (-1, -1), (0, 1)], "star at (1, 1, 1) is not counter-clockwise"),
])
def test_census_rejects_a_bad_star(arms, message):
    # A synthetic fan with the one star around (1, 1, 1), its neighbours
    # at the given chart offsets.
    v = (1, 1, 1)
    star = tuple((1, 1 + dy, 1 + dz) for dy, dz in arms)
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        surface_census(Fan(rays=(), cones=(), stars={v: star}))


def test_census_star_relations():
    # u_{t-1} + u_{t+1} = b_t u_t - c_t v, summing scaled points exactly.
    ctx, part, fan = pipeline("1/11(1,2,8)")
    for s in surface_census(fan):
        t = s.valency
        for idx in range(t):
            lhs = vadd(s.neighbors[(idx - 1) % t], s.neighbors[(idx + 1) % t])
            rhs = vsub(
                tuple(s.b[idx] * c for c in s.neighbors[idx]),
                tuple(s.c[idx] * c for c in s.vertex),
            )
            assert lhs == rhs


def test_dp6_count_formula():
    for text, expect in (
        ("1/11(1,2,8)", 0),
        ("1/3(1,2,0)+1/3(0,1,2)", 1),
        ("1/4(1,3,0)+1/4(0,1,3)", 3),
        ("1/101(1,7,93)", 18),
    ):
        ctx, part, fan = pipeline(text)
        assert dp6_count(part) == expect
        census = surface_census(fan)
        assert sum(1 for s in census if s.label == "dP6") == expect


def test_dp6_formula_is_binomial():
    ctx, part, fan = pipeline("1/101(1,7,93)")
    assert dp6_count(part) == sum(comb(t.r - 1, 2) for t in part.triangles)


def test_interior_vertices_have_one_parent():
    # A vertex strictly inside one triangle's tesselation sees only that
    # triangle's cells; one on a partition edge sees at least two parents.
    # The census labels dP6 exactly the first kind, by their stars alone.
    named = [Resolution(lattice_context(parse_group_spec(text)))
             for text in ("1/11(1,2,8)", "1/3(1,2,0)+1/3(0,1,2)",
                          "1/4(1,3,0)+1/4(0,1,3)", "1/101(1,7,93)")]
    for res in named + sweep_resolutions():
        parents = {}
        for c in res.fan.cones:
            for v in c.vertices:
                parents.setdefault(v, set()).add(c.parent)
        one_parent = {
            v for v, ps in parents.items() if 0 not in v and len(ps) == 1}
        dp6 = {s.vertex for s in res.census if s.label == "dP6"}
        spec = res.ctx.spec.canonical_text
        assert dp6 == one_parent, spec
        assert len(dp6) == dp6_count(res.partition), spec


def test_stars_close_up():
    ctx, part, fan = pipeline("1/30(25,2,3)")
    for v, star in fan.stars.items():
        # Every consecutive pair spans a cone of the fan with v.
        cone_keys = {tuple(sorted(c.vertices)) for c in fan.cones}
        for idx in range(len(star)):
            cell = tuple(sorted((v, star[idx], star[(idx + 1) % len(star)])))
            assert cell in cone_keys


def test_build_fan_rejects_a_missing_cell(monkeypatch):
    ctx, part, _ = pipeline("1/2(1,1,0)+1/2(0,1,1)")
    down = tesselate(part.triangles[0], 0)[-1]
    assert down.kind == "down"
    monkeypatch.setattr(ahilb.fan, "tesselate",
                        lambda tri, t: [c for c in tesselate(tri, t)
                                        if c != down])
    with pytest.raises(InvariantError) as exc:
        build_fan(part)
    # Each side of the dropped centre cell now borders one up cell.
    a, b, c = sorted(down.vertices)
    assert str(exc.value) in {
        f"interior edge {e} borders only one cone: "
        "tesselations do not match across triangles"
        for e in ((a, b), (a, c), (b, c))
    }


def test_build_fan_rejects_a_repeated_cell(monkeypatch):
    ctx, part, _ = pipeline("1/2(1,1,0)+1/2(0,1,1)")
    monkeypatch.setattr(ahilb.fan, "tesselate",
                        lambda tri, t: tesselate(tri, t) + tesselate(tri, t)[:1])
    with pytest.raises(InvariantError,
                       match="^an edge borders more than two cones$"):
        build_fan(part)


def test_build_fan_rejects_a_reversed_repeated_cell(monkeypatch):
    # The corner cell at w2 has one side off the simplex boundary, from
    # vertex 2 to vertex 0.  Its copy with the vertices reversed puts the
    # key vertex 2 at vertex 0, where the centre cell across that side
    # put it first.
    ctx, part, _ = pipeline("1/2(1,1,0)+1/2(0,1,1)")
    corner = tesselate(part.triangles[0], 0)[1]
    assert corner.steps == (0, 1, 0)
    reversed_corner = corner._replace(vertices=corner.vertices[::-1])
    monkeypatch.setattr(ahilb.fan, "tesselate",
                        lambda tri, t: tesselate(tri, t) + [reversed_corner])
    with pytest.raises(InvariantError,
                       match="^an edge borders more than two cones$"):
        build_fan(part)


def test_build_fan_rejects_a_pinched_star(monkeypatch):
    # Two tetrahedron surfaces that share only the vertex v: every edge
    # borders two cones, and every other vertex's star is a 3-cycle, but
    # the cones around v make two cycles.
    ctx, part, _ = pipeline("1/2(1,1,0)+1/2(0,1,1)")
    v = (5, 5, 5)
    points = [(1, 2, 12), (2, 12, 1), (12, 1, 2),
              (3, 4, 8), (4, 8, 3), (8, 3, 4)]
    cells = []
    for a, b, c in (points[:3], points[3:]):
        for vertices in ((v, a, b), (v, b, c), (v, c, a), (a, c, b)):
            cells.append(BasicTriangle(0, "up", (0, 0, 0), vertices))
    monkeypatch.setattr(ahilb.fan, "tesselate", lambda tri, t: cells)
    with pytest.raises(InvariantError) as exc:
        build_fan(part)
    assert str(exc.value) == (
        f"star of vertex {v} is pinched: its cones make more than one cycle")


def test_stars_start_where_the_half_plane_flips():
    # Each star runs counter-clockwise in the chart and starts at its
    # first neighbour in the half-plane z > 0 (or z = 0, y < 0) after one
    # outside it, where an angle sort from the y axis starts.
    for res in sweep_resolutions():
        for v, star in res.fan.stars.items():
            arms = [chart(vsub(p, v)) for p in star]
            assert all(cross2(arms[k - 1], arms[k]) > 0
                       for k in range(len(arms))), v
            upper = [(y, z) for y, z in arms if z > 0 or z == 0 and y < 0]
            assert arms[:len(upper)] == upper, v


def grid_step(ctx, frm, to, r):
    """(to - frm)/r, checked divisible and a translation."""
    v = vsub(to, frm)
    assert not any(c % r for c in v)
    step = (v[0] // r, v[1] // r, v[2] // r)
    assert ctx.is_translation(step)
    return step


def grid_step_tesselation(ctx, tri, parent_index):
    """The cells of tri on the grid of steps (w2 - w1)/r and (w3 - w1)/r,
    in tesselate's order."""
    r = tri.r
    w1, w2, w3 = tri.vertices
    u, w = grid_step(ctx, w1, w2, r), grid_step(ctx, w1, w3, r)

    def grid(alpha, beta, gamma):
        return vadd(vadd(w1, smul(beta, u)), smul(gamma, w))

    cells = []
    for i in range(r):
        for j in range(r - i):
            k = r - 1 - i - j
            cells.append(BasicTriangle(
                parent_index, "up", (i, j, k),
                (grid(i + 1, j, k), grid(i, j + 1, k), grid(i, j, k + 1))))
    for i in range(1, r + 1):
        for j in range(1, r + 1 - i):
            k = r + 1 - i - j
            cells.append(BasicTriangle(
                parent_index, "down", (i, j, k),
                (grid(i - 1, j, k), grid(i, j - 1, k), grid(i, j, k - 1))))
    return cells


def segment_walk_edges(ctx, part):
    """Unit edges on partition triangle sides, by walking every side's
    lattice points."""
    edges = set()
    for tri in part.triangles:
        for t in range(3):
            pts = segment_points(ctx, *tri.side_of(t))
            edges.update(tuple(sorted(e)) for e in zip(pts, pts[1:]))
    return edges


def resolutions_of(specs):
    return [Resolution(lattice_context(parse_group_spec(spec)))
            for spec in specs]


@cache
def sweep_resolutions():
    return resolutions_of(SWEEP)


def vertex_stars(fan):
    """Cyclically ordered neighbor lists of the interior vertices, by an
    angle sort of the neighbours that fan.cones gives each vertex."""
    nbrs = {}
    for c in fan.cones:
        for a, b in combinations(c.vertices, 2):
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


def oracle_fan(ctx, part):
    """The fan from cells with a fresh vertex tuple per corner, edges
    counted over every pair of a cone's vertices, and stars sorted by
    angle; and the vertices inside some triangle's tesselation, read off
    the cells' steps."""
    cones = [c for t, tri in enumerate(part.triangles)
             for c in grid_step_tesselation(ctx, tri, t)]
    interior = set()
    for c in cones:
        sign = 1 if c.kind == "up" else -1
        for t, v in enumerate(c.vertices):
            if all(s + sign * (u == t) > 0 for u, s in enumerate(c.steps)):
                interior.add(v)
    edges = {}
    for c in cones:
        for e in combinations(sorted(c.vertices), 2):
            edges[e] = edges.get(e, 0) + 1
    assert all(mult == 2 or mult == 1 and on_simplex_boundary(*e)
               for e, mult in edges.items())
    fan = Fan(tuple(sorted({v for c in cones for v in c.vertices})),
              tuple(cones), {})
    return fan._replace(stars=vertex_stars(fan)), interior


def assert_fan_matches_the_oracle(ctx, part):
    spec = ctx.spec.canonical_text
    fan, (oracle, interior) = build_fan(part), oracle_fan(ctx, part)
    for field in Fan._fields:
        assert getattr(fan, field) == getattr(oracle, field), (spec, field)
    assert list(fan.stars) == list(oracle.stars), spec
    dp6 = {s.vertex for s in surface_census(fan) if s.label == "dP6"}
    assert dp6 == interior, spec


def test_build_fan_matches_the_oracle():
    for res in sweep_resolutions():
        assert_fan_matches_the_oracle(res.ctx, res.partition)
    for spec in PINNED:
        ctx, part, _ = pipeline(spec)
        assert_fan_matches_the_oracle(ctx, part)


@pytest.mark.deep
def test_build_fan_matches_the_oracle_up_to_30():
    # Every 1/r(a,b,c) with r <= 30 and a <= b, c fixed by a + b + c = 0
    # mod r, plus the products.
    specs = [f"1/{r}({a},{b},{-(a + b) % r})"
             for r in range(1, 31) for a in range(r) for b in range(a, r)]
    for spec in specs + PRODUCTS:
        ctx, part, _ = pipeline(spec)
        assert_fan_matches_the_oracle(ctx, part)


def test_tesselate_matches_the_grid_step_cells():
    # The side directions are the steps that dividing the sides by r gives.
    for res in sweep_resolutions():
        for t, tri in enumerate(res.partition.triangles):
            assert tesselate(tri, t) == grid_step_tesselation(
                res.ctx, tri, t), (res.ctx.spec.canonical_text, t)


def partition_edges(fan):
    """Unit edges lying on partition triangle sides, read off the up
    cells: the side opposite vertex t of every up cell with steps[t] = 0.
    The other two vertices of an up cell have parent-barycentric
    coordinate t equal to steps[t], and the parent's side t is where that
    coordinate is 0; every side of a down cell lies where a coordinate is
    at least 1."""
    return {
        tuple(sorted(c.vertices[u] for u in range(3) if u != t))
        for c in fan.cones if c.kind == "up"
        for t in range(3) if c.steps[t] == 0
    }


def unit_edges(vertices, r):
    """The unit lattice segments (p, q), p < q, along the sides of a
    regular triangle of side r; each side is r primitive steps long."""
    for p, q in combinations(sorted(vertices), 2):
        step = tuple((y - x) // r for x, y in zip(p, q))
        for k in range(r):
            yield vadd(p, smul(k, step)), vadd(p, smul(k + 1, step))


def test_solid_edges_match_the_segment_walk():
    # draw's solid edges are the unit steps of the partition's sides, by
    # either walk, and it draws each once.
    style = 'stroke="black" stroke-width="2"'
    for res in sweep_resolutions() + resolutions_of(LINES + CELLS):
        ctx, part, spec = res.ctx, res.partition, res.ctx.spec.canonical_text
        drawn = [line for line in render_svg(ctx, part, res.fan).splitlines()
                 if line.startswith("<line") and 'stroke="black"' in line]
        assert len(drawn) == len(set(drawn)), spec
        for walked in ({seg for tri in part.triangles
                        for seg in unit_edges(tri.vertices, tri.r)},
                       segment_walk_edges(ctx, part)):
            assert set(drawn) == {_segment(a, b, ctx.n, style)
                                  for a, b in walked}, spec
        assert partition_edges(res.fan) == segment_walk_edges(ctx, part), spec


def chart_ccw(tri):
    """Do tri's vertices run counter-clockwise in the chart, by the cross
    product of two sides' charts?"""
    v0, v1, v2 = tri.vertices
    return cross2(chart(vsub(v1, v0)), chart(vsub(v2, v0))) > 0


def assert_ccw_matches_the_chart(resolutions):
    for res in resolutions:
        for tri in res.partition.triangles:
            assert tri.ccw() == chart_ccw(tri), (
                res.ctx.spec.canonical_text, tri.vertices)


def test_ccw_matches_the_chart_cross_product():
    assert_ccw_matches_the_chart(sweep_resolutions())
    assert_ccw_matches_the_chart(resolutions_of(LINES + CELLS))


@pytest.mark.deep
def test_ccw_matches_the_chart_cross_product_up_to_30():
    assert_ccw_matches_the_chart(
        resolutions_of(cyclic_groups(30) + test_lattice.PRODUCTS))


def test_verify_fan_detects_a_ray_off_the_lattice():
    ctx, part, fan = pipeline("1/11(1,2,8)")
    v = next(p for p in fan.rays if 0 not in p)
    moved = vadd(v, (1, -1, 0))  # on the junior plane, not in the lattice
    assert sum(moved) == ctx.n and not ctx.is_lattice_point(moved)
    bad_fan = fan._replace(
        rays=tuple(moved if p == v else p for p in fan.rays),
        cones=tuple(c._replace(vertices=tuple(
            moved if p == v else p for p in c.vertices)) for c in fan.cones),
    )
    msgs = verify_fan(ctx, bad_fan)
    assert f"ray {moved} is not a lattice point" in msgs


def area2(ctx, vertices):
    """Twice the lattice area of a triangle: the pair index of two of its
    sides, 1 on a basic cone and N on the simplex."""
    a, b, c = vertices
    return pair_index(ctx, vsub(b, a), vsub(c, a))


def signed_pairing_det(ctx, vertices):
    """det of the vertices' pairings with the monomial basis over n, the
    one number `verify_fan` tests per cone, by ``det3`` of nested lists."""
    return det3([[dot(row, p) // ctx.n for row in ctx.monomial_basis]
                 for p in vertices])


def pairing_det(ctx, vertices):
    return abs(signed_pairing_det(ctx, vertices))


def test_cone_determinants_match_the_nested_expression():
    # On every cone, and on as many random triples of rays, which are
    # mostly not unimodular.
    rng = random.Random(1)
    for res in sweep_resolutions():
        ctx, fan = res.ctx, res.fan
        spec = ctx.spec.canonical_text
        triples = [tuple(rng.choice(fan.rays) for _ in range(3))
                   for _ in fan.cones]
        cones = list(fan.cones) + [c._replace(vertices=t)
                                   for c, t in zip(fan.cones, triples)]
        assert cone_determinants(ctx, cones) == [
            signed_pairing_det(ctx, c.vertices) for c in cones], spec


def test_pairing_determinant_is_the_doubled_area():
    # So unit determinants on N cones leave no area to add up.
    rng = random.Random(0)
    for res in sweep_resolutions():
        ctx, fan = res.ctx, res.fan
        spec = ctx.spec.canonical_text
        simplex = (area2(ctx, ctx.corners), pairing_det(ctx, ctx.corners))
        assert simplex == (ctx.order, ctx.order), spec
        assert {(area2(ctx, c.vertices), pairing_det(ctx, c.vertices))
                for c in fan.cones} == {(1, 1)}, spec
        for _ in range(20):
            tri = tuple(rng.choice(fan.rays) for _ in range(3))
            assert area2(ctx, tri) == pairing_det(ctx, tri), (spec, tri)
