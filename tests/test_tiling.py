"""The partition against slow oracles: the realization of a line triple
by pairwise meets, the brute force over every line triple, the scan of
every line pair by direction sum, the index-1 pair scan that intersects
each candidate line triple, the pairwise separating-line test on every
pair of triangles, the tiling check that walks every unit step of the
triangle sides, and the tiling check with the simplex's boundary as a
second 2-chain.  Also the large-order regression pins, with the
Ito-Reid counts as their independent check."""

from itertools import combinations, permutations
from typing import NamedTuple

import pytest

from ahilb import lattice_context, parse_group_spec
from ahilb.errors import InvariantError
from ahilb.lattice import (
    chart,
    cross2,
    dot,
    group_elements,
    multiple,
    on_simplex_boundary,
    pair_index,
    primitive_vector,
    sign_fixed,
    smul,
    vadd,
    vneg,
    vsub,
)
from ahilb.mmp import classify_triple
from ahilb.partition import (
    RegularTriangle,
    _check_tiling,
    enumerate_triangles,
    meet,
    rays,
)
from ahilb.resolution import Resolution
from ahilb.verify import run_checks


def _simplex_point(ctx, p):
    """The meet p as a lattice point of the simplex, or None when it is
    not one (or there is no meet)."""
    if p is None or p[1] != 1 or min(p[0]) < 0:
        return None
    return p[0] if ctx.is_lattice_point(p[0]) else None


def _triangle_from_lines(ctx, lines):
    """The regular triangle cut out by three lines, if there is one: the
    three pairwise meets, lattice points of the simplex, as vertices.

    One pair index settles all three.  The sides s_0 = p2 - p1,
    s_1 = p2 - p0 and s_2 = p1 - p0 satisfy s_1 = s_0 + s_2; once they
    have one length r (directions from ``primitive_vector`` make every
    length positive), dividing by r gives d_1 = d_0 + d_2.  The chart is
    linear, so on the charts cross2(d_0, d_1) = cross2(d_0, d_2) =
    cross2(d_1, d_2), and the three pair indices are equal.
    """
    pts = []
    for a, b in ((1, 2), (0, 2), (0, 1)):
        q = _simplex_point(ctx, meet(lines[a], lines[b]))
        if q is None:
            return None
        pts.append(q)
    if len(set(pts)) != 3:
        return None
    sides = (vsub(pts[2], pts[1]), vsub(pts[2], pts[0]), vsub(pts[1], pts[0]))
    dirs = tuple(primitive_vector(ctx, v) for v in sides)
    lens = {multiple(v, d) for v, d in zip(sides, dirs)}
    if len(lens) != 1:
        return None
    if pair_index(ctx, dirs[0], dirs[2]) != 1:
        return None
    return RegularTriangle(
        vertices=tuple(pts),
        r=lens.pop(),
        side_lines=tuple(l.tag for l in lines),
        side_ratios=tuple(l.ratio if dot(l.ratio, p) > 0 else vneg(l.ratio)
                          for l, p in zip(lines, pts)),
    )


class ConcurrencyPoint(NamedTuple):
    """Degenerate realization of the champion triple: the three host lines
    meet in one lattice point and the 'triangle' has side zero."""

    point: tuple


def realize_triple(ctx, lines, triple):
    """Intersect the three host lines of a game triple, a record with
    tags, pairwise: a ConcurrencyPoint for the champion whose lines
    concur, else the regular triangle they cut out.  Raises otherwise."""
    host = tuple(lines[t] for t in triple.tags)
    pts = [meet(host[a], host[b]) for a, b in ((1, 2), (0, 2), (0, 1))]
    if any(p is None for p in pts):
        raise InvariantError("host lines of a regular triple are parallel")
    if pts[0] == pts[1] == pts[2]:
        q = _simplex_point(ctx, pts[0])
        if q is None:
            raise InvariantError(
                "concurrency point is not a lattice point of the simplex")
        if classify_triple(triple.tags) != "champion":
            raise InvariantError("only the champion triple may degenerate")
        return ConcurrencyPoint(q)
    tri = _triangle_from_lines(ctx, host)
    if tri is None:
        raise InvariantError(
            f"triple with tags {triple.tags} does not cut out a regular triangle"
        )
    return tri


def brute_force_triangles(ctx, lines):
    """Every line triple, in sorted tag order; the regular triangles found,
    sorted by key."""
    ordered = [lines[t] for t in sorted(lines)]
    found = {}
    for trio in combinations(ordered, 3):
        tri = _triangle_from_lines(ctx, trio)
        if tri is None:
            continue
        if tri.key() in found:
            raise InvariantError("two line triples cut out the same triangle")
        found[tri.key()] = tri
    return [found[k] for k in sorted(found)]


def pair_scan_triangles(ctx, lines):
    """Every line pair whose directions sum, up to sign, to a line's
    direction and which meets at a lattice point of the simplex, with each
    such line as the third side; the regular triangles found, sorted by
    key."""
    ordered = [lines[t] for t in sorted(lines)]
    by_direction = {}
    for line in ordered:
        by_direction.setdefault(sign_fixed(line.direction), []).append(line.tag)
    trios = set()
    for la, lb in combinations(ordered, 2):
        third = by_direction.get(sign_fixed(vadd(la.direction, lb.direction)))
        if third is None or _simplex_point(ctx, meet(la, lb)) is None:
            continue
        for tc in third:
            trios.add(tuple(sorted((la.tag, lb.tag, tc))))
    found = {}
    for tags in sorted(trios):
        tri = _triangle_from_lines(ctx, tuple(lines[t] for t in tags))
        if tri is None:
            continue
        if tri.key() in found:
            raise InvariantError("two line triples cut out the same triangle")
        found[tri.key()] = tri
    return [found[k] for k in sorted(found)]


def index_one_trio_triangles(ctx, lines):
    """For each line pair of pair index 1 meeting at a lattice point of
    the simplex, every line in the direction class of their direction sum
    as the third side; each tag triple intersected once by
    ``_triangle_from_lines``, in sorted tag order.  The regular triangles
    found, sorted by key."""
    ordered = [lines[t] for t in sorted(lines)]
    by_direction = {}
    for line in ordered:
        by_direction.setdefault(sign_fixed(line.direction), []).append(line.tag)
    unit = ctx.n * ctx.n // ctx.order
    charts = [chart(line.direction) for line in ordered]
    trios = set()
    for a, (ya, za) in enumerate(charts):
        for b in range(a + 1, len(ordered)):
            yb, zb = charts[b]
            if abs(ya * zb - za * yb) != unit:
                continue
            la, lb = ordered[a], ordered[b]
            third = by_direction.get(sign_fixed(vadd(la.direction, lb.direction)))
            if third is None or _simplex_point(ctx, meet(la, lb)) is None:
                continue
            for tc in third:
                trios.add(tuple(sorted((la.tag, lb.tag, tc))))
    found = {}
    for tags in sorted(trios):
        tri = _triangle_from_lines(ctx, tuple(lines[t] for t in tags))
        if tri is None:
            continue
        if tri.key() in found:
            raise InvariantError("two line triples cut out the same triangle")
        found[tri.key()] = tri
    return [found[k] for k in sorted(found)]


def interiors_disjoint(tri_a, tri_b):
    """Exact separating-line test on two lattice triangles."""
    for tri1, tri2 in ((tri_a, tri_b), (tri_b, tri_a)):
        pts = tri1.vertices
        for t in range(3):
            p, q = chart(pts[t]), chart(pts[(t + 1) % 3])
            third = chart(pts[(t + 2) % 3])
            s_in = cross2((q[0] - p[0], q[1] - p[1]),
                          (third[0] - p[0], third[1] - p[1]))
            edge = (q[0] - p[0], q[1] - p[1])
            sides = [
                cross2(edge, (chart(v)[0] - p[0], chart(v)[1] - p[1]))
                for v in tri2.vertices
            ]
            if s_in > 0 and all(s <= 0 for s in sides):
                return True
            if s_in < 0 and all(s >= 0 for s in sides):
                return True
    return False


def pairwise_disjoint(triangles):
    return all(interiors_disjoint(a, b) for a, b in combinations(triangles, 2))


def chain_tiles(ctx, triangles):
    """The tiling check with the simplex S as a second 2-chain: the
    doubled areas must sum to N, and every unit segment, those on the
    sides of S included, must be traversed by the triangles, oriented
    counter-clockwise, as often as by the boundary of S.  Every side is
    walked by ``segment_points``.  Raises as ``_check_tiling`` does."""
    # test_lattice imports this module, so its helper is read here.
    from test_lattice import segment_points

    if sum(t.r * t.r for t in triangles) != ctx.order:
        raise InvariantError("triangle areas do not exhaust the simplex")
    count = {}
    chains = [(tri.vertices, 1) for tri in triangles] + [(ctx.corners, -1)]
    for (a, b, c), sign in chains:
        if cross2(chart(vsub(b, a)), chart(vsub(c, a))) < 0:
            b, c = c, b
        for p, q in ((a, b), (b, c), (c, a)):
            pts = segment_points(ctx, p, q)
            for u, w in zip(pts, pts[1:]):
                seg, s = ((u, w), 1) if u < w else ((w, u), -1)
                count[seg] = count.get(seg, 0) + sign * s
    if any(count.values()):
        raise InvariantError("triangle interiors overlap")


def unit_step_tiling(ctx, triangles):
    """The tiling check that walks every unit step of every triangle side,
    counter-clockwise in chart, and counts each unit segment (u, w),
    u < w, off the sides of the simplex +1 per step from u to w and -1
    per step back.  Raises as ``_check_tiling`` does."""
    if sum(t.r * t.r for t in triangles) != ctx.order:
        raise InvariantError("triangle areas do not exhaust the simplex")
    count = {}
    for tri in triangles:
        a, b, c = tri.vertices
        if cross2(chart(vsub(b, a)), chart(vsub(c, a))) < 0:
            b, c = c, b
        for p, q in ((a, b), (b, c), (c, a)):
            step = tuple((y - x) // tri.r for x, y in zip(p, q))
            pts = [vadd(p, smul(k, step)) for k in range(tri.r + 1)]
            for u, w in zip(pts, pts[1:]):
                seg, s = ((u, w), 1) if u < w else ((w, u), -1)
                if not on_simplex_boundary(*seg):
                    count[seg] = count.get(seg, 0) + s
    if any(count.values()):
        raise InvariantError("triangle interiors overlap")


def tiling_verdict(check, ctx, triangles):
    """None when check accepts the triangles, else its message."""
    try:
        check(ctx, triangles)
    except InvariantError as exc:
        return str(exc)
    return None


def tiles(ctx, triangles):
    """Does the package's tiling check accept the triangles?  The unit-step
    and chain oracles must give the same verdict."""
    got = tiling_verdict(_check_tiling, ctx, triangles)
    assert got == tiling_verdict(unit_step_tiling, ctx, triangles)
    assert got == tiling_verdict(chain_tiles, ctx, triangles)
    return got is None


def cyclic_groups(max_order):
    """Every 1/r(a,b,c) with 0 <= a <= b <= c < r <= max_order and
    a + b + c = 0 mod r."""
    return [f"1/{r}({a},{b},{c})"
            for r in range(1, max_order + 1)
            for a in range(r) for b in range(a, r) for c in range(b, r)
            if (a + b + c) % r == 0]


def swapped(triangles):
    """The list with one triangle replaced by a copy of another of the same
    side, so the area sum stays exact; None without such a pair."""
    for i, j in combinations(range(len(triangles)), 2):
        if triangles[i].r == triangles[j].r:
            return [triangles[i] if t == j else tri
                    for t, tri in enumerate(triangles)]
    return None


def check_against_oracles(spec):
    ctx = lattice_context(parse_group_spec(spec))
    lines = rays(ctx, Resolution(ctx).word)
    brute = brute_force_triangles(ctx, lines)
    assert enumerate_triangles(ctx, lines) == brute, spec
    assert index_one_trio_triangles(ctx, lines) == brute, spec
    assert pair_scan_triangles(ctx, lines) == brute, spec
    assert pairwise_disjoint(brute), spec
    # With the area exact, edge matching, the chain oracle and the
    # pairwise test agree.
    assert tiles(ctx, brute), spec
    bad = swapped(brute)
    if bad is not None:
        assert not tiles(ctx, bad), spec
        assert not pairwise_disjoint(bad), spec


def product_groups(max_order):
    """Every 1/r(1,0,r-1)+1/s(0,1,s-1) with 1 <= r, s <= max_order."""
    return [f"1/{r}(1,0,{r - 1})+1/{s}(0,1,{s - 1})"
            for r in range(1, max_order + 1) for s in range(1, max_order + 1)]


def test_sweep_counts():
    assert len(cyclic_groups(24)) == 980
    assert len(cyclic_groups(40)) == 4122
    assert len(product_groups(8)) == 64


def test_enumeration_matches_oracles_up_to_24():
    for spec in cyclic_groups(24):
        check_against_oracles(spec)


def test_enumeration_matches_oracles_on_products():
    for spec in product_groups(8):
        check_against_oracles(spec)


@pytest.mark.deep
def test_enumeration_matches_oracles_up_to_40():
    for spec in cyclic_groups(40):
        check_against_oracles(spec)


def triangles_of(spec):
    ctx = lattice_context(parse_group_spec(spec))
    return ctx, list(Resolution(ctx).partition.triangles)


def test_tiling_check_catches_a_duplicate():
    ctx, tris = triangles_of("1/11(1,2,8)")
    ones = [t for t, tri in enumerate(tris) if tri.r == 1]
    bad = list(tris)
    bad[ones[1]] = tris[ones[0]]
    assert sum(tri.r ** 2 for tri in bad) == ctx.order
    with pytest.raises(InvariantError, match="triangle interiors overlap"):
        _check_tiling(ctx, bad)
    assert not pairwise_disjoint(bad)


def test_same_side_replacements_match_the_chain_oracle():
    # Any triangle in place of another of its side keeps the areas exact;
    # both checks reject every such list with the same message.
    for spec in cyclic_groups(12):
        ctx, tris = triangles_of(spec)
        for i, j in permutations(range(len(tris)), 2):
            if tris[i].r == tris[j].r:
                bad = tris[:j] + [tris[i]] + tris[j + 1:]
                for check in (_check_tiling, unit_step_tiling, chain_tiles):
                    assert tiling_verdict(check, ctx, bad) == (
                        "triangle interiors overlap"), (spec, i, j)


def test_tiling_check_catches_a_gap():
    ctx, tris = triangles_of("1/11(1,2,8)")
    for t in range(len(tris)):
        with pytest.raises(InvariantError):
            _check_tiling(ctx, tris[:t] + tris[t + 1:])


def test_tiling_check_ignores_vertex_order():
    for spec in ("1/11(1,2,8)", "1/30(25,2,3)", "1/101(1,7,93)"):
        ctx, tris = triangles_of(spec)
        _check_tiling(ctx, tris)
        _check_tiling(ctx, [tri._replace(vertices=tri.vertices[::-1])
                            for tri in tris])


def age_counts(ctx):
    counts = {0: 0, 1: 0, 2: 0}
    for g in group_elements(ctx):
        counts[sum(g) // ctx.n] += 1
    return counts


@pytest.mark.parametrize("spec, lines, triangles, cones, surfaces", [
    ("1/600(1,1,598)", 602, 600, 600, 299),
    ("1/2003(1,100,1902)", 79, 77, 2003, 1001),
    ("1/32(1,0,31)+1/32(0,1,31)", 3, 1, 1024, 465),
    pytest.param("1/2000(1,1,1998)", 2002, 2000, 2000, 999,
                 marks=pytest.mark.deep),
])
def test_large_order_pins(spec, lines, triangles, cones, surfaces):
    ctx = lattice_context(parse_group_spec(spec))
    res = Resolution(ctx)
    counts = (len(res.word), len(res.partition.triangles),
              len(res.fan.cones), len(res.census))
    assert counts == (lines, triangles, cones, surfaces)
    # Ito-Reid: one exceptional divisor per age-1 element, one compact
    # surface per age-2 element.
    ages = age_counts(ctx)
    assert sum(ages.values()) == ctx.order
    assert len(res.fan.rays) - 3 == ages[1]
    assert len(res.census) == ages[2]
    if spec in ("1/600(1,1,598)", "1/2000(1,1,1998)"):
        assert all(result.ok for result in run_checks(res))
    if spec == "1/2000(1,1,1998)":
        from test_partition import crossing_rows, pairwise_crossings
        assert crossing_rows(res.crossings) == crossing_rows(
            pairwise_crossings(res.partition))
