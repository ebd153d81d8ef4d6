"""The partition against two slow oracles: the brute force over every line
triple, and the pairwise separating-line test on every pair of triangles.
Also the large-order regression pins, with the Ito-Reid counts as their
independent check."""

from dataclasses import replace
from itertools import combinations

import pytest

from ahilb import lattice_context, parse_group_spec
from ahilb.errors import InvariantError
from ahilb.lattice import chart, cross2
from ahilb.partition import (
    _check_tiling,
    _triangle_from_lines,
    enumerate_triangles,
    rays,
)
from ahilb.resolution import Resolution
from ahilb.verify import run_checks


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


def tiles(ctx, triangles):
    """Does the package's tiling check accept the triangles?"""
    try:
        _check_tiling(ctx, triangles)
    except InvariantError:
        return False
    return True


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
    lines = rays(ctx, Resolution(ctx).fans)
    brute = brute_force_triangles(ctx, lines)
    assert enumerate_triangles(ctx, lines) == brute, spec
    assert pairwise_disjoint(brute), spec
    # With the area exact, edge matching and the pairwise test agree.
    assert tiles(ctx, brute), spec
    bad = swapped(brute)
    if bad is not None:
        assert not tiles(ctx, bad), spec
        assert not pairwise_disjoint(bad), spec


def test_sweep_counts():
    assert len(cyclic_groups(24)) == 980
    assert len(cyclic_groups(40)) == 4122


def test_enumeration_matches_oracles_up_to_24():
    for spec in cyclic_groups(24):
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


def test_tiling_check_catches_a_gap():
    ctx, tris = triangles_of("1/11(1,2,8)")
    for t in range(len(tris)):
        with pytest.raises(InvariantError):
            _check_tiling(ctx, tris[:t] + tris[t + 1:])


def test_tiling_check_ignores_vertex_order():
    for spec in ("1/11(1,2,8)", "1/30(25,2,3)", "1/101(1,7,93)"):
        ctx, tris = triangles_of(spec)
        _check_tiling(ctx, tris)
        _check_tiling(ctx, [replace(tri, vertices=tri.vertices[::-1])
                            for tri in tris])


def age_counts(ctx):
    counts = {0: 0, 1: 0, 2: 0}
    for g in ctx.element_table:
        counts[sum(g) // ctx.n] += 1
    return counts


@pytest.mark.parametrize("spec, lines, triangles, cones, surfaces", [
    ("1/600(1,1,598)", 602, 600, 600, 299),
    ("1/2003(1,100,1902)", 79, 77, 2003, 1001),
    ("1/32(1,0,31)+1/32(0,1,31)", 3, 1, 1024, 465),
])
def test_large_order_pins(spec, lines, triangles, cones, surfaces):
    ctx = lattice_context(parse_group_spec(spec))
    res = Resolution(ctx)
    counts = (len(res.partition.lines), len(res.partition.triangles),
              len(res.fan.cones), len(res.census))
    assert counts == (lines, triangles, cones, surfaces)
    # Ito-Reid: one exceptional divisor per age-1 element, one compact
    # surface per age-2 element.
    ages = age_counts(ctx)
    assert sum(ages.values()) == ctx.order
    assert len(res.fan.rays) - 3 == ages[1]
    assert len(res.census) == ages[2]
    if spec == "1/600(1,1,598)":
        assert all(result.ok for result in run_checks(res))
