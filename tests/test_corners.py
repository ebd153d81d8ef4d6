import os
import re
import subprocess
import sys
import tracemalloc
from functools import cmp_to_key
from itertools import combinations
from pathlib import Path

import pytest
from test_cli import SWEEP
from test_lattice import segment_points
from test_tiling import cyclic_groups

from ahilb import lattice, lattice_context, pair_index, parse_group_spec
from ahilb.corners import (
    CornerFan,
    CyclicWord,
    corner_chain,
    cyclic_matrix_product,
    hj_expand,
    junction_c,
    long_side,
    newton_polygon,
)
from ahilb.errors import InvariantError
from ahilb.lattice import (
    chart,
    cross2,
    cross3,
    junior_points,
    multiple,
    primitive_vector,
    smul,
    vadd,
    vsub,
)
from ahilb.resolution import Resolution


def ctx_of(text):
    return lattice_context(parse_group_spec(text))


def hull(ctx, i):
    return newton_polygon(ctx, junior_points(ctx)).fans[i]


def strengths(text):
    """Each corner's strengths by both routes: continued fractions, then
    the hull."""
    ctx = ctx_of(text)
    return [(corner_chain(ctx, i).strengths, hull(ctx, i).strengths)
            for i in (1, 2, 3)]


def test_newton_polygon_11_strengths():
    assert strengths("1/11(1,2,8)") == [
        ((3, 4),) * 2, ((2, 3, 2, 2),) * 2, ((6, 2),) * 2]


def test_newton_polygon_15_strengths():
    assert strengths("1/15(1,2,12)") == [
        ((3, 2),) * 2, ((2, 2, 2, 2),) * 2, ((8, 2),) * 2]


def test_newton_polygon_30_strengths():
    assert strengths("1/30(25,2,3)") == [
        ((5,),) * 2, ((2,),) * 2, ((2, 2),) * 2]


def test_newton_polygon_known_vectors_15():
    # Worked long-side fixture: the side e1 e2 is divisible by 3 and the
    # inner rays are (-6,3,3) at e1 and (4,-7,3) at e2.
    ctx = ctx_of("1/15(1,2,12)")
    for route in (corner_chain, hull):
        f1 = route(ctx, 1)
        f2 = route(ctx, 2)
        assert f1.vectors[-1] == (-5, 5, 0)
        assert f2.vectors[0] == (5, -5, 0)
        assert f1.vectors[2] == (-6, 3, 3)
        assert f2.vectors[1] == (4, -7, 3)


def test_newton_polygon_basic_corner_is_empty():
    assert strengths("1/2(0,1,1)") == [((2,),) * 2, ((),) * 2, ((),) * 2]


def test_newton_polygon_recursion_and_bases():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)", "1/7(1,2,4)"):
        ctx = ctx_of(text)
        for i in (1, 2, 3):
            fan = corner_chain(ctx, i)
            assert fan == hull(ctx, i)
            vecs = fan.vectors
            for j, a in enumerate(fan.strengths, start=1):
                assert a >= 2
                assert vadd(vecs[j - 1], vecs[j + 1]) == smul(a, vecs[j])
            for u, w in zip(vecs, vecs[1:]):
                assert pair_index(ctx, u, w) == 1


def test_hj_expand_paper_values():
    assert hj_expand(11, 4) == [3, 4]
    assert hj_expand(11, 7) == [2, 3, 2, 2]
    assert hj_expand(11, 2) == [6, 2]
    assert hj_expand(1, 0) == []


def test_hj_expand_value_identity():
    # r/alpha = a1 - 1/(a2 - 1/(...)) exactly.
    from fractions import Fraction

    for r, alpha in ((11, 4), (11, 7), (11, 2), (15, 2), (101, 7), (7, 5)):
        ex = hj_expand(r, alpha)
        val = Fraction(ex[-1])
        for a in reversed(ex[:-1]):
            val = a - 1 / val
        assert val == Fraction(r, alpha)


def test_hj_expand_rejects_non_coprime():
    with pytest.raises(InvariantError):
        hj_expand(15, 12)
    with pytest.raises(InvariantError):
        hj_expand(10, 0)


def _hj_oracle_strengths(ctx, weights, i):
    """Corner strengths via the continued fraction, valid when the two
    other weights are coprime to the order."""
    r = ctx.order
    u = weights[i % 3]        # weight of e_{i+1}
    w = weights[(i + 1) % 3]  # weight of e_{i+2}
    alpha = (w * pow(u, -1, r)) % r
    return tuple(hj_expand(r, alpha))


def test_newton_polygon_matches_hj_on_coprime_corners():
    for text, weights in (
        ("1/11(1,2,8)", (1, 2, 8)),
        ("1/7(1,2,4)", (1, 2, 4)),
        ("1/101(1,7,93)", (1, 7, 93)),
        ("1/13(1,5,7)", (1, 5, 7)),
    ):
        ctx = ctx_of(text)
        for i in (1, 2, 3):
            want = _hj_oracle_strengths(ctx, weights, i)
            assert corner_chain(ctx, i).strengths == want
            assert hull(ctx, i).strengths == want


def test_junction_c_15_long_side():
    ctx = ctx_of("1/15(1,2,12)")
    fans = Resolution(ctx).fans
    c, vec = junction_c(1, fans)  # side e1 e2
    assert c == 2
    assert vec == (5, -5, 0)
    assert junction_c(2, fans)[0] == 1
    assert junction_c(3, fans)[0] == 1


def test_junction_c_11_all_short():
    ctx = ctx_of("1/11(1,2,8)")
    fans = Resolution(ctx).fans
    assert [junction_c(s, fans)[0] for s in (1, 2, 3)] == [1, 1, 1]


def test_junction_c_z2z2():
    ctx = ctx_of("1/2(1,1,0)+1/2(0,1,1)")
    fans = Resolution(ctx).fans
    assert [junction_c(s, fans)[0] for s in (1, 2, 3)] == [1, 1, 1]


def test_junction_c_rejects_a_perturbed_fan():
    # Moving the first interior ray at e2 off the chain leaves side e1 e2
    # with no multiple of its side ray between the neighbouring rays.
    ctx = ctx_of("1/11(1,2,8)")
    fans = dict(Resolution(ctx).fans)
    vectors = list(fans[2].vectors)
    vectors[1] = vadd(vectors[1], (-1, 0, 1))
    fans[2] = fans[2]._replace(vectors=tuple(vectors))
    assert junction_c(2, fans)[0] == 1
    with pytest.raises(InvariantError, match=re.escape(
            "side 1: no junction constant (corner fan bug)")):
        junction_c(1, fans)


def test_cyclic_word_11():
    ctx = ctx_of("1/11(1,2,8)")
    assert Resolution(ctx).word.values == (1, 3, 4, 1, 2, 3, 2, 2, 1, 6, 2)


def test_cyclic_word_15():
    ctx = ctx_of("1/15(1,2,12)")
    assert Resolution(ctx).word.values == (1, 3, 2, 2, 2, 2, 2, 2, 1, 8, 2)


def test_cyclic_word_z2z2():
    ctx = ctx_of("1/2(1,1,0)+1/2(0,1,1)")
    assert Resolution(ctx).word.values == (1, 1, 1)


def test_cyclic_word_half_exponent_group():
    # 1/2(0,1,1): the side e2 e3 carries the midpoint, so it is the long one.
    ctx = ctx_of("1/2(0,1,1)")
    word = Resolution(ctx).word
    assert word.values == (1, 2, 1, 2)
    assert word.tags[3] == ("junction", 2)


def test_matrix_product_is_minus_identity():
    for text in (
        "1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
        "1/2(1,1,0)+1/2(0,1,1)", "1/1(0,0,0)", "1/2(0,1,1)",
        "1/101(1,7,93)",
    ):
        word = Resolution(ctx_of(text)).word
        assert cyclic_matrix_product(word) == ((-1, 0), (0, -1))


def check_no_parallel_entries(specs):
    """No two entries of a group's word are parallel: every pair of its
    vectors has a nonzero cross product, so a regular triple is named by
    its entry indexes."""
    for spec in specs:
        vectors = Resolution(ctx_of(spec)).word.vectors
        assert all(cross3(a, b) != (0, 0, 0)
                   for a, b in combinations(vectors, 2)), spec


def test_word_entries_are_pairwise_non_parallel():
    check_no_parallel_entries(SWEEP)


@pytest.mark.deep
def test_word_entries_are_pairwise_non_parallel_up_to_40():
    check_no_parallel_entries(cyclic_groups(40)
                              + [s for s in SWEEP if "+" in s]
                              + ["1/2000(1,1,1998)"])


def test_at_most_one_long_side():
    for text in (
        "1/15(1,2,12)", "1/30(25,2,3)", "1/2(0,1,1)", "1/12(0,4,8)",
        "1/6(2,2,2)", "1/4(0,2,2)",
    ):
        ctx = ctx_of(text)
        fans = Resolution(ctx).fans
        longs = [s for s in (1, 2, 3) if junction_c(s, fans)[0] >= 2]
        assert len(longs) <= 1


def test_coprime_groups_have_no_long_side():
    for text in ("1/11(1,2,8)", "1/7(1,2,4)", "1/101(1,7,93)", "1/13(1,5,7)"):
        ctx = ctx_of(text)
        fans = Resolution(ctx).fans
        assert all(junction_c(s, fans)[0] == 1 for s in (1, 2, 3))


def test_long_side_is_the_junction_entry_of_value_two():
    assert long_side(Resolution(ctx_of("1/15(1,2,12)")).word) == (1, 2)
    assert long_side(Resolution(ctx_of("1/11(1,2,8)")).word) is None


def test_long_side_rejects_two_long_sides():
    word = CyclicWord(
        (2, 1, 2, 1),
        (("junction", 3), ("corner", 1, 1), ("junction", 1), ("junction", 2)),
        ((0, 0, 0),) * 4)
    with pytest.raises(InvariantError, match="more than one long side"):
        long_side(word)


def subdivided_hull_chain(ctx, corner):
    """The corner chain by a Graham scan that pops collinear points too,
    followed by subdividing every hull edge at its lattice points; returns
    the vectors and the strengths."""
    apex = ctx.corner(corner)
    d0 = primitive_vector(ctx, vsub(ctx.corner((corner - 2) % 3 + 1), apex))
    d1 = primitive_vector(ctx, vsub(ctx.corner(corner % 3 + 1), apex))
    det = cross2(chart(d0), chart(d1))
    nearest = {}
    for q in junior_points(ctx):
        v = vsub(q, apex)
        s, t = cross2(chart(v), chart(d1)), cross2(chart(d0), chart(v))
        if det < 0:
            s, t = -s, -t
        if v == (0, 0, 0) or min(s, t) < 0 or s + t > abs(det):
            continue
        key = primitive_vector(ctx, v)
        if key not in nearest or multiple(nearest[key], key) > multiple(v, key):
            nearest[key] = v
    vecs = sorted(nearest.values(), key=cmp_to_key(
        lambda u, w: cross2(chart(u), chart(w))))
    hull = []
    for v in vecs:
        while len(hull) >= 2 and cross2(
            chart(vsub(hull[-1], hull[-2])), chart(vsub(v, hull[-1]))
        ) <= 0:
            hull.pop()
        hull.append(v)
    chain = [hull[0]]
    for a, b in zip(hull, hull[1:]):
        chain += segment_points(ctx, a, b)[1:]
    strengths = tuple(multiple(vadd(chain[j - 1], chain[j + 1]), chain[j])
                      for j in range(1, len(chain) - 1))
    return tuple(chain), strengths


def test_newton_polygon_matches_the_subdivided_hull():
    # Keeping collinear points in the scan gives the chain that the
    # strict scan plus edge subdivision gives.
    for spec in SWEEP:
        ctx = ctx_of(spec)
        for i in (1, 2, 3):
            fan = hull(ctx, i)
            assert (fan.vectors, fan.strengths) == subdivided_hull_chain(
                ctx, i), (spec, i)


def graham_hull_chain(ctx, corner, points):
    """The corner's Klein polygon chain, with strengths, as a Graham scan
    over the nearest of the junior points ``points`` on each ray out of
    the corner, keeping collinear points: the oracle of ``newton_polygon``.
    """
    apex = ctx.corner(corner)
    d0 = primitive_vector(ctx, vsub(ctx.corner((corner - 2) % 3 + 1), apex))
    d1 = primitive_vector(ctx, vsub(ctx.corner(corner % 3 + 1), apex))

    # The apex-facing hull boundary lies inside the triangle (apex, apex + d0,
    # apex + d1); of apex-collinear points only the nearest can sit on it.
    cands = {}
    for q in points:
        if q == apex:
            continue
        v = vsub(q, apex)
        if not _in_corner_triangle(v, d0, d1):
            continue
        key = primitive_vector(ctx, v)
        if key not in cands or _closer(v, cands[key]):
            cands[key] = v

    def angle_cmp(u, w):
        c = cross2(chart(u), chart(w))
        return 0 if c == 0 else (-1 if c < 0 else 1)

    vecs = sorted(cands.values(), key=cmp_to_key(angle_cmp))
    if vecs[0] != d0 or vecs[-1] != d1:
        raise InvariantError(f"corner {corner}: side rays missing from hull input")

    # Graham scan keeping left turns and collinear points.
    chain = []
    for v in vecs:
        while len(chain) >= 2 and cross2(
            chart(vsub(chain[-1], chain[-2])), chart(vsub(v, chain[-1]))
        ) < 0:
            chain.pop()
        chain.append(v)

    strengths = []
    for j in range(1, len(chain) - 1):
        a = multiple(vadd(chain[j - 1], chain[j + 1]), chain[j])
        if a is None or a < 2:
            raise InvariantError(
                f"corner {corner}: hull chain violates the recursion at ray {j}"
            )
        strengths.append(a)
    return CornerFan(tuple(chain), tuple(strengths))


def _in_corner_triangle(v, d0, d1):
    """Is v inside the cone triangle {s*d0 + t*d1 : s,t >= 0, s+t <= 1}?"""
    d = cross2(chart(d0), chart(d1))
    s_num = cross2(chart(v), chart(d1))
    t_num = cross2(chart(d0), chart(v))
    if d < 0:
        s_num, t_num, d = -s_num, -t_num, -d
    return s_num >= 0 and t_num >= 0 and s_num + t_num <= d


def _closer(u, w):
    return sum(abs(t) for t in u) < sum(abs(t) for t in w)


def test_one_pass_matches_the_graham_oracle_and_the_chains():
    # Every corner of the sweep by three routes: the one pass, the
    # per-corner Graham scan and the continued fraction; and the pass's
    # counts against the zero coordinates of the junior points.
    for spec in SWEEP:
        ctx = ctx_of(spec)
        points = junior_points(ctx)
        hulls = newton_polygon(ctx, junior_points(ctx))
        for i in (1, 2, 3):
            want = graham_hull_chain(ctx, i, points)
            assert hulls.fans[i] == want == corner_chain(ctx, i), (spec, i)
            # The pass keeps one point per coordinate toward e_{i+1}: no
            # two points of the corner triangle but the apex share it.
            apex, d0, d1 = ctx.corner(i), want.vectors[0], want.vectors[-1]
            us = [q[i % 3] for q in points if q != apex
                  and _in_corner_triangle(vsub(q, apex), d0, d1)]
            assert len(us) == len(set(us)), (spec, i)
        zeros = [q.count(0) for q in points]
        assert (hulls.interior, hulls.edge) == (zeros.count(0),
                                                zeros.count(1)), spec
        assert zeros.count(2) == 3


def test_one_pass_failure_messages():
    ctx = ctx_of("1/15(1,2,12)")
    points = junior_points(ctx)
    # The side e1 e2 has two inner lattice points, so the first ray at e2
    # is a junior point, (0, 15, 0) + (5, -5, 0), and without it the
    # chain cannot start on the side.
    assert (5, 10, 0) in points
    with pytest.raises(InvariantError,
                       match="^corner 2: side rays missing from hull input$"):
        newton_polygon(ctx, [q for q in points if q != (5, 10, 0)])
    # Without the inner ray (4, 8, 3) at e2, the hull jumps from (5, 10, 0)
    # to (3, 6, 6), past the lattice point between them.
    assert hull(ctx, 2).vectors[1] == (4, -7, 3)
    with pytest.raises(InvariantError, match="^corner 2: hull chain "
                       "violates the recursion at ray 1$"):
        newton_polygon(ctx, [q for q in points if q != (4, 8, 3)])


def check_chains_against_the_hull(specs):
    for spec in specs:
        ctx = ctx_of(spec)
        fans = newton_polygon(ctx, junior_points(ctx)).fans
        for i in (1, 2, 3):
            assert corner_chain(ctx, i) == fans[i], (spec, i)


def test_corner_chain_matches_the_hull():
    # Every cyclic 1/r(a,b,c) with r <= 24 and a <= b (7,800 corners),
    # and every corner of the sweep's products.
    specs = [f"1/{r}({a},{b},{(-a - b) % r})"
             for r in range(1, 25) for a in range(r) for b in range(a, r)]
    assert len(specs) == 2600
    check_chains_against_the_hull(specs + [s for s in SWEEP if "+" in s])


@pytest.mark.deep
def test_corner_chain_matches_the_hull_up_to_40():
    check_chains_against_the_hull(
        [f"1/{r}({a},{b},{(-a - b) % r})"
         for r in range(1, 41) for a in range(r) for b in range(r)])


def test_near_cap_group_reaches_its_word_without_its_elements(monkeypatch):
    # Listing the 999,983 elements peaked at about 330 MiB of traced
    # memory, and walking them for the junior points still peaks at about
    # 84 MiB; the chains and the word take about 5 MiB.
    def refuse(*args):
        raise AssertionError("group elements enumerated")

    # Every enumeration, junior_points included, goes through it.
    monkeypatch.setattr(lattice, "group_elements", refuse)
    tracemalloc.start()
    try:
        res = Resolution(ctx_of("1/999983(1,100,999882)"))
        word = res.word
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [res.fans[i].k for i in (1, 2, 3)] == [114, 9906, 4]
    assert len(word) == 114 + 9906 + 4 + 3
    assert cyclic_matrix_product(word) == ((-1, 0), (0, -1))
    assert peak < 16 * 2**20


def test_hull_stage_walks_the_group_without_listing_it():
    # The hull pass over 1/30011(1,100,29910) reads its 15,008 junior
    # points. Listing the 30,011 group elements first peaked at 9.70 MiB
    # of traced memory; walking them lazily peaks at 3.01 MiB.
    ctx = ctx_of("1/30011(1,100,29910)")
    tracemalloc.start()
    try:
        Resolution(ctx).hulls
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


_NEAR_CAP_HULLS = """
import resource
from ahilb import lattice_context, parse_group_spec
from ahilb.resolution import Resolution
Resolution(lattice_context(parse_group_spec("1/999983(1,100,999882)"))).hulls
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.deep
def test_near_cap_hull_stage_stays_small():
    # A child process, since tracing this group's walk takes some 20 s:
    # listing the 999,983 elements first peaked at 344 MiB of process
    # memory, walking them lazily at 121 MiB.  ru_maxrss is in KiB.
    proc = subprocess.run(
        [sys.executable, "-c", _NEAR_CAP_HULLS],
        capture_output=True, text=True, check=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(lattice.__file__).parent.parent)},
    )
    assert int(proc.stdout) <= 200 * 1024
