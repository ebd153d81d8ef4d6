from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest

import ahilb.monomials
from ahilb import lattice_context, parse_group_spec
from ahilb.cli import main
from ahilb.errors import InvariantError
from ahilb.fan import build_fan
from ahilb.lattice import (
    PERMS,
    cross3,
    dot,
    multiple,
    permute,
    primitive_in_monomial_lattice,
    scaled_dual,
    smul,
    vadd,
    vneg,
    vsub,
)
from ahilb.monomials import (
    TriangleRatios,
    _bases,
    _match_case,
    crossing_rule_check,
    dual_basis,
    formula_dual,
    ratio_str,
    sign_roles,
    triangle_ratios,
)
from ahilb.partition import crossings, meet, rays
from ahilb.resolution import Resolution
from test_cli import SWEEP
from test_clusters import CELLS, LINES
from test_fan import sweep_resolutions
from test_lattice import (
    PRODUCTS,
    cofactor_dual,
    is_invariant_monomial,
    written_generators,
)
from test_tiling import cyclic_groups


def pipeline(text):
    ctx = lattice_context(parse_group_spec(text))
    part = Resolution(ctx).partition
    return ctx, part


def ratio_through(ctx, p, q, positive_at):
    """Primitive invariant generator of the exponents vanishing on the line
    through p and q, signed to evaluate positively at positive_at: the
    oracle for ``RegularTriangle.side_ratios``."""
    raw = cross3(p, q)
    if raw == (0, 0, 0):
        raise InvariantError("line data is degenerate")
    m = primitive_in_monomial_lattice(ctx, raw)
    val = dot(m, positive_at)
    if val == 0:
        raise InvariantError("positive_side is parallel to the line")
    return m if val > 0 else vneg(m)


def line_ratio(ctx, line, positive_side):
    """ratio_through two points of the line: the oracle for ``Line.ratio``
    with positive_side the corner before the line's own."""
    return ratio_through(ctx, line.anchor, vadd(line.anchor, line.direction),
                         positive_side)


def check_ratios_against_the_oracles(resolutions):
    """Every line's ratio is ``line_ratio`` at the corner before its own,
    and every triangle side's is ``ratio_through`` its endpoints, signed at
    the opposite vertex."""
    for res in resolutions:
        ctx, spec = res.ctx, res.ctx.spec.canonical_text
        for tag, line in rays(ctx, res.word).items():
            before = ctx.corner((tag[1] + 1) % 3 + 1)
            assert line.ratio == line_ratio(ctx, line, before), (spec, tag)
        for tri in res.partition.triangles:
            assert tri.side_ratios == tuple(
                ratio_through(ctx, *tri.side_of(t), tri.vertices[t])
                for t in range(3)), (spec, tri.vertices)


def resolutions_of(specs):
    return [Resolution(lattice_context(parse_group_spec(spec)))
            for spec in specs]


def test_ratios_match_the_oracles():
    check_ratios_against_the_oracles(sweep_resolutions())
    check_ratios_against_the_oracles(resolutions_of(LINES + CELLS))


@pytest.mark.deep
def test_ratios_match_the_oracles_up_to_30():
    check_ratios_against_the_oracles(
        resolutions_of(cyclic_groups(30) + PRODUCTS))


def test_line_ratio_e3_line_of_11():
    ctx, part = pipeline("1/11(1,2,8)")
    line = part.lines[("corner", 3, 1)]
    m = line_ratio(ctx, line, vsub(ctx.corner(1), ctx.corner(3)))
    assert m == (2, -1, 0)
    assert ratio_str(m) == "x^2:y"


def word_lines(text):
    ctx = lattice_context(parse_group_spec(text))
    return ctx, rays(ctx, Resolution(ctx).word)


def test_line_ratio_simplex_side_is_pure_power():
    ctx, lines = word_lines("1/11(1,2,8)")
    m = line_ratio(ctx, lines[("junction", 1)], (0, 0, 11))
    assert m == (0, 0, 11)
    assert ratio_str(m) == "z^11"
    # Each side carries the pure power of order N for a coprime group.
    m2 = line_ratio(ctx, lines[("junction", 2)], (11, 0, 0))
    assert m2 == (11, 0, 0)


def test_line_ratio_sign_convention():
    ctx, part = pipeline("1/11(1,2,8)")
    line = part.lines[("corner", 3, 1)]
    pos = vsub(ctx.corner(1), ctx.corner(3))
    assert line_ratio(ctx, line, vneg(pos)) == vneg(
        line_ratio(ctx, line, pos)
    )


def test_line_ratios_are_invariant_and_primitive():
    ctx, lines = word_lines("1/30(25,2,3)")
    for line in lines.values():
        m = line_ratio(ctx, line, _any_transversal(ctx, line))
        assert is_invariant_monomial(ctx, m)
        # Primitive: no proper invariant divisor.
        for k in range(2, 31):
            if all(c % k == 0 for c in m):
                smaller = (m[0] // k, m[1] // k, m[2] // k)
                assert not is_invariant_monomial(ctx, smaller)


def _any_transversal(ctx, line):
    from ahilb.lattice import chart, cross2

    for v in (vsub(ctx.corner(1), ctx.corner(2)),
              vsub(ctx.corner(2), ctx.corner(3))):
        if cross2(chart(line.direction), chart(v)) != 0:
            return v
    raise AssertionError


def parallel_ratio(base, i):
    """Ratio of the i-th parallel lattice line on the base's positive side.

    A point P there has base.P = i*n, so the shifted exponents
    base - i*(1,1,1) vanish on it; successive tesselation lines of a
    triangle arise this way.
    """
    return vsub(base, (i, i, i))


def shifted_bases_dual(parent, cell, steps):
    """``formula_dual`` by a generic route: each base of the parent's
    normal form shifted by ``parallel_ratio``, negated on a down cell and
    permuted by the inverse of the parent's permutation."""
    bases = _bases(parent.case, parent.a, parent.b, parent.c,
                   parent.d, parent.e, parent.f)
    up = [parallel_ratio(base, s) for base, s in zip(bases, steps)]
    if cell.kind == "down":
        up = [vneg(m) for m in up]
    inverse = tuple(parent.perm.index(u) for u in range(3))
    return [permute(inverse, m) for m in up]


def role_steps_by_lookup(parent, cell):
    """``TriangleRatios.role_steps`` as a generator over the roles."""
    return tuple(cell.steps[side] for side in parent.roles)


def test_both_dual_routes_match_their_oracles_on_the_sweep():
    for res in sweep_resolutions():
        n, spec = res.ctx.n, res.ctx.spec.canonical_text
        for cell in res.fan.cones:
            assert (scaled_dual(cell.vertices, n)
                    == cofactor_dual(cell.vertices, n)), (spec, cell)
            parent = res.ratios[cell.parent]
            steps = parent.role_steps(cell)
            assert steps == role_steps_by_lookup(parent, cell), spec
            assert (formula_dual(parent, cell)
                    == shifted_bases_dual(parent, cell, steps)), (spec, cell)


def test_parallel_ratio_identity():
    assert parallel_ratio((2, -1, 0), 0) == (2, -1, 0)


def test_parallel_ratio_one_step():
    assert parallel_ratio((2, -1, 0), 1) == (1, -2, -1)
    assert ratio_str(parallel_ratio((2, -1, 0), 1)) == "x:y^2z"


def test_parallel_ratio_orthogonal_to_shifted_lines():
    # The i-th parallel annihilates points P with base.P = i*n.
    ctx, part = pipeline("1/11(1,2,8)")
    line = part.lines[("corner", 3, 1)]
    base = line_ratio(ctx, line, vsub(ctx.corner(1), ctx.corner(3)))
    for p in ((6, 1, 4), (7, 3, 1)):
        assert dot(base, p) == ctx.n
        assert dot(parallel_ratio(base, 1), p) == 0


def test_parallel_ratio_case_a_pattern():
    # z^f:y^c shifted k steps is z^(f-k):x^k y^(c+k).
    f, c, k = 5, 2, 3
    assert parallel_ratio((0, -c, f), k) == (-k, -(c + k), f - k)


def test_triangle_ratios_corner_triangle_shape():
    # A corner triangle of side 1 carries ratios x^(a+1):y^b style:
    # case a with f = r = 1.
    ctx, part = pipeline("1/11(1,2,8)")
    corner_tris = [
        t for t in part.triangles if any(v == ctx.corner(3) for v in t.vertices)
    ]
    assert corner_tris
    for tri in corner_tris:
        tr = triangle_ratios(ctx, tri)
        if tri.r == 1:
            assert tr.case == "a"
            assert tr.f == 1
            assert tr.d - tr.a == 1
            assert tr.e - tr.b - tr.c == 1


def test_triangle_ratios_whole_simplex_zrzr():
    for r in (2, 3, 4):
        ctx, part = pipeline(f"1/{r}(1,{r-1},0)+1/{r}(0,1,{r-1})")
        tri = part.triangles[0]
        tr = triangle_ratios(ctx, tri)
        assert (tr.a, tr.b, tr.c) == (0, 0, 0)
        assert (tr.d, tr.e, tr.f) == (r, r, r)
        assert sorted(tri.side_ratios) == [(0, 0, r), (0, r, 0), (r, 0, 0)]


def test_triangle_ratios_equalities_everywhere():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
                 "1/101(1,7,93)", "1/13(1,5,7)", "1/2(0,1,1)"):
        ctx, part = pipeline(text)
        for tri in part.triangles:
            tr = triangle_ratios(ctx, tri)
            if tr.case == "a":
                assert tr.d - tr.a == tr.e - tr.b - tr.c == tr.f == tri.r
            else:
                assert tr.d - tr.a == tr.e - tr.b == tr.f - tr.c == tri.r


def branch_match(ctx, tri, side_ratios, perm, case):
    """One (case, permutation) trial read branch by branch: the trial finds
    its own roles, tests the zero entries of each case by hand and checks
    the side directions against the hand-typed normal-form triples."""
    permuted = [permute(perm, m) for m in side_ratios]
    roles = [None, None, None]
    for t, m in enumerate(permuted):
        pos = [u for u in range(3) if m[u] > 0]
        if len(pos) != 1:
            return None
        if roles[pos[0]] is not None:
            return None
        roles[pos[0]] = t
    xi, eta, zeta = (permuted[roles[0]], permuted[roles[1]], permuted[roles[2]])
    if case == "a":
        if xi[2] or eta[2] or zeta[0]:
            return None
        d, b = xi[0], -xi[1]
        a, e = -eta[0], eta[1]
        c, f = -zeta[1], zeta[2]
    else:
        if xi[2] or eta[0] or zeta[1]:
            return None
        d, b = xi[0], -xi[1]
        e, c = eta[1], -eta[2]
        a, f = -zeta[0], zeta[2]
    if min(a, b, c, d, e, f) < 0:
        return None
    r = tri.r
    if case == "a":
        if not (d - a == e - b - c == f == r):
            return None
        raws = [(b, d, -(b + d)), (e, a, -(a + e)), (c + f, -f, -c)]
    else:
        if not (d - a == e - b == f - c == r):
            return None
        raws = [(b, d, -(b + d)), (-(c + e), c, e), (f, -(a + f), a)]
    ks = []
    for role in range(3):
        ends = [u for u in range(3) if u != roles[role]]
        v = permute(perm, tri.step(*ends))
        k = multiple(raws[role], v)
        if not k:
            return None
        ks.append(abs(k))
    if len(set(ks)) != 1:
        return None
    K = ks[0]
    if case == "a" and not (
        K * ctx.n == d * e - a * b == a * c + a * f + e * f
        == b * f + c * d + d * f
    ):
        return None
    return TriangleRatios(case, perm, tuple(roles), a, b, c, d, e, f)


def branch_normal_form(ctx, tri):
    """The first trial that fits, case a before case b, each over PERMS in
    order; None when none does."""
    side_ratios = [ratio_through(ctx, *tri.side_of(t), tri.vertices[t])
                   for t in range(3)]
    for case in ("a", "b"):
        for perm in PERMS:
            res = branch_match(ctx, tri, side_ratios, perm, case)
            if res is not None:
                return res
    return None


def check_normal_form_against_the_branches(specs):
    for spec in specs:
        ctx, part = pipeline(spec)
        for tri in part.triangles:
            assert triangle_ratios(ctx, tri) == branch_normal_form(ctx, tri), (
                spec, tri.vertices)


def test_triangle_ratios_match_the_branch_reading():
    check_normal_form_against_the_branches(SWEEP)


@pytest.mark.deep
def test_triangle_ratios_match_the_branch_reading_up_to_30():
    check_normal_form_against_the_branches(cyclic_groups(30))


@pytest.mark.parametrize("vectors, sign, want", [
    (((2, -1, 0), (0, 3, -1), (-1, 0, 4)), 1, (0, 1, 2)),
    (((0, 3, -1), (-1, 0, 4), (2, -1, 0)), 1, (2, 0, 1)),
    (((-2, 1, 0), (0, -3, 1), (1, 0, -4)), -1, (0, 1, 2)),
    (((-2, 1, 0), (0, -3, 1), (1, 0, -4)), 1, (2, 0, 1)),
    # Positive at two coordinates.
    (((2, 1, 0), (0, 3, -1), (-1, 0, 4)), 1, None),
    # Two vectors positive at the same coordinate.
    (((2, -1, 0), (1, -3, -1), (-1, 0, 4)), 1, None),
    # A vector positive nowhere.
    (((2, -1, 0), (0, 0, -1), (-1, 0, 4)), 1, None),
])
def test_sign_roles(vectors, sign, want):
    assert sign_roles(vectors, sign) == want


def leak_at_a_zero(m):
    """m with -1 at its first zero entry, so that it keeps its sign pattern
    but no longer vanishes along its side."""
    if 0 not in m:
        return m
    return tuple(-1 if t == m.index(0) else x for t, x in enumerate(m))


@pytest.mark.parametrize("corrupt", [
    lambda m: (1, 1, -2),  # positive at two coordinates
    leak_at_a_zero,
    # Signed at a vertex on the side, where it pairs to 0: negated.
    vneg,
], ids=["no-sign-pattern", "zero-entry-leaks", "signed-at-the-wrong-vertex"])
def test_corrupt_side_ratios_fit_no_normal_form(corrupt):
    for spec in ("1/11(1,2,8)", "1/101(1,7,93)"):
        ctx, part = pipeline(spec)
        for tri in part.triangles:
            bad = tri._replace(
                side_ratios=tuple(map(corrupt, tri.side_ratios)))
            with pytest.raises(InvariantError,
                               match="fits neither ratio normal form"):
                triangle_ratios(ctx, bad)


def test_steps_with_their_ends_swapped_fit_no_normal_form():
    # The steps run from role u+1's vertex to role u+2's; reversed, they
    # are a negative multiple of the directions the ratios give.
    for spec in ("1/11(1,2,8)", "1/101(1,7,93)", "1/30(25,2,3)",
                 "1/3(1,2,0)+1/3(0,1,2)"):
        ctx, part = pipeline(spec)
        for tri in part.triangles:
            at = sign_roles(tri.side_ratios)
            steps = {(s, t): tri.step(s, t)
                     for s, t in permutations(range(3), 2)}
            swapped = {(s, t): steps[t, s] for s, t in steps}
            fits = [(case, perm) for case in ("a", "b") for perm in PERMS
                    if _match_case(ctx, tri, steps, at, perm, case)]
            assert fits, (spec, tri.vertices)
            assert not any(_match_case(ctx, tri, swapped, at, perm, case)
                           for case in ("a", "b") for perm in PERMS), spec


def check_case_b_is_the_cocked_hat(resolutions):
    """A triangle's normal form is case b exactly when it is the cocked-hat
    champion, whose three side lines leave three different corners."""
    for res in resolutions:
        champions = res.partition.champions
        hat = champions.triangle if champions.kind == "cocked_hat" else None
        for t, (tri, tr) in enumerate(zip(res.partition.triangles,
                                          res.ratios)):
            assert tr.case == ("b" if t == hat else "a"), (
                res.ctx.spec.canonical_text, t)
        if hat is not None:
            sides = res.partition.triangles[hat].side_lines
            assert sorted(tag[1] for tag in sides) == [1, 2, 3]


def test_champion_triangle_is_cyclic_case():
    check_case_b_is_the_cocked_hat(sweep_resolutions())
    check_case_b_is_the_cocked_hat(
        resolutions_of(LINES + CELLS + ["1/101(1,7,93)"]))


@pytest.mark.deep
def test_champion_triangle_is_cyclic_case_at_scale():
    specs = [f"1/{r}(1,0,{r - 1})+1/{s}(0,1,{s - 1})"
             for r in range(2, 9) for s in range(2, 9)]
    specs.append("1/2003(1,100,1902)")
    check_case_b_is_the_cocked_hat(resolutions_of(specs))


def test_dual_basis_zrzr_up_and_down():
    # Whole-simplex tesselation: up cells have x^(r-i)/y^i z^i pattern,
    # down cells the inverted one.
    for r in (2, 3, 4):
        ctx, part = pipeline(f"1/{r}(1,{r-1},0)+1/{r}(0,1,{r-1})")
        tri = part.triangles[0]
        tr = triangle_ratios(ctx, tri)
        fan = build_fan(part)
        for cell in fan.cones:
            rows = dual_basis(ctx, tr, cell)
            mins = tuple(min(v[t] for v in cell.vertices) for t in range(3))
            if cell.kind == "up":
                i, j, k = mins
                expect = {
                    (r - i, -i, -i), (-j, r - j, -j), (-k, -k, r - k)
                }
            else:
                i, j, k = (m + 1 for m in mins)
                expect = {
                    (-(r - i), i, i), (j, -(r - j), j), (k, k, -(r - k))
                }
            assert set(rows) == expect


def test_dual_basis_corner_triangle_formula():
    # Corner side-1 triangle: basis x^(a+1)/y^b, y^(b+c+1)/x^a, z/y^c in
    # the normal-form coordinates.
    ctx, part = pipeline("1/11(1,2,8)")
    tri = next(
        t for t in part.triangles
        if t.r == 1 and any(v == ctx.corner(3) for v in t.vertices)
    )
    tr = triangle_ratios(ctx, tri)
    fan = build_fan(part)
    cell = next(
        c for c in fan.cones
        if c.parent == part.triangles.index(tri) and c.kind == "up"
    )
    rows = dual_basis(ctx, tr, cell)
    from ahilb.lattice import permute as _permute

    sigma = {tuple(_permute(tr.perm, m)) for m in rows}
    a, b, c = tr.a, tr.b, tr.c
    assert sigma == {
        (a + 1, -b, 0), (-a, b + c + 1, 0), (0, -c, 1)
    }


def test_dual_basis_pairing_and_product_everywhere():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)"):
        ctx, part = pipeline(text)
        fan = build_fan(part)
        parents = {
            t: triangle_ratios(ctx, tri)
            for t, tri in enumerate(part.triangles)
        }
        for cell in fan.cones:
            rows = dual_basis(ctx, parents[cell.parent], cell)
            for s, m in enumerate(rows):
                assert is_invariant_monomial(ctx, m)
                for t, p in enumerate(cell.vertices):
                    assert dot(m, p) == (ctx.n if s == t else 0)
            total = (0, 0, 0)
            for m in rows:
                total = vadd(total, m)
            assert total == (1, 1, 1)


def test_dual_basis_rejects_a_shifted_formula_row(monkeypatch, capsys):
    ctx, part = pipeline("1/11(1,2,8)")
    cell = build_fan(part).cones[0]
    parent = triangle_ratios(ctx, part.triangles[cell.parent])
    formula_dual = ahilb.monomials.formula_dual

    def shifted(parent, cell):
        rows = formula_dual(parent, cell)
        return [vadd(rows[0], (1, -1, 0))] + rows[1:]

    monkeypatch.setattr(ahilb.monomials, "formula_dual", shifted)
    with pytest.raises(InvariantError, match="^dual bases disagree on cell "):
        dual_basis(ctx, parent, cell)
    assert main(["verify", "1/11(1,2,8)"]) == 2
    assert ("monomials: dual bases solve and closed form agree: FAIL (dual "
            "bases disagree on cell ") in capsys.readouterr().out


def test_crossing_rule_paper_example():
    # Strength 3 from e1 against strength 2 from e3: the e1 line continues.
    ctx, part = pipeline("1/11(1,2,8)")
    l11 = part.lines[("corner", 1, 1)]
    l32 = part.lines[("corner", 3, 2)]
    assert crossing_rule_check(l11, l32) == ("corner", 1, 1)


def test_crossing_rule_equal_strengths_die():
    # The three champion lines of 1/3(1,1,1) meet with equal exponents.
    ctx, part = pipeline("1/3(1,1,1)")
    l1 = part.lines[("corner", 1, 1)]
    l2 = part.lines[("corner", 2, 1)]
    assert crossing_rule_check(l1, l2) is None


def test_crossing_rule_rejects_same_corner():
    ctx, part = pipeline("1/11(1,2,8)")
    with pytest.raises(InvariantError):
        crossing_rule_check(part.lines[("corner", 2, 1)],
                            part.lines[("corner", 2, 2)])


def test_crossing_rule_rejects_a_ratio_signed_at_the_following_corner():
    # An interior line separates the corners before and after its own, so
    # its ratio signed at the one after is the negative: one exponent the
    # rule reads turns negative.
    for spec in ("1/11(1,2,8)", "1/101(1,7,93)"):
        ctx, part = pipeline(spec)
        for la, lb, _ in crossings(part):
            for flipped in ((la._replace(ratio=vneg(la.ratio)), lb),
                            (la, lb._replace(ratio=vneg(lb.ratio)))):
                with pytest.raises(InvariantError,
                                   match="non-positive exponent"):
                    crossing_rule_check(*flipped)


def test_crossing_rule_rejects_a_ratio_not_vanishing_at_its_corner():
    ctx, part = pipeline("1/11(1,2,8)")
    la, lb, _ = crossings(part)[0]
    bad = la._replace(ratio=vadd(la.ratio, (1, 1, 1)))
    with pytest.raises(InvariantError, match="ratio normalization failed"):
        crossing_rule_check(bad, lb)


def _param_at(line, p):
    """Exact parameter of the rational point p along line, in primitive
    steps from its anchor."""
    num, den = p
    v = vsub(num, smul(den, line.anchor))
    t = next(t for t in range(3) if line.direction[t])
    return Fraction(v[t], den * line.direction[t])


def test_crossing_rule_matches_partition_everywhere():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
                 "1/101(1,7,93)", "1/13(1,5,7)"):
        ctx, part = pipeline(text)
        inner = list(part.lines.values())
        fars = {
            l.tag: multiple(vsub(l.defeat_point, l.anchor), l.direction)
            for l in inner
        }
        for la, lb in combinations(inner, 2):
            if la.tag[1] == lb.tag[1]:
                continue
            x = meet(la, lb)
            if x is None or not all(c > 0 for c in x[0]):
                continue
            ta, tb = _param_at(la, x), _param_at(lb, x)
            if min(ta, tb) < 0 or ta > fars[la.tag] or tb > fars[lb.tag]:
                continue
            winner = crossing_rule_check(la, lb)
            geom = None
            if ta < fars[la.tag] and tb == fars[lb.tag]:
                geom = la.tag
            if tb < fars[lb.tag] and ta == fars[la.tag]:
                geom = lb.tag
            assert winner == geom


def test_primitive_in_monomial_lattice():
    ctx = lattice_context(parse_group_spec("1/11(1,2,8)"))
    assert primitive_in_monomial_lattice(ctx, (4, -2, 0)) == (2, -1, 0)
    assert primitive_in_monomial_lattice(ctx, (1, 0, 0)) == (11, 0, 0)


def _primitive_by_search(ctx, m):
    """Reference: the smallest divisor k of the order with k*base
    pairing integrally with every written generator, base being m
    divided by its content."""
    g = 0
    for c in m:
        g = gcd(g, abs(c))
    base = (m[0] // g, m[1] // g, m[2] // g)
    for k in range(1, ctx.order + 1):
        if ctx.order % k == 0 and all(dot(smul(k, base), g) % ctx.n == 0
                                      for g in written_generators(ctx)):
            return smul(k, base)
    raise AssertionError("no invariant multiple")


def test_primitive_in_monomial_lattice_matches_search():
    vectors = [m for m in product(range(-4, 5), repeat=3) if m != (0, 0, 0)]
    for text in ("1/11(1,2,8)", "1/30(25,2,3)", "1/12(1,3,8)",
                 "1/2(1,1,0)+1/2(0,1,1)", "1/6(1,2,3)+1/2(1,1,0)",
                 "1/4(1,3,0)+1/4(0,1,3)", "1/1(0,0,0)"):
        ctx = lattice_context(parse_group_spec(text))
        for m in vectors:
            assert primitive_in_monomial_lattice(ctx, m) == \
                _primitive_by_search(ctx, m)


def test_ratio_str():
    assert ratio_str((2, -1, 0)) == "x^2:y"
    assert ratio_str((0, 0, 11)) == "z^11"
    assert ratio_str((1, -2, -1)) == "x:y^2z"
    assert ratio_str((-1, 1, 1)) == "yz:x"
