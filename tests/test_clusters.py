from dataclasses import replace

import pytest

from ahilb import lattice_context, parse_group_spec
from ahilb.clusters import (
    ClusterSystem,
    classify_cluster,
    cluster_system,
    equations_text,
    tripod_basis,
    tripod_characters,
    verify_cluster,
)
from ahilb.errors import InvariantError
from ahilb.fan import build_fan
from ahilb.lattice import dot
from ahilb.monomials import dual_basis, triangle_ratios
from ahilb.resolution import Resolution
from test_tiling import cyclic_groups


def pipeline(text):
    ctx = lattice_context(parse_group_spec(text))
    part = Resolution(ctx).partition
    fan = build_fan(ctx, part)
    parents = {t: triangle_ratios(ctx, tri) for t, tri in enumerate(part.triangles)}
    return ctx, part, fan, parents


def systems_of(text):
    ctx, part, fan, parents = pipeline(text)
    out = []
    for cell in fan.cones:
        db = dual_basis(ctx, parents[cell.parent], cell)
        out.append(cluster_system(ctx, db))
    return ctx, fan, out


def test_cluster_system_zrzr_up_pattern():
    # x^(r-i) = xi y^i z^i and friends, straight from the tesselation.
    for r in (2, 3):
        ctx, part, fan, parents = pipeline(f"1/{r}(1,{r-1},0)+1/{r}(0,1,{r-1})")
        for cell in fan.cones:
            db = dual_basis(ctx, parents[0], cell)
            sys = cluster_system(ctx, db)
            mins = tuple(min(v[t] for v in cell.vertices) for t in range(3))
            if cell.kind == "up":
                i, j, k = mins
                assert (sys.l + 1, sys.b, sys.f) == (r - i, i, i)
                assert (sys.m + 1, sys.c, sys.d) == (r - j, j, j)
                assert (sys.n + 1, sys.a, sys.e) == (r - k, k, k)
            else:
                i, j, k = (v + 1 for v in mins)
                assert (sys.l, sys.b + 1, sys.f + 1) == (r - i, i, i)
                assert (sys.m, sys.c + 1, sys.d + 1) == (r - j, j, j)
                assert (sys.n, sys.a + 1, sys.e + 1) == (r - k, k, k)


def test_cluster_corner_triangle_redundant_system():
    # A side-1 corner triangle gives the redundant x^(a+1) = xi y^b shape:
    # one variable appears with exponent one.
    ctx, part, fan, parents = pipeline("1/11(1,2,8)")
    corner_cells = [
        c for c in fan.cones
        if ctx.corner(3) in c.vertices
    ]
    assert corner_cells
    cell = corner_cells[0]
    db = dual_basis(ctx, parents[cell.parent], cell)
    sys = cluster_system(ctx, db)
    assert sys.mode == "up"
    assert 0 in (sys.l, sys.m, sys.n)  # one pure power is linear


def test_verify_cluster_passes_everywhere():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
                 "1/13(1,5,7)", "1/2(0,1,1)"):
        ctx, fan, systems = systems_of(text)
        for sys in systems:
            assert verify_cluster(ctx, sys)


def test_verify_cluster_detects_perturbed_exponent():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    sys = systems[0]
    bad = ClusterSystem(sys.mode, sys.a, sys.b + 1, sys.c, sys.d, sys.e,
                        sys.f, sys.l, sys.m, sys.n)
    with pytest.raises(InvariantError):
        verify_cluster(ctx, bad)


def test_verify_cluster_detects_mode_mismatch():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    sys = next(s for s in systems if s.mode == "up")
    flipped = ClusterSystem("down", *sys.exponents())
    with pytest.raises(InvariantError):
        verify_cluster(ctx, flipped)


def test_tripod_trivial_group():
    ctx, fan, systems = systems_of("1/1(0,0,0)")
    assert tripod_basis(ctx, systems[0]) == [(0, 0, 0)]


def test_tripod_z2z2_up_cell():
    ctx, part, fan, parents = pipeline("1/2(1,1,0)+1/2(0,1,1)")
    cell = next(
        c for c in fan.cones
        if c.kind == "up" and min(v[0] for v in c.vertices) == 1
    )
    db = dual_basis(ctx, parents[0], cell)
    sys = cluster_system(ctx, db)
    basis = tripod_basis(ctx, sys)
    assert basis == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    chars = {tuple((g[0] * p + g[1] * q + g[2] * s) % 2 for g in ctx.generators)
             for p, q, s in basis}
    assert len(chars) == 4


def test_tripod_sizes_and_characters_11():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    for sys in systems:
        basis = tripod_basis(ctx, sys)
        assert len(basis) == 11
        chars = {
            tuple((p * g[0] + q * g[1] + s * g[2]) % 11 for g in ctx.generators)
            for p, q, s in basis
        }
        assert len(chars) == 11


def oracle_tripod(ctx, sys):
    """The staircase built row by row, sorted, and the sorted characters of
    its monomials, each a tuple of dot products with the generators read
    as the mixed-radix integer r_0 + n*r_1 + n^2*r_2 + ..."""
    a, b, c, d, e, f = sys.a, sys.b, sys.c, sys.d, sys.e, sys.f
    l, m, n = sys.l, sys.m, sys.n
    out = [(p, 0, 0) for p in range(l + 1)]
    out += [(0, q, 0) for q in range(1, m + 1)]
    out += [(0, 0, s) for s in range(1, n + 1)]
    for p in range(1, l + 1):
        q_max = m if p <= a else min(m, e)
        out += [(p, q, 0) for q in range(1, q_max + 1)]
    for q in range(1, m + 1):
        s_max = n if q <= b else min(n, f)
        out += [(0, q, s) for s in range(1, s_max + 1)]
    for s in range(1, n + 1):
        p_max = l if s <= c else min(l, d)
        out += [(p, 0, s) for p in range(1, p_max + 1)]
    chars = [tuple(dot(mono, g) % ctx.n for g in ctx.generators)
             for mono in out]
    keys = [sum(r * ctx.n ** j for j, r in enumerate(char)) for char in chars]
    return sorted(out), sorted(keys)


# Two products and one with a redundant third generator (the sum of the
# first two), so the characters have two and three mixed-radix digits.
PRODUCTS = ["1/2(1,1,0)+1/2(0,1,1)", "1/4(1,3,0)+1/4(0,1,3)",
            "1/2(1,1,0)+1/2(0,1,1)+1/2(1,0,1)"]


def check_tripods_against_oracle(specs):
    for spec in specs:
        ctx = lattice_context(parse_group_spec(spec))
        for sys in Resolution(ctx).systems:
            monomials, keys = oracle_tripod(ctx, sys)
            assert tripod_basis(ctx, sys) == monomials, spec
            assert sorted(tripod_characters(ctx, sys)) == keys, spec


def test_tripod_characters_match_oracle_up_to_16():
    check_tripods_against_oracle(cyclic_groups(16) + PRODUCTS)


@pytest.mark.deep
def test_tripod_characters_match_oracle_up_to_24():
    check_tripods_against_oracle(cyclic_groups(24) + PRODUCTS)


def test_tripod_with_extra_monomial_raises():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    # The chart with x^11 = xi: its tripod is 1, x, ..., x^10.
    sys = next(s for s in systems if (s.l, s.m, s.n) == (10, 0, 0))
    assert len(tripod_characters(ctx, sys)) == 11
    with pytest.raises(InvariantError,
                       match="^tripod has 12 monomials for a group of order 11$"):
        tripod_characters(ctx, replace(sys, l=sys.l + 1))


def test_tripod_with_colliding_characters_raises():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    sys = next(s for s in systems if (s.l, s.m, s.n) == (10, 0, 0))
    # 1/11(0,1,10) acts trivially on x, so its 11 monomials 1, x, ...,
    # x^10 all have the trivial character.
    other = lattice_context(parse_group_spec("1/11(0,1,10)"))
    with pytest.raises(InvariantError,
                       match="^tripod characters do not fill the dual group$"):
        tripod_characters(other, sys)


def test_classification_paper_sign_rule():
    # Up exponents with b >= f, d >= c, e >= a classify as case a with
    # A = d-c, B = b-f, C = e-a, i = f, j = c, k = a.
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    for sys in systems:
        if sys.mode != "up":
            continue
        a, b, c, d, e, f = (sys.a, sys.b, sys.c, sys.d, sys.e, sys.f)
        if b >= f and d >= c and e >= a:
            cls = classify_cluster(ctx, sys.exponents(), fan)
            if cls.perm == (0, 1, 2) and cls.case == "a":
                assert (cls.A, cls.B, cls.C) == (d - c, b - f, e - a)
                assert (cls.i, cls.j, cls.k) == (f, c, a)


def test_classification_round_trips_to_host():
    for text in ("1/11(1,2,8)", "1/30(25,2,3)", "1/2(1,1,0)+1/2(0,1,1)"):
        ctx, part, fan, parents = pipeline(text)
        for cell in fan.cones:
            db = dual_basis(ctx, parents[cell.parent], cell)
            sys = cluster_system(ctx, db)
            cls = classify_cluster(ctx, sys.exponents(), fan)
            assert cls.host.key() == cell.key()
            assert cls.mode == cell.kind
            assert cls.r == part.triangles[cell.parent].r
            # Rebuilding the system from the host gives back the exponents.
            db2 = dual_basis(ctx, parents[cls.host.parent], cls.host)
            assert cluster_system(ctx, db2).exponents() == sys.exponents()


def test_classification_substitution_consistency():
    # The (A,B,C,i,j,k) of a classification reproduce the permuted
    # exponents through the substitution tables.
    ctx, fan, systems = systems_of("1/101(1,7,93)")
    for sys in systems:
        cls = classify_cluster(ctx, sys.exponents())
        A, B, C, i, j, k = cls.A, cls.B, cls.C, cls.i, cls.j, cls.k
        shift = 0 if cls.mode == "up" else 1
        if cls.case == "a":
            expect = (k - shift, B + i - shift, j - shift,
                      A + j - shift, C + k - shift, i - shift)
        else:
            expect = (A + k - shift, B + i - shift, C + j - shift,
                      j - shift, k - shift, i - shift)
        from ahilb.clusters import _up_exponents_from_vectors
        from ahilb.lattice import permute as _permute, vsub

        base = sys.dual_vectors()
        vecs = tuple(_permute(cls.perm, base[cls.perm[t]]) for t in range(3))
        if cls.mode == "down":  # (xi, eta, zeta) = (1,1,1) - (lam, mu, nu)
            vecs = tuple(vsub((1, 1, 1), v) for v in vecs)
        assert _up_exponents_from_vectors(vecs)[:6] == expect


def test_classification_rejects_bad_counts():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    sys = systems[0]
    bad = list(sys.exponents())
    bad[6] += 1  # l now satisfies neither count relation
    if (bad[6], bad[7], bad[8]) == (bad[0] + bad[3] + 1, bad[1] + bad[4] + 1,
                                    bad[2] + bad[5] + 1):
        bad[7] += 1
    with pytest.raises(InvariantError):
        classify_cluster(ctx, tuple(bad))


def test_mode_exclusivity():
    # l = a+d and l = a+d+1 cannot hold at once; detection is total on
    # all generated systems.
    ctx, fan, systems = systems_of("1/30(25,2,3)")
    for sys in systems:
        up = (sys.l, sys.m, sys.n) == (sys.a + sys.d, sys.b + sys.e,
                                       sys.c + sys.f)
        down = (sys.l, sys.m, sys.n) == (sys.a + sys.d + 1, sys.b + sys.e + 1,
                                         sys.c + sys.f + 1)
        assert up != down


def test_equations_text_shape():
    ctx, fan, systems = systems_of("1/2(1,1,0)+1/2(0,1,1)")
    sys = next(s for s in systems if s.mode == "up")
    lines = equations_text(sys)
    assert len(lines) == 8
    assert lines[6].startswith("xyz = pi")
    assert "xi" in lines[0]
