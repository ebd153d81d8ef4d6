import tracemalloc
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter

import pytest

from ahilb import (
    GroupSpecError,
    InvariantError,
    junior_points,
    lattice_context,
    pair_index,
    parse_group_spec,
    primitive_vector,
)
from ahilb import lattice
from ahilb.cli import main
from ahilb.lattice import (
    chart,
    cross2,
    cross3,
    det3,
    dot,
    group_elements,
    multiple,
    scaled_dual,
    sign_fixed,
    smith_columns,
    smul,
    vadd,
    vneg,
    vsub,
)
from ahilb.resolution import Resolution
from test_cli import SWEEP
from test_tiling import cyclic_groups

# Z/210 written with four generators.
Z210 = "1/2(1,1,0)+1/3(1,1,1)+1/5(1,2,2)+1/7(1,2,4)"
# Groups whose order N exceeds their exponent n, so N/n^2 is not 1/n.
NONCYCLIC = ["1/2(1,1,0)+1/2(0,1,1)", "1/4(1,3,0)+1/4(0,1,3)",
             "1/6(1,2,3)+1/2(1,1,0)", "1/8(1,0,7)+1/8(0,1,7)"]
PRODUCTS = NONCYCLIC + ["1/12(6,6,0)+1/4(1,1,2)", Z210]


def ctx_of(text, **kw):
    return lattice_context(parse_group_spec(text), **kw)


def written_generators(ctx):
    """The written generators of ctx's group, scaled to its exponent n."""
    return tuple(tuple(ctx.n * w // g.order for w in g.weights)
                 for g in ctx.spec.generators)


def is_invariant_monomial(ctx, m):
    """Does the Laurent exponent m pair integrally with every group
    element?"""
    return ctx.character(m) == (0, 0)


def segment_points(ctx, a, b):
    """The lattice points from a to b (a != b) in order, both ends
    included, walked by the primitive step of b - a."""
    v = vsub(b, a)
    step = primitive_vector(ctx, v)
    return [vadd(a, smul(k, step)) for k in range(multiple(v, step) + 1)]


def test_parse_single_generator():
    spec = parse_group_spec("1/11(1,2,8)")
    assert len(spec.generators) == 1
    assert spec.generators[0].order == 11
    assert spec.generators[0].weights == (1, 2, 8)


def test_parse_two_generators_order_four():
    ctx = ctx_of("1/2(1,1,0)+1/2(0,1,1)")
    assert ctx.order == 4
    assert ctx.n == 2
    # Closure oracle: the elements are closed under addition mod n.
    table = set(group_elements(ctx))
    assert len(table) == 4
    for g in table:
        for h in table:
            assert tuple((a + b) % 2 for a, b in zip(g, h)) in table


def test_over_cap_group_fails_before_the_element_search():
    # The generator order 10**12 alone exceeds the cap; enumerating even
    # the cap's 10**6 elements would take some 200 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(GroupSpecError, match="exceeds the cap"):
            ctx_of("1/1000000000000(1,1,999999999998)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# n = 2000 is under the cap, the order 4*10**6 is over it.
OVER_CAP_PRODUCT = "1/2000(1,0,1999)+1/2000(0,1,1999)"


def test_over_cap_order_fails_before_any_enumeration():
    tracemalloc.start()
    try:
        with pytest.raises(GroupSpecError, match="exceeds the cap"):
            ctx_of(OVER_CAP_PRODUCT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_report_refuses_an_over_cap_order(capsys):
    assert main(["report", OVER_CAP_PRODUCT]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "exceeds the cap" in captured.err


def test_parse_rejects_sl_violation():
    with pytest.raises(GroupSpecError) as err:
        parse_group_spec("1/4(1,2,2)")
    assert "1/4(1,2,2)" in str(err.value)


def test_parse_rejects_garbage():
    for bad in ("", "1/5", "1/5(1,2)", "2/5(1,2,2)", "1/5(1,2,2)x",
                "1/\uff15(1,1,3)", "1/\u0665(1,1,3)", "1/5(\uff11,1,3)",
                "1/3(1,1,1)++1/3(1,1,1)", "1/3(1,1,1)+", "+1/3(1,1,1)"):
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)


def test_parse_accepts_signed_weights():
    # A "+" inside a term is a sign, not a term separator.
    for text in ("1/7(+1,2,4)", "1/7(+1,+2,4)"):
        assert parse_group_spec(text) == parse_group_spec("1/7(1,2,4)")
    assert parse_group_spec("1/7(+1,2,4)+1/2(1,+1,0)") == parse_group_spec(
        "1/7(1,2,4)+1/2(1,1,0)"
    )


def test_parse_reduces_negative_weights():
    spec = parse_group_spec("1/7(-1, 2, 6)")
    assert spec.generators[0].weights == (6, 2, 6)


def test_parse_canonical_text_fixpoint():
    for text in ("1/11(1,2,8)", "1/2(1,1,0) + 1/2(0,1,1)", "1/7(-1,2,6)"):
        spec = parse_group_spec(text)
        again = parse_group_spec(spec.canonical_text)
        assert again.canonical_text == spec.canonical_text
        assert again.generators == spec.generators


def test_context_cyclic_11():
    ctx = ctx_of("1/11(1,2,8)")
    assert ctx.n == 11
    assert ctx.order == 11


def test_context_exponent_reduction():
    # The written order 4 is not the true order of 1/4(0,2,2).
    ctx = ctx_of("1/4(0,2,2)")
    assert ctx.n == 2
    assert ctx.order == 2


def test_context_trivial_group():
    ctx = ctx_of("1/1(0,0,0)")
    assert ctx.n == 1
    assert ctx.order == 1
    assert list(group_elements(ctx)) == [(0, 0, 0)]


def searched_context(text):
    """(n, generators, element table, monomial basis), with the exponent n
    read off the element table: search at the lcm n0 of the written
    orders, take the lcm of the elements' orders, and rescale to it."""
    spec = parse_group_spec(text)
    n0 = lcm(*(g.order for g in spec.generators))
    gens = [smul(n0 // g.order, g.weights) for g in spec.generators]
    table = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((c + w) % n0 for c, w in zip(cur, g))
            if nxt not in table:
                table.add(nxt)
                frontier.append(nxt)
    n = 1
    for g in table:
        n = lcm(n, n0 // gcd(n0, *g))
    k = n0 // n
    table = {tuple(c // k for c in g) for g in table}
    gens = [tuple(c // k for c in g) for g in gens]
    diag, cols = smith_columns([(n, 0, 0), (0, n, 0), (0, 0, n)] + gens)
    mbasis = tuple(smul(n // d, col) for d, col in zip(diag, cols))
    return n, tuple(gens), frozenset(table), mbasis


def test_exponent_from_generators_matches_element_search():
    # The exponent of an abelian group is the lcm of its generators'
    # orders, and the Smith form of n*L enumerates its elements, each once.
    specs = [f"1/{r}({a},{b},{(-a - b) % r})"
             for r in range(1, 25) for a in range(r) for b in range(r)]
    specs += ["1/4(2,2,0)", "1/12(6,6,0)+1/4(1,1,2)",
              "1/3(1,1,1)+1/3(2,2,2)", Z210]
    for text in specs:
        ctx = ctx_of(text)
        elements = list(group_elements(ctx))
        assert len(elements) == ctx.order, text
        got = (ctx.n, written_generators(ctx), frozenset(elements),
               ctx.monomial_basis)
        assert got == searched_context(text), text


def test_context_order_cap():
    with pytest.raises(GroupSpecError):
        ctx_of("1/999983(1,1,999981)", max_order=10**5)


def test_monomial_basis_invariance_and_determinant():
    # Invariant rows of determinant N span exactly M, the dual of n*L.
    for text in cyclic_groups(16) + PRODUCTS:
        ctx = ctx_of(text)
        n = ctx.n
        assert abs(det3(ctx.monomial_basis)) == ctx.order, text
        for m in ctx.monomial_basis:
            for g in group_elements(ctx):
                assert dot(m, g) % n == 0, text
        # Conversely, a point of the junior plane that every row pairs
        # integrally with is a lattice point; x, y over residues mod n
        # reach every residue class of the plane.
        for x in range(n):
            for y in range(n):
                q = (x, y, n - x - y)
                paired = all(dot(m, q) % n == 0 for m in ctx.monomial_basis)
                assert paired == ctx.is_lattice_point(q), text


def check_smith_form(text):
    ctx = ctx_of(text)
    n = ctx.n
    rows = list(ctx.corners) + list(written_generators(ctx))
    diag, cols = smith_columns(rows)
    assert diag[2] == n and diag[1] % diag[0] == 0 and n % diag[1] == 0
    assert abs(det3(cols)) == 1
    for row in rows:
        assert all(dot(row, col) % d == 0 for d, col in zip(diag, cols))
    assert diag[0] * diag[1] * diag[2] * ctx.order == n**3


@pytest.mark.parametrize("text", [
    "1/1(0,0,0)",  # a zero row
    "1/3(1,1,1)+1/3(2,2,2)",  # a redundant generator
    "1/4(2,2,0)",  # exponent 2 below the written order
    Z210,
])
def test_smith_columns_on_context_rows(text):
    check_smith_form(text)


def test_smith_columns_on_cyclic_context_rows():
    for text in cyclic_groups(16):
        check_smith_form(text)


def test_smith_columns_rejects_dependent_rows():
    with pytest.raises(InvariantError, match="lost rank"):
        smith_columns([(1, 2, 3), (2, 4, 6), (0, 1, 1)])


def cofactor_dual(rows, n):
    """``scaled_dual`` by a generic route: one ``det3`` and, row by row,
    the cross product of the other two rows, tested and divided entry by
    entry."""
    d = det3(rows)
    if d == 0:
        raise InvariantError("singular matrix")
    out = []
    for s in range(3):
        cof = cross3(rows[(s + 1) % 3], rows[(s + 2) % 3])
        if any(n * c % d for c in cof):
            raise InvariantError(f"scaled dual of {tuple(rows)} is fractional")
        out.append(tuple(n * c // d for c in cof))
    return out


@pytest.mark.parametrize("rows, n, message", [
    # Dependent rows, of rank 2 and of rank 1.
    (((1, 2, 3), (2, 4, 6), (0, 1, 1)), 5, "singular matrix"),
    ([(3, 0, 0), (1, 0, 0), (0, 0, 0)], 1, "singular matrix"),
    # det 2: only the last row's cofactor (0, 0, 1) is odd.
    (((1, 0, 0), (0, 1, 0), (0, 0, 2)), 1,
     "scaled dual of ((1, 0, 0), (0, 1, 0), (0, 0, 2)) is fractional"),
    # det 2 again, now with the first row's cofactor (1, 0, 0) odd, and
    # given as a list.
    ([(2, 0, 0), (0, 1, 0), (0, 0, 1)], 1,
     "scaled dual of ((2, 0, 0), (0, 1, 0), (0, 0, 1)) is fractional"),
])
def test_scaled_dual_raises_on_singular_and_fractional_rows(rows, n, message):
    for solve in (scaled_dual, cofactor_dual):
        with pytest.raises(InvariantError) as err:
            solve(rows, n)
        assert str(err.value) == message, solve


def test_scaled_dual_matches_the_cofactor_dual_on_every_context(monkeypatch):
    # The one solve in lattice_context, seen on the columns it is given.
    solved = []

    def checked(rows, n):
        dual = scaled_dual(rows, n)
        assert dual == cofactor_dual(rows, n), rows
        solved.append(rows)
        return dual

    monkeypatch.setattr(lattice, "scaled_dual", checked)
    for text in SWEEP + PRODUCTS:
        ctx = ctx_of(text)
        assert len(solved) == 1, text
        w0, w1, w2 = scaled_dual(solved.pop(), 1)
        assert (w0, w1) == ctx.character_rows, text
        assert det3((w0, w1, w2)) in (1, -1), text


def test_scaled_dual_of_a_translate_shifts_by_the_invariant():
    # The translation lemma behind the chart templates: a cell of a
    # (triangle, kind) with more than three cells is its kind's corner
    # cell (lo, lo, lo + d) moved by T with (1,1,1).T = 0, and its solved
    # rows are the corner's rows D_s less (D_s.T/n)(1,1,1).
    checked = 0
    for text in SWEEP + ["1/4(1,0,3)+1/4(0,1,3)"]:
        ctx = ctx_of(text)
        for _, group in groupby(Resolution(ctx).fan.cones,
                                key=itemgetter(0, 1)):
            cells = list(group)
            if len(cells) <= 3:
                continue
            lo = int(cells[0].kind == "down")
            (corner,) = [c for c in cells if c.steps[:2] == (lo, lo)]
            rows = scaled_dual(corner.vertices, ctx.n)
            for cell in cells:
                (T,) = {vsub(v, w)
                        for v, w in zip(cell.vertices, corner.vertices)}
                assert sum(T) == 0, text
                shifts = [divmod(dot(row, T), ctx.n) for row in rows]
                assert all(rest == 0 for _, rest in shifts), text
                assert scaled_dual(cell.vertices, ctx.n) == [
                    vsub(row, (q, q, q)) for row, (q, _) in zip(rows, shifts)
                ], (text, cell.steps)
                checked += 1
    assert checked == 1749 + 16


def check_character_map(text):
    """ctx.character(v) is trivial exactly when v pairs integrally with
    every written generator, and it maps onto Z/n x Z/(N/n).  Both sides
    are constant on classes mod n*Z^3 + Z*(1,1,1), so the vectors
    (x, y, z) with x in {0, 1} and 0 <= y, z < n cover every class and
    the step by (1, 1, 1)."""
    ctx = ctx_of(text)
    n, gens = ctx.n, written_generators(ctx)
    seen = set()
    for x in (0, 1):
        for y in range(n):
            for z in range(n):
                v = (x, y, z)
                chi = ctx.character(v)
                paired = all(dot(v, g) % n == 0 for g in gens)
                assert (chi == (0, 0)) == paired, (text, v)
                assert is_invariant_monomial(ctx, v) == paired, (text, v)
                seen.add(chi)
    assert seen == {(r0, r1) for r0 in range(n)
                    for r1 in range(ctx.order // n)}, text


def test_character_is_trivial_exactly_on_invariant_monomials():
    for text in cyclic_groups(24) + PRODUCTS:
        check_character_map(text)


def patch_smith_columns(monkeypatch, change):
    """Make lattice_context see change(diag, cols) for its Smith form."""
    real = lattice.smith_columns
    monkeypatch.setattr(lattice, "smith_columns",
                        lambda rows: change(*real(rows)))


def test_context_raises_on_a_wrong_invariant_shape(monkeypatch):
    # 1/11(1,2,8) has invariants (1, 11, 11); swapping the first two
    # keeps the order and breaks the shape.
    patch_smith_columns(monkeypatch,
                        lambda diag, cols: ((diag[1], diag[0], diag[2]), cols))
    with pytest.raises(InvariantError,
                       match=r"^character group is not Z/11 x Z/1$"):
        ctx_of("1/11(1,2,8)")


def test_context_raises_on_non_unimodular_columns(monkeypatch):
    patch_smith_columns(monkeypatch, lambda diag, cols: (
        diag, (smul(2, cols[0]), cols[1], cols[2])))
    with pytest.raises(InvariantError,
                       match="^monomial basis determinant is not the order$"):
        ctx_of("1/11(1,2,8)")


def test_context_raises_on_a_non_invariant_row(monkeypatch):
    # Unimodular columns of the right invariants, but not the group's:
    # the row (0, 1, 0) pairs to 2 with the generator (1, 2, 8).
    patch_smith_columns(monkeypatch, lambda diag, cols: (
        diag, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    with pytest.raises(InvariantError,
                       match="^monomial basis row is not invariant$"):
        ctx_of("1/11(1,2,8)")


def kind(q):
    """A junior point's place in the simplex, read off its zero
    coordinates."""
    return ("interior", "edge", "vertex")[q.count(0)]


def test_junior_points_11():
    ctx = ctx_of("1/11(1,2,8)")
    # Oracle: enumerate k*(1,2,8) mod 11 and keep coordinate sums equal to 11.
    expected = set()
    for k in range(1, 11):
        g = tuple((k * a) % 11 for a in (1, 2, 8))
        if sum(g) == 11:
            expected.add(g)
    assert expected == {(1, 2, 8), (2, 4, 5), (3, 6, 2), (6, 1, 4), (7, 3, 1)}
    pts = junior_points(ctx)
    assert pts == sorted(expected | {(11, 0, 0), (0, 11, 0), (0, 0, 11)})
    kinds = [kind(q) for q in pts]
    assert kinds.count("vertex") == 3
    assert kinds.count("edge") == 0
    assert kinds.count("interior") == 5


def test_junior_points_z2z2():
    ctx = ctx_of("1/2(1,1,0)+1/2(0,1,1)")
    kinds = [kind(q) for q in junior_points(ctx)]
    assert kinds.count("vertex") == 3
    assert kinds.count("edge") == 3
    assert kinds.count("interior") == 0


def test_junior_points_z3():
    ctx = ctx_of("1/3(1,1,1)")
    pts = junior_points(ctx)
    assert [q for q in pts if kind(q) == "interior"] == [(1, 1, 1)]
    assert [q for q in pts if kind(q) == "edge"] == []


@pytest.mark.parametrize(
    "text",
    ["1/11(1,2,8)", "1/2(1,1,0)+1/2(0,1,1)", "1/3(1,1,1)", "1/15(1,2,12)",
     "1/30(25,2,3)", "1/1(0,0,0)", "1/2(0,1,1)"],
)
def test_euler_count_relation(text):
    # 2*interior + edge + 1 = order, the area count of the simplex.
    ctx = ctx_of(text)
    kinds = [kind(q) for q in junior_points(ctx)]
    assert 2 * kinds.count("interior") + kinds.count("edge") + 1 == ctx.order


def test_primitive_vector_coprime_side():
    ctx = ctx_of("1/11(1,2,8)")
    v = vsub(ctx.corner(2), ctx.corner(1))
    assert primitive_vector(ctx, v) == v


def test_primitive_vector_halves_side_with_midpoint():
    ctx = ctx_of("1/2(1,1,0)+1/2(0,1,1)")
    v = vsub(ctx.corner(2), ctx.corner(1))  # (-2, 2, 0)
    assert primitive_vector(ctx, v) == (-1, 1, 0)


def divisor_search(ctx, v):
    """v over the largest divisor k of gcd(v) with v/k a translation."""
    g = gcd(*v)
    for k in sorted((d for d in range(1, g + 1) if g % d == 0), reverse=True):
        cand = (v[0] // k, v[1] // k, v[2] // k)
        if ctx.is_translation(cand):
            return cand
    raise AssertionError("k = 1 always divides")


def check_primitive_against_divisor_search(specs):
    for text in specs:
        ctx = ctx_of(text)
        pts = junior_points(ctx)
        for a in pts:
            for b in pts:
                if a != b:
                    v = vsub(b, a)
                    assert primitive_vector(ctx, v) == divisor_search(ctx, v)


def test_primitive_vector_matches_divisor_search():
    check_primitive_against_divisor_search(cyclic_groups(12) + PRODUCTS)


@pytest.mark.deep
def test_primitive_vector_matches_divisor_search_up_to_24():
    check_primitive_against_divisor_search(cyclic_groups(24) + PRODUCTS)


def test_non_translations_raise():
    ctx = ctx_of("1/11(1,2,8)")
    good = (1, 2, -3)
    # (1,-1,0) is not a residue of the group; (11,0,0) is, but moves off
    # the junior plane.
    for bad in ((1, -1, 0), (11, 0, 0)):
        with pytest.raises(InvariantError, match="not a translation"):
            primitive_vector(ctx, bad)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(InvariantError,
                               match="not in the translation lattice"):
                pair_index(ctx, *pair)


def test_primitive_vector_idempotent():
    ctx = ctx_of("1/11(1,2,8)")
    v = (1, 2, -3)
    p = primitive_vector(ctx, v)
    assert primitive_vector(ctx, p) == p


def test_lattice_length():
    ctx = ctx_of("1/2(1,1,0)+1/2(0,1,1)")
    assert primitive_vector(ctx, (-2, 2, 0)) == (-1, 1, 0)
    assert primitive_vector(ctx, (-1, 1, 0)) == (-1, 1, 0)
    for text, a, b, length in (
        ("1/2(1,1,0)+1/2(0,1,1)", (0, 2, 0), (2, 0, 0), 2),
        ("1/5(1,4,0)", (5, 0, 0), (0, 5, 0), 5),
        ("1/7(1,2,4)", (4, 1, 2), (0, 7, 0), 2),
    ):
        ctx = ctx_of(text)
        v = vsub(b, a)
        pts = segment_points(ctx, a, b)
        assert pts[0] == a and pts[-1] == b
        step = primitive_vector(ctx, v)
        assert len(pts) == multiple(v, step) + 1 == length + 1
        assert all(vadd(p, step) == q for p, q in zip(pts, pts[1:]))
    for v in ((0, 2, -2), (0, -2, 2), (-1, 3, -2), (1, 0, -1)):
        w = sign_fixed(v)
        assert w in (v, vneg(v))
        assert next(c for c in w if c) > 0


def _index_oracle(ctx, v, w):
    """Count lattice translations in the half-open parallelogram of v, w."""
    cv, cw = chart(v), chart(w)
    d = cross2(cv, cw)
    if d == 0:
        return 0
    count = 0
    lo1 = min(0, cv[0], cw[0], cv[0] + cw[0])
    hi1 = max(0, cv[0], cw[0], cv[0] + cw[0])
    lo2 = min(0, cv[1], cw[1], cv[1] + cw[1])
    hi2 = max(0, cv[1], cw[1], cv[1] + cw[1])
    for x in range(lo1, hi1 + 1):
        for y in range(lo2, hi2 + 1):
            u = (-(x + y), x, y)
            if not ctx.is_translation(u):
                continue
            # u = s v + t w with 0 <= s, t < 1, solved exactly.
            s_num = cross2((x, y), cw)
            t_num = cross2(cv, (x, y))
            if d < 0:
                s_num, t_num, dd = -s_num, -t_num, -d
            else:
                dd = d
            if 0 <= s_num < dd and 0 <= t_num < dd:
                count += 1
    return count


def test_pair_index_basis_pair():
    # Two edges of a unimodular fan cone form a basis.
    ctx = ctx_of("1/11(1,2,8)")
    for cone in Resolution(ctx).fan.cones:
        a, b, c = cone.vertices
        assert pair_index(ctx, vsub(b, a), vsub(c, a)) == 1


def test_pair_index_parallel():
    ctx = ctx_of("1/11(1,2,8)")
    v = (1, 2, -3)
    assert pair_index(ctx, v, smul(2, v)) == 0


def test_pair_index_corner_sides_equals_order():
    ctx = ctx_of("1/11(1,2,8)")
    v = vsub(ctx.corner(3), ctx.corner(1))
    w = vsub(ctx.corner(2), ctx.corner(1))
    idx = pair_index(ctx, v, w)
    assert idx == 11
    assert idx == _index_oracle(ctx, v, w)


def test_pair_index_matches_oracle_more_groups():
    for text in ("1/2(1,1,0)+1/2(0,1,1)", "1/15(1,2,12)", "1/7(1,2,4)"):
        ctx = ctx_of(text)
        v = vsub(ctx.corner(3), ctx.corner(1))
        w = vsub(ctx.corner(2), ctx.corner(1))
        assert pair_index(ctx, v, w) == _index_oracle(ctx, v, w)


def check_pair_index_on_triangle_sides(specs):
    """pair_index against the parallelogram count on the side directions of
    every partition triangle, whole sides and primitive steps."""
    for text in specs:
        ctx = ctx_of(text)
        for tri in Resolution(ctx).partition.triangles:
            a, b, c = tri.vertices
            sides = [vsub(b, a), vsub(c, b), vsub(a, c)]
            sides += [tri.step(0, 1), tri.step(1, 2), tri.step(2, 0)]
            for v in sides:
                for w in sides:
                    assert pair_index(ctx, v, w) == _index_oracle(ctx, v, w)


def test_pair_index_matches_oracle_on_triangle_sides():
    check_pair_index_on_triangle_sides(cyclic_groups(12))


def test_pair_index_matches_oracle_where_order_exceeds_exponent():
    check_pair_index_on_triangle_sides(NONCYCLIC)
    for text in NONCYCLIC:
        ctx = ctx_of(text)
        assert ctx.order > ctx.n
        for cone in Resolution(ctx).fan.cones:
            a, b, c = cone.vertices
            for v, w in ((vsub(b, a), vsub(c, a)), (vsub(c, b), vsub(a, b))):
                assert pair_index(ctx, v, w) == _index_oracle(ctx, v, w) == 1
        v = vsub(ctx.corner(3), ctx.corner(1))
        w = vsub(ctx.corner(2), ctx.corner(1))
        assert pair_index(ctx, v, w) == _index_oracle(ctx, v, w) == ctx.order
