
import random
import re
from fractions import Fraction
from functools import cache
from itertools import product

import pytest

import ahilb.verify
from ahilb import lattice_context, parse_group_spec
from ahilb.cli import main
from ahilb.clusters import (
    _PERMUTED,
    ClusterSystem,
    _laurent_vectors,
    _rectangles,
    _tripod_size,
    _up_exponents_from_vectors,
    check_tripod,
    classify_cluster,
    cluster_system,
    equations_text,
    tripod_basis,
    verify_cluster,
)
from ahilb.errors import InvariantError
from ahilb.fan import build_fan
from ahilb.lattice import (
    PERMS,
    LatticeContext,
    det3,
    dot,
    permute,
    scaled_dual,
    vadd,
    vsub,
)
from ahilb.monomials import dual_basis, sign_roles, triangle_ratios
from ahilb.resolution import Resolution
from test_cli import SWEEP
from test_lattice import is_invariant_monomial, written_generators
from test_tiling import cyclic_groups


def pipeline(text):
    ctx = lattice_context(parse_group_spec(text))
    part = Resolution(ctx).partition
    fan = build_fan(part)
    parents = {t: triangle_ratios(ctx, tri) for t, tri in enumerate(part.triangles)}
    return ctx, part, fan, parents


def systems_of(text):
    ctx, part, fan, parents = pipeline(text)
    out = []
    for cell in fan.cones:
        rows = dual_basis(ctx, parents[cell.parent], cell)
        out.append(cluster_system(ctx, cell.kind, rows))
    return ctx, fan, out


def test_cluster_system_zrzr_up_pattern():
    # x^(r-i) = xi y^i z^i and friends, straight from the tesselation.
    for r in (2, 3):
        ctx, part, fan, parents = pipeline(f"1/{r}(1,{r-1},0)+1/{r}(0,1,{r-1})")
        for cell in fan.cones:
            rows = dual_basis(ctx, parents[0], cell)
            sys = cluster_system(ctx, cell.kind, rows)
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


def dual_bases(res):
    """Per fan cone, its kind and the rows ``dual_basis`` returns."""
    return [(cell.kind, dual_basis(res.ctx, res.ratios[cell.parent], cell))
            for cell in res.fan.cones]


def test_one_cone_system_is_the_kept_one_on_the_sweep():
    for spec in SWEEP:
        res = Resolution(lattice_context(parse_group_spec(spec)))
        systems = res.systems
        assert [res.system(idx) for idx in range(len(systems))] == systems, (
            spec)


def test_cluster_system_reads_the_sign_of_the_cell_kind():
    # Every dual basis has its kind's sign pattern and lacks the other's.
    res = Resolution(lattice_context(parse_group_spec("1/11(1,2,8)")))
    duals = dual_bases(res)
    assert {kind for kind, _ in duals} == {"up", "down"}
    for kind, rows in duals:
        other = "down" if kind == "up" else "up"
        message = f"^dual monomials lack the {other} sign pattern$"
        with pytest.raises(InvariantError, match=message):
            cluster_system(res.ctx, other, rows)


def role_vector_system(ctx, kind, rows):
    """``cluster_system`` by a generic route: the role-ordered monomials
    gathered by a generator and, on a down cell, subtracted from
    (1, 1, 1) by ``vsub``.  Raises as cluster_system does."""
    at = sign_roles(rows, 1 if kind == "up" else -1)
    if at is None:
        raise InvariantError(f"dual monomials lack the {kind} sign pattern")
    roles = tuple(rows[t] for t in at)
    if kind == "down":
        roles = tuple(vsub((1, 1, 1), v) for v in roles)
    exps = _up_exponents_from_vectors(roles)
    if min(exps) < 0:
        raise InvariantError("cluster exponents must be nonnegative")
    sys = ClusterSystem(kind, *exps)
    verify_cluster(ctx, sys)
    return sys


def test_cluster_system_matches_the_role_vector_route():
    # The same system or the same message on every dual basis, on it with
    # the other kind, and on it with one row moved by a translation.
    verdicts = set()
    for spec in cyclic_groups(16) + PRODUCTS:
        res = Resolution(lattice_context(parse_group_spec(spec)))
        for kind, rows in dual_bases(res):
            other = "down" if kind == "up" else "up"
            cases = [(kind, rows), (other, rows)]
            for t in range(3):
                for step in ((1, -1, 0), (0, 1, -1), (-1, 0, 1)):
                    moved = list(rows)
                    moved[t] = vadd(rows[t], step)
                    cases.append((kind, tuple(moved)))
            for case in cases:
                want = verdict(role_vector_system, res.ctx, *case)
                assert verdict(cluster_system, res.ctx, *case) == want, (
                    spec, case)
                verdicts.add(want and " ".join(want.split()[:2]))
            assert cluster_system(res.ctx, kind, rows) == role_vector_system(
                res.ctx, kind, rows), spec
    assert verdicts == {None, "dual monomials", "cluster exponents",
                        "up count", "down count"}


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
    rows = dual_basis(ctx, parents[cell.parent], cell)
    sys = cluster_system(ctx, cell.kind, rows)
    assert sys.mode == "up"
    assert 0 in (sys.l, sys.m, sys.n)  # one pure power is linear


def test_verify_cluster_passes_everywhere():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
                 "1/13(1,5,7)", "1/2(0,1,1)"):
        ctx, fan, systems = systems_of(text)
        for sys in systems:
            verify_cluster(ctx, sys)


def test_verify_cluster_detects_perturbed_exponent():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    sys = systems[0]
    bad = ClusterSystem(sys.mode, sys.a, sys.b + 1, sys.c, sys.d, sys.e,
                        sys.f, sys.l, sys.m, sys.n)
    with pytest.raises(InvariantError):
        verify_cluster(ctx, bad)


def test_verify_cluster_rejects_a_count_preserving_mutant():
    # Moving one x from the y-wall's x^d to z^(n+1)'s x^a keeps
    # l = a + d, so only the characters see the change.
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    sys = systems[0]
    assert sys.exponents() == (8, 0, 0, 2, 0, 0, 10, 0, 0)
    bad = sys._replace(a=sys.a + 1, d=sys.d - 1)
    with pytest.raises(InvariantError, match=r"^equation for eta does not "
                       r"match characters: \(-1, 1, 0\)$"):
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
    rows = dual_basis(ctx, parents[0], cell)
    sys = cluster_system(ctx, cell.kind, rows)
    basis = tripod_basis(ctx, sys)
    assert basis == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    gens = written_generators(ctx)
    chars = {tuple((g[0] * p + g[1] * q + g[2] * s) % 2 for g in gens)
             for p, q, s in basis}
    assert len(chars) == 4


def test_tripod_sizes_and_characters_11():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    gens = written_generators(ctx)
    for sys in systems:
        basis = tripod_basis(ctx, sys)
        assert len(basis) == 11
        chars = {
            tuple((p * g[0] + q * g[1] + s * g[2]) % 11 for g in gens)
            for p, q, s in basis
        }
        assert len(chars) == 11


def character_key(ctx, mono):
    """The character of a monomial as its dot products with the
    generators mod n, read as the mixed-radix integer
    r_0 + n*r_1 + n^2*r_2 + ..."""
    return sum(dot(mono, g) % ctx.n * ctx.n ** j
               for j, g in enumerate(written_generators(ctx)))


def oracle_staircase(sys):
    """The tripod's monomials, built row by row."""
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
    return out


def oracle_tripod(ctx, sys):
    """The staircase sorted, and the sorted characters of its monomials."""
    out = oracle_staircase(sys)
    return sorted(out), sorted(character_key(ctx, mono) for mono in out)


def staircase(sys):
    """The tripod's monomials as nine boxes of exponents (p, q, s): the
    three axes, then two rectangles in each coordinate plane, split where
    the wall generator's exponent starts to bound the row."""
    a, b, c, d, e, f = sys.a, sys.b, sys.c, sys.d, sys.e, sys.f
    l, m, n = sys.l, sys.m, sys.n
    zero = range(1)
    return [
        (range(l + 1), zero, zero),
        (zero, range(1, m + 1), zero),
        (zero, zero, range(1, n + 1)),
        (range(1, min(a, l) + 1), range(1, m + 1), zero),
        (range(a + 1, l + 1), range(1, min(m, e) + 1), zero),
        (zero, range(1, min(b, m) + 1), range(1, n + 1)),
        (zero, range(b + 1, m + 1), range(1, min(n, f) + 1)),
        (range(1, l + 1), zero, range(1, min(c, n) + 1)),
        (range(1, min(l, d) + 1), zero, range(c + 1, n + 1)),
    ]


def residue_walk(ctx, sys):
    """The tripod check as a residue walk over the staircase boxes: per
    generator g, the residues (p*g[0] + q*g[1] + s*g[2]) % n of every
    monomial, read as one mixed-radix int per monomial.  Raises unless
    there are N monomials with distinct characters; returns the
    characters in staircase order."""
    n = ctx.n
    boxes = staircase(sys)
    keys = None
    for u, v, w in reversed(written_generators(ctx)):
        res = []
        for ps, qs, ss in boxes:
            res += [(p * u + q * v + s * w) % n
                    for p in ps for q in qs for s in ss]
        keys = res if keys is None else [
            r + n * k for r, k in zip(res, keys)]
    if len(keys) != ctx.order:
        raise InvariantError(
            f"tripod has {len(keys)} monomials for a group of order {ctx.order}"
        )
    if len(set(keys)) != ctx.order:
        raise InvariantError("tripod characters do not fill the dual group")
    return keys


class CharacterLayout:
    """The character group A^ = Z^3 / M of one group laid out on N bits.

    ``ctx.character`` gives x^p y^q z^s its Smith coordinates (r_0, r_1)
    in Z/n x Z/m, m = N/n, and its code r_0 + n*r_1 is one of N bit
    positions.  A set of characters is an N-bit int, m rows of n bits,
    and translating it by a character rotates each row by r_0 and then
    the whole int by n*r_1.  Prefix masks, the sets {j*chi_t : j < L} of
    the axis characters chi_t, are kept as they are first asked for, so
    one layout serves every cone of a group.
    """

    def __init__(self, ctx: LatticeContext):
        self.n, self.m, self.order = ctx.n, ctx.order // ctx.n, ctx.order
        self.chi = tuple(ctx.character(e)
                         for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        self.full = (1 << ctx.order) - 1
        # Bit 0 of every row.
        self.rows = self.full // ((1 << ctx.n) - 1)
        self.prefixes: dict[tuple[int, int], int] = {}

    def shift(self, mask: int, r0: int, r1: int) -> int:
        """The set of characters mask translated by the character
        (r0, r1)."""
        n = self.n
        if r0:
            low = mask & self.rows * ((1 << (n - r0)) - 1)
            mask = (low << r0) | ((mask ^ low) >> (n - r0))
        if r1:
            k = n * r1
            mask = ((mask << k) & self.full) | (mask >> (self.order - k))
        return mask

    def sweep(self, mask: int, axis: int, length: int) -> int:
        """The union of mask translated by j*chi_axis for j < length, by
        doubling: O(log length) shifts."""
        if length <= 0:
            return 0
        n, m = self.n, self.m
        x, y = self.chi[axis]
        out, k = mask, 1
        for bit in bin(length)[3:]:
            out |= self.shift(out, k * x % n, k * y % m)
            k *= 2
            if bit == "1":
                out |= self.shift(mask, k * x % n, k * y % m)
                k += 1
        return out

    def prefix(self, axis: int, length: int) -> int:
        """The set {j*chi_axis : j < length}: the cached set one shorter
        with the bit of (length-1)*chi_axis added, or else by ``sweep``."""
        key = (axis, length)
        mask = self.prefixes.get(key)
        if mask is None:
            shorter = None
            if length > 0:
                shorter = self.prefixes.get((axis, length - 1))
            if shorter is None:
                mask = self.sweep(1, axis, length)
            else:
                n, (x, y), j = self.n, self.chi[axis], length - 1
                mask = shorter | (1 << (j * x % n + n * (j * y % self.m)))
            self.prefixes[key] = mask
        return mask


def layout_tripod(layout: CharacterLayout, sys: ClusterSystem) -> None:
    """The oracle for check_tripod, with the characters laid out: raise
    unless the tripod has exactly N monomials whose characters are
    pairwise distinct, so that they fill the dual group and the cluster's
    ring is the regular representation.

    The count is the sum of the sizes of the nine disjoint staircase
    boxes of ``_tripod_size``, in closed form.  The characters are the
    union of the masks of the rectangles of ``_rectangles``: those
    overlap, but their union is the staircase, and a union of characters
    does not count multiplicities, so it is exactly the staircase's set
    of characters.  Each rectangle's mask is the prefix mask of its
    longer side swept along its shorter side, so no mask is translated to
    a corner.  N monomials whose characters make N bits are pairwise
    distinct.  The rectangle identity and the closed form need
    nonnegative exponents, so a negative one raises before the count.
    """
    if min(sys.exponents()) < 0:
        raise InvariantError("cluster exponents must be nonnegative")
    count = _tripod_size(sys)
    if count != layout.order:
        raise InvariantError(
            f"tripod has {count} monomials for a group of order {layout.order}"
        )
    total = 0
    for u, lu, v, lv in _rectangles(sys):
        if lu < lv:
            u, lu, v, lv = v, lv, u, lu
        total |= layout.sweep(layout.prefix(u, lu), v, lv)
    if total.bit_count() != layout.order:
        raise InvariantError("tripod characters do not fill the dual group")


FILL = "tripod characters do not fill the dual group"


def check_count_settles(ctx, case, want):
    """check_tripod against an oracle's verdict want: the same verdict and
    message, except that a tripod whose characters do not fill passes the
    count and fails verify_cluster instead.  So wherever verify_cluster
    passes, check_tripod gives the oracle's verdict."""
    if want == FILL:
        assert verdict(check_tripod, ctx, case) is None, case
        assert verdict(verify_cluster, ctx, case) is not None, case
    else:
        assert verdict(check_tripod, ctx, case) == want, case


def code(ctx, mono):
    """The bit position r_0 + n*r_1 of the character of a monomial."""
    r0, r1 = ctx.character(mono)
    return r0 + ctx.n * r1


def verdict(check, *args):
    """None when check(*args) passes, else the InvariantError message."""
    try:
        check(*args)
    except InvariantError as exc:
        return str(exc)
    return None


# Two products and one with a redundant third generator (the sum of the
# first two), so the characters have two and three mixed-radix digits;
# then Z/210 written with four generators, where mixed-radix characters
# would take 210^4 values.
Z210 = "1/2(1,1,0)+1/3(1,1,1)+1/5(1,2,2)+1/7(1,2,4)"
PRODUCTS = ["1/2(1,1,0)+1/2(0,1,1)", "1/4(1,3,0)+1/4(0,1,3)",
            "1/2(1,1,0)+1/2(0,1,1)+1/2(1,0,1)", Z210]


def check_tripods_against_oracle(specs):
    for spec in specs:
        ctx = lattice_context(parse_group_spec(spec))
        layout = CharacterLayout(ctx)
        for sys in Resolution(ctx).systems:
            monomials, keys = oracle_tripod(ctx, sys)
            assert tripod_basis(ctx, sys) == monomials, spec
            assert sorted(residue_walk(ctx, sys)) == keys, spec
            assert check_tripod(ctx, sys) is None, spec
            assert layout_tripod(layout, sys) is None, spec


def test_tripod_characters_match_oracle_up_to_16():
    check_tripods_against_oracle(cyclic_groups(16) + PRODUCTS)


FIELDS = ("a", "b", "c", "d", "e", "f", "l", "m", "n")


def mutants(sys):
    """Every system one exponent away from sys by +-1, staying
    nonnegative."""
    for name in FIELDS:
        for step in (-1, 1):
            if getattr(sys, name) + step >= 0:
                yield sys._replace(**{name: getattr(sys, name) + step})


def swapped_mutants(sys):
    """Every system with one exponent raised by 1 and another lowered by
    1: the tripod often keeps N monomials, so collisions show."""
    for up in FIELDS:
        for down in FIELDS:
            if up != down and getattr(sys, down) > 0:
                yield sys._replace(**{up: getattr(sys, up) + 1,
                                      down: getattr(sys, down) - 1})


def four_part_verify(ctx, sys):
    """verify_cluster with every relation it once tested, in the old
    order: the count relations, the parameter relations, the syzygies and
    the characters.  Raises as verify_cluster does."""
    v = sys.ratio_vectors()
    if sys.mode == "up":
        want = dict(lam=("eta", "zeta"), mu=("zeta", "xi"), nu=("xi", "eta"))
        counts_ok = (
            sys.l == sys.a + sys.d
            and sys.m == sys.b + sys.e
            and sys.n == sys.c + sys.f
        )
    else:
        want = dict(xi=("mu", "nu"), eta=("nu", "lam"), zeta=("lam", "mu"))
        counts_ok = (
            sys.l == sys.a + sys.d + 1
            and sys.m == sys.b + sys.e + 1
            and sys.n == sys.c + sys.f + 1
        )
    if not counts_ok:
        raise InvariantError(f"{sys.mode} count relations fail: {sys.exponents()}")
    for name, (p, q) in want.items():
        if v[name] != vadd(v[p], v[q]):
            raise InvariantError(
                f"{sys.mode} parameter relation {name} = {p}*{q} fails"
            )
    for p, q in (("xi", "lam"), ("eta", "mu"), ("zeta", "nu")):
        if vadd(v[p], v[q]) != (1, 1, 1):
            raise InvariantError(f"syzygy {q}*{p} = pi fails")
    for name, vec in v.items():
        if not is_invariant_monomial(ctx, vec):
            raise InvariantError(
                f"equation for {name} does not match characters: {vec}"
            )


def test_verify_cluster_matches_the_four_part_check():
    # The same verdict and message on every cone, its flipped mode, its
    # single steps and its swaps; the swaps keep the counts and reach
    # the characters.
    verdicts = set()
    for spec in cyclic_groups(12) + PRODUCTS:
        ctx = lattice_context(parse_group_spec(spec))
        for sys in Resolution(ctx).systems:
            flipped = sys._replace(mode="down" if sys.mode == "up" else "up")
            for case in (sys, flipped, *mutants(sys), *swapped_mutants(sys)):
                want = verdict(four_part_verify, ctx, case)
                assert verdict(verify_cluster, ctx, case) == want, (spec, case)
                verdicts.add(want and " ".join(want.split()[:2]))
    assert verdicts == {None, "up count", "down count", "equation for"}


def check_mutants_against_residue_walk(specs, make):
    verdicts = set()
    for spec in specs:
        ctx = lattice_context(parse_group_spec(spec))
        for sys in Resolution(ctx).systems:
            for bad in make(sys):
                want = verdict(residue_walk, ctx, bad)
                check_count_settles(ctx, bad, want)
                verdicts.add(want and want.split()[1])
    return verdicts


def test_tripod_mutants_match_the_residue_walk():
    # The count check gives the residue walk's verdict and message on
    # every mutant, except where the characters do not fill, which
    # verify_cluster rejects: single steps up to r = 12, swaps up to 10.
    assert check_mutants_against_residue_walk(
        cyclic_groups(12) + PRODUCTS, mutants) == {None, "has"}
    assert check_mutants_against_residue_walk(
        cyclic_groups(10) + PRODUCTS[:3], swapped_mutants) == {
            None, "has", "characters"}


def nine_box_tripod(ctx, layout, sys):
    """The tripod check box by box: each of the nine staircase boxes is
    its longest axis's prefix mask, translated to the box's corner by
    the corner's character and swept along its other axes.  Raises as
    layout_tripod does on nonnegative exponents."""
    count = total = 0
    for ps, qs, ss in staircase(sys):
        size = (len(ps), len(qs), len(ss))
        count += size[0] * size[1] * size[2]
        if 0 in size:
            continue
        t = size.index(max(size))
        corner = ctx.character((ps.start, qs.start, ss.start))
        mask = layout.shift(layout.prefix(t, size[t]), *corner)
        for u in range(3):
            if u != t and size[u] > 1:
                mask = layout.sweep(mask, u, size[u])
        total |= mask
    if count != layout.order:
        raise InvariantError(
            f"tripod has {count} monomials for a group of order {layout.order}"
        )
    if total.bit_count() != layout.order:
        raise InvariantError("tripod characters do not fill the dual group")


def rectangle_monomials(sys):
    """The monomials of the rectangles layout_tripod ORs."""
    out = set()
    for u, lu, v, lv in _rectangles(sys):
        for i in range(lu):
            for j in range(lv):
                mono = [0, 0, 0]
                mono[u], mono[v] = i, j
                out.add(tuple(mono))
    return out


def systems_and_mutants(specs):
    """(ctx, layout, system) for every cone's system of the groups and
    every nonnegative single and swapped mutant of it."""
    for spec in specs:
        ctx = lattice_context(parse_group_spec(spec))
        layout = CharacterLayout(ctx)
        for sys in Resolution(ctx).systems:
            for case in (sys, *mutants(sys), *swapped_mutants(sys)):
                yield ctx, layout, case


def test_tripod_rectangles_cover_the_staircase():
    # The rectangles depend on the exponents alone, so each tuple once.
    cases = {case.exponents(): case for _, _, case in
             systems_and_mutants(cyclic_groups(16) + PRODUCTS)}
    for case in cases.values():
        assert rectangle_monomials(case) == set(oracle_staircase(case)), case


def test_tripod_matches_the_nine_box_check():
    verdicts = set()
    for ctx, layout, case in systems_and_mutants(cyclic_groups(16) + PRODUCTS):
        want = verdict(nine_box_tripod, ctx, layout, case)
        assert verdict(layout_tripod, layout, case) == want, case
        check_count_settles(ctx, case, want)
        verdicts.add(want and want.split()[1])
    assert verdicts == {None, "has", "characters"}


def test_check_tripod_reads_no_character(monkeypatch):
    calls = []
    character = LatticeContext.character

    def counted(self, v):
        calls.append(v)
        return character(self, v)

    for spec in ("1/101(1,7,93)", "1/4(1,3,0)+1/4(0,1,3)"):
        ctx = lattice_context(parse_group_spec(spec))
        systems = Resolution(ctx).systems
        with monkeypatch.context() as patch:
            patch.setattr(LatticeContext, "character", counted)
            for sys in systems:
                check_tripod(ctx, sys)
        assert calls == [], spec


def test_tripod_rejects_a_negative_exponent():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    sys = next(s for s in systems if (s.l, s.m, s.n) == (10, 0, 0))
    layout = CharacterLayout(ctx)
    # The first still has 11 monomials with distinct characters, the
    # second 12: the sign is tested before the count.
    for bad in (sys._replace(m=-1), sys._replace(l=11, m=-1)):
        for check, arg in ((check_tripod, ctx), (tripod_basis, ctx),
                           (layout_tripod, layout)):
            with pytest.raises(InvariantError, match="^cluster exponents "
                               "must be nonnegative$"):
                check(arg, bad)


def test_empty_sweep_and_prefix_are_empty():
    layout = CharacterLayout(lattice_context(parse_group_spec("1/11(1,2,8)")))
    for axis in range(3):
        assert layout.sweep(0b101, axis, 0) == 0
        assert layout.prefix(axis, 0) == 0
        assert layout.prefix(axis, 1) == 1


@pytest.mark.parametrize("spec", [
    "1/1001(1,37,963)", "1/32(1,0,31)+1/32(0,1,31)", "1/11(1,2,8)"])
def test_prefix_is_the_sweep_of_bit_zero(spec):
    # Asked for in ascending order, each prefix extends the one before;
    # in random order, most are swept from bit 0.
    ctx = lattice_context(parse_group_spec(spec))
    lengths = list(range(ctx.order + 1))
    shuffled = lengths[:]
    random.Random(0).shuffle(shuffled)
    for order in (lengths, shuffled):
        layout = CharacterLayout(ctx)
        for length in order:
            for axis in range(3):
                assert layout.prefix(axis, length) == layout.sweep(
                    1, axis, length), (spec, axis, length)


@pytest.mark.deep
def test_the_count_settles_the_fill_below_8():
    assert min(check_count_settles_the_fill(8)) > 0


@pytest.mark.deep
def test_tripod_characters_match_oracle_up_to_24():
    check_tripods_against_oracle(cyclic_groups(24) + PRODUCTS)
    assert check_mutants_against_residue_walk(
        cyclic_groups(24), mutants) == {None, "has"}
    assert check_mutants_against_residue_walk(
        cyclic_groups(16), swapped_mutants) == {None, "has", "characters"}


def test_character_layout_matches_the_generators():
    for spec in cyclic_groups(16) + PRODUCTS:
        ctx = lattice_context(parse_group_spec(spec))
        layout = CharacterLayout(ctx)
        assert (layout.order, layout.n * layout.m) == (ctx.order, ctx.order)
        for v in ctx.monomial_basis + ((1, 1, 1),):
            assert code(ctx, v) == 0, spec
        # Codes add like characters: the bit of u, shifted by the code of
        # v, is the bit of u + v.
        vectors = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 5, 3), (-1, 4, -7))
        for u in vectors:
            for v in vectors:
                shifted = layout.shift(1 << code(ctx, u),
                                       *ctx.character(v))
                assert shifted == 1 << code(ctx, vadd(u, v)), spec
        for sys in Resolution(ctx).systems:
            stair = oracle_staircase(sys)
            codes = {code(ctx, mono) for mono in stair}
            assert codes == set(range(ctx.order)), spec
            # The staircase and its three unit translates hold repeated
            # characters: codes and oracle keys must split them alike.
            monos = {vadd(mono, e) for mono in stair
                     for e in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))}
            pairs = {(code(ctx, mono), character_key(ctx, mono))
                     for mono in monos}
            assert len(pairs) == len({c for c, _ in pairs}) == len(
                {k for _, k in pairs}), spec
    assert CharacterLayout(lattice_context(parse_group_spec(Z210))).order == 210


def test_tripod_with_extra_monomial_raises():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    # The chart with x^11 = xi: its tripod is 1, x, ..., x^10.
    sys = next(s for s in systems if (s.l, s.m, s.n) == (10, 0, 0))
    assert check_tripod(ctx, sys) is None
    with pytest.raises(InvariantError,
                       match="^tripod has 12 monomials for a group of order 11$"):
        check_tripod(ctx, sys._replace(l=sys.l + 1))


def test_tripod_with_colliding_characters_raises():
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    sys = next(s for s in systems if (s.l, s.m, s.n) == (10, 0, 0))
    # 1/11(0,1,10) acts trivially on x, so its 11 monomials 1, x, ...,
    # x^10 all have the trivial character.
    other = lattice_context(parse_group_spec("1/11(0,1,10)"))
    with pytest.raises(InvariantError,
                       match="^tripod characters do not fill the dual group$"):
        layout_tripod(CharacterLayout(other), sys)
    # The count alone passes; the system's equations do not hold there.
    assert check_tripod(other, sys) is None
    with pytest.raises(InvariantError, match=r"^equation for eta does not "
                       r"match characters: \(-2, 1, 0\)$"):
        tripod_basis(other, sys)


def test_layout_oracle_passes_on_every_sweep_cone():
    # test_fan imports this module, so its cached resolutions are
    # imported here.
    from test_fan import sweep_resolutions
    for res in sweep_resolutions():
        layout = CharacterLayout(res.ctx)
        for sys in res.systems:
            assert check_tripod(res.ctx, sys) is None, res.ctx.spec
            assert layout_tripod(layout, sys) is None, (res.ctx.spec, sys)


def leading_terms(sys):
    """The seven equations L = p*R as the pairs (L, R) of exponents, in
    ``PARAM_NAMES`` order, as the module docstring writes them."""
    a, b, c, d, e, f, l, m, n = sys.exponents()
    return [((l + 1, 0, 0), (0, b, f)), ((0, m + 1, 0), (d, 0, c)),
            ((0, 0, n + 1), (a, e, 0)), ((0, b + 1, f + 1), (l, 0, 0)),
            ((d + 1, 0, c + 1), (0, m, 0)), ((a + 1, e + 1, 0), (0, 0, n)),
            ((1, 1, 1), (0, 0, 0))]


def descent_weight(sys):
    """(D, W) with D = det X > 0 and w = W / D = X^-1 (1, 1, 1) for the
    rows X = (xi, eta, zeta), by Cramer's rule."""
    rows = _laurent_vectors(sys.exponents())[:3]
    det = det3(rows)
    assert det > 0, sys
    return det, tuple(det3([r[:t] + (1,) + r[t + 1:] for r in rows])
                      for t in range(3))


# Three cyclic groups with all three weights nonzero, one with a weight
# shared by two coordinates, and a product.
THEOREM_GROUPS = ["1/11(1,2,8)", "1/7(1,2,4)", "1/9(1,1,7)", "1/12(1,3,8)",
                  "1/2(1,1,0)+1/2(0,1,1)"]


def check_count_settles_the_fill(bound):
    """For every wall tuple (a, ..., f) with entries below bound, in both
    modes: each Laurent vector is L - R, the weight w of ``check_tripod``'s
    proof is nonnegative and lowers by at least 1/2 at every rewrite, and
    on each of ``THEOREM_GROUPS`` a system that passes verify_cluster and
    check_tripod passes the layout oracle.  Returns how many passed, per
    group."""
    contexts = [lattice_context(parse_group_spec(s)) for s in THEOREM_GROUPS]
    layouts = [CharacterLayout(ctx) for ctx in contexts]
    passed = [0] * len(contexts)
    half = Fraction(1, 2)
    for a, b, c, d, e, f in product(range(bound), repeat=6):
        for mode, k in (("up", 0), ("down", 1)):
            sys = ClusterSystem(mode, a, b, c, d, e, f,
                                a + d + k, b + e + k, c + f + k)
            rhos = _laurent_vectors(sys.exponents())
            assert rhos == tuple(vsub(L, R) for L, R in leading_terms(sys))
            # det > 0, so the least entry and pairing of w are those of
            # its numerators over det.
            det, num = descent_weight(sys)
            assert Fraction(min(num), det) >= 0, sys
            # Each rewrite lowers the weight by rho.w >= 1/2.
            assert Fraction(min(dot(rho, num) for rho in rhos), det) >= half, sys
            for t, ctx in enumerate(contexts):
                if (verdict(check_tripod, ctx, sys) is None
                        and verdict(verify_cluster, ctx, sys) is None):
                    assert layout_tripod(layouts[t], sys) is None, (
                        THEOREM_GROUPS[t], sys)
                    passed[t] += 1
    return passed


def test_the_count_settles_the_fill():
    assert min(check_count_settles_the_fill(4)) > 0


def test_classification_paper_sign_rule():
    # Up exponents with b >= f, d >= c, e >= a classify as case a with
    # A = d-c, B = b-f, C = e-a, i = f, j = c, k = a.
    ctx, fan, systems = systems_of("1/11(1,2,8)")
    for sys in systems:
        if sys.mode != "up":
            continue
        a, b, c, d, e, f = (sys.a, sys.b, sys.c, sys.d, sys.e, sys.f)
        if b >= f and d >= c and e >= a:
            cls = classify_cluster(sys.exponents())
            if cls.perm == (0, 1, 2) and cls.case == "a":
                assert (cls.A, cls.B, cls.C) == (d - c, b - f, e - a)
                assert (cls.i, cls.j, cls.k) == (f, c, a)


def inverse_solve(ctx, mode, exps):
    """The vertices of the chart's cone, sorted: n * (D^T)^-1 for the
    dual basis D the exponents encode."""
    return sorted(scaled_dual(ClusterSystem(mode, *exps).dual_vectors(),
                              ctx.n))


def test_classification_round_trips_to_host():
    for text in ("1/11(1,2,8)", "1/30(25,2,3)", "1/2(1,1,0)+1/2(0,1,1)"):
        ctx, part, fan, parents = pipeline(text)
        for cell in fan.cones:
            rows = dual_basis(ctx, parents[cell.parent], cell)
            sys = cluster_system(ctx, cell.kind, rows)
            cls = classify_cluster(sys.exponents())
            assert cls.mode == cell.kind
            r = part.triangles[cell.parent].r
            assert cls.i + cls.j + cls.k == (r - 1 if cls.mode == "up"
                                             else r + 1)
            # Inverting the exponents' dual basis gives back the cell.
            assert inverse_solve(ctx, cls.mode, sys.exponents()) == sorted(
                cell.vertices)


def permuted_up_exponents(perm, exps):
    """(a, ..., f) read off the up vectors (xi, eta, zeta) of exps with
    the vectors and their coordinates permuted by perm."""
    ratios = ClusterSystem("up", *exps).ratio_vectors()
    up = (ratios["xi"], ratios["eta"], ratios["zeta"])
    vecs = tuple(permute(perm, up[perm[t]]) for t in range(3))
    return _up_exponents_from_vectors(vecs)[:6]


@cache
def sweep_exponents():
    """The exponents of every cone's system of the `SWEEP` groups and of
    its nonnegative single mutants, each tuple once."""
    cases = set()
    for spec in SWEEP:
        for sys in Resolution(lattice_context(parse_group_spec(spec))).systems:
            cases.update(case.exponents() for case in (sys, *mutants(sys)))
    return frozenset(cases)


def test_index_maps_match_the_permuted_read():
    assert [perm for perm, _ in _PERMUTED] == list(PERMS)
    for exps in sweep_exponents():
        for perm, read in _PERMUTED:
            want = permuted_up_exponents(perm, exps)
            assert read(exps) == want, (exps, perm)


def dict_ratio_vectors(sys):
    """``ClusterSystem.ratio_vectors`` written as one dict literal over the
    fields."""
    return {
        "xi": (sys.l + 1, -sys.b, -sys.f),
        "eta": (-sys.d, sys.m + 1, -sys.c),
        "zeta": (-sys.a, -sys.e, sys.n + 1),
        "lam": (-sys.l, sys.b + 1, sys.f + 1),
        "mu": (sys.d + 1, -sys.m, sys.c + 1),
        "nu": (sys.a + 1, sys.e + 1, -sys.n),
        "pi": (1, 1, 1),
    }


def test_ratio_and_dual_vectors_match_the_dict_literal():
    for exps in sweep_exponents():
        for mode, names in (("up", ("xi", "eta", "zeta")),
                            ("down", ("lam", "mu", "nu"))):
            sys = ClusterSystem(mode, *exps)
            want = dict_ratio_vectors(sys)
            assert sys.exponents() == exps
            assert list(sys.ratio_vectors().items()) == list(want.items())
            assert sys.dual_vectors() == tuple(want[k] for k in names), sys


def test_tripod_size_is_the_box_sum():
    for exps in sweep_exponents():
        sys = ClusterSystem("up", *exps)
        assert _tripod_size(sys) == sum(
            len(ps) * len(qs) * len(ss) for ps, qs, ss in staircase(sys)
        ), exps


def check_classification_reads_the_normal_form(spec):
    """The reverse classification of every cone's chart names the cell's
    kind, its parent's normal form and its role-aligned steps."""
    res = Resolution(lattice_context(parse_group_spec(spec)))
    for cell, sysm in zip(res.fan.cones, res.systems):
        cls = classify_cluster(sysm.exponents())
        tr = res.ratios[cell.parent]
        steps = tuple(cell.steps[side] for side in tr.roles)
        assert inverse_solve(res.ctx, cls.mode, sysm.exponents()) == sorted(
            cell.vertices), spec
        assert ((cls.mode, cls.case, cls.perm, cls.A, cls.B, cls.C,
                 (cls.i, cls.j, cls.k))
                == (cell.kind, tr.case, tr.perm, tr.a, tr.b, tr.c, steps)), spec


def test_classification_reads_the_normal_form_up_to_24():
    for spec in SWEEP:
        check_classification_reads_the_normal_form(spec)


@pytest.mark.deep
def test_classification_reads_the_normal_form_up_to_40():
    for spec in cyclic_groups(40) + [s for s in SWEEP if "+" in s]:
        check_classification_reads_the_normal_form(spec)


@pytest.mark.parametrize("field, change", [
    ("A", lambda A: A + 1),
    ("perm", lambda perm: perm[::-1]),
    ("k", lambda k: k + 1),
    ("mode", lambda mode: "down" if mode == "up" else "up"),
], ids=["A", "perm", "k", "mode"])
def test_verify_rejects_a_changed_classification(field, change, monkeypatch,
                                                 capsys):
    classify = ahilb.verify.classify_cluster

    def changed(exps):
        cls = classify(exps)
        return cls._replace(**{field: change(getattr(cls, field))})

    monkeypatch.setattr(ahilb.verify, "classify_cluster", changed)
    assert main(["verify", "1/11(1,2,8)"]) == 2
    assert ("clusters: systems verified, tripods exact, classification "
            "returns: FAIL (classification recovered the wrong normal form)\n"
            ) in capsys.readouterr().out


def test_classification_substitution_consistency():
    # The (A,B,C,i,j,k) of a classification reproduce the permuted
    # exponents through the substitution tables.
    ctx, fan, systems = systems_of("1/101(1,7,93)")
    for sys in systems:
        cls = classify_cluster(sys.exponents())
        A, B, C, i, j, k = cls.A, cls.B, cls.C, cls.i, cls.j, cls.k
        shift = 0 if cls.mode == "up" else 1
        if cls.case == "a":
            expect = (k - shift, B + i - shift, j - shift,
                      A + j - shift, C + k - shift, i - shift)
        else:
            expect = (A + k - shift, B + i - shift, C + j - shift,
                      j - shift, k - shift, i - shift)
        base = sys.dual_vectors()
        vecs = tuple(permute(cls.perm, base[cls.perm[t]]) for t in range(3))
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
        classify_cluster(tuple(bad))


def test_classification_rejects_exponents_of_no_mode():
    with pytest.raises(InvariantError, match=re.escape(
            "exponents (0, 0, 0, 0, 0, 0, 1, 0, 0) satisfy neither the up "
            "nor the down relations")):
        classify_cluster((0, 0, 0, 0, 0, 0, 1, 0, 0))


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
