"""Invariant monomial ratios attached to lines and triangles, dual bases of
basic triangles, and the exponent form of the knock-out rule.

A ratio is stored as a signed Laurent exponent triple: positive entries
make the numerator, negative entries the denominator.  Every emitted ratio
is invariant under the group and primitive in the invariant lattice.
``ratio_through`` computes the ratio of the line through two points for
line and triangle side ratios; ``draw._edge_ratio`` computes each fan
edge's ratio itself, signed by ``sign_fixed`` instead of by a point.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .errors import InvariantError
from .fan import BasicTriangle
from .lattice import (
    PERMS,
    LatticeContext,
    Vec3,
    cross3,
    dot,
    multiple,
    permute,
    scaled_dual,
    smul,
    vadd,
    vneg,
    vsub,
)
from .partition import Line, RegularTriangle


def primitive_in_monomial_lattice(ctx: LatticeContext, m: Vec3) -> Vec3:
    """Scale m to the primitive invariant exponent vector on its ray."""
    if m == (0, 0, 0):
        raise InvariantError("zero exponent vector")
    g = gcd(*m)
    base = (m[0] // g, m[1] // g, m[2] // g)
    # k*base is invariant exactly when the order of its character divides k.
    r0, r1 = ctx.character(base)
    n, rest = ctx.n, ctx.order // ctx.n
    return smul(lcm(n // gcd(n, r0), rest // gcd(rest, r1)), base)


def ratio_through(ctx: LatticeContext, p: Vec3, q: Vec3,
                  positive_at: Vec3) -> Vec3:
    """Primitive invariant generator of the exponents vanishing on the line
    through p and q, signed to evaluate positively at positive_at."""
    raw = cross3(p, q)
    if raw == (0, 0, 0):
        raise InvariantError("line data is degenerate")
    m = primitive_in_monomial_lattice(ctx, raw)
    val = dot(m, positive_at)
    if val == 0:
        raise InvariantError("positive_side is parallel to the line")
    return m if val > 0 else vneg(m)


def line_ratio(ctx: LatticeContext, line: Line, positive_side: Vec3) -> Vec3:
    """ratio_through two points of the line."""
    return ratio_through(ctx, line.anchor, vadd(line.anchor, line.direction),
                         positive_side)


def parallel_ratio(base: Vec3, i: int) -> Vec3:
    """Ratio of the i-th parallel lattice line on the base's positive side.

    A point P there has base.P = i*n, so the shifted exponents
    base - i*(1,1,1) vanish on it; successive tesselation lines of a
    triangle arise this way.
    """
    return vsub(base, (i, i, i))


def _unpermute(perm, v: Vec3) -> Vec3:
    out = [0, 0, 0]
    for t in range(3):
        out[perm[t]] = v[t]
    return tuple(out)


class TriangleRatios(NamedTuple):
    """The three side ratios of a regular triangle in normal form.

    case "a" is the corner-style orientation, case "b" the cyclic
    (champion-style) one.  perm maps normal-form coordinates to the
    original ones; roles[t] is the side index (opposite-vertex index in
    the triangle) playing the role t of (0 = x-like, 1 = y-like,
    2 = z-like).  The integers satisfy, with r the triangle side,
    d - a = e - b - c = f = r   (case a)
    d - a = e - b = f - c = r   (case b)
    and the side directions are the normal-form triples divided by one
    common constant, which ``_match_case`` checks and does not keep.
    """

    case: str
    perm: tuple[int, int, int]
    roles: tuple[int, int, int]
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int


def _side_ratios(ctx: LatticeContext, tri: RegularTriangle) -> list[Vec3]:
    """Ratio of each side, positive on the triangle, indexed like vertices."""
    return [ratio_through(ctx, *tri.side_of(t), tri.vertices[t])
            for t in range(3)]


def _match_case(ctx, tri, side_ratios, perm, case):
    """Try to read the permuted side ratios in the given normal form."""
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
    # The proportionality constants tying the side directions to the
    # normal-form triples must be integral and all equal.
    ks = []
    for role in range(3):
        v = permute(perm, tri.side_directions[roles[role]])
        k = multiple(raws[role], v)
        if not k:
            return None
        ks.append(abs(k))
    if len(set(ks)) != 1:
        return None
    K = ks[0]
    # Side directions are scaled by n, so the unscaled proportionality
    # constant de-ab (= the other two minor sums) equals K*n.
    if case == "a" and not (
        K * ctx.n == d * e - a * b == a * c + a * f + e * f
        == b * f + c * d + d * f
    ):
        return None
    return TriangleRatios(
        case=case,
        perm=perm,
        roles=tuple(roles),
        a=a, b=b, c=c, d=d, e=e, f=f,
    )


def triangle_ratios(ctx: LatticeContext, tri: RegularTriangle) -> TriangleRatios:
    """Normal form of the triangle's invariant side ratios.

    Searches the six coordinate permutations, corner case first; ties are
    canonicalized to the corner case with the smallest permutation.
    """
    side_ratios = _side_ratios(ctx, tri)
    for case in ("a", "b"):
        for perm in PERMS:
            res = _match_case(ctx, tri, side_ratios, perm, case)
            if res is not None:
                return res
    raise InvariantError(
        f"triangle {tri.vertices} fits neither ratio normal form"
    )


class DualBasis(NamedTuple):
    """Monomial basis dual to a basic triangle's cone, with monomials[t]
    pairing to n exactly on vertices[t] of the cell."""

    cell: BasicTriangle
    monomials: tuple[Vec3, Vec3, Vec3]


def formula_dual(parent: TriangleRatios, cell: BasicTriangle,
                 steps: tuple[int, int, int]) -> list[Vec3]:
    """Closed-form dual basis from the parent normal form and the cell's
    role-aligned depths (i, j, k)."""
    a, b, c, d, e, f = parent.a, parent.b, parent.c, parent.d, parent.e, parent.f
    if parent.case == "a":
        bases = [(d, -b, 0), (-a, e, 0), (0, -c, f)]
    else:
        bases = [(d, -b, 0), (0, e, -c), (-a, 0, f)]
    up = [parallel_ratio(base, s) for base, s in zip(bases, steps)]
    if cell.kind == "down":
        up = [vneg(m) for m in up]
    return [_unpermute(parent.perm, m) for m in up]


def dual_basis(ctx: LatticeContext, parent: TriangleRatios,
               cell: BasicTriangle) -> DualBasis:
    """Dual basis of a basic triangle, computed by exact linear solve and
    by the closed formulas; a disagreement is a hard error.

    Their agreement settles the rest.  The closed-form rows are the
    parent's side ratios, invariant by ``ratio_through``, shifted by
    multiples of (1, 1, 1) and perhaps negated, so they are invariant, and
    so are the solved rows equal to them.  The solved rows pair to n with
    their own vertex and to 0 with the other two, so their sum pairs to n
    with every vertex.  ``tesselate`` steps from a simplex point by
    translations, so every vertex sums to n: (1, 1, 1) pairs to n with
    each too.  The vertices span, so the rows sum to (1, 1, 1), and the
    basis multiplies to xyz.
    """
    direct = scaled_dual(cell.vertices, ctx.n)
    steps = tuple(cell.steps[side] for side in parent.roles)
    formula = formula_dual(parent, cell, steps)
    if sorted(direct) != sorted(formula):
        raise InvariantError(
            f"dual bases disagree on cell {cell.vertices}: "
            f"solve {sorted(direct)} vs formulas {sorted(formula)}"
        )
    return DualBasis(cell, tuple(direct))


def crossing_rule_check(ctx: LatticeContext, l1: Line, l2: Line) -> tuple | None:
    """Which of two crossing interior lines continues past the meet, read
    off from the invariant ratios: after relabeling the pair of corners
    to (e1, e3), the line with the strictly smaller exponent of the third
    coordinate continues; equal exponents kill both."""
    if l1.tag[0] != "corner" or l2.tag[0] != "corner":
        raise InvariantError("the exponent rule applies to interior lines")
    i, k = l1.tag[1], l2.tag[1]
    if i == k:
        raise InvariantError("lines from one corner never cross inside")
    by_corner = {i: l1, k: l2}
    # The corner that cyclically follows the other plays e1.
    first = k if i % 3 + 1 == k else i
    last = i + k - first  # plays e3
    shared = next(t for t in range(3) if t not in (first - 1, last - 1))

    def normalized(line):
        own = line.tag[1]
        # Positive on the corner that precedes the line's own corner.
        m = line_ratio(ctx, line, ctx.corner((own + 1) % 3 + 1))
        if m[own - 1] != 0:
            raise InvariantError("ratio normalization failed")
        return m

    m_first = normalized(by_corner[first])
    m_last = normalized(by_corner[last])
    c = -m_first[shared]
    e = m_last[shared]
    if c < 1 or e < 1:
        raise InvariantError("interior line ratio has a non-positive exponent")
    if c < e:
        return by_corner[first].tag
    if e < c:
        return by_corner[last].tag
    return None


def ratio_str(m: Vec3) -> str:
    """Render an exponent triple as a ratio like x^2:y, or a monomial like
    xy^2 when no exponent is negative."""
    num = "".join(
        "xyz"[t] + (f"^{m[t]}" if m[t] > 1 else "")
        for t in range(3) if m[t] > 0
    )
    den = "".join(
        "xyz"[t] + (f"^{-m[t]}" if m[t] < -1 else "")
        for t in range(3) if m[t] < 0
    )
    if not num:
        num = "1"
    return f"{num}:{den}" if den else num
