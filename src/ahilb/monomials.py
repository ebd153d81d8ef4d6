"""Invariant monomial ratios attached to lines and triangles, dual bases of
basic triangles, and the exponent form of the knock-out rule.

A ratio is stored as a signed Laurent exponent triple: positive entries
make the numerator, negative entries the denominator.  Every emitted ratio
is invariant under the group and primitive in the invariant lattice.
``partition.rays`` computes each line's ratio once, and a triangle carries
its sides'; ``draw._edge_ratio`` computes each fan edge's ratio itself,
signed by ``sign_fixed`` instead of by a point.
A side's role is the one coordinate where its ratio is positive, read by
``sign_roles`` once per triangle (and per chart by ``cluster_system``);
``_bases`` is the one template of both normal forms, read and written;
``clusters.classify_cluster`` reads neither, so it stays independent.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .errors import InvariantError
from .fan import BasicTriangle
from .lattice import (
    PERMS,
    LatticeContext,
    Vec3,
    cross3,
    multiple,
    permute,
    scaled_dual,
)
from .partition import Line, RegularTriangle


# The coordinate of a vector's one entry of the sign asked for, keyed by
# which of its entries have that sign.
_ONE_MARK = {tuple(t == u for t in range(3)): u for u in range(3)}


def sign_roles(vectors, sign: int = 1) -> tuple[int, int, int] | None:
    """For each coordinate u, the index of the one vector whose entry at u
    has the given sign (1 positive, -1 negative); None unless each vector
    has exactly one such entry, at a coordinate of its own."""
    roles = [None, None, None]
    for t, (x, y, z) in enumerate(vectors):
        u = _ONE_MARK.get((x > 0, y > 0, z > 0) if sign > 0
                          else (x < 0, y < 0, z < 0))
        if u is None or roles[u] is not None:
            return None
        roles[u] = t
    return tuple(roles)


def _bases(case: str, a: int, b: int, c: int, d: int, e: int,
           f: int) -> tuple[Vec3, Vec3, Vec3]:
    """The normal form's side ratios in role order: x^d:y^b, y^e:x^a,
    z^f:y^c (case a) or x^d:y^b, y^e:z^c, z^f:x^a (case b), as
    ``formula_dual`` writes and ``_match_case`` reads them."""
    if case == "a":
        return (d, -b, 0), (-a, e, 0), (0, -c, f)
    return (d, -b, 0), (0, e, -c), (-a, 0, f)


class TriangleRatios(NamedTuple):
    """The three side ratios of a regular triangle in normal form.

    case "a" is the corner-style orientation, case "b" the cyclic
    (champion-style) one.  perm maps normal-form coordinates to the
    original ones; roles[t] is the side index (opposite-vertex index in
    the triangle) playing the role t of (0 = x-like, 1 = y-like,
    2 = z-like).  The integers satisfy, with r the triangle side,
    d - a = e - b - c = f = r   (case a)
    d - a = e - b = f - c = r   (case b)
    and the side steps are the ``_bases`` lines' directions divided by one
    common positive constant, which ``_match_case`` checks and drops.
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

    def role_steps(self, cell: BasicTriangle) -> tuple[int, int, int]:
        """The depths of a cell of this triangle, in role order."""
        steps = cell.steps
        x, y, z = self.roles
        return (steps[x], steps[y], steps[z])


def _match_case(ctx, tri, steps, at, perm, case):
    """Try to read the permuted side ratios in the given normal form; at is
    ``sign_roles`` of the unpermuted ratios, so role u is side at[perm[u]];
    steps[s, t] is ``tri.step(s, t)``."""
    roles = permute(perm, at)
    xi, eta, zeta = (permute(perm, tri.side_ratios[t]) for t in roles)
    d, b = xi[0], -xi[1]
    if case == "a":
        a, e = -eta[0], eta[1]
        c, f = -zeta[1], zeta[2]
    else:
        e, c = eta[1], -eta[2]
        a, f = -zeta[0], zeta[2]
    # The signs make a, ..., f nonnegative once the bases match.
    bases = _bases(case, a, b, c, d, e, f)
    if (xi, eta, zeta) != bases:
        return None
    if case == "a":
        if not (d - a == e - b - c == f == tri.r):
            return None
    elif not (d - a == e - b == f - c == tri.r):
        return None
    # The steps, from the vertices, must check the ratios, from the lines.
    # The normal form orients the vertices in role order positively, as
    # det(xi, eta, zeta) is f*(de - ab) (case a) or def - abc (case b), so
    # cross3(base, (1, 1, 1)) is one positive K times the permuted step
    # from role u+1's vertex to role u+2's, for each role u.
    ks = {multiple(cross3(base, (1, 1, 1)),
                   permute(perm, steps[roles[u - 2], roles[u - 1]])) or 0
          for u, base in enumerate(bases)}
    if len(ks) != 1 or min(ks) <= 0:
        return None
    (K,) = ks
    # Points are scaled by n, so K*n is de - ab and the other minor sums.
    if case == "a" and not (K * ctx.n == d * e - a * b
                            == a * c + a * f + e * f == b * f + c * d + d * f):
        return None
    return TriangleRatios(case, perm, roles, a, b, c, d, e, f)


def triangle_ratios(ctx: LatticeContext, tri: RegularTriangle) -> TriangleRatios:
    """Normal form of the triangle's invariant side ratios.

    Searches the six coordinate permutations, corner case first; ties are
    canonicalized to the corner case with the smallest permutation.
    """
    # A permutation moves the signs with the coordinates, so a triangle
    # without the sign pattern fits no normal form.
    at = sign_roles(tri.side_ratios)
    if at is not None:
        steps = {(s, t): tri.step(s, t) for s, t in permutations(range(3), 2)}
        for case in ("a", "b"):
            for perm in PERMS:
                res = _match_case(ctx, tri, steps, at, perm, case)
                if res is not None:
                    return res
    raise InvariantError(
        f"triangle {tri.vertices} fits neither ratio normal form"
    )


def formula_dual(parent: TriangleRatios, cell: BasicTriangle) -> list[Vec3]:
    """Closed-form dual basis from the parent normal form and the cell's
    role-aligned depths (i, j, k), ``parent.role_steps(cell)``.

    Row t is the role-t base of ``_bases`` shifted by its depth s: a point
    P of the s-th parallel lattice line on the base's positive side has
    base.P = s*n, so base - s*(1, 1, 1) vanishes on it.  A down cell
    negates the rows, and the inverse of the parent's permutation takes
    them back to the original coordinates."""
    perm = parent.perm
    u, v, w = perm.index(0), perm.index(1), perm.index(2)
    xi, eta, zeta = _bases(parent.case, parent.a, parent.b, parent.c,
                           parent.d, parent.e, parent.f)
    i, j, k = parent.role_steps(cell)
    if cell.kind == "up":
        return [(xi[u] - i, xi[v] - i, xi[w] - i),
                (eta[u] - j, eta[v] - j, eta[w] - j),
                (zeta[u] - k, zeta[v] - k, zeta[w] - k)]
    return [(i - xi[u], i - xi[v], i - xi[w]),
            (j - eta[u], j - eta[v], j - eta[w]),
            (k - zeta[u], k - zeta[v], k - zeta[w])]


def dual_basis(ctx: LatticeContext, parent: TriangleRatios,
               cell: BasicTriangle) -> tuple[Vec3, Vec3, Vec3]:
    """The monomial basis dual to a basic triangle's cone: row t pairs to
    n exactly on vertices[t] of the cell.  Computed by exact linear solve
    and by the closed formulas; a disagreement is a hard error.

    Their agreement settles the rest.  The closed-form rows are the
    parent's side ratios, invariant by ``partition.rays``, shifted by
    multiples of (1, 1, 1) and perhaps negated, so they are invariant, and
    so are the solved rows equal to them.  The solved rows pair to n with
    their own vertex and to 0 with the other two, so their sum pairs to n
    with every vertex.  ``tesselate`` steps from a simplex point by
    translations, so every vertex sums to n: (1, 1, 1) pairs to n with
    each too.  The vertices span, so the rows sum to (1, 1, 1), and the
    basis multiplies to xyz.
    """
    direct = scaled_dual(cell.vertices, ctx.n)
    formula = formula_dual(parent, cell)
    if sorted(direct) != sorted(formula):
        raise InvariantError(
            f"dual bases disagree on cell {cell.vertices}: "
            f"solve {sorted(direct)} vs formulas {sorted(formula)}"
        )
    return tuple(direct)


def crossing_rule_check(l1: Line, l2: Line) -> tuple | None:
    """Which of two crossing interior lines continues past the meet, read
    off from their ratios, ``Line.ratio``: after relabeling the pair of
    corners to (e1, e3), the line with the strictly smaller exponent of
    the third coordinate continues; equal exponents kill both."""
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
        # Positive on the corner before the line's own, zero on its own.
        if line.ratio[line.tag[1] - 1] != 0:
            raise InvariantError("ratio normalization failed")
        return line.ratio

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
