"""Corner chains, junction constants and the cyclic word.

Each simplex vertex is the apex of a 2-D cone, a cyclic quotient
1/k(1,q) in its own lattice.  The boundary of the convex hull of the cone's
nonzero lattice points (its Klein polygon) is a chain of primitive vectors
whose three-term recursion constants are the strengths: the
Hirzebruch-Jung continued fraction of k/q.  ``corner_chain`` builds the
chain by that recursion, without looking at any other lattice point;
``newton_polygon`` takes the hulls of the junior points at all three
corners in one walk over ``junior_points``, and the invariant suite
checks that the two agree.  The three corner chains concatenate,
with one junction constant per side, into a single cyclic word that drives
the contraction game.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import InvariantError
from .lattice import (
    LatticeContext,
    Vec3,
    chart,
    cross2,
    dot,
    multiple,
    pair_index,
    primitive_vector,
    sign_fixed,
    smul,
    vadd,
    vneg,
    vsub,
)

# Entry tags. A corner tag is ("corner", i, j) for the j-th interior ray at
# vertex e_i; a junction tag is ("junction", s) for the side e_s e_{s+1}.
Tag = tuple


class CornerFan(NamedTuple):
    """The Klein polygon chain at one corner e_i, kept under the key i
    (``Resolution.fans``).

    vectors[0] points along the side toward e_{i-1}, vectors[-1] along the
    side toward e_{i+1}; the k vectors between them are the interior rays.
    strengths[j-1] is the recursion constant of vectors[j].
    """

    vectors: tuple[Vec3, ...]
    strengths: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.strengths)


def _side_rays(ctx: LatticeContext, corner: int) -> tuple[Vec3, Vec3]:
    """The primitive steps from vertex e_corner along its two sides:
    toward e_{corner-1}, then toward e_{corner+1}."""
    apex = ctx.corner(corner)
    prev_c = ctx.corner((corner - 2) % 3 + 1)
    next_c = ctx.corner(corner % 3 + 1)
    return (primitive_vector(ctx, vsub(prev_c, apex)),
            primitive_vector(ctx, vsub(next_c, apex)))


def _bezout(values) -> tuple[int, ...]:
    """Integers l_t with sum(l_t * values[t]) = gcd(values) >= 0."""
    g, coefs = 0, []
    for x in values:
        # Extended Euclid on (g, x); s*g0 + t*x0 = g throughout.
        s0, s1, t0, t1, a, b = 1, 0, 0, 1, g, x
        while b:
            q = a // b
            a, b = b, a - q * b
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if a < 0:
            a, s0, t0 = -a, -s0, -t0
        g, coefs = a, [s0 * c for c in coefs] + [t0]
    return tuple(coefs)


def corner_chain(ctx: LatticeContext, corner: int) -> CornerFan:
    """The Klein polygon chain at vertex e_corner, by the continued-fraction
    recursion, in time linear in its length.

    Let d0, d1 be the side rays and k = [T : <d0, d1>].  Write det for
    cross2 of the charts, scaled and signed so that det(d0, d1) = k (the
    code uses plain cross2: the ratios below do not see the scale or the
    sign), and let r(v) = det(d0, v), s(v) = det(v, d1); the cone is
    r, s >= 0.  T/<d0, d1> is cyclic of order k and, d0 and d1 being
    primitive, generated by v1 = (d1 + c*d0)/k for one c with 0 <= c < k,
    0 only when k = 1 and v1 = d1.  v1 lies in n*L exactly when
    d1.m + c*(d0.m) = 0 mod k*n for every row m of the monomial basis
    (n*L is the dual of M, and M holds the n*e_i); the d0.m/n have gcd 1
    since d0 is primitive (see ``primitive_vector``), so a Bezout
    combination of the rows solves for c.  From there
    v_{j+1} = a_j*v_j - v_{j-1} with a_j = ceil(s(v_{j-1}) / s(v_j)),
    until s reaches 0.  The a_j are the strengths.

    Exactness, the Klein polygon of the cone.  r(v1) = 1 and s(v1) = c,
    so the chain is (d0, d1) when k = 1.
    The lattice points w with det(v_j, w) = 1 are -v_{j-1} + t*v_j, one
    line parallel to v_j; the ceiling picks the one nearest the d1 ray
    that stays in the cone, 0 <= s(v_{j+1}) < s(v_j).  So s falls
    strictly, every a_j >= 2 since s(v_{j-1}) > s(v_j), and r rises
    strictly: r(v_{j+1}) - r(v_j) = (a_j - 1)*r(v_j) - r(v_{j-1}) >=
    r(v_j) - r(v_{j-1}) >= 1.  The walk ends at the primitive vector on
    the d1 ray, d1.  Each segment v_j v_{j+1} lies on the boundary of the
    polygon: the sum phi of the coordinates in the basis (v_j, v_{j+1})
    is integral on T and 1 at both ends, and phi(d1) = s(v_j) - s(v_{j+1})
    and phi(d0) = r(v_{j+1}) - r(v_j) are at least 1, so phi >= 1 on every
    nonzero lattice point of the cone.  A basis segment holds no other
    lattice point, so the chain is every lattice point of the boundary
    from d0 to d1: the hull chain that ``newton_polygon`` reads off the
    junior points.
    """
    d0, d1 = _side_rays(ctx, corner)
    k = pair_index(ctx, d0, d1)
    n = ctx.n
    rows = ctx.monomial_basis
    lam = _bezout([dot(d0, m) // n for m in rows])
    c = -sum(t * (dot(d1, m) // n) for t, m in zip(lam, rows)) % k
    prev, cur = d0, tuple((y + c * x) // k for x, y in zip(d0, d1))
    chain, strengths = [d0], []
    cd1 = chart(d1)
    s_prev, s = cross2(chart(prev), cd1), cross2(chart(cur), cd1)
    while s:
        chain.append(cur)
        a = -(-s_prev // s)
        strengths.append(a)
        prev, cur = cur, vsub(smul(a, cur), prev)
        s_prev, s = s, cross2(chart(cur), cd1)
    chain.append(cur)
    return CornerFan(tuple(chain), tuple(strengths))


class JuniorHulls(NamedTuple):
    """``newton_polygon``'s hull chain at each corner e_i, under the key i,
    and its counts of junior points inside the simplex and its sides."""

    fans: dict[int, CornerFan]
    interior: int
    edge: int


def newton_polygon(ctx: LatticeContext, points: list[Vec3]) -> JuniorHulls:
    """Every corner's Klein polygon chain as the hull of the junior points,
    and the junior-point counts, from one walk over ``points`` (as
    ``junior_points`` returns them, in any order): the cross-checks of
    ``corner_chain`` and of 2*interior + edge + 1 = N.

    At corner e_c let p and x be the coordinates of e_{c-1} and e_{c+1},
    a = d0[p] and b = d1[x] for the side rays, and k0 = n/a, k1 = n/b the
    lattice steps along the two sides.  A point q is the apex plus
    (q[p]/a)*d0 + (q[x]/b)*d1: each coordinate in the corner basis, a cross
    product in general, is one coordinate of q.  The hull is taken in
    (u, w) = (q[x], q[p]), a positive scaling that keeps every turn.

    Exactness.  The chain, every lattice point on the apex-facing hull
    boundary from d0 to d1, lies in the corner triangle k1*u + k0*w <= n,
    whose lattice points are junior points, vertices included (on
    1/11(1,2,8) every side ray is a whole side).  Two lattice points at one
    u differ by a multiple of d0, for which the triangle has room only at
    u = 0, from the apex to d0; so a table indexed by u holds every point
    but the apex, whatever the order of ``points``.
    Along the chain w falls strictly (it is convex and ends at d1 with
    w = 0, and no lattice point lies between the apex and d1), so a point
    whose w is not below every w at a smaller u, a farther point on a ray
    out of the apex among them, is off it.  The rest run through a monotone
    lower chain that pops only on strict right turns, so a point inside a
    hull edge (strength 2) stays.  The chain must run from d0 to d1 and
    satisfy the three-term recursion with strengths >= 2.
    """
    n = ctx.n
    corners = []
    for c in (1, 2, 3):
        d0, d1 = _side_rays(ctx, c)
        p, x = (c + 1) % 3, c % 3
        k0, k1 = n // d0[p], n // d1[x]
        corners.append((c, d0, d1, p, x, k0, k1, [n + 1] * (d1[x] + 1)))
    interior = 0
    for q in points:
        if q[0] and q[1] and q[2]:
            interior += 1
        for _, _, _, p, x, k0, k1, w_at in corners:
            u, w = q[x], q[p]
            if k1 * u + k0 * w <= n and (u or w):
                w_at[u] = w
    fans = {}
    for c, d0, d1, _, _, k0, k1, w_at in corners:
        hull, least = [], n + 1  # n + 1 marks a u without a point
        for u, w in enumerate(w_at):
            if w >= least:
                continue
            least = w
            while len(hull) > 1:
                (u0, w0), (u1, w1) = hull[-2], hull[-1]
                if (u1 - u0) * (w - w1) >= (w1 - w0) * (u - u1):
                    break
                hull.pop()
            hull.append((u, w))
        vecs = [tuple((w * k0 * s + u * k1 * t) // n for s, t in zip(d0, d1))
                for u, w in hull]  # (w/a)*d0 + (u/b)*d1
        if vecs[:1] + vecs[-1:] != [d0, d1]:
            raise InvariantError(f"corner {c}: side rays missing from hull input")
        strengths = []
        for j in range(1, len(vecs) - 1):
            k = multiple(vadd(vecs[j - 1], vecs[j + 1]), vecs[j])
            if k is None or k < 2:
                raise InvariantError(f"corner {c}: hull chain violates the "
                                     f"recursion at ray {j}")
            strengths.append(k)
        fans[c] = CornerFan(tuple(vecs), tuple(strengths))
    return JuniorHulls(fans, interior, len(points) - interior - 3)


def hj_expand(r: int, alpha: int) -> list[int]:
    """The unique all->=2 continued fraction [a_1,...,a_k] with
    r/alpha = a_1 - 1/(a_2 - 1/(...)).

    Used only as a third route to the corner strengths, on cyclic groups
    whose corners have coprime data.  r = 1 gives the empty expansion.
    """
    if r < 1:
        raise InvariantError("r must be positive")
    if r == 1:
        return []
    if not (1 <= alpha < r) or gcd(r, alpha) != 1:
        raise InvariantError(f"alpha = {alpha} is not reduced mod r = {r}")
    out = []
    while r > 1:
        a = -(-r // alpha)  # ceil
        out.append(a)
        r, alpha = alpha, a * alpha - r
    return out


class CyclicWord(NamedTuple):
    """The cyclic word as three columns: entry j is values[j], tags[j]
    and vectors[j], its chain representative (one cycle is a half turn)."""

    values: tuple[int, ...]
    tags: tuple[Tag, ...]
    vectors: tuple[Vec3, ...]

    def __len__(self) -> int:
        return len(self.values)


# _replace builds the changed word through _make, and the named tuple's
# own _make takes len, the entry count, for the field count.  NamedTuple
# does not let a class body define _make.
CyclicWord._make = classmethod(lambda cls, iterable: cls(*iterable))


def junction_c(side: int, fans: dict[int, CornerFan]) -> tuple[int, Vec3]:
    """Junction constant c of side (i, i+1) and the side's inward vector at
    e_{i+1}; the side is long exactly when c >= 2."""
    i, ip1 = side, side % 3 + 1
    f_next = fans[ip1].vectors
    f_prev = fans[i].vectors
    diff = vsub(f_next[1], f_prev[-2])
    c = multiple(diff, f_next[0])
    if c is None or c < 1:
        raise InvariantError(f"side {side}: no junction constant (corner fan bug)")
    return c, f_next[0]


def long_side(word: CyclicWord) -> tuple[int, int] | None:
    """The long side as (side, c): the word's junction entry whose value c
    is at least 2, or None when every side is short.  Raises
    InvariantError when more than one side is long."""
    longs = [(tag[1], value) for value, tag in zip(word.values, word.tags)
             if tag[0] == "junction" and value >= 2]
    if len(longs) > 1:
        raise InvariantError("more than one long side")
    return longs[0] if longs else None


def cyclic_word(fans: dict[int, CornerFan]) -> CyclicWord:
    """Concatenate the three corner chains into the cyclic word.

    Order: junction(e3 e1), strengths at e1, junction(e1 e2), strengths at
    e2, junction(e2 e3), strengths at e3.  Entry vectors carry alternating
    blade signs so that consecutive entries satisfy
    v_{j-1} + v_{j+1} = value_j * v_j, with a sign flip on wraparound.
    """
    values, tags, vectors = [], [], []
    for i, sgn in ((1, 1), (2, -1), (3, 1)):
        side_in = (i + 1) % 3 + 1  # side (i-1, i)
        c, vec = junction_c(side_in, fans)
        fan = fans[i]
        values += [c, *fan.strengths]
        tags += [("junction", side_in),
                 *(("corner", i, j) for j in range(1, fan.k + 1))]
        vectors += [smul(sgn, v) for v in (vec, *fan.vectors[1:-1])]
    word = CyclicWord(tuple(values), tuple(tags), tuple(vectors))
    validate_chain(word)
    return word


def validate_chain(word: CyclicWord) -> None:
    """Check that no two entries are parallel, then the three-term
    relation at every entry (wrap flips sign).

    On corner chains none are: by the relation each consecutive pair has
    the same nonzero determinant, so the vectors turn one way, and the
    three corner sweeps add up to the simplex's angle sum, a half turn
    from v_0 to -v_0.  So a regular triple is named by its entry indexes
    as well as by its vectors.  The vectors are primitive, so two are
    parallel exactly when their sign-fixed vectors are equal.
    """
    first: dict[Vec3, int] = {}
    for j, v in enumerate(word.vectors):
        i = first.setdefault(sign_fixed(v), j)
        if i != j:
            raise InvariantError(f"cyclic word entries {i} and {j} are parallel")
    values, vectors, m = word.values, word.vectors, len(word)
    for j in range(m):
        left, right = vectors[j - 1], vectors[(j + 1) % m]
        if j == 0:
            left = vneg(left)
        if j == m - 1:
            right = vneg(right)
        if vadd(left, right) != smul(values[j], vectors[j]):
            raise InvariantError(f"cyclic word chain relation fails at entry {j}")


def cyclic_matrix_product(word: CyclicWord) -> tuple:
    """Product of the basis-change matrices [[0,1],[-1,value]] over one full
    cycle, by the row recurrence (a, b) -> (-b, a + value*b).  Equals
    minus the identity: the cycle is a half turn."""
    a, b, c, d = 1, 0, 0, 1
    for v in word.values:
        a, b, c, d = -b, a + v * b, -d, c + v * d
    return ((a, b), (c, d))
