"""Corner chains, junction constants and the cyclic word.

Each simplex vertex is the apex of a 2-D cone, a cyclic quotient
1/k(1,q) in its own lattice.  The boundary of the convex hull of the cone's
nonzero lattice points (its Klein polygon) is a chain of primitive vectors
whose three-term recursion constants are the strengths: the
Hirzebruch-Jung continued fraction of k/q.  ``corner_chain`` builds the
chain by that recursion, without looking at any other lattice point;
``newton_polygon`` takes the hull of the junior points, and the invariant
suite checks that the two agree.  The three corner chains concatenate,
with one junction constant per side, into a single cyclic word that drives
the contraction game.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd
from typing import NamedTuple

from .errors import InvariantError
from .lattice import (
    JuniorPoint,
    LatticeContext,
    Vec3,
    chart,
    cross2,
    dot,
    multiple,
    pair_index,
    primitive_vector,
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
    from d0 to d1, as ``newton_polygon`` finds it.
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


def newton_polygon(ctx: LatticeContext, corner: int,
                   points: list[JuniorPoint]) -> CornerFan:
    """Klein polygon chain at vertex e_corner, with strengths, as the hull
    of the junior points: the cross-check of ``corner_chain``.

    The chain is every lattice point on the hull boundary facing the apex,
    points inside hull edges (strength 2) included: the scan pops only on
    strict right turns.  Such a point is the nearest lattice point on its
    ray from the apex (a nearer one would lie on the apex side of the edge),
    so it is a candidate, and in angle order it sits between the edge's ends.
    """
    apex = ctx.corner(corner)
    d0, d1 = _side_rays(ctx, corner)

    # The apex-facing hull boundary lies inside the triangle (apex, apex + d0,
    # apex + d1); of apex-collinear points only the nearest can sit on it.
    cands: dict[Vec3, Vec3] = {}
    for jp in points:
        q = jp.coords
        if q == apex:
            continue
        v = vsub(q, apex)
        if not _in_corner_triangle(v, d0, d1):
            continue
        key = primitive_vector(ctx, v)
        if key not in cands or _closer(v, cands[key]):
            cands[key] = v

    def angle_cmp(u: Vec3, w: Vec3) -> int:
        c = cross2(chart(u), chart(w))
        return 0 if c == 0 else (-1 if c < 0 else 1)

    vecs = sorted(cands.values(), key=cmp_to_key(angle_cmp))
    if vecs[0] != d0 or vecs[-1] != d1:
        raise InvariantError(f"corner {corner}: side rays missing from hull input")

    # Graham scan keeping left turns and collinear points.
    chain: list[Vec3] = []
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


def _in_corner_triangle(v: Vec3, d0: Vec3, d1: Vec3) -> bool:
    """Is v inside the cone triangle {s*d0 + t*d1 : s,t >= 0, s+t <= 1}?"""
    d = cross2(chart(d0), chart(d1))
    s_num = cross2(chart(v), chart(d1))
    t_num = cross2(chart(d0), chart(v))
    if d < 0:
        s_num, t_num, d = -s_num, -t_num, -d
    return s_num >= 0 and t_num >= 0 and s_num + t_num <= d


def _closer(u: Vec3, w: Vec3) -> bool:
    return sum(abs(t) for t in u) < sum(abs(t) for t in w)


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


class WordEntry(NamedTuple):
    value: int
    tag: Tag
    vector: Vec3  # chain representative; one full cycle is a half turn


class CyclicWord(NamedTuple):
    entries: tuple[WordEntry, ...]

    def values(self) -> tuple[int, ...]:
        return tuple(e.value for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


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
    longs = [(e.tag[1], e.value) for e in word.entries
             if e.tag[0] == "junction" and e.value >= 2]
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
    entries: list[WordEntry] = []
    signs = {1: 1, 2: -1, 3: 1}
    for i in (1, 2, 3):
        side_in = (i + 1) % 3 + 1  # side (i-1, i)
        c, vec = junction_c(side_in, fans)
        sgn = signs[i]
        entries.append(WordEntry(c, ("junction", side_in), smul(sgn, vec)))
        fan = fans[i]
        for j in range(1, fan.k + 1):
            entries.append(
                WordEntry(fan.strengths[j - 1], ("corner", i, j),
                          smul(sgn, fan.vectors[j]))
            )
    word = CyclicWord(tuple(entries))
    validate_chain(word)
    return word


def validate_chain(word: CyclicWord) -> None:
    """Check the three-term relation at every entry (wrap flips sign)."""
    ent = word.entries
    m = len(ent)
    for j, e in enumerate(ent):
        left = ent[(j - 1) % m].vector
        right = ent[(j + 1) % m].vector
        if j == 0:
            left = vneg(left)
        if j == m - 1:
            right = vneg(right)
        if vadd(left, right) != smul(e.value, e.vector):
            raise InvariantError(f"cyclic word chain relation fails at entry {j}")


def cyclic_matrix_product(word: CyclicWord) -> tuple:
    """Product of the basis-change matrices [[0,1],[-1,value]] over one full
    cycle.  Equals minus the identity: the cycle is a half turn."""
    m = ((1, 0), (0, 1))
    for e in word.entries:
        step = ((0, 1), (-1, e.value))
        m = tuple(
            tuple(sum(m[r][t] * step[t][c] for t in range(2)) for c in range(2))
            for r in range(2)
        )
    return m
