"""Corner Newton polygons, junction constants and the cyclic word.

At each simplex vertex the boundary of the convex hull of the remaining
lattice points (the Klein polygon of the corner cone) yields a chain of
primitive vectors whose three-term recursion constants are the strengths.
The three corner chains concatenate, with one junction constant per side,
into a single cyclic word that drives the contraction game.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd

from .errors import InvariantError
from .lattice import (
    LatticeContext,
    Vec3,
    chart,
    cross2,
    junior_points,
    multiple,
    primitive_vector,
    smul,
    vadd,
    vneg,
    vsub,
)

# Entry tags. A corner tag is ("corner", i, j) for the j-th interior ray at
# vertex e_i; a junction tag is ("junction", s) for the side e_s e_{s+1}.
Tag = tuple


@dataclass(frozen=True)
class CornerFan:
    """The Klein polygon chain at one corner.

    vectors[0] points along the side toward e_{i-1}, vectors[-1] along the
    side toward e_{i+1}; the k vectors between them are the interior rays.
    strengths[j-1] is the recursion constant of vectors[j].
    """

    corner: int
    vectors: tuple[Vec3, ...]
    strengths: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.strengths)


def newton_polygon(ctx: LatticeContext, corner: int) -> CornerFan:
    """Klein polygon chain at vertex e_corner, with strengths.

    The chain is every lattice point on the hull boundary facing the apex,
    points inside hull edges (strength 2) included: the scan pops only on
    strict right turns.  Such a point is the nearest lattice point on its
    ray from the apex (a nearer one would lie on the apex side of the edge),
    so it is a candidate, and in angle order it sits between the edge's ends.
    """
    apex = ctx.corner(corner)
    prev_c = ctx.corner((corner - 2) % 3 + 1)
    next_c = ctx.corner(corner % 3 + 1)
    d0 = primitive_vector(ctx, vsub(prev_c, apex))
    d1 = primitive_vector(ctx, vsub(next_c, apex))

    # The apex-facing hull boundary lies inside the triangle (apex, apex + d0,
    # apex + d1); of apex-collinear points only the nearest can sit on it.
    cands: dict[Vec3, Vec3] = {}
    for jp in junior_points(ctx):
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
    return CornerFan(corner, tuple(chain), tuple(strengths))


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

    Used only as an independent cross-check of newton_polygon on corners
    with coprime data.  r = 1 gives the empty expansion.
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


@dataclass(frozen=True)
class WordEntry:
    value: int
    tag: Tag
    vector: Vec3  # chain representative; one full cycle is a half turn


@dataclass(frozen=True)
class CyclicWord:
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
