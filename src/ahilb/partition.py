"""The partition of the simplex into regular triangles.

Two independent routes produce it: enumeration of the regular triangles
cut out by the lines, each read in closed form off two of its side lines
of pair index 1 (authoritative), and the regular triples certified by
the contraction game on the cyclic word (mandatory cross-check).  Each
side is read as tag triples, the side lines of a triangle and the host
lines of a game triple, and the two sets must be equal but for the
concurrent champion, whose three lines meet in a lattice point.  A
mismatch raises InvariantError: this is the package's central
differential test.  The partition checks that the triangles' areas
exhaust the simplex; the fan's edge matching over their tesselations
(``fan.build_fan``) certifies that they tile it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import gcd
from typing import NamedTuple

from .corners import CyclicWord, Tag, long_side as find_long_side
from .errors import InvariantError
from .lattice import (
    LatticeContext,
    Vec3,
    chart,
    cross2,
    cross3,
    det3,
    dot,
    pair_index,
    primitive_in_monomial_lattice,
    sign_fixed,
    smul,
    vadd,
    vneg,
    vsub,
)
from .mmp import MMPTrace, classify_triple, contract_run

RatPoint = tuple[Vec3, int]  # numerator triple over a positive denominator


class Line(NamedTuple):
    """The line of one word entry, with its ratio (see ``rays``): out of a
    corner for interior lines, or a side of the simplex for junctions.
    defeat_point is filled on the interior lines of the partition."""

    tag: Tag
    anchor: Vec3
    direction: Vec3  # primitive
    strength: int
    ratio: Vec3
    defeat_point: Vec3 | None = None


def rays(ctx: LatticeContext, word: CyclicWord) -> dict[Tag, Line]:
    """One line per word entry, in word order: the interior rays of every
    corner and the three sides.  An entry tagged (kind, i, ...) runs out
    of e_i along its vector or the negative, whichever leaves e_i (lowers
    coordinate i), with the entry's value as its strength; the junction
    (side) e_s e_{s+1} thus runs from e_s toward e_{s+1}.  Its ratio, the
    primitive invariant exponents vanishing on it, is signed positive at
    e_{i-1}, which no line out of e_i, interior or junction, runs through."""
    lines: dict[Tag, Line] = {}
    for value, tag, vec in zip(word.values, word.tags, word.vectors):
        i = tag[1]
        corner = ctx.corner(i)
        m = primitive_in_monomial_lattice(ctx, cross3(corner, vec))
        lines[tag] = Line(tag, corner, vec if vec[i - 1] < 0 else vneg(vec),
                          value, m if m[i - 2] > 0 else vneg(m))
    return lines


def _meet_params(l1: Line, l2: Line) -> tuple[int, int]:
    """(d, t) such that l1 meets l2 at l1.anchor + (t/d)*l1.direction;
    d = 0 when the lines are parallel."""
    d = cross2(chart(l1.direction), chart(l2.direction))
    t = cross2(chart(vsub(l2.anchor, l1.anchor)), chart(l2.direction))
    return d, t


def meet(l1: Line, l2: Line) -> RatPoint | None:
    """Exact intersection point of two lines, or None when parallel.

    Returned as (numerator, denominator) with denominator > 0 and the
    fraction reduced.
    """
    d, t = _meet_params(l1, l2)
    if d == 0:
        return None
    num = vadd(smul(d, l1.anchor), smul(t, l1.direction))
    if d < 0:
        num, d = (-num[0], -num[1], -num[2]), -d
    g = gcd(*num, d)
    return ((num[0] // g, num[1] // g, num[2] // g), d // g)


class RegularTriangle(NamedTuple):
    """A lattice triangle whose sides ride on subdivision lines and whose
    primitive side directions form a regular triple.

    vertices[t] is the vertex opposite side_lines[t]; side_ratios[t] is
    that line's ratio, signed positive at vertices[t] with one ``dot``.
    The pairing is never 0, because k != 0 puts the vertex off that line.
    Equivalent to the side-r standard triangle.
    """

    vertices: tuple[Vec3, Vec3, Vec3]
    r: int
    side_lines: tuple[Tag, Tag, Tag]
    side_ratios: tuple[Vec3, Vec3, Vec3]

    def key(self) -> tuple[Vec3, Vec3, Vec3]:
        return tuple(sorted(self.vertices))

    def step(self, s: int, t: int) -> Vec3:
        """The unit step (vertices[t] - vertices[s])/r along a side."""
        p, q, r = self.vertices[s], self.vertices[t], self.r
        return ((q[0] - p[0]) // r, (q[1] - p[1]) // r, (q[2] - p[2]) // r)

    def ccw(self) -> bool:
        """Do the vertices run counter-clockwise in the chart?  On the
        junior plane det3 of three points is n times the cross2 of two
        sides' charts, as in ``verify_fan``."""
        return det3(self.vertices) > 0

    def side_of(self, t: int) -> tuple[Vec3, Vec3]:
        """Endpoints of the side opposite vertex t."""
        return self.vertices[:t] + self.vertices[t + 1:]


def enumerate_triangles(ctx: LatticeContext,
                        lines: dict[Tag, Line]) -> list[RegularTriangle]:
    """Every regular triangle cut out by three of the lines; they tile the
    simplex, so this is the partition.

    The search is complete.  The sides r*u, r*v, r*w of a regular
    triangle sum to zero, and each of u, v, w is +- the direction of its
    host line.  Two of the signs agree, say on the hosts a, b of u, v;
    then d_a + d_b = -+w, and d_a, d_b have pair index 1:
    |cross2(chart d_a, chart d_b)| = n^2/N (see ``pair_index``).  So it
    suffices to try, for each of the about 2*L line pairs of index 1, the
    lines c of direction +-(d_a + d_b).

    Each try is read off in closed form.  (d_a, d_b) is a basis of the
    translation lattice and every anchor is a corner, so chart solves of
    determinant cross2(d_a, d_b) give integers s, alpha, beta with
    A_b - A_a = s*d_a - t*d_b and A_c - P = alpha*d_a + beta*d_b, where
    P = A_a + s*d_a is the meet of a and b; a remainder raises.  Line c
    runs through P + alpha*d_a + beta*d_b along d_a + d_b, so for k =
    alpha - beta it meets a at P + k*d_a and b at P - k*d_b.  The sides
    k*d_a, k*d_b, k*(d_a + d_b) are |k| primitive steps of index 1: the
    three lines cut out a regular triangle of side |k| when k != 0 and
    the vertices lie in the simplex, else none.
    """
    ordered = [lines[t] for t in sorted(lines)]
    by_direction: dict[Vec3, list[Line]] = {}
    for line in ordered:
        by_direction.setdefault(sign_fixed(line.direction), []).append(line)
    unit = ctx.n * ctx.n // ctx.order
    charts = [chart(line.direction) for line in ordered]
    found: dict[tuple, RegularTriangle] = {}
    for a, (ya, za) in enumerate(charts):
        la = ordered[a]
        for b in range(a + 1, len(ordered)):
            yb, zb = charts[b]
            det = ya * zb - za * yb
            if abs(det) != unit:
                continue
            lb = ordered[b]
            da, db = la.direction, lb.direction
            third = by_direction.get(sign_fixed(vadd(da, db)))
            if third is None:
                continue
            s, rem = divmod((lb.anchor[1] - la.anchor[1]) * zb
                            - (lb.anchor[2] - la.anchor[2]) * yb, det)
            p = vadd(la.anchor, smul(s, da))
            for lc in third:
                wy, wz = lc.anchor[1] - p[1], lc.anchor[2] - p[2]
                alpha, ra = divmod(wy * zb - wz * yb, det)
                beta, rb = divmod(ya * wz - za * wy, det)
                if rem or ra or rb:
                    raise InvariantError(
                        f"anchors of lines {la.tag}, {lb.tag} and {lc.tag} "
                        "are not on one lattice")
                k = alpha - beta
                va, vb = vsub(p, smul(k, db)), vadd(p, smul(k, da))
                if k == 0 or min(p + va + vb) < 0:  # a vertex off the simplex
                    continue
                if lc.tag < la.tag:
                    hosts, pts = (lc, la, lb), (p, va, vb)
                elif lc.tag < lb.tag:
                    hosts, pts = (la, lc, lb), (va, p, vb)
                else:
                    hosts, pts = (la, lb, lc), (va, vb, p)
                tags = (hosts[0].tag, hosts[1].tag, hosts[2].tag)
                tri = RegularTriangle(pts, abs(k), tags, tuple(
                    h.ratio if dot(h.ratio, v) > 0 else vneg(h.ratio)
                    for h, v in zip(hosts, pts)))
                if found.setdefault(tri.key(), tri).side_lines != tags:
                    raise InvariantError(
                        "two line triples cut out the same triangle")
    return [found[k] for k in sorted(found)]


class ChampionsReport(NamedTuple):
    """Outcome of the knock-out game: either a long side exists, or the
    unique champion triple meets in a point or cuts out a central triangle."""

    kind: str  # "long_side" | "concurrent" | "cocked_hat" | "simplex"
    side: int | None = None  # the long side, whose junction value is c
    c: int | None = None
    point: Vec3 | None = None  # where the champion lines meet
    triangle: int | None = None  # index of the central triangle (or simplex)


class Partition(NamedTuple):
    """The regular triangles sorted by key, the knock-out outcome, and the
    interior lines, in tag order, with their defeat points."""

    triangles: tuple[RegularTriangle, ...]
    champions: ChampionsReport
    catchment: dict[int, tuple[int, ...]]  # side -> triangle indexes
    lines: dict[Tag, Line]


def crossings(part: Partition) -> list[tuple[Line, Line, RatPoint]]:
    """Every (la, lb, x) where interior lines of part from two different
    corners meet at x strictly inside the simplex, within both lines'
    extents: x has not passed either line's defeat point in the line's
    own-corner coordinate.  Sorted by tag pair, la.tag < lb.tag.

    Every meet is interior.  An interior line out of e_i is a cevian:
    it runs from e_i to a point inside the opposite side, so it splits
    the simplex into a part holding e_j and a part holding the third
    corner e_k.  A cevian out of e_j ends inside the side e_i e_k, in
    the second part, so the two meet strictly inside the simplex.

    The meets along a line move monotonically in fan order.  Let la run
    out of e_i, let e_j be another corner and e_k the third.  Seen from
    e_j, the points of la, from e_i outward, sweep the angle at e_j
    once, from the side toward e_i to the side toward e_k: a central
    projection from e_j, which la misses.  Corner j's fan runs from the
    side toward e_{j-1} to the side toward e_{j+1}.  So from e_i
    outward la meets corner j's lines in fan order when j = i+1 and in
    reverse fan order when j = i-1, while la's own-corner coordinate
    falls strictly.  "The meet is within la's extent" thus holds on a
    prefix of corner j's fan when j = i+1 and on a suffix when
    j = i-1, whatever la's defeat point, and bisection with
    ``_within`` finds it.  For corners i and j = i+1, the crossings
    are the pairs (la_p, lb_m) with m in la_p's prefix and p in lb_m's
    suffix.  A sweep over p that adds each m once p reaches the start
    of its suffix reports them: O(L log L) extent tests, one ``meet``
    per crossing, and a sort of the K crossings.
    """
    fans = {i: [] for i in (1, 2, 3)}
    for line in part.lines.values():
        fans[line.tag[1]].append(line)
    pairs = []
    for i in (1, 2, 3):
        j = i % 3 + 1
        own, nxt = fans[i], fans[j]
        # own[p] crosses within its extent the lines nxt[:ends[p]],
        # nxt[m] the lines own[starts[m]:].
        ends = [bisect_left(nxt, True, key=lambda lb: not _within(la, lb))
                for la in own]
        starts = [bisect_left(own, True, key=lambda la: _within(lb, la))
                  for lb in nxt]
        waiting = sorted(range(len(nxt)), key=starts.__getitem__,
                         reverse=True)
        active: list[int] = []  # sorted m with starts[m] <= p
        for p, la in enumerate(own):
            while waiting and starts[waiting[-1]] <= p:
                insort(active, waiting.pop())
            for m in active[:bisect_left(active, ends[p])]:
                pairs.append((la, nxt[m]) if i < j else (nxt[m], la))
    pairs.sort(key=lambda pair: (pair[0].tag, pair[1].tag))
    return [(la, lb, meet(la, lb)) for la, lb in pairs]


def _within(line: Line, other: Line) -> bool:
    """Does the interior line other meet line within line's extent?

    With d and t from ``_meet_params``, the meet is
    (d*anchor + t*direction)/d, so its own-corner coordinate o is at least
    the defeat point's exactly when d*anchor[o] + t*direction[o] -
    d*defeat_point[o] has the sign of d, which is never 0: the lines cross.
    """
    o = line.tag[1] - 1
    d, t = _meet_params(line, other)
    gap = d * (line.anchor[o] - line.defeat_point[o]) + t * line.direction[o]
    return gap >= 0 if d > 0 else gap <= 0


def _concurrent_champion(ctx: LatticeContext, lines: dict[Tag, Line],
                         tags: tuple[Tag, Tag, Tag]) -> Vec3 | None:
    """Where the lines tagged tags meet, when tags is a champion triple
    whose lines concur; else None.  Raises when they concur off the
    lattice points of the simplex, or when their directions do not
    pairwise form bases (one pair index settles all three, as in
    ``enumerate_triangles``: each direction is +- the sum of the other
    two)."""
    if classify_triple(tags) != "champion":
        return None
    host = [lines[t] for t in tags]
    pts = {meet(host[a], host[b]) for a, b in ((1, 2), (0, 2), (0, 1))}
    if len(pts) != 1 or None in pts:
        return None
    ((num, den),) = pts
    if den != 1 or min(num) < 0 or not ctx.is_lattice_point(num):
        raise InvariantError(
            "concurrency point is not a lattice point of the simplex")
    if pair_index(ctx, host[0].direction, host[1].direction) != 1:
        raise InvariantError("triple vectors do not pairwise form bases")
    return num


def build_partition(ctx: LatticeContext, game: MMPTrace) -> Partition:
    """Enumerate the partition on the lines of game's word, cross-check it
    against the contraction game, check the areas, and fill champions,
    catchment areas and the interior lines' defeat points.  game is the
    leftmost run on the cyclic word.  That the triangles tile the simplex
    is certified by ``fan.build_fan``.

    The cross-check compares tag triples: the sorted side-line tags of
    each enumerated triangle against the sorted tags of the three word
    entries of each game triple's step, its host lines.  The two sets
    must be equal but for one game triple on no enumerated triangle, the
    concurrent champion: a champion triple whose three lines meet
    pairwise in one lattice point of the simplex and whose directions
    have pair index 1.  Any other difference is a partition mismatch.

    A game triple on an enumerated triangle's side lines is regular
    without a test.  ``enumerate_triangles`` pairs only lines a, b whose
    directions have pair index 1 and takes as third side a line c of
    direction +-(d_a + d_b); the index of <d_a, d_a + d_b> and of
    <d_b, d_a + d_b> in T is that of <d_a, d_b>, so any two side
    directions span T.  The triple's vectors are +- its host lines'
    directions, so any two of them form a basis.  The pair-index test
    therefore runs only on the concurrent champion.

    A side run's step must be a game triple's by its sorted entry
    indexes, which name it (``validate_chain``).
    """
    word = game.word
    lines = rays(ctx, word)

    enumerated = enumerate_triangles(ctx, lines)  # sorted by key
    index = {tuple(sorted(tri.side_lines)): t for t, tri in enumerate(enumerated)}
    hosts = {tuple(sorted(step)): tuple(sorted(word.tags[e] for e in step))
             for step in game.triples}
    # Against the distinct side-line sets: a repeated triangle passes here
    # and fails the area check below.
    certified = set(hosts.values())
    unmatched = certified - index.keys()
    point = None  # where the champion lines meet, if they concur
    if len(unmatched) == 1:
        point = _concurrent_champion(ctx, lines, *unmatched)
        if point is not None:
            unmatched = set()
    missing = index.keys() - certified
    if missing or unmatched:
        raise InvariantError(
            f"partition mismatch: enumerated triangles on {sorted(missing)} "
            f"and game triples on {sorted(unmatched)} have no counterpart")

    if sum(t.r * t.r for t in enumerated) != ctx.order:
        raise InvariantError("triangle areas do not exhaust the simplex")

    # Champions.
    long_side = find_long_side(word)
    champs = [tags for tags in hosts.values()
              if classify_triple(tags) == "champion"]
    if long_side is not None:
        if champs:
            raise InvariantError("champion triple found despite a long side")
        champions = ChampionsReport("long_side", side=long_side[0], c=long_side[1])
    elif not champs and len(word) == 3:
        # The whole simplex is one regular triangle (empty corner fans);
        # no knock-out happens and no champion triple exists.
        champions = ChampionsReport("simplex", triangle=0)
    elif len(champs) != 1:
        raise InvariantError(
            f"expected a unique champion triple, found {len(champs)}"
        )
    elif point is not None:
        champions = ChampionsReport("concurrent", point=point)
    else:
        champions = ChampionsReport("cocked_hat", triangle=index[champs[0]])

    # Catchment areas: eat each short side on a fresh word (the other
    # junctions fence the front in).  A triangle reachable from two sides
    # -- the middle of a semiregular strip -- goes to the smaller side index.
    owner: dict[int, int] = {}  # triangle index -> side
    for s in (1, 2, 3):
        if champions.side == s:
            continue
        # Eat triangles along side s: contract any 1 except the other two
        # junction entries, until none is available.
        fence = frozenset(("junction", o) for o in (1, 2, 3) if o != s)
        for step in contract_run(word, protected=fence):
            named = hosts.get(tuple(sorted(step)))
            if named is None:
                tags = tuple(word.tags[e] for e in step)
                raise InvariantError(
                    f"side run triple {tags} is not one of the game's")
            t = index.get(named)
            if t is None:
                raise InvariantError("side run realized a degenerate triple")
            owner.setdefault(t, s)
    catchment = {s: tuple(sorted(t for t, o in owner.items() if o == s))
                 for s in (1, 2, 3)}
    rest = set(range(len(enumerated))) - set(owner)
    if champions.triangle is not None:
        if rest != {champions.triangle}:
            raise InvariantError("catchments must leave exactly the champion")
    elif rest:
        raise InvariantError("triangles outside every catchment: "
                             f"{set(enumerated[t].key() for t in rest)}")

    # Each interior line's extent ends at its defeat point.
    sides: dict[Tag, list[tuple[Vec3, Vec3]]] = {}
    for tri in enumerated:
        for t, tag in enumerate(tri.side_lines):
            sides.setdefault(tag, []).append(tri.side_of(t))
    return Partition(
        triangles=tuple(enumerated),
        champions=champions,
        catchment=catchment,
        lines={tag: line._replace(
                   defeat_point=line_extent(line, sides.get(tag, [])))
               for tag, line in lines.items() if tag[0] == "corner"},
    )


def line_extent(line: Line, sides: list[tuple[Vec3, Vec3]]) -> Vec3:
    """Far end of the extent of line from its corner, given the endpoints
    of the triangle sides that lie on it.

    The union of triangle sides on the line must be one contiguous segment
    starting at the corner.  A line out of e_i loses some of its i-th
    coordinate at every step, so that coordinate orders its points.  Every
    interior line hosts a side: the tiling triangle in the sector at e_i
    between the line and a neighboring ray has its sides on both rays.
    That tiling is certified by ``fan.build_fan``, after this runs; a
    partition that does not tile may raise here first.
    """
    tag = line.tag
    own = tag[1] - 1
    segs = {tuple(sorted(side, key=lambda p: -p[own])) for side in sides}
    if not segs:
        raise InvariantError(f"line {tag} hosts no triangle side")
    merged = sorted(segs, key=lambda seg: -seg[0][own])
    if merged[0][0] != line.anchor:
        raise InvariantError(f"line {tag} extent does not start at its corner")
    far = merged[0][1]
    for near, end in merged[1:]:
        if near[own] < far[own]:
            raise InvariantError(f"line {tag} extent has a gap")
        if end[own] < far[own]:
            far = end
    return far


def knockout_report(part: Partition,
                    crossings: list[tuple[Line, Line, RatPoint]]) -> list[str]:
    """Check the knock-out rule at every interior crossing of part, given
    as ``crossings(part)`` lists them: the strongest arrival extends
    (strength dropping by one per defeated rival), ties all die.  Returns
    a list of violations (empty when consistent)."""
    # Reachable pairwise crossings, grouped by location.
    events: dict[RatPoint, set[Tag]] = {}
    for la, lb, x in crossings:
        events.setdefault(x, set()).update((la.tag, lb.tag))

    def dies_at(tag: Tag, x: RatPoint) -> bool:
        return x == (part.lines[tag].defeat_point, 1)

    # Walk each line's lattice crossings from its corner outward (falling
    # own-corner coordinate).  A meet off the lattice is nobody's defeat
    # point, so it leaves every strength as it is.
    visits: dict[Tag, list[RatPoint]] = {}
    for x, tags in events.items():
        if x[1] == 1:
            for tag in tags:
                visits.setdefault(tag, []).append(x)
    arrival: dict[tuple[RatPoint, Tag], int] = {}
    for tag, xs in visits.items():
        strength = part.lines[tag].strength
        for x in sorted(xs, key=lambda x: -x[0][tag[1] - 1]):
            arrival[x, tag] = strength
            strength -= sum(1 for o in events[x] if o != tag and dies_at(o, x))

    violations = []
    for x, tags in sorted(events.items()):
        if x[1] != 1:
            violations.append(f"meet at non-lattice point {x}")
            continue
        arrivals = {tag: arrival[x, tag] for tag in sorted(tags)}
        top = max(arrivals.values())
        winners = [t for t, s in arrivals.items() if s == top]
        for tag in arrivals:
            dies = dies_at(tag, x)
            should_die = len(winners) > 1 or tag not in winners
            if dies != should_die:
                violations.append(
                    f"line {tag} at {x[0]}: strengths {arrivals}, "
                    f"extent {'ends' if dies else 'continues'}"
                )
    # Every interior defeat point lies on the boundary or at a crossing.
    for line in part.lines.values():
        end = line.defeat_point
        if 0 in end:
            continue
        if line.tag not in events.get((end, 1), ()):
            violations.append(f"line {line.tag} dies at {end} with no rival")
    return violations

