"""Realizing regular triples inside the simplex and the partition into
regular triangles.

Two independent algorithms produce the partition: enumeration of the
regular triangles cut out by the lines, searching only line triples whose
directions can sum to zero (authoritative), and realization of the
contraction-game triples (mandatory cross-check).  A mismatch raises
InvariantError: this is the package's central differential test.  The
tiling is then checked by edge matching and exact areas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from math import gcd

from .corners import (
    CornerFan,
    CyclicWord,
    Tag,
    junction_c,
    long_side as find_long_side,
    side_corners,
)
from .errors import InvariantError
from .lattice import (
    LatticeContext,
    Vec3,
    chart,
    cross2,
    multiple,
    pair_index,
    primitive_vector,
    smul,
    vadd,
    vneg,
    vsub,
)
from .mmp import RegularTriple, contract, run_mmp, triple_set, validate_triple

RatPoint = tuple[Vec3, int]  # numerator triple over a positive denominator


@dataclass(frozen=True)
class Line:
    """A ray of the subdivision: out of a corner for interior lines, or a
    side of the simplex.  defeat_point is filled after the partition."""

    tag: Tag
    anchor: Vec3
    direction: Vec3  # primitive
    strength: int
    defeat_point: Vec3 | None = None


def rays(ctx: LatticeContext, fans: dict[int, CornerFan]) -> dict[Tag, Line]:
    """One line per interior corner ray plus the three sides."""
    lines: dict[Tag, Line] = {}
    for i in (1, 2, 3):
        fan = fans[i]
        for j in range(1, fan.k + 1):
            tag = ("corner", i, j)
            lines[tag] = Line(tag, ctx.corner(i), fan.vectors[j],
                              fan.strengths[j - 1])
    for s in (1, 2, 3):
        i, ip1 = side_corners(s)
        c, _ = junction_c(s, fans)
        tag = ("junction", s)
        d = primitive_vector(ctx, vsub(ctx.corner(ip1), ctx.corner(i)))
        lines[tag] = Line(tag, ctx.corner(i), d, c)
    return lines


def meet(l1: Line, l2: Line) -> RatPoint | None:
    """Exact intersection point of two lines, or None when parallel.

    Returned as (numerator, denominator) with denominator > 0 and the
    fraction reduced.
    """
    d = cross2(chart(l1.direction), chart(l2.direction))
    if d == 0:
        return None
    t = cross2(chart(vsub(l2.anchor, l1.anchor)), chart(l2.direction))
    num = vadd(smul(d, l1.anchor), smul(t, l1.direction))
    if d < 0:
        num, d = (-num[0], -num[1], -num[2]), -d
    g = gcd(gcd(gcd(abs(num[0]), abs(num[1])), abs(num[2])), d)
    return ((num[0] // g, num[1] // g, num[2] // g), d // g)


def _lattice_point_of(ctx: LatticeContext, p: RatPoint) -> Vec3 | None:
    num, den = p
    if den != 1 or not ctx.is_lattice_point(num):
        return None
    return num


def _inside_simplex(p: RatPoint) -> bool:
    return all(c >= 0 for c in p[0])


def _step_count(frm: Vec3, to: Vec3, direction: Vec3) -> int:
    """Number of primitive steps of `direction` from frm to to (signed)."""
    k = multiple(vsub(to, frm), direction)
    if k is None:
        raise InvariantError("points are not joined by the direction")
    return k


@dataclass(frozen=True)
class RegularTriangle:
    """A lattice triangle whose sides ride on subdivision lines and whose
    primitive side directions form a regular triple.

    vertices[t] is the vertex opposite side_lines[t]; side_directions[t]
    points along that side.  Equivalent to the side-r standard triangle.
    """

    vertices: tuple[Vec3, Vec3, Vec3]
    r: int
    side_lines: tuple[Tag, Tag, Tag]
    side_directions: tuple[Vec3, Vec3, Vec3]
    case_tag: str | None = None

    def key(self) -> tuple[Vec3, Vec3, Vec3]:
        return tuple(sorted(self.vertices))

    def side_of(self, t: int) -> tuple[Vec3, Vec3]:
        """Endpoints of the side opposite vertex t."""
        others = [self.vertices[u] for u in range(3) if u != t]
        return (others[0], others[1])


@dataclass(frozen=True)
class ConcurrencyPoint:
    """Degenerate realization of the champion triple: the three host lines
    meet in one lattice point and the 'triangle' has side zero."""

    point: Vec3
    tags: tuple[Tag, Tag, Tag]


def _triangle_from_lines(ctx: LatticeContext,
                         lines: tuple[Line, Line, Line]) -> RegularTriangle | None:
    """The regular triangle cut out by three lines, if there is one."""
    pts = []
    for a, b in ((1, 2), (0, 2), (0, 1)):
        p = meet(lines[a], lines[b])
        if p is None or not _inside_simplex(p):
            return None
        q = _lattice_point_of(ctx, p)
        if q is None:
            return None
        pts.append(q)
    if len({tuple(p) for p in pts}) != 3:
        return None
    dirs = []
    lens = []
    for t in range(3):
        a, b = [pts[u] for u in range(3) if u != t]
        v = vsub(b, a)
        d = primitive_vector(ctx, v)
        dirs.append(d)
        lens.append(_step_count(a, b, d))
    lens = [abs(x) for x in lens]
    if lens[0] != lens[1] or lens[1] != lens[2] or lens[0] < 1:
        return None
    for a, b in combinations(range(3), 2):
        if pair_index(ctx, dirs[a], dirs[b]) != 1:
            return None
    return RegularTriangle(
        vertices=tuple(pts),
        r=lens[0],
        side_lines=tuple(l.tag for l in lines),
        side_directions=tuple(dirs),
    )


def _sign_fixed(d: Vec3) -> Vec3:
    """d or -d, whichever has its first nonzero coordinate positive."""
    return d if d > (0, 0, 0) else vneg(d)


def enumerate_triangles(ctx: LatticeContext,
                        lines: dict[Tag, Line]) -> list[RegularTriangle]:
    """Every regular triangle cut out by three of the lines; they tile the
    simplex, so this is the partition.

    The search by direction is complete.  The side vectors r*u, r*v, r*w
    of a regular triangle sum to zero, and each of u, v, w is +- the
    direction of the line hosting that side.  Of those three signs two
    agree, say on the hosts a, b of u, v; then d_a + d_b = +-(u + v) =
    -+w, the third host's direction up to sign.  Hosts a and b meet at a
    lattice point of the simplex, the vertex opposite w.  So it suffices
    to try, for each pair of lines meeting at such a point, the lines in
    the direction class of d_a + d_b as the third line, each tag triple
    once, in sorted tag order.
    """
    ordered = [lines[t] for t in sorted(lines)]
    by_direction: dict[Vec3, list[Tag]] = {}
    for line in ordered:
        by_direction.setdefault(_sign_fixed(line.direction), []).append(line.tag)
    trios = set()
    for la, lb in combinations(ordered, 2):
        third = by_direction.get(_sign_fixed(vadd(la.direction, lb.direction)))
        if third is None:
            continue
        p = meet(la, lb)
        if p is None or not _inside_simplex(p) or _lattice_point_of(ctx, p) is None:
            continue
        for tc in third:
            trios.add(tuple(sorted((la.tag, lb.tag, tc))))
    found: dict[tuple, RegularTriangle] = {}
    for tags in sorted(trios):
        tri = _triangle_from_lines(ctx, tuple(lines[t] for t in tags))
        if tri is None:
            continue
        if tri.key() in found:
            raise InvariantError("two line triples cut out the same triangle")
        found[tri.key()] = tri
    return [found[k] for k in sorted(found)]


def realize_triple(ctx: LatticeContext, lines: dict[Tag, Line],
                   triple: RegularTriple) -> RegularTriangle | ConcurrencyPoint:
    """Intersect the triple's three host lines pairwise."""
    host = tuple(lines[t] for t in triple.tags)
    pts = [meet(host[a], host[b]) for a, b in ((1, 2), (0, 2), (0, 1))]
    if any(p is None for p in pts):
        raise InvariantError("host lines of a regular triple are parallel")
    if pts[0] == pts[1] == pts[2]:
        q = _lattice_point_of(ctx, pts[0])
        if q is None:
            raise InvariantError("concurrency point is not a lattice point")
        if triple.type_tag != "champion":
            raise InvariantError("only the champion triple may degenerate")
        return ConcurrencyPoint(q, triple.tags)
    tri = _triangle_from_lines(ctx, host)
    if tri is None:
        raise InvariantError(
            f"triple with tags {triple.tags} does not cut out a regular triangle"
        )
    return tri


@dataclass(frozen=True)
class ChampionsReport:
    """Outcome of the knock-out game: either a long side exists, or the
    unique champion triple meets in a point or cuts out a central triangle."""

    kind: str  # "long_side" | "concurrent" | "cocked_hat" | "simplex"
    side: int | None = None
    c: int | None = None
    point: Vec3 | None = None
    triangle_key: tuple | None = None


@dataclass(frozen=True)
class Partition:
    triangles: tuple[RegularTriangle, ...]
    long_side: tuple[int, int] | None
    champions: ChampionsReport
    catchment: dict[int, tuple[int, ...]]  # side -> triangle indexes
    lines: dict[Tag, Line]
    concurrency: ConcurrencyPoint | None

    @cached_property
    def index_by_key(self) -> dict[tuple, int]:
        return {tri.key(): t for t, tri in enumerate(self.triangles)}

    def triangle_index(self, key: tuple) -> int:
        if key not in self.index_by_key:
            raise InvariantError("triangle key not in partition")
        return self.index_by_key[key]

    @cached_property
    def crossings(self) -> list[tuple[Line, Line, RatPoint]]:
        """Every (la, lb, x) where interior lines from two different
        corners meet at x strictly inside the simplex, within both lines'
        extents: x has not passed either line's defeat point in the line's
        own-corner coordinate."""
        out = []
        for la, lb in combinations(_interior_lines(self), 2):
            if la.tag[1] == lb.tag[1]:
                continue
            x = meet(la, lb)
            if x is None or not all(c > 0 for c in x[0]):
                continue
            num, den = x
            if all(num[l.tag[1] - 1] >= den * l.defeat_point[l.tag[1] - 1]
                   for l in (la, lb)):
                out.append((la, lb, x))
        return out


def _protected_run(word: CyclicWord, side: int) -> tuple[CyclicWord, list[RegularTriple]]:
    """Eat triangles along one side: contract any 1 except the other two
    junction entries, until none is available."""
    protected = {("junction", s) for s in (1, 2, 3) if s != side}
    cur = word
    out = []
    while len(cur) > 3:
        pos = next(
            (t for t, e in enumerate(cur.entries)
             if e.value == 1 and e.tag not in protected),
            None,
        )
        if pos is None:
            break
        cur, triple = contract(cur, pos)
        out.append(triple)
    return cur, out


def _triangle_area2(ctx: LatticeContext, tri: RegularTriangle) -> int:
    a, b, c = tri.vertices
    return abs(cross2(ctx.plane_coords(vsub(b, a)), ctx.plane_coords(vsub(c, a))))


def _unit_edges(ctx: LatticeContext, vertices: tuple[Vec3, Vec3, Vec3]):
    """The triangle's boundary, counter-clockwise in chart, in unit lattice
    steps: ((p, q), +1) for a step from p to q with p < q, else ((q, p), -1)."""
    a, b, c = vertices
    if cross2(chart(vsub(b, a)), chart(vsub(c, a))) < 0:
        b, c = c, b
    for p, q in ((a, b), (b, c), (c, a)):
        step = primitive_vector(ctx, vsub(q, p))
        for _ in range(_step_count(p, q, step)):
            nxt = vadd(p, step)
            yield ((p, nxt), 1) if p < nxt else ((nxt, p), -1)
            p = nxt


def _check_tiling(ctx: LatticeContext,
                  triangles: list[RegularTriangle]) -> None:
    """Raise unless the triangles tile the simplex.

    The areas must sum to the simplex's.  The sides must match: each unit
    segment of a side is traversed by the triangles, oriented as 2-chains,
    as often as by the simplex's boundary, so a segment off that boundary
    is shared by two triangles on opposite sides.  Then the triangles'
    boundary is the simplex's, and every point off the edges is covered
    once inside the simplex and never outside it."""
    area2 = sum(_triangle_area2(ctx, tri) for tri in triangles)
    covol = abs(cross2(ctx.plane_coords(vsub(ctx.corner(2), ctx.corner(1))),
                       ctx.plane_coords(vsub(ctx.corner(3), ctx.corner(1)))))
    if area2 != covol or sum(t.r * t.r for t in triangles) != ctx.order:
        raise InvariantError("triangle areas do not exhaust the simplex")
    count: dict[tuple[Vec3, Vec3], int] = {}
    chains = [(tri.vertices, 1) for tri in triangles] + [(ctx.corners, -1)]
    for vertices, sign in chains:
        for seg, s in _unit_edges(ctx, vertices):
            count[seg] = count.get(seg, 0) + sign * s
    if any(count.values()):
        raise InvariantError("triangle interiors overlap")


def build_partition(ctx: LatticeContext, fans: dict[int, CornerFan],
                    word: CyclicWord) -> Partition:
    """Enumerate the partition, cross-check it against the contraction game,
    validate coverage, and fill catchment areas and champions.  word is the
    cyclic word of the corner fans."""
    lines = rays(ctx, fans)

    enumerated = enumerate_triangles(ctx, lines)
    by_key = {tri.key(): tri for tri in enumerated}

    trace = run_mmp(word)
    triples = triple_set(trace)
    for tr in triples.values():
        validate_triple(ctx, tr)
    realized: dict[tuple, RegularTriangle | ConcurrencyPoint] = {}
    realized_keys = set()
    concurrency = None
    for canon, tr in triples.items():
        res = realized[canon] = realize_triple(ctx, lines, tr)
        if isinstance(res, ConcurrencyPoint):
            if concurrency is not None:
                raise InvariantError("two degenerate triples in one group")
            concurrency = res
        else:
            if res.key() in realized_keys:
                raise InvariantError("two triples realize the same triangle")
            realized_keys.add(res.key())
    if realized_keys != set(by_key):
        raise InvariantError(
            "partition mismatch: enumeration found "
            f"{sorted(by_key)} but the contraction game realizes "
            f"{sorted(realized_keys)}"
        )

    _check_tiling(ctx, enumerated)

    # Champions.
    long_side = find_long_side(fans)
    champs2 = [k for k, t in triples.items() if t.type_tag == "champion"]
    if long_side is not None:
        if champs2:
            raise InvariantError("champion triple found despite a long side")
        champions = ChampionsReport("long_side", side=long_side[0], c=long_side[1])
        champion_key = None
    elif not champs2 and len(word) == 3:
        # The whole simplex is one regular triangle (empty corner fans);
        # no knock-out happens and no champion triple exists.
        champion_key = enumerated[0].key()
        champions = ChampionsReport("simplex", triangle_key=champion_key)
    else:
        if len(champs2) != 1:
            raise InvariantError(
                f"expected a unique champion triple, found {len(champs2)}"
            )
        res = realized[champs2[0]]
        if isinstance(res, ConcurrencyPoint):
            champions = ChampionsReport("concurrent", point=res.point)
            champion_key = None
        else:
            champions = ChampionsReport("cocked_hat", triangle_key=res.key())
            champion_key = res.key()

    # Catchment areas: eat each side on a fresh word (the other junctions
    # fence the front in).  A triangle reachable from two sides -- the
    # middle of a semiregular strip -- goes to the smaller side index.
    order = sorted(by_key)
    index_of = {k: t for t, k in enumerate(order)}
    initial_c = {
        s: next(e.value for e in word.entries if e.tag == ("junction", s))
        for s in (1, 2, 3)
    }
    eaten_from: dict[tuple, int] = {}
    for s in (1, 2, 3):
        if initial_c[s] != 1:
            continue
        _, eaten = _protected_run(word, s)
        for tr in eaten:
            canon = tr.canonical()
            if canon not in realized or set(triples[canon].tags) != set(tr.tags):
                raise InvariantError(
                    f"side run triple {tr.tags} is not one of the game's"
                )
            res = realized[canon]
            if isinstance(res, ConcurrencyPoint):
                raise InvariantError("side run realized a degenerate triple")
            eaten_from.setdefault(res.key(), s)
    catchment = {
        s: tuple(sorted(index_of[k] for k, owner in eaten_from.items()
                        if owner == s))
        for s in (1, 2, 3)
    }
    seen = set(eaten_from)
    unassigned = set(by_key) - seen
    if champion_key is not None:
        if unassigned != {champion_key}:
            raise InvariantError("catchments must leave exactly the champion")
    elif unassigned:
        raise InvariantError(f"triangles outside every catchment: {unassigned}")

    triangles = tuple(by_key[k] for k in order)
    part = Partition(
        triangles=triangles,
        long_side=long_side,
        champions=champions,
        catchment=catchment,
        lines=lines,
        concurrency=concurrency,
    )
    return _fill_defeat_points(part)


def line_extent(part: Partition, tag: Tag) -> Vec3:
    """Far end of the line's realized extent from its corner.

    The union of triangle sides on the line must be one contiguous segment
    starting at the corner.  A line out of e_i loses some of its i-th
    coordinate at every step, so that coordinate orders its points.
    """
    line = part.lines[tag]
    own = tag[1] - 1
    segs = set()
    for tri in part.triangles:
        for t in range(3):
            if tri.side_lines[t] == tag:
                segs.add(tuple(sorted(tri.side_of(t), key=lambda p: -p[own])))
    if not segs:
        if part.concurrency is not None and tag in part.concurrency.tags:
            return part.concurrency.point
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


def _fill_defeat_points(part: Partition) -> Partition:
    lines = dict(part.lines)
    for tag, line in lines.items():
        if tag[0] == "corner":
            lines[tag] = replace(line, defeat_point=line_extent(part, tag))
    return replace(part, lines=lines)


def knockout_report(part: Partition) -> list[str]:
    """Check the knock-out rule at every interior crossing: the strongest
    arrival extends (strength dropping by one per defeated rival), ties all
    die.  Returns a list of violations (empty when consistent)."""
    # Reachable pairwise crossings, grouped by location.
    events: dict[RatPoint, set[Tag]] = {}
    for la, lb, x in part.crossings:
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
    for line in _interior_lines(part):
        end = line.defeat_point
        if 0 in end:
            continue
        if line.tag not in events.get((end, 1), ()):
            violations.append(f"line {line.tag} dies at {end} with no rival")
    return violations


def _interior_lines(part: Partition) -> list[Line]:
    return [l for t, l in sorted(part.lines.items()) if t[0] == "corner"]


def is_semiregular(ctx: LatticeContext, vertices: tuple[Vec3, Vec3, Vec3],
                   preferred: int) -> tuple[int, int] | None:
    """Test equivalence to the triangle {(r,0),(0,0),(0,cr)} with the
    preferred vertex at (r,0); returns (r, c) or None.

    Diagnostic: with v1 along the side opposite the preferred vertex and
    v2, v3 following cyclically, v1 and v2 must base the translation
    lattice and c*v1 + v2 + v3 = 0.
    """
    a = vertices[preferred]
    b, c_pt = [vertices[t] for t in range(3) if t != preferred]
    if cross2(chart(vsub(b, a)), chart(vsub(c_pt, a))) == 0:
        raise InvariantError("degenerate triangle")
    for bb, cc in ((b, c_pt), (c_pt, b)):
        res = _semiregular_oriented(ctx, a, bb, cc)
        if res is not None:
            return res
    return None


def _semiregular_oriented(ctx, a, b, c):
    v_ab = vsub(b, a)
    d_ab = primitive_vector(ctx, v_ab)
    r = abs(_step_count(a, b, d_ab))
    v_ca = vsub(a, c)
    d_ca = primitive_vector(ctx, v_ca)
    if abs(_step_count(c, a, d_ca)) != r:
        return None
    v_bc = vsub(c, b)
    d_bc = primitive_vector(ctx, v_bc)
    steps_bc = abs(_step_count(b, c, d_bc))
    if steps_bc % r:
        return None
    cc = steps_bc // r
    v1, v2, v3 = d_bc, d_ca, d_ab
    if pair_index(ctx, v1, v2) != 1:
        return None
    if vadd(vadd(smul(cc, v1), v2), v3) != (0, 0, 0):
        return None
    return (r, cc)
