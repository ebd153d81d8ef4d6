import json
import os
import re
import subprocess
import sys
from itertools import combinations, permutations
from math import ceil, gcd, log2
from pathlib import Path

import pytest

import ahilb.partition
from ahilb import lattice_context, pair_index, parse_group_spec
from ahilb.cli import build_document
from ahilb.errors import InvariantError
from ahilb.corners import junction_c
from ahilb.lattice import Generator, permute, sign_fixed, smul, vadd
from ahilb.mmp import classify_triple, run_mmp
from ahilb.partition import (
    Line,
    RegularTriangle,
    _within,
    build_partition,
    crossings,
    enumerate_triangles,
    knockout_report,
    line_extent,
    meet,
    rays,
)
from ahilb.resolution import Resolution
from test_cli import SWEEP
from test_lattice import PRODUCTS
from test_mmp import terminal, triple_set
from test_monomials import line_ratio
from test_tiling import (
    ConcurrencyPoint,
    cyclic_groups,
    product_groups,
    realize_triple,
)


def ctx_of(text):
    return lattice_context(parse_group_spec(text))


def rays_of(ctx):
    return rays(ctx, Resolution(ctx).word)


def fan_lines(ctx, fans):
    """The lines built from the corner fans instead of the word: one per
    interior corner ray, with its strength, and one per side, from its
    first corner along the side with the junction constant, and each
    ratio by ``line_ratio`` at the corner before the line's own: the
    oracle for ``rays``."""
    lines = {}
    for i in (1, 2, 3):
        fan = fans[i]
        for j in range(1, fan.k + 1):
            tag = ("corner", i, j)
            lines[tag] = Line(tag, ctx.corner(i), fan.vectors[j],
                              fan.strengths[j - 1], None)
    for s in (1, 2, 3):
        c, _ = junction_c(s, fans)
        tag = ("junction", s)
        lines[tag] = Line(tag, ctx.corner(s), fans[s].vectors[-1], c, None)
    return {tag: line._replace(ratio=line_ratio(
                ctx, line, ctx.corner((tag[1] + 1) % 3 + 1)))
            for tag, line in lines.items()}


def check_word_lines(spec):
    res = Resolution(ctx_of(spec))
    assert rays(res.ctx, res.word) == fan_lines(res.ctx, res.fans), spec
    corners = sorted(tag for tag in res.word.tags if tag[0] == "corner")
    assert list(res.partition.lines) == corners, spec
    assert all(line.defeat_point is not None
               for line in res.partition.lines.values()), spec


def test_word_lines_match_the_fan_oracle():
    for spec in SWEEP:
        check_word_lines(spec)


@pytest.mark.deep
def test_word_lines_match_the_fan_oracle_up_to_40():
    for spec in cyclic_groups(40) + product_groups(8) + PRODUCTS:
        check_word_lines(spec)


def test_rays_counts():
    assert len([t for t in rays_of(ctx_of("1/11(1,2,8)")) if t[0] == "corner"]) == 8
    assert len([t for t in rays_of(ctx_of("1/2(1,1,0)+1/2(0,1,1)")) if t[0] == "corner"]) == 0
    assert len([t for t in rays_of(ctx_of("1/30(25,2,3)")) if t[0] == "corner"]) == 4
    # Sides are always present.
    assert len([t for t in rays_of(ctx_of("1/11(1,2,8)")) if t[0] == "junction"]) == 3


def test_enumerate_11():
    ctx = ctx_of("1/11(1,2,8)")
    tris = enumerate_triangles(ctx, rays_of(ctx))
    assert len(tris) == 8
    assert sorted(t.r for t in tris) == [1] * 7 + [2]
    assert sum(t.r**2 for t in tris) == 11


def test_enumerate_30():
    ctx = ctx_of("1/30(25,2,3)")
    tris = enumerate_triangles(ctx, rays_of(ctx))
    assert sorted(t.r for t in tris) == [2, 2, 2, 3, 3]


def test_enumerate_15():
    ctx = ctx_of("1/15(1,2,12)")
    tris = enumerate_triangles(ctx, rays_of(ctx))
    assert len(tris) == 9
    assert sorted(t.r for t in tris) == [1] * 7 + [2, 2]


def test_realize_terminal_concurrency_11():
    ctx = ctx_of("1/11(1,2,8)")
    word = Resolution(ctx).word
    lines = rays_of(ctx)
    # Area oracle: the eight nondegenerate triangles exhaust the area, so
    # the champion triple must realize with zero size.
    tris = enumerate_triangles(ctx, lines)
    assert sum(t.r**2 for t in tris) == ctx.order
    champion = next(
        t for t in triple_set(run_mmp(word)).values()
        if classify_triple(t.tags) == "champion"
    )
    res = realize_triple(ctx, lines, champion)
    assert isinstance(res, ConcurrencyPoint)
    assert res.point == (3, 6, 2)


def test_realize_whole_simplex_z2z2():
    ctx = ctx_of("1/2(1,1,0)+1/2(0,1,1)")
    trace = run_mmp(Resolution(ctx).word)
    res = realize_triple(ctx, rays_of(ctx), terminal(trace))
    assert res.r == 2
    assert set(res.vertices) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}


def test_realize_terminal_15_nondegenerate():
    ctx = ctx_of("1/15(1,2,12)")
    trace = run_mmp(Resolution(ctx).word)
    res = realize_triple(ctx, rays_of(ctx), terminal(trace))
    assert not isinstance(res, ConcurrencyPoint)


def test_partition_11():
    ctx = ctx_of("1/11(1,2,8)")
    part = Resolution(ctx).partition
    assert len(part.triangles) == 8
    assert part.champions.side is None
    assert part.champions.kind == "concurrent"
    assert part.champions.point == (3, 6, 2)


def test_partition_15_long_side():
    ctx = ctx_of("1/15(1,2,12)")
    part = Resolution(ctx).partition
    assert (part.champions.side, part.champions.c) == (1, 2)
    assert part.champions.kind == "long_side"
    # No triangle is eaten from the long side; its catchment is empty.
    assert part.catchment[1] == ()
    # Bottom catchment: five basic triangles along e2 e3; top: four
    # triangles, two of side 2.
    bottom = [part.triangles[t] for t in part.catchment[2]]
    top = [part.triangles[t] for t in part.catchment[3]]
    assert len(bottom) == 5 and all(t.r == 1 for t in bottom)
    assert len(top) == 4 and sorted(t.r for t in top) == [1, 1, 2, 2]


def test_partition_30_catchments():
    ctx = ctx_of("1/30(25,2,3)")
    part = Resolution(ctx).partition
    assert part.champions.kind == "long_side"
    assert part.champions.side == 2
    side13 = [part.triangles[t] for t in part.catchment[3]]
    side12 = [part.triangles[t] for t in part.catchment[1]]
    assert sorted(t.r for t in side13) == [2, 2, 2]
    assert sorted(t.r for t in side12) == [3, 3]
    assert part.catchment[2] == ()


def test_partition_trivial():
    part = Resolution(ctx_of("1/1(0,0,0)")).partition
    assert len(part.triangles) == 1
    assert part.triangles[0].r == 1
    assert part.champions.kind == "simplex"


def test_partition_whole_simplex_zrzr():
    for r in (2, 3, 4):
        spec = f"1/{r}(1,{r-1},0)+1/{r}(0,1,{r-1})"
        part = Resolution(ctx_of(spec)).partition
        assert len(part.triangles) == 1
        assert part.triangles[0].r == r
        assert part.champions.kind == "simplex"


def test_partition_cocked_hat_exists():
    part = Resolution(ctx_of("1/101(1,7,93)")).partition
    assert part.champions.kind == "cocked_hat"
    idx = part.champions.triangle
    tri = part.triangles[idx]
    # The central triangle is in no catchment.
    assert all(idx not in members for members in part.catchment.values())
    assert tri.r >= 1


def test_semiregular_group_word_and_partition():
    # Z/r + Z/cr: the simplex is an (r, cr)-semiregular triangle made of c
    # regular triangles of side r, and the word is [1,2,...,2,1,c].
    r, c = 2, 3
    ctx = ctx_of(f"1/{r}(1,{r-1},0)+1/{r*c}(0,1,{r*c-1})")
    word = Resolution(ctx).word
    vals = list(word.values)
    assert sorted(vals) == sorted([1] + [2] * (c - 1) + [1, c])
    part = Resolution(ctx).partition
    assert sorted(t.r for t in part.triangles) == [r] * c


def test_knockout_consistency_fixtures():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
                 "1/101(1,7,93)", "1/14(1,9,4)", "1/12(1,4,7)"):
        ctx = ctx_of(text)
        part = Resolution(ctx).partition
        assert knockout_report(part, crossings(part)) == []


def shifted(part, tag, steps):
    """part with the defeat point of line tag moved by steps primitive
    steps along the line (positive: away from its corner)."""
    line = part.lines[tag]
    end = vadd(line.defeat_point, smul(steps, line.direction))
    lines = {**part.lines, tag: line._replace(defeat_point=end)}
    return part._replace(lines=lines)


@pytest.mark.parametrize("tag, steps, violations", [
    (("corner", 3, 2), 1, [
        "line ('corner', 3, 2) at (6, 1, 4): strengths "
        "{('corner', 1, 1): 3, ('corner', 3, 2): 2}, extent continues",
        "meet at non-lattice point ((18, 3, 1), 2)",
        "line ('corner', 3, 2) dies at (12, 2, -3) with no rival",
    ]),
    (("corner", 1, 1), -1, [
        "line ('corner', 3, 1) at (3, 6, 2): strengths "
        "{('corner', 1, 2): 3, ('corner', 2, 2): 3, ('corner', 3, 1): 4}, "
        "extent ends",
        "line ('corner', 1, 1) at (6, 1, 4): strengths "
        "{('corner', 1, 1): 3, ('corner', 3, 2): 2}, extent ends",
    ]),
])
def test_knockout_report_catches_a_shifted_defeat_point(tag, steps, violations):
    part = shifted(Resolution(ctx_of("1/11(1,2,8)")).partition, tag, steps)
    assert knockout_report(part, crossings(part)) == violations


def pairwise_crossings(part):
    """Every pair of interior lines from different corners, met and kept
    when the meet is strictly inside the simplex and within both lines'
    extents, in sorted tag order: the oracle for ``crossings``."""
    interior = [line for _, line in sorted(part.lines.items())]
    out = []
    for la, lb in combinations(interior, 2):
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


def crossing_rows(crossings):
    return [(la.tag, lb.tag, x) for la, lb, x in crossings]


def check_crossings(spec, shifts=False):
    """``crossings`` against the pairwise oracle; with shifts, also
    on every interior line's defeat point moved one step either way."""
    part = Resolution(ctx_of(spec)).partition
    parts = [part]
    if shifts:
        parts += [shifted(part, tag, steps) for tag in part.lines
                  for steps in (-1, 1)]
    for p in parts:
        assert crossing_rows(crossings(p)) == crossing_rows(
            pairwise_crossings(p)), spec


SHIFTED = set(cyclic_groups(16))


def test_crossings_match_the_pairwise_oracle():
    for spec in SWEEP:
        check_crossings(spec, shifts=spec in SHIFTED)


@pytest.mark.deep
def test_crossings_match_the_pairwise_oracle_up_to_40():
    for spec in cyclic_groups(40):
        check_crossings(spec)


def counting(function, calls):
    def counted(*args):
        calls.append(args)
        return function(*args)
    return counted


def test_crossings_meet_only_the_crossing_pairs(monkeypatch):
    # One meet per crossing and O(L log L) extent tests, where the pairwise
    # scan meets 89,999 pairs.
    part = Resolution(ctx_of("1/600(1,1,598)")).partition
    meets, tests = [], []
    monkeypatch.setattr(ahilb.partition, "meet", counting(meet, meets))
    monkeypatch.setattr(ahilb.partition, "_within", counting(_within, tests))
    assert len(crossings(part)) == len(meets) == 897
    size = len(part.lines)
    assert len(tests) <= 4 * size * ceil(log2(size))


def test_enumeration_looks_up_only_index_one_pairs(monkeypatch):
    ctx = ctx_of("1/600(1,1,598)")
    lines = rays_of(ctx)
    calls = []
    monkeypatch.setattr(ahilb.partition, "sign_fixed",
                        counting(sign_fixed, calls))
    enumerate_triangles(ctx, lines)
    # The first len(lines) calls build the direction classes.
    lookups = sorted(v for v, in calls[len(lines):])
    unit = [vadd(a.direction, b.direction)
            for a, b in combinations(lines.values(), 2)
            if pair_index(ctx, a.direction, b.direction) == 1]
    assert lookups == sorted(unit)
    assert len(lookups) <= 1201


def test_enumeration_and_tiling_intersect_and_walk_nothing(monkeypatch):
    # Each triangle is read off its index-1 pair in closed form, and the
    # partition checks only the areas: the fan's edge matching certifies
    # the tiling, so no side is divided into unit steps here.
    ctx = ctx_of("1/600(1,1,598)")
    game = Resolution(ctx).game
    pairs, steps = [], []
    monkeypatch.setattr(ahilb.partition, "pair_index",
                        counting(ahilb.partition.pair_index, pairs))
    monkeypatch.setattr(RegularTriangle, "step",
                        counting(RegularTriangle.step, steps))
    assert len(build_partition(ctx, game).triangles) == 600
    assert pairs == [] and steps == []


def test_enumeration_raises_on_a_third_line_off_the_lattice():
    # The lines of one triangle, the third rebuilt with direction d_a + d_b
    # so that only the pair (a, b) looks a third line up.
    ctx = ctx_of("1/11(1,2,8)")
    lines = rays_of(ctx)
    tri = enumerate_triangles(ctx, lines)[0]
    a, b, c = next(
        tags for tags in permutations(tri.side_lines)
        if sign_fixed(vadd(lines[tags[0]].direction, lines[tags[1]].direction))
        == sign_fixed(lines[tags[2]].direction))
    third = lines[c]._replace(
        direction=vadd(lines[a].direction, lines[b].direction))
    trio = {a: lines[a], b: lines[b], c: third}
    assert enumerate_triangles(ctx, trio) == [tri]
    shift = (1, -1, 0)
    assert not ctx.is_translation(shift)
    trio[c] = third._replace(anchor=vadd(third.anchor, shift))
    with pytest.raises(InvariantError, match=re.escape(
            f"anchors of lines {min(a, b)}, {max(a, b)} and {c} "
            "are not on one lattice")):
        enumerate_triangles(ctx, trio)


def rewritten(spec, rewrite):
    """The cyclic group spec with its weights rewritten by rewrite."""
    (gen,) = parse_group_spec(spec).generators
    return Generator(gen.order, rewrite(gen.order, gen.weights)).text()


def check_symmetry(spec):
    """The partition of pi G is pi of the partition of G, for every
    coordinate permutation pi; a generator rewritten by a unit gives the
    same report apart from its group."""
    def shape(spec, perm=(0, 1, 2)):
        part = Resolution(ctx_of(spec)).partition
        return {(tuple(sorted(permute(perm, v) for v in tri.vertices)), tri.r)
                for tri in part.triangles}

    for perm in permutations(range(3)):
        image = rewritten(spec, lambda r, w: permute(perm, w))
        assert shape(image) == shape(spec, perm), (spec, perm)
    doc = json.loads(build_document(ctx_of(spec)))
    del doc["group"]
    order = parse_group_spec(spec).generators[0].order
    for u in range(2, order):
        if gcd(u, order) == 1:
            image = rewritten(spec, lambda r, w: tuple(u * x % r for x in w))
            other = json.loads(build_document(ctx_of(image)))
            del other["group"]
            assert other == doc, (spec, u)


def test_partition_is_equivariant_up_to_12():
    for spec in cyclic_groups(12):
        check_symmetry(spec)


@pytest.mark.deep
def test_partition_is_equivariant_up_to_24():
    for spec in cyclic_groups(24):
        check_symmetry(spec)


_TIED_REPORT = """
from ahilb import lattice_context, parse_group_spec
from ahilb.errors import InvariantError
from ahilb.lattice import vadd
from ahilb.partition import crossings, knockout_report
from ahilb.resolution import Resolution

part = Resolution(lattice_context(parse_group_spec("1/3(1,1,1)"))).partition
line = part.lines[("corner", 1, 1)]
end = vadd(line.defeat_point, line.direction)
lines = {**part.lines, line.tag: line._replace(defeat_point=end)}
part = part._replace(lines=lines)
print(knockout_report(part, crossings(part)))
"""


def test_knockout_report_text_is_independent_of_the_hash_seed():
    # Tags hold strings, so a set of tags iterates in a seed-dependent
    # order; the three tied champion lines of 1/3(1,1,1) expose it.
    src = str(Path(ahilb.__file__).parent.parent)
    outputs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _TIED_REPORT],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        outputs.append(proc.stdout)
    assert "strengths" in outputs[0]
    assert outputs[0] == outputs[1]


def test_knockout_first_crossing_11():
    # Strength 3 from e1 meets strength 2 from e3; the e1 line extends.
    ctx = ctx_of("1/11(1,2,8)")
    part = Resolution(ctx).partition
    l11 = part.lines[("corner", 1, 1)]
    l32 = part.lines[("corner", 3, 2)]
    x = meet(l11, l32)
    assert x[1] == 1
    # The crossing is where the weaker line dies.
    assert l32.defeat_point == x[0]
    assert l11.defeat_point != x[0]


def test_defeat_points_are_lattice_points():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/101(1,7,93)"):
        ctx = ctx_of(text)
        part = Resolution(ctx).partition
        for line in part.lines.values():
            assert line.defeat_point is not None
            assert ctx.is_lattice_point(line.defeat_point)


def test_champion_lines_die_at_concurrency():
    ctx = ctx_of("1/11(1,2,8)")
    part = Resolution(ctx).partition
    for tag in (("corner", 1, 2), ("corner", 2, 2), ("corner", 3, 1)):
        assert part.lines[tag].defeat_point == (3, 6, 2)


def test_long_side_subdivided_by_rival_line():
    # The strength-8 line out of e3 ends on the long side.
    ctx = ctx_of("1/15(1,2,12)")
    part = Resolution(ctx).partition
    end = part.lines[("corner", 3, 1)].defeat_point
    assert end == (5, 10, 0)
    assert end[2] == 0  # on side e1 e2


def test_line_extent_needs_one_segment_from_the_corner():
    part = Resolution(ctx_of("1/11(1,2,8)")).partition
    line = part.lines[("corner", 3, 1)]
    sides = [tri.side_of(t) for tri in part.triangles
             for t, tag in enumerate(tri.side_lines) if tag == line.tag]
    assert line_extent(line, sides) == line.defeat_point == (3, 6, 2)
    # The sides on the line run from the corner (0, 0, 11) to (1, 2, 8), and
    # on from there to (2, 4, 5) and (3, 6, 2).
    first = {(0, 0, 11), (1, 2, 8)}
    with pytest.raises(InvariantError, match="hosts no triangle side"):
        line_extent(line, [])
    with pytest.raises(InvariantError, match="does not start at its corner"):
        line_extent(line, [side for side in sides if set(side) != first])
    with pytest.raises(InvariantError, match="extent has a gap"):
        line_extent(line, [side for side in sides
                           if set(side) == first or (1, 2, 8) not in side])


def realized_partition(ctx, lines, game):
    """The game's side of the partition realized triple by triple, the
    oracle of the tag comparison in ``build_partition``: the vectors of
    every triple must pairwise form bases, and its host lines are
    intersected pairwise by ``realize_triple``.  Returns the keys of the
    triangles realized, sorted, and the concurrency point or None."""
    keys, point = set(), None
    for triple in triple_set(game).values():
        if pair_index(ctx, triple.vectors[0], triple.vectors[2]) != 1:
            raise InvariantError("triple vectors do not pairwise form bases")
        res = realize_triple(ctx, lines, triple)
        if isinstance(res, ConcurrencyPoint):
            if point is not None:
                raise InvariantError("two degenerate triples in one group")
            point = res.point
        elif res.key() in keys:
            raise InvariantError("two triples realize the same triangle")
        else:
            keys.add(res.key())
    return sorted(keys), point


def check_realized(spec):
    res = Resolution(ctx_of(spec))
    part = res.partition
    keys, point = realized_partition(res.ctx, rays(res.ctx, res.word),
                                     res.game)
    assert keys == [tri.key() for tri in part.triangles], spec
    assert point == part.champions.point, spec


def test_realized_partition_matches_the_tag_comparison():
    for spec in SWEEP:
        check_realized(spec)


@pytest.mark.deep
def test_realized_partition_matches_the_tag_comparison_up_to_40():
    for spec in cyclic_groups(40) + product_groups(8) + ["1/2000(1,1,1998)"]:
        check_realized(spec)


# Meets in build_partition: the three pairwise meets of the concurrent
# champion of 1/11(1,2,8), the one game triple on no enumerated triangle;
# none where the champions form a cocked hat (1/101(1,7,93)) or a long
# side exists.
MEETS = {"1/11(1,2,8)": 3, "1/15(1,2,12)": 0, "1/30(25,2,3)": 0,
         "1/101(1,7,93)": 0}


@pytest.mark.parametrize("spec", sorted(MEETS))
def test_build_partition_realizes_each_triple_once(spec, monkeypatch):
    # A game triple whose host lines are an enumerated triangle's side
    # lines is matched by their tags; only the others are intersected.
    calls = []
    monkeypatch.setattr(ahilb.partition, "meet", counting(meet, calls))
    Resolution(ctx_of(spec)).partition
    assert len(calls) == MEETS[spec]


def without_first_triple(game):
    return game._replace(triples=game.triples[1:])


@pytest.mark.parametrize("spec, name, wrap, message", [
    # The two sides of the differential disagree.
    ("1/11(1,2,8)", "enumerate_triangles",
     lambda f: lambda *a: f(*a)[:-1], "partition mismatch"),
    ("1/11(1,2,8)", "resolution.run_mmp",
     lambda f: lambda word: without_first_triple(f(word)),
     "partition mismatch"),
    # A repeated triangle leaves the side-line sets equal; the areas
    # catch it.
    ("1/11(1,2,8)", "enumerate_triangles",
     lambda f: lambda *a: f(*a) + f(*a)[:1],
     "triangle areas do not exhaust the simplex"),
    # The game triple on no enumerated triangle is no concurrent champion:
    # it is no champion, its lines do not concur (each meet moved along
    # its second line), they concur off the lattice, or its directions
    # span a sublattice of index 4.
    ("1/11(1,2,8)", "classify_triple", lambda f: lambda tags: "side",
     "partition mismatch"),
    ("1/11(1,2,8)", "meet",
     lambda f: lambda a, b: (vadd(f(a, b)[0], b.direction), 1),
     "partition mismatch"),
    ("1/11(1,2,8)", "meet", lambda f: lambda a, b: (f(a, b)[0], 2),
     "concurrency point is not a lattice point of the simplex"),
    ("1/11(1,2,8)", "pair_index",
     lambda f: lambda ctx, v, w: f(ctx, smul(2, v), smul(2, w)),
     "triple vectors do not pairwise form bases"),
    # The champion disagrees with the long side.
    ("1/11(1,2,8)", "find_long_side", lambda f: lambda fans: (1, 2),
     "champion triple found despite a long side"),
    ("1/15(1,2,12)", "find_long_side", lambda f: lambda fans: None,
     "expected a unique champion triple, found 0"),
    # A side run's step is not on the game triple's host lines.
    ("1/11(1,2,8)", "contract_run",
     lambda f: lambda word, **kw: tuple(step[:2] + step[:1]
                                        for step in f(word, **kw)),
     "side run triple .* is not one of the game's"),
    # A side run certifies the concurrent champion, a game triple on no
    # enumerated triangle.
    ("1/11(1,2,8)", "contract_run",
     lambda f: lambda word, **kw: tuple(
         step for step in f(word) if classify_triple(
             [word.tags[e] for e in step]) == "champion"),
     "side run realized a degenerate triple"),
    # The side runs eat nothing.
    ("1/101(1,7,93)", "contract_run", lambda f: lambda word, **kw: (),
     "catchments must leave exactly the champion"),
    ("1/11(1,2,8)", "contract_run", lambda f: lambda word, **kw: (),
     "triangles outside every catchment"),
])
def test_build_partition_failure_paths(spec, name, wrap, message, monkeypatch):
    # wrap takes the real function and returns its faulty replacement;
    # name is looked up in ahilb.partition unless it names its module.
    module, _, attr = name.rpartition(".")
    owner = sys.modules[f"ahilb.{module or 'partition'}"]
    monkeypatch.setattr(owner, attr, wrap(getattr(owner, attr)))
    with pytest.raises(InvariantError, match=message):
        Resolution(ctx_of(spec)).partition
