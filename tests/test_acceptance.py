"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

from ahilb import lattice_context, parse_group_spec
from ahilb.cli import build_document
from ahilb.corners import corner_chain
from ahilb.clusters import cluster_system, tripod_basis, verify_cluster
from ahilb.draw import render_svg
from ahilb.fan import build_fan, dp6_count, surface_census, verify_fan
from ahilb.lattice import vadd, vneg, vsub
from ahilb.mmp import run_mmp
from ahilb.monomials import dual_basis, ratio_str, triangle_ratios
from ahilb.resolution import Resolution
from ahilb.verify import run_checks, run_random_suite
from test_mmp import canonical, positions_run, run_linear, triple_set
from test_monomials import line_ratio


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {desc}")


def ctx_of(text):
    return lattice_context(parse_group_spec(text))


def test_acceptance_1_group_11_1_2_8():
    def body():
        ctx = ctx_of("1/11(1,2,8)")
        assert corner_chain(ctx, 1).strengths == (3, 4)
        assert corner_chain(ctx, 2).strengths == (2, 3, 2, 2)
        assert corner_chain(ctx, 3).strengths == (6, 2)
        word = Resolution(ctx).word
        assert word.values == (1, 3, 4, 1, 2, 3, 2, 2, 1, 6, 2)

        triples = triple_set(run_mmp(word))
        assert len(triples) == 9
        # The champion triple is f_{1,2} + f_{2,2} + f_{3,1} = 0; eating
        # the three sides in turn leaves it as the terminal triple.
        fans = {i: corner_chain(ctx, i) for i in (1, 2, 3)}
        assert vadd(
            vadd(fans[1].vectors[2], fans[2].vectors[2]), fans[3].vectors[1]
        ) == (0, 0, 0)
        term = positions_run(word, [3, 3, 6, 5, 4, 0, 4, 0])[-1]
        assert set(term.tags) == {
            ("corner", 1, 2), ("corner", 2, 2), ("corner", 3, 1)
        }
        assert triples[canonical(term)] == term

        part = Resolution(ctx).partition
        assert len(part.triangles) == 8
        assert sorted(t.r for t in part.triangles) == [1] * 7 + [2]
        assert sum(t.r**2 for t in part.triangles) == 11
        assert part.champions.kind == "concurrent"

        line = part.lines[("corner", 3, 1)]
        m = line_ratio(ctx, line, vsub(ctx.corner(1), ctx.corner(3)))
        assert m == (2, -1, 0) and ratio_str(m) == "x^2:y"
        # rays signs it positive at e2, the corner before e3.
        assert line.ratio == vneg(m)

    _report(1, "1/11(1,2,8) corner data, word, partition, champions, ratio",
            body)


def test_acceptance_2_group_15_1_2_12():
    def body():
        ctx = ctx_of("1/15(1,2,12)")
        part = Resolution(ctx).partition
        assert Resolution(ctx).word.values == (1, 3, 2, 2, 2, 2, 2, 2, 1, 8, 2)
        assert len(part.triangles) == 9
        assert sorted(t.r for t in part.triangles) == [1] * 7 + [2, 2]
        # No triangle is deleted along the long side: its catchment is
        # empty (the side itself is subdivided by a line from e3).
        assert part.catchment[1] == ()
        assert part.champions.kind == "long_side"
        assert part.champions.side == 1 and part.champions.c == 2

    _report(2, "1/15(1,2,12) long side, word, partition, empty catchment",
            body)


def test_acceptance_3_group_30_25_2_3():
    def body():
        ctx = ctx_of("1/30(25,2,3)")
        assert corner_chain(ctx, 1).strengths == (5,)
        assert corner_chain(ctx, 2).strengths == (2,)
        assert corner_chain(ctx, 3).strengths == (2, 2)
        part = Resolution(ctx).partition
        assert sorted(t.r for t in part.triangles) == [2, 2, 2, 3, 3]
        # Catchment of e1e3 (side 3) = the three side-2 triangles;
        # catchment of e1e2 (side 1) = the two side-3 triangles.
        side13 = sorted(part.triangles[t].r for t in part.catchment[3])
        side12 = sorted(part.triangles[t].r for t in part.catchment[1])
        assert side13 == [2, 2, 2]
        assert side12 == [3, 3]
        assert part.catchment[2] == ()

    _report(3, "1/30(25,2,3) strengths, partition sides, catchments", body)


def test_acceptance_4_linear_chain():
    def body():
        assert run_linear([4, 2, 1, 3, 2, 2]) == [
            [4, 2, 1, 3, 2, 2],
            [4, 1, 2, 2, 2],
            [3, 1, 2, 2],
            [2, 1, 2],
            [1, 1],
        ]

    _report(4, "linear contraction chain from [4,2,1,3,2,2] verbatim", body)


def test_acceptance_5_maximal_groups():
    def body():
        for r, dp6 in ((2, 0), (3, 1), (4, 3)):
            ctx = ctx_of(f"1/{r}(1,{r-1},0)+1/{r}(0,1,{r-1})")
            part = Resolution(ctx).partition
            assert len(part.triangles) == 1 and part.triangles[0].r == r
            fan = build_fan(part)
            assert len(fan.cones) == r * r
            assert verify_fan(ctx, fan) == []
            parent = triangle_ratios(ctx, part.triangles[0])
            for cell in fan.cones:
                rows = dual_basis(ctx, parent, cell)
                mins = tuple(min(v[t] for v in cell.vertices) for t in range(3))
                if cell.kind == "up":
                    i, j, k = mins
                    assert set(rows) == {
                        (r - i, -i, -i), (-j, r - j, -j), (-k, -k, r - k)
                    }
                else:
                    i, j, k = (v + 1 for v in mins)
                    assert set(rows) == {
                        (-(r - i), i, i), (j, -(r - j), j), (k, k, -(r - k))
                    }
                sysm = cluster_system(ctx, cell.kind, rows)
                verify_cluster(ctx, sysm)
                if cell.kind == "up":
                    i, j, k = mins
                    assert (sysm.l + 1, sysm.b, sysm.f) == (r - i, i, i)
                assert len(tripod_basis(ctx, sysm)) == r * r
            assert dp6_count(part) == dp6
            census = surface_census(fan)
            assert sum(1 for s in census if s.label == "dP6") == dp6

    _report(5, "Z/r+Z/r for r=2,3,4: single triangle, tesselation fan, "
               "dual bases, cluster systems, dP6 counts", body)


def test_acceptance_6_random_property_suite():
    def body():
        count, failures = run_random_suite(200, 60, seed=7)
        assert count == 200
        assert failures == []

    _report(6, "property suite over 200 random groups of order <= 60", body)


def test_acceptance_7_homework_example_under_a_second():
    def body():
        start = time.perf_counter()
        ctx = ctx_of("1/101(1,7,93)")
        results = run_checks(Resolution(ctx))
        elapsed = time.perf_counter() - start
        assert all(r.ok for r in results), [r for r in results if not r.ok]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    _report(7, "1/101(1,7,93) full pipeline and invariants in under 1s", body)


def test_acceptance_8_determinism():
    def body():
        for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
                     "1/2(1,1,0)+1/2(0,1,1)", "1/101(1,7,93)"):
            docs = []
            svgs = []
            for _ in range(2):
                ctx = ctx_of(text)
                docs.append(json.dumps(build_document(ctx),
                                       separators=(",", ":")))
                part = Resolution(ctx).partition
                fan = build_fan(part)
                svgs.append(render_svg(ctx, part, fan, ratios=True))
            assert docs[0] == docs[1]
            assert svgs[0] == svgs[1]

    _report(8, "byte-identical JSON and SVG across repeated runs", body)
