import random

import pytest

import ahilb.verify
from ahilb import lattice_context, parse_group_spec
from ahilb.resolution import Resolution
from ahilb.verify import (
    CheckResult,
    random_group,
    run_checks,
    run_random_suite,
)


def test_run_checks_names_are_stable():
    ctx = lattice_context(parse_group_spec("1/11(1,2,8)"))
    results = run_checks(Resolution(ctx))
    assert all(r.ok for r in results)
    names = [r.name.split(":")[0] for r in results]
    assert names == [
        "lattice", "corners", "corners", "corners", "mmp", "partition",
        "partition", "partition", "fan", "fan", "monomials", "monomials",
        "monomials", "clusters",
    ]


def test_hull_family_catches_a_wrong_chain_on_a_product():
    # The weight formula does not apply to a product, so only the hull
    # can catch a wrong continued-fraction chain there.
    ctx = lattice_context(parse_group_spec("1/6(1,2,3)+1/2(1,1,0)"))
    res = Resolution(ctx)
    fan = res.fans[3]
    assert fan.strengths == (2, 2)
    res.fans[3] = fan._replace(strengths=(2, 3))
    results = {r.name: r for r in run_checks(res)}
    hull = results["corners: hull strengths match continued fractions"]
    assert not hull.ok
    assert hull.detail == "corner 3: hull and continued fraction chains differ"


@pytest.mark.deep
def test_run_checks_passes_at_order_8009():
    # 8009 cones with tripods of 8009 monomials each: a per-monomial
    # tripod check would be quadratic in the order, and the closed-form
    # count makes the clusters family linear.
    ctx = lattice_context(parse_group_spec("1/8009(1,100,7908)"))
    results = run_checks(Resolution(ctx))
    assert len(results) == 14
    assert [r for r in results if not r.ok] == []


def test_sampler_is_deterministic():
    a = [random_group(random.Random(11), 40).spec.canonical_text
         for _ in range(5)]
    rng = random.Random(11)
    b = [random_group(rng, 40).spec.canonical_text for _ in range(5)]
    assert a[0] == b[0]
    groups = [random_group(random.Random(3), 40).spec.canonical_text
              for _ in range(3)]
    assert len(set(groups)) == 1


def test_sampler_respects_cap():
    rng = random.Random(5)
    for _ in range(30):
        ctx = random_group(rng, 25)
        assert ctx.order <= 25
        assert lattice_context(ctx.spec).order == ctx.order


def test_small_random_suite_clean():
    count, failures = run_random_suite(25, 40, seed=123)
    assert count == 25
    assert failures == []


def test_suite_deterministic():
    a = run_random_suite(8, 30, seed=9)
    b = run_random_suite(8, 30, seed=9)
    assert a == b


def test_random_failures_end_in_their_repro(monkeypatch):
    seen = []

    def failing(res, seed=0):
        seen.append((res.ctx.spec.canonical_text, seed))
        return [CheckResult("fake: always fails", False, "boom")]

    monkeypatch.setattr(ahilb.verify, "run_checks", failing)
    count, failures = run_random_suite(4, 30, seed=17)
    assert count == 4 and len(failures) == 4
    assert [seed for _, seed in seen] == [17, 18, 19, 20]
    for line, (spec, seed) in zip(failures, seen):
        assert line.startswith(f"{spec}: fake: always fails: boom")
        assert line.endswith(f'ahilb verify "{spec}" --seed {seed}')
