import random

import pytest

import ahilb.verify
from ahilb import lattice_context, parse_group_spec
from ahilb.cli import main
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


def dropping_first_triple(run_mmp):
    """run_mmp, except that a run drawn by a generator loses its first
    triple."""
    def run(word, rng=None):
        trace = run_mmp(word, rng)
        if rng is None:
            return trace
        return trace._replace(triples=trace.triples[1:])
    return run


def other_winner(rule):
    """crossing_rule_check, except that it names the wrong line."""
    def check(la, lb):
        return lb.tag if rule(la, lb) == la.tag else la.tag
    return check


@pytest.mark.parametrize("name, wrap, line", [
    ("run_mmp", dropping_first_triple,
     "mmp: triple set is independent of contraction order: "
     "FAIL (randomized run emitted a different set)"),
    ("cyclic_matrix_product", lambda f: lambda word: ((1, 0), (0, 1)),
     "corners: cyclic word matrix product is minus the identity: "
     "FAIL (word (1, 3, 4, 1, 2, 3, 2, 2, 1, 6, 2) product is wrong)"),
    ("crossing_rule_check", other_winner,
     "monomials: exponent knock-out rule matches defeat data: "
     "FAIL (rule says ('corner', 1, 1), partition says None at (1, 2, 8) "
     "for ('corner', 1, 1) x ('corner', 2, 4))"),
])
def test_verify_reports_a_failing_family(name, wrap, line, monkeypatch,
                                         capsys):
    # name is the one verify imports; only its family fails.
    monkeypatch.setattr(ahilb.verify, name, wrap(getattr(ahilb.verify, name)))
    assert main(["verify", "1/11(1,2,8)"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [out for out in lines if ": FAIL (" in out]
    assert failed == [line]
    assert sum(out.endswith(": pass") for out in lines) == 13
