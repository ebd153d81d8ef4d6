"""The cross-checking invariant suite, shared by the command line and the
acceptance tests.

Every check is exact integer arithmetic; a failure anywhere is reported
with the offending group.  Differential pairs covered here: enumeration vs
contraction-game partition, closed-form vs solved dual bases, exponent
knock-out rule vs partition defeat data, hull chains (one walk over the
junior points gives all three, and the junior-point count) vs continued
fractions on every corner (and the weight formula on coprime cyclic ones),
binomial count vs hexagonal stars, and the reverse classification of each
chart vs the forward normal form of its cell's triangle.  The tripod check
is the closed-form count alone: every system the resolution holds passed
``verify_cluster``, and its relations with that count make the tripod's
characters fill the dual group (see ``check_tripod``).
"""

from __future__ import annotations

import random
from math import gcd
from typing import NamedTuple

from .clusters import check_tripod, classify_cluster
from .corners import cyclic_matrix_product, hj_expand, long_side
from .errors import AhilbError, GroupSpecError, InvariantError
from .fan import dp6_count, verify_fan
from .lattice import LatticeContext, lattice_context, parse_group_spec
from .mmp import run_mmp
from .monomials import crossing_rule_check
from .partition import knockout_report
from .resolution import Resolution


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def run_checks(res: Resolution, seed: int = 0) -> list[CheckResult]:
    """Run the whole invariant suite on one group, reading every stage
    from its resolution."""
    ctx = res.ctx
    results: list[CheckResult] = []

    def check(name):
        def wrap(fn):
            try:
                fn()
                results.append(CheckResult(name, True))
            except AhilbError as exc:
                results.append(CheckResult(name, False, str(exc)))
            return fn
        return wrap

    @check("lattice: junior point count matches group order")
    def _counts():
        hulls = res.hulls
        if 2 * hulls.interior + hulls.edge + 1 != ctx.order:
            raise InvariantError("2*interior + edge + 1 != order")

    @check("corners: hull strengths match continued fractions")
    def _hj():
        for i, fan in res.hulls.fans.items():
            if fan != res.fans[i]:
                raise InvariantError(f"corner {i}: hull and continued "
                                     "fraction chains differ")
        # The weight formula, where it applies, is a third route.
        if len(ctx.spec.generators) != 1:
            return
        r = ctx.order
        w = ctx.spec.generators[0].weights
        if ctx.n != ctx.spec.generators[0].order:
            return
        for i in (1, 2, 3):
            u, v = w[i % 3], w[(i + 1) % 3]
            if r == 1 or gcd(u, r) != 1 or gcd(v, r) != 1:
                continue
            alpha = (v * pow(u, -1, r)) % r
            if res.fans[i].strengths != tuple(hj_expand(r, alpha)):
                raise InvariantError(f"corner {i} disagrees with {r}/{alpha}")

    @check("corners: cyclic word matrix product is minus the identity")
    def _product():
        if cyclic_matrix_product(res.word) != ((-1, 0), (0, -1)):
            raise InvariantError(f"word {res.word.values} product is wrong")

    @check("corners: at most one long side")
    def _long():
        long_side(res.word)

    @check("mmp: triple set is independent of contraction order")
    def _orders():
        # Against the partition's leftmost run, as sets of sorted entry
        # indexes, which name the triples (validate_chain): a run lists
        # sum/3 distinct ones (run_mmp's docstring), so there is no count
        # to check.  One generator draws all 10 orders; the seed replays them.
        base = {tuple(sorted(step)) for step in res.game.triples}
        rng = random.Random(seed)
        for _ in range(10):
            if {tuple(sorted(step))
                    for step in run_mmp(res.word, rng).triples} != base:
                raise InvariantError("randomized run emitted a different set")

    @check("partition: enumeration and contraction game agree, areas exact")
    def _partition_check():
        # build_partition raises unless the areas exhaust the simplex.
        res.partition

    @check("partition: knock-out bookkeeping consistent at every crossing")
    def _knockout():
        bad = knockout_report(res.partition, res.crossings)
        if bad:
            raise InvariantError("; ".join(bad))

    @check("partition: catchments tile the complement of the champions")
    def _catchments():
        # build_partition raises unless catchments leave just the champion.
        res.partition

    @check("fan: crepant, unimodular, complete")
    def _fan_ok():
        bad = verify_fan(ctx, res.fan)
        if bad:
            raise InvariantError("; ".join(bad))

    @check("fan: census valencies and surface counts")
    def _census():
        # surface_census raises on a valency outside 3..6.
        want = dp6_count(res.partition)
        got = sum(1 for s in res.census if s.label == "dP6")
        if want != got:
            raise InvariantError(f"dP6 formula {want} vs census {got}")

    @check("monomials: ratio normal form on every triangle")
    def _ratios():
        res.ratios

    @check("monomials: dual bases solve and closed form agree")
    def _duals():
        # dual_basis runs on small kinds' cells and larger kinds' corners.
        res.systems

    @check("monomials: exponent knock-out rule matches defeat data")
    def _crossings():
        for la, lb, x in res.crossings:
            winner = crossing_rule_check(ctx, la, lb)
            # Within its extent a line ends at x exactly when x is its
            # defeat point.
            ends_a = x == (la.defeat_point, 1)
            ends_b = x == (lb.defeat_point, 1)
            geom = None
            if ends_b and not ends_a:
                geom = la.tag
            if ends_a and not ends_b:
                geom = lb.tag
            if winner != geom:
                raise InvariantError(
                    f"rule says {winner}, partition says {geom} "
                    f"at {x[0]} for {la.tag} x {lb.tag}"
                )

    @check("clusters: systems verified, tripods exact, classification returns")
    def _clusters():
        for cell, sysm in zip(res.fan.cones, res.systems):
            check_tripod(ctx, sysm)
            cls = classify_cluster(sysm.exponents())
            tr = res.ratios[cell.parent]
            if ((cls.mode, cls.case, cls.perm, cls.A, cls.B, cls.C,
                 (cls.i, cls.j, cls.k))
                    != (cell.kind, tr.case, tr.perm, tr.a, tr.b, tr.c,
                        tr.role_steps(cell))):
                raise InvariantError(
                    "classification recovered the wrong normal form")

    return results


def random_group(rng: random.Random, max_order: int) -> LatticeContext:
    """The lattice context of a uniform-ish random valid group of order at
    most max_order."""
    while True:
        if rng.random() < 0.8:
            r = rng.randint(1, max_order)
            a = rng.randrange(r)
            b = rng.randrange(r)
            c = (-a - b) % r
            text = f"1/{r}({a},{b},{c})"
        else:
            terms = []
            for _ in range(2):
                r = rng.randint(1, max(2, int(max_order**0.5) + 1))
                a = rng.randrange(r)
                b = rng.randrange(r)
                terms.append(f"1/{r}({a},{b},{(-a - b) % r})")
            text = "+".join(terms)
        try:
            return lattice_context(parse_group_spec(text), max_order=max_order)
        except GroupSpecError:
            continue


def run_random_suite(count: int, max_order: int,
                     seed: int) -> tuple[int, list[str]]:
    """Run the full suite over seeded random groups; returns the number of
    groups tested and a list of failure descriptions, each ending in the
    command that reruns its group with the same seed."""
    rng = random.Random(seed)
    failures = []
    for t in range(count):
        ctx = random_group(rng, max_order)
        spec = ctx.spec
        repro = f'ahilb verify "{spec.canonical_text}" --seed {seed + t}'
        for result in run_checks(Resolution(ctx), seed=seed + t):
            if not result.ok:
                failures.append(
                    f"{spec.canonical_text}: {result.name}: {result.detail}; "
                    f"{repro}"
                )
    return count, failures
