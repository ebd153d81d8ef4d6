"""The benchmark's workloads: each is a list of group specifications made
from a seed.  Nothing here imports the package under test, so a change to
the package cannot change the inputs it is measured on.
"""

from __future__ import annotations

import math
import random
from itertools import permutations

from checks import group_elements

# Each operation must repeat several times in a run for the median of its
# times to be steady, so no group here takes more than a few seconds:
# 1/128(1,1,126) and 1/2003(1,100,1902) (7 s and 8 s for one verify on a
# slow host) are left out.  With them a 30 s run held one or two repeats
# of their operations, and report_s and verify_s spread by 5-6% from run
# to run instead of 1-3%.

# Many lines and few cones: the C(L,3) triangle enumeration in the
# partition stage does nearly all the work (L = 98, 62).
LINES = ("1/96(1,1,94)", "1/120(1,2,117)")

# Many cones and few lines: per-cell work (tripod characters, chart
# lookup, dual bases, fan census) dominates (1001 and 1024 cones).  The
# second group is a single regular triangle (L = 3), so it skips the
# partition's enumeration and the census's vertex-by-triangle scan, which
# the first group (L = 63) runs.
CELLS = ("1/1001(1,37,963)", "1/32(1,0,31)+1/32(0,1,31)")

SWEEP_GROUPS = 100
SWEEP_MAX_ORDER = 60
SWEEP_CYCLIC = 80
SWEEP_BASE_SEED = 0

WORKLOADS = ("lines", "cells", "sweep")


def _sweep_base() -> list[list[tuple[int, tuple]]]:
    """SWEEP_GROUPS groups drawn once, with a fixed seed, in the mix of the
    acceptance suite's random generator: 1/r(a,b,c) with r uniform on
    1..SWEEP_MAX_ORDER and (a, b) uniform, then sums of two generators of
    order at most sqrt(SWEEP_MAX_ORDER) + 1 whose group has order at most
    SWEEP_MAX_ORDER.  Each group is a list of (r, weights) terms."""
    rng = random.Random(SWEEP_BASE_SEED)
    bound = max(2, math.isqrt(SWEEP_MAX_ORDER) + 1)
    groups = []
    while len(groups) < SWEEP_GROUPS:
        n_terms = 1 if len(groups) < SWEEP_CYCLIC else 2
        terms = []
        for _ in range(n_terms):
            r = rng.randint(1, SWEEP_MAX_ORDER if n_terms == 1 else bound)
            a, b = rng.randrange(r), rng.randrange(r)
            terms.append((r, (a, b, (-a - b) % r)))
        if len(group_elements(_text(terms))) <= SWEEP_MAX_ORDER:
            groups.append(terms)
    return groups


def _text(terms) -> str:
    return "+".join(f"1/{r}({w[0]},{w[1]},{w[2]})" for r, w in terms)


def sweep(seed: int) -> list[str]:
    """SWEEP_GROUPS groups of order <= SWEEP_MAX_ORDER.  The seed permutes
    the three coordinates of each base group, rewrites each generator as a
    unit multiple of itself (the same cyclic group, written differently)
    and shuffles the order of the groups.

    The base groups are fixed because their cost is heavy-tailed: a group
    with a zero or a repeated weight has about r + 2 lines, and the
    partition's enumeration grows like the cube of that.  Drawn afresh for
    every seed, a few such groups decide the sweep total, which then
    varies by a quarter from seed to seed.  The seed's rewriting keeps the
    cost and changes every input the program sees.
    """
    rng = random.Random(seed)
    perms = list(permutations(range(3)))
    specs = []
    for terms in _sweep_base():
        perm = rng.choice(perms)
        rewritten = []
        for r, w in terms:
            u = rng.choice([k for k in range(1, r + 1) if math.gcd(k, r) == 1])
            rewritten.append((r, tuple(u * w[p] % r for p in perm)))
        specs.append(_text(rewritten))
    rng.shuffle(specs)
    return specs


def specs_for(workload: str, seed: int) -> list[str]:
    """The workload's groups, in the order the first round runs them."""
    if workload == "lines":
        return list(LINES)
    if workload == "cells":
        return list(CELLS)
    if workload == "sweep":
        return sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")
