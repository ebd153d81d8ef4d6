"""Output checks that do not rely on the code under test.

The reference is the McKay correspondence count of Ito and Reid ("The
McKay correspondence for finite subgroups of SL(3,C)"): for a finite
diagonal A in SL(3,C), the crepant resolution has one cone per group
element, one exceptional divisor per age-1 element and one compact
surface per age-2 element.  The group elements are enumerated here from
the written generators, not through the package.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

_TERM = re.compile(r"1/([0-9]+)\(([0-9]+),([0-9]+),([0-9]+)\)")


def _generators(text: str) -> list[tuple[Fraction, Fraction, Fraction]]:
    gens = []
    for term in text.replace(" ", "").split("+"):
        m = _TERM.fullmatch(term)
        if m is None:
            raise ValueError(f"cannot parse group term {term!r}")
        r = int(m.group(1))
        gens.append(tuple(Fraction(int(m.group(k)) % r, r) for k in (2, 3, 4)))
    return gens


def group_elements(text: str) -> set[tuple[Fraction, Fraction, Fraction]]:
    """Every element of the group written as 1/r(a,b,c)+..., as exponent
    triples in [0, 1)^3."""
    gens = _generators(text)
    zero = (Fraction(0),) * 3
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((x + y) % 1 for x, y in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def age_counts(text: str) -> dict[int, int]:
    """Number of group elements of age 0, 1 and 2."""
    counts = {0: 0, 1: 0, 2: 0}
    for g in group_elements(text):
        age = sum(g)
        if age.denominator != 1 or age not in counts:
            raise ValueError(f"{text} is not in SL(3,C): element of age {age}")
        counts[int(age)] += 1
    return counts


def report_misses(text: str, doc: dict, validator) -> list[str]:
    """Every way the report fails the schema or the Ito-Reid counts."""
    misses = [f"schema: {err.message}" for err in validator.iter_errors(doc)]
    if misses:
        return misses
    ages = age_counts(text)
    order = sum(ages.values())
    want = {
        "cones = |A|": (len(doc["fan"]["cones"]), order),
        "rays - 3 = age-1 elements": (len(doc["fan"]["rays"]) - 3, ages[1]),
        "census surfaces = age-2 elements": (len(doc["census"]), ages[2]),
        "sum of r^2 over triangles = |A|": (
            sum(t["side"] ** 2 for t in doc["partition"]), order),
        "order field = |A|": (doc["order"], order),
    }
    return [f"{name}: got {got}, want {exp}"
            for name, (got, exp) in want.items() if got != exp]


def verify_misses(rc: int, out: str) -> list[str]:
    """Every way a verify run failed: exit code, FAIL lines, no checks."""
    lines = [ln for ln in out.splitlines() if ": " in ln]
    misses = [ln for ln in lines if ": FAIL" in ln]
    if rc != 0:
        misses.append(f"exit code {rc}")
    if not any(ln.endswith(": pass") for ln in lines):
        misses.append("no check reported pass")
    return misses


def schema_validator(root: Path):
    """A validator for the package's shipped report schema."""
    import jsonschema

    schema = json.loads((root / "src" / "ahilb" / "schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)
