"""The contraction game on cyclic words.

Contracting an entry of value 1 rewrites a,1,b -> a-1,b-1 and certifies one
regular triple (left + right = contracted, up to the wraparound sign).  A
full run ends at [1,1,1]; together with the terminal triple it lists every
regular triple exactly once, independent of contraction order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corners import CyclicWord, Tag, WordEntry
from .errors import InvariantError
from .lattice import (
    LatticeContext,
    Vec3,
    pair_index,
    sign_fixed,
    smul,
    vadd,
    vneg,
)

Strategy = str | tuple[str, int] | list[int]


@dataclass(frozen=True)
class RegularTriple:
    """Three translation vectors, any two a lattice basis, with a recorded
    sign relation sum(signs[t] * vectors[t]) = 0."""

    vectors: tuple[Vec3, Vec3, Vec3]
    signs: tuple[int, int, int]
    tags: tuple[Tag, Tag, Tag]
    type_tag: str  # "side" | "champion"

    def canonical(self) -> tuple[Vec3, Vec3, Vec3]:
        """Vectors normalized up to sign and order (identifies +-v)."""
        return tuple(sorted(sign_fixed(v) for v in self.vectors))


def classify_triple(tags) -> str:
    """A triple is a champion triple when its vectors sit strictly inside
    three distinct corner blades; otherwise it belongs to a side."""
    corners = {t[1] for t in tags if t[0] == "corner"}
    if len(corners) == 3:
        return "champion"
    return "side"


def _emit_triple(entries: tuple[WordEntry, ...], pos: int) -> RegularTriple:
    m = len(entries)
    left = entries[(pos - 1) % m]
    mid = entries[pos]
    right = entries[(pos + 1) % m]
    lv = vneg(left.vector) if pos == 0 else left.vector
    rv = vneg(right.vector) if pos == m - 1 else right.vector
    if vadd(lv, rv) != mid.vector:
        raise InvariantError("contraction relation failed; corrupted word")
    return RegularTriple(
        vectors=(lv, mid.vector, rv),
        signs=(1, -1, 1),
        tags=(left.tag, mid.tag, right.tag),
        type_tag=classify_triple((left.tag, mid.tag, right.tag)),
    )


def contract(word: CyclicWord, pos: int) -> tuple[CyclicWord, RegularTriple]:
    """Contract the value-1 entry at pos; neighbors are decremented."""
    entries = word.entries
    m = len(entries)
    if m < 4:
        raise InvariantError("cyclic words of length < 4 are terminal")
    if entries[pos].value != 1:
        raise InvariantError(f"entry at {pos} has value {entries[pos].value}, not 1")
    triple = _emit_triple(entries, pos)
    new = list(entries)
    for nb in ((pos - 1) % m, (pos + 1) % m):
        e = new[nb]
        if e.value <= 1:
            raise InvariantError("contraction would drop a strength below 1")
        new[nb] = WordEntry(e.value - 1, e.tag, e.vector)
    del new[pos]
    return CyclicWord(tuple(new)), triple


def contract_values(values: list[int], pos: int) -> list[int]:
    """Bare linear (half-plane) value-list contraction: a missing neighbor
    at either end is the fixed anchor ray and absorbs nothing."""
    if values[pos] != 1:
        raise InvariantError(f"entry at {pos} has value {values[pos]}, not 1")
    out = list(values)
    for nb in (pos - 1, pos + 1):
        if not 0 <= nb < len(out):
            continue
        if out[nb] <= 1:
            raise InvariantError("contraction would drop a strength below 1")
        out[nb] -= 1
    del out[pos]
    return out


def run_linear(values: list[int]) -> list[list[int]]:
    """Leftmost-first linear contraction chain; returns every word from the
    input down to the terminal [1,1]."""
    chain = [list(values)]
    cur = list(values)
    while cur != [1, 1]:
        pos = cur.index(1)
        cur = contract_values(cur, pos)
        chain.append(cur)
    return chain


@dataclass(frozen=True)
class MMPStep:
    values_before: tuple[int, ...]
    pos: int
    triple: RegularTriple


@dataclass(frozen=True)
class MMPTrace:
    steps: tuple[MMPStep, ...]
    terminal_triple: RegularTriple
    strength_sum: int


def terminal_triple(word: CyclicWord) -> RegularTriple:
    if word.values() != (1, 1, 1):
        raise InvariantError("terminal triple requires the word [1,1,1]")
    return _emit_triple(word.entries, 1)


def run_mmp(word: CyclicWord, strategy: Strategy = "leftmost") -> MMPTrace:
    """Contract down to [1,1,1], recording one regular triple per step plus
    the terminal triple.

    strategy: "leftmost", ("random", seed), or an explicit position list.
    """
    s0 = sum(word.values())
    rng = None
    positions: list[int] | None = None
    if isinstance(strategy, tuple):
        rng = random.Random(strategy[1])
    elif isinstance(strategy, list):
        positions = list(strategy)
    steps = []
    cur = word
    while len(cur) > 3:
        ones = [t for t, e in enumerate(cur.entries) if e.value == 1]
        if not ones:
            raise InvariantError("no contractible entry before reaching [1,1,1]")
        if positions is not None:
            pos = positions.pop(0)
        elif rng is not None:
            pos = rng.choice(ones)
        else:
            pos = ones[0]
        before = cur.values()
        cur, triple = contract(cur, pos)
        steps.append(MMPStep(before, pos, triple))
    if cur.values() != (1, 1, 1):
        raise InvariantError(f"terminal word is {cur.values()}, not [1,1,1]")
    trace = MMPTrace(tuple(steps), terminal_triple(cur), s0)
    if len(steps) != (s0 - 3) // 3:
        raise InvariantError("step count does not match the strength sum")
    return trace


def triple_set(trace: MMPTrace) -> dict[tuple, RegularTriple]:
    """Triples of a run keyed by canonical form; a repeat is an error."""
    out: dict[tuple, RegularTriple] = {}
    for triple in [s.triple for s in trace.steps] + [trace.terminal_triple]:
        key = triple.canonical()
        if key in out:
            raise InvariantError("regular triple emitted twice in one run")
        out[key] = triple
    return out


def validate_triple(ctx: LatticeContext, triple: RegularTriple) -> None:
    """Pairwise-basis and sign-relation checks."""
    v = triple.vectors
    s = triple.signs
    total = (0, 0, 0)
    for t in range(3):
        total = vadd(total, smul(s[t], v[t]))
    if total != (0, 0, 0):
        raise InvariantError("triple sign relation does not vanish")
    for a in range(3):
        for b in range(a + 1, 3):
            if pair_index(ctx, v[a], v[b]) != 1:
                raise InvariantError("triple vectors do not pairwise form bases")
