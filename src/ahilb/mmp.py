"""The contraction game on cyclic words.

Contracting an entry of value 1 rewrites a,1,b -> a-1,b-1 and certifies one
regular triple (left + right = contracted, up to the wraparound sign).  A
full run ends at [1,1,1]; together with the terminal triple it lists every
regular triple exactly once, independent of contraction order.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import NamedTuple

from .corners import CyclicWord, Tag, WordEntry
from .errors import InvariantError
from .lattice import (
    LatticeContext,
    Vec3,
    pair_index,
    sign_fixed,
    vadd,
    vneg,
)

Strategy = str | tuple[str, int] | list[int]


class RegularTriple(NamedTuple):
    """Three translation vectors, any two a lattice basis, with the sign
    relation vectors[0] - vectors[1] + vectors[2] = 0.  ``_relation``,
    the one constructor, raises unless the relation holds."""

    vectors: tuple[Vec3, Vec3, Vec3]
    tags: tuple[Tag, Tag, Tag]

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


def _relation(left: WordEntry, mid: WordEntry, right: WordEntry,
              left_wraps: bool, right_wraps: bool) -> RegularTriple:
    """The triple certified by contracting mid between its neighbors; a
    neighbor reached across the end of the word is negated."""
    lv = vneg(left.vector) if left_wraps else left.vector
    rv = vneg(right.vector) if right_wraps else right.vector
    if vadd(lv, rv) != mid.vector:
        raise InvariantError("contraction relation failed; corrupted word")
    return RegularTriple((lv, mid.vector, rv), (left.tag, mid.tag, right.tag))


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


class MMPTrace(NamedTuple):
    steps: tuple[RegularTriple, ...]  # one triple per contraction
    terminal_triple: RegularTriple


def terminal_triple(word: CyclicWord) -> RegularTriple:
    if word.values() != (1, 1, 1):
        raise InvariantError("terminal triple requires the word [1,1,1]")
    return _relation(*word.entries, False, False)


def contract_run(word: CyclicWord, strategy: Strategy = "leftmost",
                 protected: frozenset[Tag] = frozenset(),
                 ) -> tuple[list[RegularTriple], CyclicWord]:
    """Contract 1s until three entries are left or no entry tagged outside
    protected is a 1.  Returns the triple of every step and the word left.

    strategy picks the next 1: "leftmost" (the first in the word),
    ("random", seed) (uniformly among them), or an explicit list of
    positions in the current word, which must be used up exactly.

    The word is never copied: each original entry keeps its value and its
    links to the current neighbors, and the contractible entries are kept
    in one list sorted by original index, so a step costs a bisection and
    a list insert and delete (and a walk of O(m) links for an explicit
    position).  Contraction keeps the entries' relative order, so the
    current word is the live entries in original order, the list holds
    the 1s in the order of the current word (the leftmost is its head,
    and a seeded pick draws as ``random.choice`` on it would), and a
    neighbor is reached across the end of the word exactly when its
    original index lies on the wrong side.
    """
    entries = word.entries
    m = len(entries)
    values = [e.value for e in entries]
    prev = [(i - 1) % m for i in range(m)]
    nxt = [(i + 1) % m for i in range(m)]
    head = 0  # the live entry of least original index
    cands = [i for i in range(m)
             if values[i] == 1 and entries[i].tag not in protected]
    rng = random.Random(strategy[1]) if isinstance(strategy, tuple) else None
    positions = strategy if isinstance(strategy, list) else None
    triples = []
    while m > 3 and cands:
        if positions is not None:
            if len(triples) == len(positions):
                raise InvariantError(
                    f"position list ran out after {len(triples)} steps")
            pos = positions[len(triples)]
            if not 0 <= pos < m:
                raise InvariantError(
                    f"position {pos} is outside a word of length {m}")
            i = head
            for _ in range(pos):
                i = nxt[i]
            at = bisect_left(cands, i)
            if at == len(cands) or cands[at] != i:
                raise InvariantError(
                    f"entry at {pos} has value {values[i]}, not 1")
        elif rng is not None:
            at = rng.randrange(len(cands))
        else:
            at = 0
        i = cands.pop(at)
        left, right = prev[i], nxt[i]
        triples.append(_relation(entries[left], entries[i], entries[right],
                                 left > i, right < i))
        if values[left] <= 1 or values[right] <= 1:
            raise InvariantError("contraction would drop a strength below 1")
        nxt[left], prev[right] = right, left
        if i == head:
            head = right
        m -= 1
        for nb in (left, right):
            values[nb] -= 1
            if values[nb] == 1 and entries[nb].tag not in protected:
                insort(cands, nb)
    if positions is not None and len(positions) > len(triples):
        raise InvariantError(
            f"{len(positions) - len(triples)} positions left over after "
            f"{len(triples)} steps")
    rest = []
    i = head
    for _ in range(m):
        rest.append(WordEntry(values[i], entries[i].tag, entries[i].vector))
        i = nxt[i]
    return triples, CyclicWord(tuple(rest))


def run_mmp(word: CyclicWord, strategy: Strategy = "leftmost") -> MMPTrace:
    """Contract down to [1,1,1], recording one regular triple per step plus
    the terminal triple.

    strategy: "leftmost", ("random", seed), or an explicit position list.
    A step removes a 1 and lowers its two neighbors by one, so it lowers
    the value sum by exactly 3, and a run that ends at [1,1,1] took
    (sum(word.values()) - 3)/3 steps: with the terminal triple, it lists
    sum/3 triples, pairwise distinct once ``triple_set`` accepts them.
    """
    steps, rest = contract_run(word, strategy)
    if len(rest) > 3:
        raise InvariantError("no contractible entry before reaching [1,1,1]")
    if rest.values() != (1, 1, 1):
        raise InvariantError(f"terminal word is {rest.values()}, not [1,1,1]")
    return MMPTrace(tuple(steps), terminal_triple(rest))


def triple_set(trace: MMPTrace) -> dict[tuple, RegularTriple]:
    """Triples of a run keyed by canonical form; a repeat is an error."""
    out: dict[tuple, RegularTriple] = {}
    for triple in trace.steps + (trace.terminal_triple,):
        key = triple.canonical()
        if key in out:
            raise InvariantError("regular triple emitted twice in one run")
        out[key] = triple
    return out


def validate_triple(ctx: LatticeContext, triple: RegularTriple) -> None:
    """Raise unless any two of the triple's vectors form a lattice basis.
    ``_relation`` built the triple, so v1 = v0 + v2, and the chart is
    linear, so on the charts cross2(v0, v1) = cross2(v0, v2) =
    cross2(v1, v2): one pair index settles all three."""
    v = triple.vectors
    if pair_index(ctx, v[0], v[2]) != 1:
        raise InvariantError("triple vectors do not pairwise form bases")
