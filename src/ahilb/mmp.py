"""The contraction game on cyclic words.

Contracting an entry of value 1 rewrites a,1,b -> a-1,b-1 and certifies one
regular triple (left + right = contracted, up to the wraparound sign).  A
full run ends at [1,1,1]; together with the terminal triple it lists every
regular triple exactly once, independent of contraction order.  A
triple is kept as its key, the sorted sign-fixed vectors, mapped to its
step, the indexes of its three word entries; the partition reads the
entries' tags as the triple's host lines.  The game is played leftmost
(the partition's run), in orders drawn by a seeded generator (verify's
order family) and fenced by two junctions (the partition's side runs).
"""

from __future__ import annotations

from bisect import insort
from random import Random
from typing import NamedTuple

from .corners import CyclicWord, Tag
from .errors import InvariantError
from .lattice import Vec3, sign_fixed, vneg

Step = tuple[int, int, int]  # entry indexes (left, mid, right) in a word
Key = tuple[Vec3, Vec3, Vec3]  # sorted sign-fixed vectors of a triple


def classify_triple(tags) -> str:
    """A triple is a champion triple when its vectors sit strictly inside
    three distinct corner blades; otherwise it belongs to a side."""
    corners = {t[1] for t in tags if t[0] == "corner"}
    if len(corners) == 3:
        return "champion"
    return "side"


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
    """A full run on word: the key of every certified triple mapped to
    its step, in the order certified, the terminal triple last."""

    word: CyclicWord
    triples: dict[Key, Step]

    @property
    def steps(self) -> tuple[Step, ...]:
        """One step per contraction."""
        return tuple(self.triples.values())[:-1]


def contract_run(word: CyclicWord, protected: frozenset[Tag] = frozenset(),
                 rng: Random | None = None) -> dict[Key, Step]:
    """The one kernel of the game: contract 1s until three entries are
    left or no entry tagged outside protected is a 1.  Returns each
    certified triple's key mapped to its step.  With nothing protected
    the run is full, and the word left must be [1,1,1], whose middle
    entry certifies the terminal triple; a fenced run returns once it is
    stuck.  The next 1 is the leftmost one or, given rng, drawn as
    ``rng.choice`` on the current 1s would.

    Each entry keeps its value and links to its current neighbors; the
    1s stay in a list sorted by index, their order in the current word,
    and a neighbor is reached across the end of the word, and negated,
    exactly when its index lies on the wrong side of mid.  A key is the
    sorted sign-fixed vectors, off a table made once per run (parallel
    lines share a direction, so the indexes would not do)."""
    values, tags, vectors = map(list, zip(*word.entries))
    m = len(values)
    fixed = [sign_fixed(v) for v in vectors]
    free = [t not in protected for t in tags]
    prev, nxt = [m - 1, *range(m - 1)], [*range(1, m), 0]
    head = 0  # the live entry of least original index
    cands = [i for i in range(m) if values[i] == 1 and free[i]]
    triples: dict[Key, Step] = {}
    while True:
        if m > 3 and cands:
            i = cands.pop(0 if rng is None else rng.randrange(len(cands)))
        elif protected:
            return triples
        elif m > 3:
            raise InvariantError("no contractible entry before reaching [1,1,1]")
        else:
            i = nxt[head]
            rest = (values[head], values[i], values[nxt[i]])
            if rest != (1, 1, 1):
                raise InvariantError(f"terminal word is {rest}, not [1,1,1]")
        left, right = prev[i], nxt[i]
        lx, ly, lz = vneg(vectors[left]) if left > i else vectors[left]
        rx, ry, rz = vneg(vectors[right]) if right < i else vectors[right]
        x, y, z = vectors[i]
        if lx + rx != x or ly + ry != y or lz + rz != z:
            raise InvariantError("contraction relation failed; corrupted word")
        a, b, c = fixed[left], fixed[i], fixed[right]
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        step = (left, i, right)
        if triples.setdefault((a, b, c), step) is not step:
            raise InvariantError("regular triple emitted twice in one run")
        if m == 3:
            return triples
        if values[left] <= 1 or values[right] <= 1:
            raise InvariantError("contraction would drop a strength below 1")
        nxt[left], prev[right] = right, left
        if i == head:
            head = right
        m -= 1
        for nb in (left, right):
            values[nb] -= 1
            if values[nb] == 1 and free[nb]:
                insort(cands, nb)


def run_mmp(word: CyclicWord, rng: Random | None = None) -> MMPTrace:
    """The full run down to [1,1,1], leftmost or drawn by rng.  A step
    lowers the value sum by 3, so with the terminal triple a run lists
    sum(word.values())/3 triples, distinct since a repeated key raises."""
    return MMPTrace(word, contract_run(word, rng=rng))
