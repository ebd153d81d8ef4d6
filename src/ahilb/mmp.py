"""The contraction game on cyclic words.

Contracting an entry of value 1 rewrites a,1,b -> a-1,b-1 and certifies one
regular triple (left + right = contracted, up to the wraparound sign).  A
full run ends at [1,1,1]; together with the terminal triple it lists every
regular triple exactly once, independent of contraction order.  A
triple is kept as its step, the indexes of its three word entries: no
two entries of a word are parallel (``validate_chain``), so the sorted
indexes name the triple as well as its vectors do.  The partition reads
the entries' tags as the triple's host lines.  The game is played leftmost
(the partition's run), in orders drawn by a seeded generator (verify's
order family) and fenced by two junctions (the partition's side runs).
"""

from __future__ import annotations

from bisect import insort
from random import Random
from typing import NamedTuple

from .corners import CyclicWord, Tag
from .errors import InvariantError
from .lattice import vneg

Step = tuple[int, int, int]  # entry indexes (left, mid, right) in a word


def classify_triple(tags) -> str:
    """A triple is a champion triple when its vectors sit strictly inside
    three distinct corner blades; otherwise it belongs to a side."""
    corners = {t[1] for t in tags if t[0] == "corner"}
    if len(corners) == 3:
        return "champion"
    return "side"


class MMPTrace(NamedTuple):
    """A full run on word: the step of every certified triple, in the
    order certified, the terminal triple last."""

    word: CyclicWord
    triples: tuple[Step, ...]

    @property
    def steps(self) -> tuple[Step, ...]:
        """One step per contraction."""
        return self.triples[:-1]


def contract_run(word: CyclicWord, protected: frozenset[Tag] = frozenset(),
                 rng: Random | None = None) -> tuple[Step, ...]:
    """The one kernel of the game: contract 1s until three entries are
    left or no entry tagged outside protected is a 1.  Returns the step
    of each certified triple, in the order certified.  With nothing
    protected the run is full, and the word left must be [1,1,1], whose
    middle entry certifies the terminal triple; a fenced run returns once
    it is stuck.  The next 1 is the leftmost one or, given rng, drawn as
    ``rng.choice`` on the current 1s would.

    Each entry keeps its value, in a copy of the word's values, and links
    to its current neighbors; the 1s stay in a list sorted by index, their
    order in the current word, and a neighbor is reached across the end
    of the word, and negated, exactly when its index lies on the wrong
    side of mid.  Tags and vectors are read off the word in place.  A
    step's middle entry leaves the word, so no two have one index set."""
    values, vectors, m = list(word.values), word.vectors, len(word)
    fenced = ({i for i, t in enumerate(word.tags) if t in protected}
              if protected else frozenset())
    prev, nxt = [m - 1, *range(m - 1)], [*range(1, m), 0]
    head = 0  # the live entry of least original index
    cands = [i for i in range(m) if values[i] == 1 and i not in fenced]
    steps: list[Step] = []
    while True:
        if m > 3 and cands:
            i = cands.pop(0 if rng is None else rng.randrange(len(cands)))
        elif protected:
            return tuple(steps)
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
        steps.append((left, i, right))
        if m == 3:
            return tuple(steps)
        if values[left] <= 1 or values[right] <= 1:
            raise InvariantError("contraction would drop a strength below 1")
        nxt[left], prev[right] = right, left
        if i == head:
            head = right
        m -= 1
        for nb in (left, right):
            values[nb] -= 1
            if values[nb] == 1 and nb not in fenced:
                insort(cands, nb)


def run_mmp(word: CyclicWord, rng: Random | None = None) -> MMPTrace:
    """The full run down to [1,1,1], leftmost or drawn by rng.  A step
    lowers the value sum by 3, so with the terminal triple a run lists
    sum(word.values)/3 triples, with distinct index sets."""
    return MMPTrace(word, contract_run(word, rng=rng))
