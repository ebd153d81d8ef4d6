import random
import re
from typing import NamedTuple

import pytest
from test_cli import SWEEP
from test_tiling import cyclic_groups

from ahilb import lattice_context, parse_group_spec
from ahilb.corners import CyclicWord, corner_chain, validate_chain
from ahilb.errors import InvariantError
from ahilb.lattice import pair_index, sign_fixed, vadd, vneg
from ahilb.mmp import MMPTrace, classify_triple, contract_run, run_mmp
from ahilb.resolution import Resolution


def ctx_of(text):
    return lattice_context(parse_group_spec(text))


def word_of(text):
    return Resolution(ctx_of(text)).word


class RegularTriple(NamedTuple):
    """Three translation vectors, any two a lattice basis, with the sign
    relation vectors[0] - vectors[1] + vectors[2] = 0, and the tags of
    the word entries they come from."""

    vectors: tuple
    tags: tuple


def triple_set(trace: MMPTrace) -> dict:
    """The run's triples as records, by key, off its steps; a neighbor
    reached across the end of the word is negated."""
    return record_triple_set([
        relation(trace.word, left, mid, right, left > mid, right < mid)
        for left, mid, right in trace.triples])


def index_set(trace: MMPTrace) -> set:
    """The run's triples as sorted entry indexes, as verify compares them."""
    return {tuple(sorted(step)) for step in trace.triples}


def relation(word: CyclicWord, left: int, mid: int, right: int,
             left_wraps: bool, right_wraps: bool) -> RegularTriple:
    """The record path's triple: the one certified by contracting entry
    mid of word between entries left and right, a neighbor reached across
    the end of the word negated.  Raises unless left + right = mid."""
    lv, mv, rv = (word.vectors[e] for e in (left, mid, right))
    lv = vneg(lv) if left_wraps else lv
    rv = vneg(rv) if right_wraps else rv
    if vadd(lv, rv) != mv:
        raise InvariantError("contraction relation failed; corrupted word")
    return RegularTriple((lv, mv, rv),
                         tuple(word.tags[e] for e in (left, mid, right)))


def canonical(triple: RegularTriple) -> tuple:
    """The record's vectors normalized up to sign and order."""
    return tuple(sorted(sign_fixed(v) for v in triple.vectors))


def record_triple_set(records: list[RegularTriple]) -> dict:
    """The oracle of the run kernel's triples: records keyed by canonical
    form, in order; a repeat is an error."""
    out = {}
    for triple in records:
        key = canonical(triple)
        if key in out:
            raise InvariantError("regular triple emitted twice in one run")
        out[key] = triple
    return out


def terminal(trace: MMPTrace) -> RegularTriple:
    """The run's terminal triple, the last it certifies."""
    return list(triple_set(trace).values())[-1]


def contract(word: CyclicWord, pos: int) -> tuple[CyclicWord, RegularTriple]:
    """One step of the contraction game on a copied word: contract the
    value-1 entry at pos; neighbors are decremented."""
    values, tags, vectors = (list(column) for column in word)
    m = len(values)
    if m < 4:
        raise InvariantError("cyclic words of length < 4 are terminal")
    if values[pos] != 1:
        raise InvariantError(f"entry at {pos} has value {values[pos]}, not 1")
    triple = relation(word, (pos - 1) % m, pos, (pos + 1) % m,
                      pos == 0, pos == m - 1)
    for nb in ((pos - 1) % m, (pos + 1) % m):
        if values[nb] <= 1:
            raise InvariantError("contraction would drop a strength below 1")
        values[nb] -= 1
    for column in (values, tags, vectors):
        del column[pos]
    return CyclicWord(tuple(values), tuple(tags), tuple(vectors)), triple


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


def test_contract_values_middle():
    assert contract_values([4, 2, 1, 3, 2, 2], 2) == [4, 1, 2, 2, 2]


def test_contract_values_linear_tail():
    assert contract_values([2, 1, 2], 1) == [1, 1]


def test_run_linear_chain_of_7_4():
    # The complementary-cone run for 7/4: every intermediate word verbatim.
    assert run_linear([4, 2, 1, 3, 2, 2]) == [
        [4, 2, 1, 3, 2, 2],
        [4, 1, 2, 2, 2],
        [3, 1, 2, 2],
        [2, 1, 2],
        [1, 1],
    ]


def test_contract_cyclic_wraps():
    word = word_of("1/11(1,2,8)")
    # Contract the first junction: the final entry (value 2) and the first
    # strength (3) are its cyclic neighbors.
    new, triple = contract(word, 0)
    assert new.values == (2, 4, 1, 2, 3, 2, 2, 1, 6, 1)
    # The emitted relation is left + right = contracted with wrap sign.
    assert vadd(triple.vectors[0], triple.vectors[2]) == triple.vectors[1]


def test_contract_rejects_non_one():
    word = word_of("1/11(1,2,8)")
    with pytest.raises(InvariantError):
        contract(word, 1)


def test_run_mmp_11_counts():
    ctx = ctx_of("1/11(1,2,8)")
    word = Resolution(ctx).word
    trace = run_mmp(word)
    assert sum(word.values) == 27
    assert len(trace.steps) == 8
    triples = triple_set(trace)
    assert len(triples) == 9
    for t in triples.values():
        assert pair_index(ctx, t.vectors[0], t.vectors[2]) == 1


def test_run_mmp_terminal_triple_11():
    # Eating the three sides in the published a-h order ends at the
    # champion triple f_{1,2} + f_{2,2} + f_{3,1} = 0.
    ctx = ctx_of("1/11(1,2,8)")
    fans = {i: corner_chain(ctx, i) for i in (1, 2, 3)}
    word = Resolution(ctx).word
    term = positions_run(word, [3, 3, 6, 5, 4, 0, 4, 0])[-1]
    assert classify_triple(term.tags) == "champion"
    assert set(term.tags) == {("corner", 1, 2), ("corner", 2, 2), ("corner", 3, 1)}
    expected = vadd(
        vadd(fans[1].vectors[2], fans[2].vectors[2]), fans[3].vectors[1]
    )
    assert expected == (0, 0, 0)
    # Any other order still emits that triple, as the same record.
    assert triple_set(run_mmp(word))[canonical(term)] == term


def test_run_mmp_z2z2_terminal_only():
    ctx = ctx_of("1/2(1,1,0)+1/2(0,1,1)")
    trace = run_mmp(Resolution(ctx).word)
    assert len(trace.steps) == 0
    triples = triple_set(trace)
    assert len(triples) == 1
    (term,) = triples.values()
    assert classify_triple(term.tags) == "side"
    assert {t[0] for t in term.tags} == {"junction"}


def test_run_mmp_15_nine_triples():
    word = word_of("1/15(1,2,12)")
    trace = run_mmp(word)
    assert sum(word.values) == 27
    assert len(triple_set(trace)) == 9


def test_run_mmp_30_five_triples():
    word = word_of("1/30(25,2,3)")
    trace = run_mmp(word)
    assert sum(word.values) == 15
    assert len(triple_set(trace)) == 5


def test_strategy_independence_and_side_deletion_words():
    # Eating from one side at a time: two steps along e1e2, or three along
    # e2e3, starting fresh each time; the intermediate words are pinned.
    word = word_of("1/11(1,2,8)")
    leftmost = triple_set(run_mmp(word))
    targets = [
        (1, 3, 3, 1, 3, 2, 2, 1, 6, 2),
        (1, 3, 2, 2, 2, 2, 1, 6, 2),
        (1, 3, 4, 1, 2, 3, 2, 1, 5, 2),
        (1, 3, 4, 1, 2, 3, 1, 4, 2),
        (1, 3, 4, 1, 2, 2, 3, 2),
    ]
    for rng in (None, random.Random(1), random.Random(7), random.Random(42)):
        assert triple_set(run_mmp(word, rng)).keys() == leftmost.keys()
    w1, _ = contract(word, 3)
    assert w1.values == targets[0]
    w2, _ = contract(w1, 3)
    assert w2.values == targets[1]
    w3, _ = contract(word, 8)
    assert w3.values == targets[2]
    w4, _ = contract(w3, 7)
    assert w4.values == targets[3]
    w5, _ = contract(w4, 6)
    assert w5.values == targets[4]


def test_strategy_independence_random_groups():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)", "1/13(1,5,7)"):
        word = word_of(text)
        base = set(triple_set(run_mmp(word)).keys())
        for seed in range(10):
            assert set(triple_set(run_mmp(word, random.Random(seed)))) == base


def test_count_law():
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)", "1/101(1,7,93)"):
        word = word_of(text)
        s = sum(word.values)
        assert len(triple_set(run_mmp(word))) == s // 3


def test_cyclic_word_131313():
    # 1/3(1,1,1): strength sum 12, so three contractions then the terminal
    # triple; the three lines from the corners meet at the center.
    word = word_of("1/3(1,1,1)")
    assert word.values == (1, 3, 1, 3, 1, 3)
    trace = run_mmp(word)
    assert len(trace.steps) == 3
    assert len(triple_set(trace)) == 4


def synthetic_word(values, vectors):
    """A cyclic word of the given values and vectors, tagged as the rays
    out of corner 1."""
    return CyclicWord(tuple(values),
                      tuple(("corner", 1, t) for t in range(1, len(values) + 1)),
                      tuple(vectors))


@pytest.mark.parametrize("values, vectors, message", [
    # The first 1 is not the sum of its neighbors, the last one negated.
    ([1, 2, 2, 2], [(2, -1, -1), (1, 0, -1), (0, 1, -1), (0, 1, -1)],
     "contraction relation failed; corrupted word"),
    # The first step's right neighbor is a 1 already.
    ([1, 1, 2, 2], [(1, -1, 0), (1, 0, -1), (1, 1, -2), (0, 1, -1)],
     "contraction would drop a strength below 1"),
    ([2, 2, 2, 2], [(1, -1, 0), (1, 0, -1), (0, 1, -1), (0, 1, -1)],
     "no contractible entry before reaching [1,1,1]"),
    ([1, 2, 1], [(1, -1, 0), (1, 0, -1), (0, 1, -1)],
     "terminal word is (1, 2, 1), not [1,1,1]"),
])
def test_kernel_failure_messages(values, vectors, message):
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        run_mmp(synthetic_word(values, vectors))


@pytest.mark.parametrize("word, message", [
    # Two pairs of entries share a vector; on this word the kernel would
    # certify the first step's triple again at the second.
    (synthetic_word(
        [1, 3, 2, 1, 2],
        [(-1, -2, 3), (1, -2, 1), (-1, -2, 3), (1, -2, 1), (2, 0, -2)]),
     "cyclic word entries 0 and 2 are parallel"),
    # The word of 1/3(1,1,1) with its first value raised.
    (CyclicWord((2, 3, 1, 3, 1, 3), *word_of("1/3(1,1,1)")[1:]),
     "cyclic word chain relation fails at entry 0"),
])
def test_validate_chain_failure_messages(word, message):
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        validate_chain(word)


def oracle_run(word, choose, protected=frozenset()):
    """The contraction game one copied word at a time: scan the whole word
    for the 1s not tagged in protected and `contract` the one that
    choose(ones) picks, until three entries are left or no such 1 is.
    Returns the triples, the positions taken and the word left."""
    triples, taken = [], []
    cur = word
    while len(cur) > 3:
        ones = [t for t, (value, tag) in enumerate(zip(cur.values, cur.tags))
                if value == 1 and tag not in protected]
        if not ones:
            break
        pos = choose(ones)
        cur, triple = contract(cur, pos)
        triples.append(triple)
        taken.append(pos)
    return triples, taken, cur


def full_run(word, choose):
    """The oracle's run down to [1,1,1]: its records, the terminal one
    last, and the positions taken."""
    steps, taken, rest = oracle_run(word, choose)
    assert rest.values == (1, 1, 1)
    return steps + [relation(rest, 0, 1, 2, False, False)], taken


def positions_run(word, positions):
    """The oracle's full run taking the listed positions of the current
    word in turn: its records, the terminal one last.  Each position must
    be one of the current 1s, and the list must be used up."""
    taken = []

    def choose(ones):
        k = len(taken)
        if k == len(positions):
            raise InvariantError(f"position list ran out after {k} steps")
        pos, m = positions[k], len(word) - k
        if not 0 <= pos < m:
            raise InvariantError(
                f"position {pos} is outside a word of length {m}")
        if pos not in ones:
            raise InvariantError(f"entry at {pos} is not a 1")
        taken.append(pos)
        return pos

    records = full_run(word, choose)[0]
    if len(taken) < len(positions):
        raise InvariantError(f"{len(positions) - len(taken)} positions left "
                             f"over after {len(taken)} steps")
    return records


@pytest.mark.parametrize("positions, message", [
    ([3, 3, 6], "position list ran out after 3 steps"),
    ([3, 11], "position 11 is outside a word of length 10"),
    ([-1], "position -1 is outside a word of length 11"),
    ([3, 3, 6, 5, 4, 0, 4, 0, 0], "1 positions left over after 8 steps"),
    ([3, 1], "entry at 1 is not a 1"),
])
def test_explicit_positions_must_fit_the_run(positions, message):
    # The by-sides order of the paper is played on the oracle, which
    # takes a listed order only when it fits the run exactly.
    word = word_of("1/11(1,2,8)")
    assert len(word) == 11
    with pytest.raises(InvariantError, match=f"^{message}$"):
        positions_run(word, positions)


def test_fenced_run_returns_when_stuck():
    # One step leaves [2,2,2,2]: fenced, the run returns that step; with
    # nothing protected it is a full run, and the stall raises.
    word = synthetic_word(
        [1, 3, 2, 2, 3],
        [(0, 1, -1), (1, 0, -1), (1, 1, -2), (0, 1, -1), (1, -1, 0)])
    fence = frozenset({("corner", 1, 3)})
    assert contract_run(word, fence) == ((4, 0, 1),)
    with pytest.raises(InvariantError, match=re.escape(
            "no contractible entry before reaching [1,1,1]")):
        contract_run(word)


def check_engine_against_oracle(spec):
    # The records triple_set builds off the kernel's steps, keyed by
    # canonical vectors and in the order certified, against the record
    # path; the index sets of the seeded runs against the leftmost one's.
    word = word_of(spec)
    want = record_triple_set(full_run(word, lambda ones: ones[0])[0])
    leftmost = run_mmp(word)
    assert list(triple_set(leftmost).items()) == list(want.items()), spec
    for seed in range(3):
        # A seeded run picks among the 1s in word order, as choice does.
        drawn = run_mmp(word, random.Random(seed))
        records = full_run(word, random.Random(seed).choice)[0]
        assert list(triple_set(drawn).items()) == list(
            record_triple_set(records).items()), spec
        assert index_set(drawn) == index_set(leftmost), spec
    # Ten runs drawing from one generator, as verify's order family does.
    kernel, oracle = random.Random(spec), random.Random(spec)
    for _ in range(10):
        records = full_run(word, oracle.choice)[0]
        assert list(triple_set(run_mmp(word, kernel)).items()) == list(
            record_triple_set(records).items()), spec
    for side in (1, 2, 3):
        fence = frozenset(("junction", s) for s in (1, 2, 3) if s != side)
        eaten = oracle_run(word, lambda ones: ones[0], fence)[0]
        got = triple_set(MMPTrace(word, contract_run(word, protected=fence)))
        assert list(got.items()) == list(
            record_triple_set(eaten).items()), spec


PRODUCTS = [spec for spec in SWEEP if "+" in spec]


def test_engine_matches_oracle_up_to_24():
    for spec in cyclic_groups(24) + PRODUCTS:
        check_engine_against_oracle(spec)


@pytest.mark.deep
def test_engine_matches_oracle_up_to_40():
    for spec in cyclic_groups(40) + PRODUCTS:
        check_engine_against_oracle(spec)
