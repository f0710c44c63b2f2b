"""The exact engines of a rule outside the tally engine: its winner table
read as lines (``lines.TableSpace``).

Every exact count over a rule's outcomes reads its table one voter at a
time: moved ballots are lines of the table, swapped voters a transpose of
two ballot axes and relabelled profiles a gather along each voter's axis.
The counts are pinned against a pure-Python walk over ``Profile`` objects,
which builds each varied profile from the object layer and asks the rule
for its winner, against counts made from evaluated reads of every profile,
and against values frozen before the engine.
"""

import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from votelab import _tables, lines, rules, sampling, tallies
from votelab.lines import TableSpace
from votelab.metrics import (column_stats, manipulation_power, manipulation_power_total,
                             manipulation_reports)
from votelab.orders import (Profile, column_index, order_from_index, profile_chunks,
                            profile_digits, profile_from_index)
from votelab.rules import ScfRule, _diag_counts, anonymity_counts, neutrality_counts, zoo_rules
from votelab.sampling import CHUNK, Evaluated
from votelab.welfare import PAIRS3, check_reduction_chain, random_iia_gswf, scf_from_gswf

from oracles import pairwise_column


def _cases(n):
    return [(rule.label, rule) for rule in zoo_rules(n)] + [
        ("random_table(seed=1)", ScfRule("random_table", seed=1)),
        ("random_table(seed=2)", ScfRule("random_table", seed=2)),
        ("gswf_winner", scf_from_gswf(random_iia_gswf(n, 3, 5), fallback_voter=n - 1)),
    ]


CASES = _cases(3)
SMALL = [(n, label, rule) for n in (1, 2) for label, rule in _cases(n)]
LARGER = ("borda", "pairwise_majority_fallback", "random_table(seed=1)",
          "dictatorship(voter=2)")


def walk(scf, n):
    """Every exact count of a winner table, by building each varied profile."""
    memo = {}

    def winner(p):
        if p not in memo:
            memo[p] = scf.winner(p)
        return memo[p]

    m = scf.m
    ballots = [order_from_index(k, m) for k in range(factorial(m))]
    relabelings = list(permutations(range(m)))[1:]
    gains, top, bottom, elected = [0] * n, [0] * n, [0] * n, [0] * m
    columns = {pair: ([0] * 2 ** n, [0] * 2 ** n) for pair in PAIRS3} if m == 3 else {}
    neutral = anonymous = 0
    for idx in range(factorial(m) ** n):
        p = profile_from_index(idx, n, m)
        w = winner(p)
        elected[w] += 1
        for i, truth in enumerate(p.voters):
            gains[i] += sum(truth.prefers(winner(p.replace(i, r)), w) for r in ballots)
            top[i] += w != truth.top
            bottom[i] += w != truth.bottom
        for (a, b), (count_a, count_b) in columns.items():
            z = pairwise_column(p, a, b).index
            count_a[z] += w == a
            count_b[z] += w == b
        neutral += sum(winner(p.relabel(pi)) != pi[w] for pi in relabelings)
        for i in range(n - 1):
            voters = list(p.voters)
            voters[i], voters[i + 1] = voters[i + 1], voters[i]
            anonymous += winner(Profile(tuple(voters))) != w
    return dict(gains=gains, top=top, bottom=bottom, elected=elected, columns=columns,
                neutral=neutral, anonymous=anonymous)


def _check_against_walk(scf, n):
    expect = walk(scf, n)
    trials, nord = factorial(scf.m) ** n, factorial(scf.m)
    for i in range(n):
        assert manipulation_power(scf, i, n).fraction == Fraction(expect["gains"][i], trials * nord)
    assert (manipulation_power_total(scf, n).fraction
            == Fraction(sum(expect["gains"]), trials * nord))
    for (a, b), (count_a, count_b) in expect["columns"].items():
        st = column_stats(scf, a, b, n)
        assert st.count_a.tolist() == count_a and st.count_b.tolist() == count_b
    diag, got_trials, mode = _diag_counts(scf, n, "exact", None, None, 1)
    for which, counts in zip(("top", "bottom", "elected"), diag):
        assert (counts.tolist(), got_trials, mode) == (expect[which], trials, "exact")
    assert neutrality_counts(scf, n) == (expect["neutral"], trials * (nord - 1))
    assert anonymity_counts(scf, n) == (expect["anonymous"], trials * (n - 1))


@pytest.mark.parametrize("scf", [rule for _, rule in CASES], ids=[label for label, _ in CASES])
def test_tabled_counts_match_profile_walk_n3(scf):
    _check_against_walk(scf, 3)


@pytest.mark.parametrize("label", LARGER)
def test_tabled_counts_match_profile_walk_n4(label):
    _check_against_walk(dict(CASES)[label], 4)


@pytest.mark.parametrize("n,label,scf", SMALL, ids=[f"{n}-{label}" for n, label, _ in SMALL])
def test_tabled_counts_match_profile_walk_n1_n2(n, label, scf):
    """At n = 1 and 2 the line views have axes of (m!)^0 = 1 entry, and at
    n = 1 there is no voter swap."""
    _check_against_walk(scf, n)


@pytest.mark.parametrize("m,n", [(2, 1), (2, 4), (4, 1), (4, 2)])
def test_tables_of_other_m_match_profile_walk(m, n):
    """A table over two or four alternatives: (m!)^n profiles, m! - 1
    relabelings (those of m = 4 include inverse pairs counted once), no
    pair columns."""
    _check_against_walk(ScfRule("random_table", m, seed=m + n), n)
    _check_against_walk(ScfRule("dictatorship", m, voter=n - 1).as_table(n), n)


# (M_2, M_total, mab(0, 2), nab(0, 2), diagnostic counts top/bottom/elected,
# neutrality counts, anonymity counts) at n = 6, recorded from the engine
# that evaluated the rule on every varied profile.
FROZEN_N6 = {
    "borda": (
        "2285/139968", "2285/23328", "441785/17006112", "2825/46656",
        ((22489,) * 6, (38659,) * 6, (18582, 14872, 13202)), (23190, 233280), (0, 233280)),
    "pairwise_majority_fallback": (
        "25/1458", "565/5832", "10915/531441", "515/11664",
        ((9264,) + (25872,) * 5, (43584,) + (34944,) * 5, (15552, 15552, 15552)),
        (0, 233280), (16608, 233280)),
    "plurality": (
        "5/243", "10/81", "2800/59049", "5/54",
        ((21504,) * 6, (35904,) * 6, (20672, 13632, 12352)), (34560, 233280), (0, 233280)),
    "random_table(seed=5)": (
        "25957/93312", "51761/31104", "1257049/11337408", "26/81",
        ((31028, 31138, 31155, 31204, 30875, 31002), (31143, 31056, 31051, 31026, 31271, 31116),
         (15538, 15564, 15554)), (155290, 233280), (129592, 233280)),
    "gswf_winner": (
        "17015/93312", "100999/93312", "21869/472392", "1919/23328",
        ((30815, 25398, 30692, 30847, 32325, 31991), (31279, 32812, 31444, 31361, 29676, 30292),
         (16335, 13400, 16921)), (149322, 233280), (92442, 233280)),
}


def _n6_rule(label):
    if label == "gswf_winner":
        return scf_from_gswf(random_iia_gswf(6, 3, 4), fallback_voter=1)
    if label == "random_table(seed=5)":
        return ScfRule("random_table", seed=5)
    return ScfRule(label)


@pytest.mark.parametrize("label", FROZEN_N6)
def test_tabled_values_frozen_n6(label):
    scf = _n6_rule(label)
    st = column_stats(scf, 0, 2, 6)
    got = (str(manipulation_power(scf, 2, 6).fraction),
           str(manipulation_power_total(scf, 6).fraction),
           str(st.mab_report().fraction), str(st.nab_report().fraction),
           tuple(tuple(counts.tolist())
                 for counts in _diag_counts(scf, 6, "exact", None, None, 1)[0][:3]),
           neutrality_counts(scf, 6), anonymity_counts(scf, 6))
    assert got == FROZEN_N6[label]


def evaluated_counts(scf, n):
    """``TableSpace``'s gains, structure and (0, 2) column counts, made from
    ``Evaluated`` reads of a block holding every profile: each voter moved
    to each ballot, each adjacent pair swapped, each relabelling elected."""
    digits = profile_digits(np.arange(6 ** n), n)
    original = digits.copy()
    block, perms = Evaluated(scf, digits), _tables.perms(3)
    winners = block.winners()
    prefers = _tables.prefers(3)
    gains = [int(sum(prefers[digits[i], block.moved(i, r), winners].sum() for r in range(6)))
             for i in range(n)]
    structure = [*((winners != perms[digits[i], 0]).sum() for i in range(n)),
                 *((winners != perms[digits[i], -1]).sum() for i in range(n)),
                 *np.bincount(winners, minlength=3),
                 sum((scf.winners_from_digits(_tables.relabel_action(3)[q][digits])
                      != perms[q][winners]).sum() for q in range(1, 6)),
                 sum((block.swapped(i) != winners).sum() for i in range(n - 1))]
    z = column_index(digits, 0, 2)
    columns = np.concatenate([np.bincount(z[winners == side], minlength=1 << n)
                              for side in (0, 2)])
    assert np.array_equal(digits, original)  # the reads leave the block unedited
    return gains, [int(c) for c in structure], columns.tolist()


@pytest.mark.parametrize("label", ["pairwise_majority_fallback", "gswf_winner"])
def test_tabled_reads_equal_evaluated_reads(label):
    """Each count of the table's line view equals the same count made by
    evaluating the rule on every varied profile."""
    scf, n = _n6_rule(label), 6
    space = TableSpace(scf.as_table(n))
    gains, structure, columns = evaluated_counts(scf, n)
    assert space.gains(range(n)) == gains
    assert [int(c) for c in space.structure()] == structure
    assert space.columns(0, 2).tolist() == columns


@pytest.mark.parametrize("block", [1, 5, 36, 100, 4000])
def test_table_counts_do_not_depend_on_the_block_size(monkeypatch, block):
    """Reads cut into blocks of any size, down to one entry, whether a block
    holds several leading rows, part of one, or a run of trailing columns,
    give the counts of one whole-table block.  Sweeps that materialize a
    table, in runs of whole periods down to one profile per block, give
    the tables of the default block size."""
    tables = [ScfRule("random_table", seed=3).as_table(4),
              ScfRule("random_table", 2, seed=3).as_table(5),
              ScfRule("random_table", 4, seed=3).as_table(2)]
    whole = [(TableSpace(t).gains(range(t.n)), TableSpace(t).structure()) for t in tables]
    columns = [TableSpace(tables[0]).columns(a, b).tolist() for a, b in PAIRS3]

    def swept():  # fresh rules, since a rule keeps the tables it built
        return [ScfRule("dictatorship", voter=1).as_table(4).outputs.tolist(),
                ScfRule("borda").as_table(4).outputs.tolist()]

    default = swept()
    monkeypatch.setattr(_tables, "BLOCK", block)
    assert swept() == default
    for table, (gains, structure) in zip(tables, whole):
        assert TableSpace(table).gains(range(table.n)) == gains
        assert [int(c) for c in TableSpace(table).structure()] == [int(c) for c in structure]
    assert [TableSpace(tables[0]).columns(a, b).tolist() for a, b in PAIRS3] == columns


def test_table_counts_hold_a_few_blocks_at_n8():
    """Every count of the line view at n = 8 (1.68 million profiles) holds
    at most a few arrays of ``BLOCK`` entries beyond the table: the widest
    is the gains' intp histogram codes, (m! - 1)/2 per entry, 20 bytes per
    entry at m = 3.  Unchunked, those codes alone would take 34 MB, and the
    int64 column sums 27 MB."""
    table = ScfRule("random_table", seed=0).as_table(8)
    space = TableSpace(table)
    tracemalloc.start()
    try:
        space.gains(range(8))
        space.structure()
        for a, b in PAIRS3:
            space.columns(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * _tables.BLOCK, peak


SUMMED_CASES = [(name, 3, n) for name in tallies._TALLY_RULES for n in (1, 2, 3, 11)] + [
    ("borda", 3, 21), ("plurality", 3, 41), ("pairwise_majority_fallback", 3, 41),
    ("borda", 4, 4), ("borda", 4, 7),
    ("pairwise_majority_fallback", 4, 4), ("pairwise_majority_fallback", 4, 7)]


@pytest.mark.parametrize("name,m,n", SUMMED_CASES)
def test_summed_reads_equal_evaluated_reads(name, m, n):
    """Each read of a tally rule's summed block equals evaluating the rule
    on the varied digits, on both sides of the decision table's cap (borda
    past n = 20, the others past n = 40; at m = 4 past n = 5), repeated and
    interleaved; the block's digits and earlier reads are left unedited.
    The block's relabellings, one ``decoded_winners`` call for all of them,
    equal electing each relabelled block."""
    scf, size = ScfRule(name, m), 500
    rng = np.random.default_rng(n)
    digits = rng.integers(0, factorial(m), size=(n, size))
    original = digits.copy()
    ballots = rng.integers(0, factorial(m), size=size)
    summed, evaluated = tallies.Summed(scf, digits), Evaluated(scf, digits)
    winners = summed.winners()
    first = winners.copy()
    for _ in range(2):
        assert np.array_equal(summed.winners(), evaluated.winners())
        for i in range(n):
            assert np.array_equal(summed.moved(i, ballots), evaluated.moved(i, ballots))
            assert np.array_equal(summed.moved(i, 3), evaluated.moved(i, 3))
        for i in range(n - 1):
            assert np.array_equal(summed.swapped(i), evaluated.swapped(i))
    assert np.array_equal(winners, first)
    relabelings = _tables.relabel_action(m)
    relabelled = tallies.decoded_winners(scf, digits, relabelings[1:])
    for q in range(1, factorial(m)):
        assert np.array_equal(relabelled[q - 1], scf.winners_from_digits(relabelings[q][digits]))
    assert np.array_equal(digits, original)


def test_sampled_passes_sum_each_block_once(monkeypatch):
    """Sampled M_i, M_total and structure passes of a tally rule sum each
    drawn block's voters once, and once more for all five relabellings,
    not once per moved or swapped read (n = 11: 55 voter rows, against 440
    when every read re-evaluated the rule and 88 when each relabelling
    summed the block on its own).  Borda's five relabelled words at n = 11
    take 14 bits each, so they pack into two int64 words."""
    rows = []
    original = _tables._word_sum

    def counting(word, digits, shift):
        rows.append(len(digits))
        return original(word, digits, shift)

    monkeypatch.setattr(_tables, "_word_sum", counting)
    n, scf = 11, ScfRule("borda")
    manipulation_reports(scf, n, mode="sampled", samples=1000, seed=0)
    _diag_counts(scf, n, "sampled", 1000, 0, 1)
    assert sum(rows) == n * (1 + 1 + 1 + 2)  # M_i, M_total, structure, the relabellings


@pytest.mark.parametrize("scf,n", [(ScfRule("borda"), 11), (ScfRule("borda"), 21),
                                   (ScfRule("random_table", seed=1).as_table(5), 5)])
def test_repeated_swaps_equal_swaps_of_fresh_copies(scf, n):
    """``Evaluated.swapped`` edits one scratch copy shared with ``moved``
    and restores it: each swap, repeated or after a move, elects what the
    swap of a fresh copy of the block elects, and the block is unedited."""
    digits = np.random.default_rng(n).integers(0, 6, size=(n, 500))
    original = digits.copy()
    block = Evaluated(scf, digits)
    for i in (0, n - 2, 0, 1, n // 2, 1):
        fresh = digits.copy()
        fresh[[i, i + 1]] = fresh[[i + 1, i]]
        assert np.array_equal(block.swapped(i), scf.winners_from_digits(fresh))
        block.moved(i, 3)
    assert np.array_equal(digits, original)


def _count_evaluations(monkeypatch):
    """The profile counts of every rule evaluation made from now on."""
    evaluated = []
    original = ScfRule.winners_from_digits

    def counting(self, digits):
        evaluated.append(np.shape(digits)[1])
        return original(self, digits)

    monkeypatch.setattr(ScfRule, "winners_from_digits", counting)
    return evaluated


def _every_exact_count(scf, n):
    for i in range(n):
        manipulation_power(scf, i, n)
    manipulation_power_total(scf, n)
    for a, b in PAIRS3:
        column_stats(scf, a, b, n)
    _diag_counts(scf, n, "exact", None, None, 1)
    neutrality_counts(scf, n)
    anonymity_counts(scf, n)


def test_exact_sweeps_evaluate_the_rule_once_per_profile(monkeypatch):
    """A rule outside the tally engine is evaluated once per profile; a
    tally rule's exact counts evaluate it at no profile."""
    evaluated = _count_evaluations(monkeypatch)
    n = 4
    _every_exact_count(scf_from_gswf(random_iia_gswf(n, 3, 5), fallback_voter=1), n)
    assert sum(evaluated) == 6 ** n
    evaluated.clear()
    _every_exact_count(ScfRule("borda"), n)
    assert evaluated == []


def test_reduction_chain_evaluates_the_rule_once_per_profile(monkeypatch):
    evaluated = _count_evaluations(monkeypatch)
    check_reduction_chain(scf_from_gswf(random_iia_gswf(4, 3, 5), fallback_voter=1), n=4)
    assert sum(evaluated) == 6 ** 4
    evaluated.clear()
    check_reduction_chain(ScfRule("borda"), n=4)  # counts from the tally engine
    assert evaluated == []


@pytest.mark.parametrize("seed", range(3))
def test_random_table_cache_fills_once_under_workers(monkeypatch, seed):
    built = []
    original = rules.ScfTable.__post_init__

    def counting(self):
        built.append(self.n)
        original(self)

    monkeypatch.setattr(rules.ScfTable, "__post_init__", counting)
    manipulation_power_total(ScfRule("random_table", seed=seed), 8, mode="sampled",
                             samples=2 * CHUNK, seed=1, workers=2)
    assert built == [8]


@pytest.mark.parametrize("n", [3, 7])  # one whole-space block; six blocks
def test_sweep_blocks_are_read_only(n):
    def into_digits(digits):
        digits[0, 0] = 1
        return [0]

    def into_table(space):
        space.outputs[0] = 1
        return [0]

    with pytest.raises(ValueError, match="read-only"):
        sampling.count(into_digits, 1, n, 3, mode="exact")
    with pytest.raises(ValueError, match="read-only"):
        sampling.count(None, 1, n, 3, mode="exact", scf=ScfRule("random_table", seed=0),
                       space_tally=into_table)


def columns_by_index(outputs, n, a, b) -> np.ndarray:
    """The (a, b) column counts of a winner table of n voters, bincounts of
    ``column_index`` over the digits of every sweep block."""
    want = np.zeros(2 << n, np.int64)
    for lo, hi, digits in profile_chunks(n):
        z = column_index(digits, a, b)
        winners = outputs[lo:hi]
        want += np.concatenate([np.bincount(z[winners == side], minlength=1 << n)
                                for side in (a, b)])
    return want


@pytest.mark.parametrize("n", [1, 4, 5, 6, 7])
def test_tabled_columns_equal_column_index(n):
    """The line view's column counts equal bincounts of ``column_index``
    over the digits of every sweep block (n = 7 sweeps in six blocks, and
    its columns sum six rows of 6^6 profiles)."""
    table = ScfRule("plurality").as_table(n)
    space = TableSpace(table)
    assert (len(list(profile_chunks(n))) > 1) == (n == 7)
    for a, b in PAIRS3:
        got = space.columns(a, b)
        want = columns_by_index(table.outputs, n, a, b)
        assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_stacked_columns_equal_per_table_columns(monkeypatch, n):
    """The column counts of a stack of random tables equal each table's
    own line-view counts and the ``column_index`` bincounts, at the default
    block size and at blocks of four rows of 6^(n-1) entries, which cut
    each six-row table in the middle and so span two tables' rows."""
    tables = [ScfRule("random_table", seed=40 + k).as_table(n).outputs
              for k in range(5 if n < 7 else 2)]
    want = [[columns_by_index(t, n, a, b) for t in tables] for a, b in PAIRS3]
    alone = [[TableSpace(rules.ScfTable(n, 3, t)).columns(a, b) for t in tables]
             for a, b in PAIRS3]
    assert np.array_equal(alone, want)
    for block in (_tables.BLOCK, 4 * 6 ** (n - 1)):
        monkeypatch.setattr(_tables, "BLOCK", block)
        for k in (1, 2, len(tables)):
            stack = np.stack(tables[:k])
            for (a, b), per_table in zip(PAIRS3, want):
                got = lines.columns(stack, n, a, b)
                assert got.dtype == np.int64 and np.array_equal(got, per_table[:k]), (block, k)
