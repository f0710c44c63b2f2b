"""The winner-table exact engine.

Every exact count over a rule's outcomes reads them from the rule's table:
moved ballots, swapped voters and relabelled profiles are index arithmetic
on it.  The counts are pinned against a pure-Python walk over ``Profile``
objects, which builds each varied profile from the object layer and asks
the rule for its winner, and against values frozen before the engine.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from votelab import rules, sampling, tallies
from votelab.metrics import (column_stats, manipulation_power, manipulation_power_total,
                             manipulation_reports)
from votelab.orders import (Profile, column_index, order_from_index, profile_chunks,
                            profile_digits, profile_from_index)
from votelab.rules import ScfRule, _diag_counts, anonymity_counts, neutrality_counts, zoo_rules
from votelab.sampling import CHUNK, Evaluated, Tabled
from votelab.welfare import PAIRS3, check_reduction_chain, random_iia_gswf, scf_from_gswf

from oracles import pairwise_column

CASES = [(rule.label, rule) for rule in zoo_rules(3)] + [
    ("random_table(seed=1)", ScfRule("random_table", seed=1)),
    ("random_table(seed=2)", ScfRule("random_table", seed=2)),
    ("gswf_winner", scf_from_gswf(random_iia_gswf(3, 3, 5), fallback_voter=1)),
]
LARGER = ("borda", "pairwise_majority_fallback", "random_table(seed=1)",
          "dictatorship(voter=2)")


def walk(scf, n):
    """Every tabled exact count, by building each varied profile."""
    memo = {}

    def winner(p):
        if p not in memo:
            memo[p] = scf.winner(p)
        return memo[p]

    ballots = [order_from_index(k) for k in range(6)]
    relabelings = list(permutations(range(3)))[1:]
    gains, top, bottom, elected = [0] * n, [0] * n, [0] * n, [0] * 3
    columns = {pair: ([0] * 2 ** n, [0] * 2 ** n) for pair in PAIRS3}
    neutral = anonymous = 0
    for idx in range(6 ** n):
        p = profile_from_index(idx, n)
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
    trials = 6 ** n
    for i in range(n):
        assert manipulation_power(scf, i, n).fraction == Fraction(expect["gains"][i], trials * 6)
    assert (manipulation_power_total(scf, n).fraction
            == Fraction(sum(expect["gains"]), trials * 6))
    for (a, b), (count_a, count_b) in expect["columns"].items():
        st = column_stats(scf, a, b, n)
        assert st.count_a.tolist() == count_a and st.count_b.tolist() == count_b
    diag, got_trials, mode = _diag_counts(scf, n, "exact", None, None, 1)
    for which, counts in zip(("top", "bottom", "elected"), diag):
        assert (counts.tolist(), got_trials, mode) == (expect[which], trials, "exact")
    assert neutrality_counts(scf, n) == (expect["neutral"], trials * 5)
    assert anonymity_counts(scf, n) == (expect["anonymous"], trials * (n - 1))


@pytest.mark.parametrize("scf", [rule for _, rule in CASES], ids=[label for label, _ in CASES])
def test_tabled_counts_match_profile_walk_n3(scf):
    _check_against_walk(scf, 3)


@pytest.mark.parametrize("label", LARGER)
def test_tabled_counts_match_profile_walk_n4(label):
    _check_against_walk(dict(CASES)[label], 4)


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


@pytest.mark.parametrize("label", ["pairwise_majority_fallback", "gswf_winner"])
def test_tabled_reads_equal_evaluated_reads(label):
    """Each read of a table block equals evaluating the rule on the varied
    digits, for arbitrary per-profile ballots."""
    scf = _n6_rule(label)
    n, lo, size = 6, 1000, 4000
    table = scf.as_table(n).outputs
    digits = profile_digits(np.arange(lo, lo + size), n)
    tabled, evaluated = Tabled(table, lo, digits, 3), Evaluated(scf, digits)
    ballots = np.random.default_rng(0).integers(0, 6, size=size)
    assert np.array_equal(tabled.winners(), evaluated.winners())
    for i in range(n):
        assert np.array_equal(tabled.moved(i, ballots), evaluated.moved(i, ballots))
        assert np.array_equal(tabled.moved(i, 4), evaluated.moved(i, 4))
    for i in range(n - 1):
        assert np.array_equal(tabled.swapped(i), evaluated.swapped(i))
    for q in range(6):
        assert np.array_equal(tabled.relabeled(q), evaluated.relabeled(q))
    assert np.array_equal(digits, profile_digits(np.arange(lo, lo + size), n))  # unedited


SUMMED_CASES = [(name, 3, n) for name in tallies._TALLY_RULES for n in (1, 2, 3, 11)] + [
    ("borda", 3, 21), ("plurality", 3, 41), ("pairwise_majority_fallback", 3, 41),
    ("borda", 4, 4), ("borda", 4, 7),
    ("pairwise_majority_fallback", 4, 4), ("pairwise_majority_fallback", 4, 7)]


@pytest.mark.parametrize("name,m,n", SUMMED_CASES)
def test_summed_reads_equal_evaluated_reads(name, m, n):
    """Each read of a tally rule's summed block equals evaluating the rule
    on the varied digits, on both sides of the decision table's cap (borda
    past n = 20, the others past n = 40; at m = 4 past n = 5), repeated and
    interleaved; the block's digits and earlier reads are left unedited."""
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
        for q in range(6):
            assert np.array_equal(summed.relabeled(q), evaluated.relabeled(q))
    assert np.array_equal(winners, first)
    assert np.array_equal(digits, original)


def test_sampled_passes_sum_each_block_once(monkeypatch):
    """Sampled M_i, M_total and structure passes of a tally rule sum each
    drawn block's voters once, and once more per relabelling, not once per
    moved or swapped read (n = 11: 88 voter rows, against 440 when every
    read re-evaluated the rule)."""
    rows = []
    original = tallies._voter_sum

    def counting(packed, digits):
        rows.append(len(digits))
        return original(packed, digits)

    monkeypatch.setattr(tallies, "_voter_sum", counting)
    n, scf = 11, ScfRule("borda")
    manipulation_reports(scf, n, mode="sampled", samples=1000, seed=0)
    _diag_counts(scf, n, "sampled", 1000, 0, 1)
    assert sum(rows) == n * (1 + 1 + 1 + 5)  # M_i, M_total, structure, five relabellings


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


@pytest.mark.parametrize("n", [3, 7])  # one whole-space block; two blocks
def test_sweep_blocks_are_read_only(n):
    def into_digits(digits):
        digits[0, 0] = 1
        return [0]

    def into_block(block):
        block.digits[0, 0] = 1
        return [0]

    with pytest.raises(ValueError, match="read-only"):
        sampling.count(into_digits, 1, n, 3, mode="exact")
    with pytest.raises(ValueError, match="read-only"):
        sampling.count(into_block, 1, n, 3, mode="exact", scf=ScfRule("borda"))


@pytest.mark.parametrize("n", [1, 5, 7])
def test_tabled_columns_equal_column_index(n):
    """A whole-space block reads cached columns, a block of a multi-block
    sweep computes them; both equal decoding the block's own digits."""
    table = ScfRule("plurality").as_table(n).outputs
    blocks = list(profile_chunks(n))
    assert (len(blocks) > 1) == (n == 7)
    for lo, _, digits in blocks:
        tabled = Tabled(table, lo, digits, 3)
        for a, b in PAIRS3:
            assert np.array_equal(tabled.columns(a, b), column_index(digits, a, b))
