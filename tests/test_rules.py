"""Rule registry, materialized tables, and profile-level diagnostics."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from votelab import _tables
from votelab.orders import Profile, order_from_index, profile_digits, profile_from_index
from votelab.rules import (
    BudgetError,
    ScfRule,
    ScfTable,
    _EVALUATORS,
    decoded_winners,
    anonymity_counts,
    dist_to_antidictatorship,
    dist_to_dictatorship,
    is_anonymous,
    is_neutral,
    neutrality_counts,
    range_min_prob,
    zoo_rules,
)
from votelab.sampling import exact_feasible
from votelab.tallies import _TALLY_RULES, _decision_table
from votelab.welfare import random_iia_gswf, scf_from_gswf


def P(*order_indices):
    return Profile(tuple(order_from_index(k) for k in order_indices))


def test_dictatorship_and_anti():
    d1 = ScfRule("dictatorship", voter=1)
    a1 = ScfRule("anti_dictatorship", voter=1)
    p = P(0, 3, 5)  # voter 1 ranks (1, 2, 0)
    assert d1.winner(p) == 1
    assert a1.winner(p) == 0


def test_constant():
    c = ScfRule("constant", alt=2)
    assert c.winner(P(0, 1)) == 2


def test_plurality_examples():
    plu = ScfRule("plurality")
    assert plu.winner(P(0, 0, 3)) == 0
    assert plu.winner(P(3, 3, 0)) == 1
    # three different tops: tie broken toward the lowest alternative
    assert plu.winner(P(0, 3, 5)) == 0


def test_borda_example():
    borda = ScfRule("borda")
    # (0,1,2), (1,2,0): scores 0: 2+0, 1: 1+2, 2: 0+1 -> winner 1
    assert borda.winner(P(0, 3)) == 1


def test_pairwise_majority_fallback():
    pmf = ScfRule("pairwise_majority_fallback")
    # strict majority winner exists
    assert pmf.winner(P(0, 0, 3)) == 0
    # cyclic profile: falls back to voter 0's top
    cyc = P(0, 3, 4)
    assert pmf.winner(cyc) == 0
    assert pmf.winner(P(3, 4, 0)) == 1


def test_random_table_reproducible():
    r = ScfRule("random_table", seed=17)
    t1 = r.as_table(3)
    t2 = ScfRule("random_table", seed=17).as_table(3)
    assert t1 == t2
    assert t1 != ScfRule("random_table", seed=18).as_table(3)
    assert set(np.unique(t1.outputs)) <= {0, 1, 2}


def test_materialized_table_agrees_with_rule():
    for rule in zoo_rules(2):
        table = rule.as_table(2)
        for idx in range(36):
            p = profile_from_index(idx, 2)
            assert table.winner(p) == rule.winner(p), (rule.label, idx)


def test_table_winner_matches_winners_from_digits():
    rule = ScfRule("borda")
    table = rule.as_table(3)
    digits = np.array([[1], [4], [2]])
    idx = 1 + 4 * 6 + 2 * 36
    assert int(table.winners_from_digits(digits)[0]) == table.winner(
        profile_from_index(idx, 3))


def test_rule_and_table_winner_agree_on_every_profile():
    for rule in zoo_rules(2):
        table = rule.as_table(2)
        for idx in range(36):
            p = profile_from_index(idx, 2)
            assert rule.winner(p) == table.winner(p) == int(table.outputs[idx]), rule.label


def test_zoo_listing():
    rules = zoo_rules(3)
    names = [r.name for r in rules]
    assert names.count("dictatorship") == 3
    assert names.count("anti_dictatorship") == 3
    assert names.count("constant") == 3
    for expected in ("plurality", "borda", "pairwise_majority_fallback"):
        assert names.count(expected) == 1
    assert ScfRule("dictatorship", voter=2).params["voter"] == 2


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        ScfRule("approval")
    with pytest.raises(ValueError):
        ScfRule("dictatorship")  # missing voter


def test_exact_feasible_budget():
    assert exact_feasible(3, 3)
    assert exact_feasible(10, 3)
    assert exact_feasible(2, 6)
    assert not exact_feasible(3, 6)
    with pytest.raises(BudgetError):
        ScfRule("plurality").as_table(13)
    with pytest.raises(BudgetError):  # (4!)^6 * 4 bytes fit 10^9, (4!)^6 * 4! do not
        ScfRule("borda", 4).as_table(6)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_as_table_refuses_wherever_exact_mode_does(m):
    """One budget: every size exact mode refuses, materializing refuses too
    (only refusing sizes are tried, so no large table is made)."""
    refused = [n for n in range(1, 40) if not exact_feasible(n, m)]
    assert refused
    for n in refused:
        for rule in (ScfRule("borda", m), ScfRule("random_table", m, seed=0)):
            with pytest.raises(BudgetError, match="exceeds the budget"):
                rule.as_table(n)


def test_dist_to_dictatorship_plurality():
    value, voter = dist_to_dictatorship(ScfRule("plurality"), 3)
    assert value == Fraction(80, 216)
    assert voter == 0


def test_dist_to_antidictatorship_plurality():
    value, voter = dist_to_antidictatorship(ScfRule("plurality"), 3)
    assert value == Fraction(176, 216)


def test_dist_diagnostics_zero_cases():
    value, voter = dist_to_dictatorship(ScfRule("dictatorship", voter=1), 3)
    assert value == 0 and voter == 1
    value, voter = dist_to_antidictatorship(ScfRule("anti_dictatorship", voter=2), 3)
    assert value == 0 and voter == 2


def test_range_min_prob_values():
    value, alt = range_min_prob(ScfRule("plurality"), 3)
    assert value == Fraction(56, 216)
    assert alt == 1
    value, alt = range_min_prob(ScfRule("constant", alt=0), 2)
    assert value == 0 and alt in (1, 2)


def test_borda_diagnostics_frozen():
    borda = ScfRule("borda")
    assert dist_to_dictatorship(borda, 3)[0] == Fraction(83, 216)
    assert dist_to_antidictatorship(borda, 3)[0] == Fraction(191, 216)
    value, alt = range_min_prob(borda, 3)
    assert (value, alt) == (Fraction(62, 216), 2)


def test_pmf_diagnostics_frozen():
    pmf = ScfRule("pairwise_majority_fallback")
    assert dist_to_dictatorship(pmf, 3)[0] == Fraction(72, 216)
    assert range_min_prob(pmf, 3)[0] == Fraction(72, 216)


def test_neutrality_and_anonymity():
    assert is_neutral(ScfRule("pairwise_majority_fallback"), 3)
    assert not is_anonymous(ScfRule("pairwise_majority_fallback"), 3)
    assert is_anonymous(ScfRule("plurality"), 3)
    assert not is_neutral(ScfRule("plurality"), 3)
    assert is_anonymous(ScfRule("borda"), 3)
    assert not is_neutral(ScfRule("constant", alt=0), 2)
    assert not is_anonymous(ScfRule("dictatorship", voter=0), 2)


def test_neutrality_counts_shape():
    bad, checks = neutrality_counts(ScfRule("plurality"), 2)
    assert checks == 5 * 36
    assert 0 < bad < checks
    bad2, checks2 = anonymity_counts(ScfRule("plurality"), 2)
    assert bad2 == 0 and checks2 == 36


def test_sampled_diagnostics_match_exact_direction():
    plu = ScfRule("plurality")
    value, voter = dist_to_dictatorship(plu, 3, mode="sampled", samples=20000, seed=5)
    assert abs(value - 80 / 216) < 0.02
    exact = dist_to_dictatorship(plu, 3)[0]
    assert abs(value - float(exact)) < 0.02


def test_table_validation():
    with pytest.raises(ValueError):
        ScfTable(2, 3, np.zeros(35, dtype=np.uint8))
    with pytest.raises(ValueError):
        ScfTable(2, 3, np.full(36, 3, dtype=np.uint8))


@pytest.mark.parametrize("m", [1, 0, -2])
def test_fewer_than_two_alternatives_rejected(m):
    with pytest.raises(ValueError, match="at least two alternatives"):
        ScfRule("borda", m)
    with pytest.raises(ValueError, match="at least two alternatives"):
        ScfRule("dictatorship", m, voter=0)
    with pytest.raises(ValueError, match="at least two alternatives"):
        ScfTable(2, m, np.zeros(1, dtype=np.uint8))


# --- slow oracle for the packed tally kernels ---------------------------

TALLY_RULES = ("plurality", "borda", "pairwise_majority_fallback")


def oracle_winner(name, profile):
    """The rule's winner by direct counting over LinearOrder objects."""
    voters, alts = profile.voters, range(profile.m)
    if name == "pairwise_majority_fallback":
        for a in alts:
            if all(2 * sum(v.prefers(a, b) for v in voters) > len(voters)
                   for b in alts if b != a):
                return a
        return voters[0].top
    if name == "plurality":
        scores = [sum(v.top == a for v in voters) for a in alts]
    else:
        scores = [sum(profile.m - 1 - v.ranking.index(a) for v in voters) for a in alts]
    return scores.index(max(scores))  # the smallest alternative among the maxima


def check_against_oracle(digits, m, names=TALLY_RULES):
    digits = np.asarray(digits)
    profiles = [Profile(tuple(order_from_index(int(k), m) for k in column))
                for column in digits.T]
    for name in names:
        got = ScfRule(name, m).winners_from_digits(digits).tolist()
        assert got == [oracle_winner(name, p) for p in profiles], (name, digits.shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tally_rules_match_oracle_exhaustively_m3(n):
    check_against_oracle(profile_digits(np.arange(6 ** n), n, 3), 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tally_rules_match_oracle_random_m4(n):
    rng = np.random.default_rng(100 + n)
    check_against_oracle(rng.integers(0, 24, size=(n, 400)), 4)


def test_tally_rules_match_oracle_many_voters():
    # 3000 voters: the six m=4 pair tallies need 12 bits each, two int64 words
    rng = np.random.default_rng(7)
    check_against_oracle(rng.integers(0, 24, size=(3000, 12)), 4)


@pytest.mark.parametrize("m,copies", [(3, 1), (3, 2), (3, 3), (4, 1)])
def test_tally_rules_match_oracle_on_balanced_electorates(m, copies):
    # every ranking cast equally often: all scores and pairs tie
    rng = np.random.default_rng(m + copies)
    ballots = np.tile(np.arange(factorial(m)), copies)
    digits = np.stack([rng.permutation(ballots) for _ in range(60)], 1)
    check_against_oracle(digits, m)
    assert (ScfRule("borda", m).winners_from_digits(digits) == 0).all()


@pytest.mark.parametrize("name,last", [("borda", 20), ("plurality", 40),
                                       ("pairwise_majority_fallback", 40)])
def test_tally_rules_match_oracle_at_decision_table_cap(name, last):
    # m = 3: n = last is the most voters whose decision table fits
    # _DECISION_TABLE_MAX entries; one voter more decides on unpacked tallies
    rng = np.random.default_rng(last)
    for n in (last, last + 1):
        assert (_decision_table(name, 3, n) is None) == (n > last)
        check_against_oracle(rng.integers(0, 6, size=(n, 300)), 3, (name,))


@pytest.mark.parametrize("m,n", [(3, 1), (3, 10), (3, 19), (4, 5)])
def test_decision_table_matches_unpacked_tallies(m, n):
    rng = np.random.default_rng(m * 100 + n)
    digits = rng.integers(0, factorial(m), size=(n, 2000))
    for name in TALLY_RULES:
        word, decision = _decision_table(name, m, n)
        fields_of, decide = _TALLY_RULES[name]
        unpacked = decide(_tables.voter_fields(fields_of(m), digits), m, n)
        assert np.array_equal(decision[word[digits].sum(0)], unpacked), name


def test_field_sums_match_plain_sum_over_words():
    """``voter_fields`` equals sum_v fields[digits[v]] << shift·v in Python
    ints: shift 0 (tallies) and 1 (column indices), one field (nothing
    packed) to 15, at n = 1 to 3000 voters.  The fields pack into one to
    eight words; the first two profiles cast every field's largest and
    smallest value, so each field's top bit is read too."""
    rng = np.random.default_rng(3)
    fields = rng.integers(0, 9, size=(24, 11))  # 15-bit sums at n = 3000: four per word
    digits = rng.integers(0, 24, size=(3000, 50))
    assert np.array_equal(_tables.voter_fields(fields, digits), fields[digits].sum(0).T)
    for shift, top in ((0, 9), (1, 4)):
        for nfields in (1, 3, 5, 15):
            fields = rng.integers(0, top, size=(6, nfields))
            fields[0], fields[1] = top - 1, 0
            for n in (1, 2, 11, 21, 26):
                digits = rng.integers(0, 6, size=(n, 40))
                digits[:, :2] = [0, 1]
                expected = [[sum(int(fields[digits[v, s], f]) << shift * v for v in range(n))
                             for s in range(digits.shape[1])] for f in range(nfields)]
                got = _tables.voter_fields(fields, digits, shift)
                assert got.dtype == np.int64 and got.tolist() == expected, (shift, nfields, n)


# --- decoded_winners against one rule evaluation per decoding -----------

def _evaluable_rules(n):
    """An instance of every registered rule that can be evaluated at n
    voters, and an explicit table where one fits the budget."""
    rules = zoo_rules(n) + [scf_from_gswf(random_iia_gswf(n, 3, n), fallback_voter=n - 1)]
    if exact_feasible(n):
        rules += [ScfRule("random_table", seed=n),
                  ScfTable(n, 3, np.random.default_rng(n).integers(0, 3, 6 ** n))]
    return rules


def _pair_decoders(order):
    return [_tables.order_of_bit_digit3(a, b).ravel() for a, b in order]


def check_decoded_winners(scf, codes, decoders):
    want = [scf.winners_from_digits(d[codes]) for d in decoders]
    before = codes.copy()
    got = decoded_winners(scf, codes, decoders)
    assert np.array_equal(codes, before), "codes are only read"
    assert got.shape == (len(decoders), codes.shape[1])
    for k, row in enumerate(want):
        assert np.array_equal(got[k], row), (scf.label, codes.shape[0], k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 11])
def test_decoded_winners_match_each_decoding(n):
    rng = np.random.default_rng(1000 + n)
    codes = rng.integers(0, 6, size=(n, 600))
    orders = [_tables.pair_list(3), ((2, 1), (0, 2), (1, 0))]
    rules = _evaluable_rules(n)
    names = {r.name for r in rules if isinstance(r, ScfRule)}
    assert names == set(_EVALUATORS) - ({"random_table"} if n == 11 else set())
    for scf in rules:
        for order in orders:
            check_decoded_winners(scf, codes, _pair_decoders(order))
        check_decoded_winners(scf, codes, [rng.permutation(6) for _ in range(4)])
        check_decoded_winners(scf, codes, list(_tables.relabel_action(3)[1:]))


def test_decoded_winners_past_the_decision_table_cap():
    for name, n in (("borda", 21), ("plurality", 41), ("pairwise_majority_fallback", 41)):
        assert _decision_table(name, 3, n) is None
        codes = np.random.default_rng(n - 1).integers(0, 6, size=(n, 2000))
        for decoders in (_pair_decoders(_tables.pair_list(3)),
                         list(_tables.relabel_action(3)[1:])):
            check_decoded_winners(ScfRule(name), codes, decoders)


def test_sampled_relabelling_elects_each_relabelled_profile():
    """The structure pass elects a drawn block under all five relabellings
    with one ``decoded_winners`` call, for a tally rule past its decision
    table's cap and for a rule it evaluates."""
    digits = np.random.default_rng(21).integers(0, 6, size=(21, 1000))
    relabelings = _tables.relabel_action(3)
    for rule in (ScfRule("borda"), ScfRule("dictatorship", voter=20)):
        got = decoded_winners(rule, digits, relabelings[1:])
        for q in range(1, 6):
            want = rule.winners_from_digits(relabelings[q][digits])
            assert np.array_equal(got[q - 1], want), q


@pytest.mark.parametrize("n", [3, 4, 11])
def test_decoded_winners_fall_back_to_voter_0_without_condorcet_winner(n):
    rule = ScfRule("pairwise_majority_fallback")
    codes = np.random.default_rng(n).integers(0, 6, size=(n, 3000))
    decoders = _pair_decoders(_tables.pair_list(3))
    word, decision = _decision_table(rule.name, 3, n)
    for d in decoders:  # every block holds profiles with no Condorcet winner
        assert (decision[word[d[codes]].sum(0)] == 3).any()
    check_decoded_winners(rule, codes, decoders)

