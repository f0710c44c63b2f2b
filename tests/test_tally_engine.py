"""The tally-space exact engine.

Every exact count of a tally rule over three alternatives comes from the
distribution of its voters' summed tally words (``tallies.TallySpace``).
The counts are pinned against the line view of the rule's winner table
(``lines.TableSpace``), which an ``ScfTable`` of the same outcomes always
takes, and plurality's, past the table's reach, against a Python-int sum
over its top counts.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np
import pytest

from votelab import metrics, rules, sampling, tallies
from votelab.lattice import sets_ab
from votelab.lines import TableSpace
from votelab.metrics import column_stats
from votelab.rules import ScfRule
from votelab.sampling import BudgetError, exact_feasible, pick_mode

from oracles import plurality_by_top_counts

TALLY = ("plurality", "borda", "pairwise_majority_fallback")


def exact_counts(scf, n):
    """Every exact count behind ``votelab metrics``, keyed by what it counts."""
    counts = {f"M_{i}": metrics.manipulation_power(scf, i, n, mode="exact").fraction
              for i in range(n)}
    counts["M_total"] = metrics.manipulation_power_total(scf, n, mode="exact").fraction
    for a, b in ((0, 1), (0, 2), (1, 2), (2, 0)):
        st = column_stats(scf, a, b, n)
        counts[f"columns{a}{b}"] = (st.count_a.tolist(), st.count_b.tolist())
    diag, trials, mode = rules._diag_counts(scf, n, "exact", None, None, 1)
    counts["diag"] = ([part.tolist() for part in diag], trials, mode)
    counts["neutrality"] = rules.neutrality_counts(scf, n, mode="exact")
    counts["anonymity"] = rules.anonymity_counts(scf, n, mode="exact")
    return counts


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("name", TALLY)
def test_engine_counts_equal_the_table_sweep(name, n):
    rule = ScfRule(name)
    engine = exact_counts(rule, n)
    swept = exact_counts(rule.as_table(n), n)  # a table is always read as lines
    assert engine.keys() == swept.keys()
    for key in swept:
        assert engine[key] == swept[key], key


@pytest.mark.parametrize("name", TALLY)
def test_engine_at_its_cap(name):
    """At n = 20: M_total is the sum of the per-voter M_i, voters who play
    the same part have the same M_i, and the elected counts cover all 6^20
    profiles."""
    rule, n = ScfRule(name), tallies.MAX_N
    rows = metrics.manipulation_reports(rule, n, mode="exact")
    m_i = [r.fraction for r in rows[:-1]]
    assert (metrics.manipulation_power_total(rule, n, mode="exact").fraction
            == rows[-1].fraction == sum(m_i))
    # only pairwise_majority_fallback sets voter 0 apart
    assert len(set(m_i[name == "pairwise_majority_fallback":])) == 1
    (top, bottom, elected, _, _), trials, mode = rules._diag_counts(rule, n, "exact", None, None, 1)
    assert mode == "exact" and trials == 6 ** n
    assert sum(int(c) for c in elected) == 6 ** n
    assert all(0 <= int(c) <= 6 ** n for c in (*top, *bottom))


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_plurality_equals_the_top_count_oracle(n):
    """Past the sweep's reach, plurality's engine counts equal a Python-int
    sum over its top counts (c0, c1, c2)."""
    rule, want = ScfRule("plurality"), plurality_by_top_counts(n)
    for i in (0, 1, n - 1):
        assert (metrics.manipulation_power(rule, i, n, mode="exact").fraction
                == Fraction(want["gains"], 6 ** n * 6)), i
    (top, bottom, elected, relabelled, swapped), trials, mode = rules._diag_counts(
        rule, n, "exact", None, None, 1)
    assert mode == "exact" and trials == 6 ** n
    assert [int(c) for c in top] == [want["top"]] * n
    assert [int(c) for c in bottom] == [want["bottom"]] * n
    assert [int(c) for c in elected] == want["elected"]
    assert (int(relabelled), int(swapped)) == (want["relabelled"], want["swapped"])


def test_engine_serves_tally_rules_at_three_alternatives_only():
    assert [tallies.exact_reach(ScfRule(name)) for name in TALLY] == [tallies.MAX_N] * 3
    others = [ScfRule("borda", 4), ScfRule("plurality", 2), ScfRule("dictatorship", voter=0),
              ScfRule("random_table", seed=0), ScfRule("borda").as_table(2), None]
    assert [tallies.exact_reach(scf) for scf in others] == [0] * len(others)


def test_exact_mode_runs_to_the_cap_and_auto_keeps_the_budget():
    borda, n = ScfRule("borda"), 12
    assert pick_mode("exact", n, 3, None, None, scf=borda) == "exact"
    assert pick_mode("auto", n, 3, 10, 0, scf=borda) == "sampled"
    with pytest.raises(BudgetError, match="stops at n=20"):
        pick_mode("exact", tallies.MAX_N + 1, 3, None, None, scf=borda)
    with pytest.raises(BudgetError, match="exceeds the budget; rerun"):
        pick_mode("exact", n, 3, None, None, scf=ScfRule("random_table", seed=0))
    with pytest.raises(BudgetError):  # the chain asks for no engine
        pick_mode("exact", n, 3, None, None, exact_only="the reduction chain")
    report = metrics.mab(borda, 0, 1, n, mode="exact")
    assert report.mode == "exact" and 0 < report.fraction < 1


def test_an_exact_count_of_a_rule_reads_its_space():
    """Exact mode hands a rule's count to its engine: the tally engine for
    a tally rule within its reach, the line view of the winner table for a
    table; a count of no rule sweeps the profiles, and past the budget it
    is refused as an enumeration."""
    spaces = []

    def elected(space):
        spaces.append(type(space))
        return space.structure()[8:11]  # after the 2n = 8 per-voter counts

    borda = ScfRule("borda")
    engine, trials, _ = sampling.count(None, 3, 4, 3, mode="exact", scf=borda,
                                       space_tally=elected)
    table, _, _ = sampling.count(None, 3, 4, 3, mode="exact", scf=borda.as_table(4),
                                 space_tally=elected)
    assert spaces == [tallies.TallySpace, TableSpace] and trials == 6 ** 4
    swept, _, _ = sampling.count(
        lambda digits: np.bincount(borda.winners_from_digits(digits), minlength=3),
        3, 4, 3, mode="exact")
    assert engine.tolist() == table.tolist() == swept.tolist()
    with pytest.raises(BudgetError, match="exceeds the budget; rerun"):
        sampling.count(lambda digits: [0], 1, 11, 3, mode="exact")


@pytest.mark.parametrize("m", range(2, 9))
def test_exact_feasible_equals_the_big_integer_formula(m):
    for n in range(1, 61):
        assert exact_feasible(n, m) == (factorial(m) ** n * factorial(m)
                                        <= sampling.EXACT_BUDGET), (n, m)


def test_exact_feasible_answers_without_the_power():
    assert not exact_feasible(4_000_000, 3)
    assert not exact_feasible(65535, 255)
    assert exact_feasible(10 ** 9, 1)  # 1! = 1: every power fits


def test_engine_and_evaluator_share_one_decision_table():
    """The engine (exact column counts) and the rule's evaluator (``sets_ab``
    evaluates the rule) read one cached table per (rule, m, n), and every
    tally rule has one at the engine's reach."""
    tallies._decision_table.cache_clear()
    tallies.tally_space.cache_clear()
    borda = ScfRule("borda")
    column_stats(borda, 0, 1, 5)
    sets_ab(borda, 0, 1, 3, 5)
    assert tallies._decision_table.cache_info().currsize == 1
    for name in TALLY:
        assert tallies._decision_table(name, 3, tallies.MAX_N) is not None


def test_engine_rejects_sizes_past_its_cap():
    with pytest.raises(ValueError, match="1 <= n <= 20"):
        tallies.TallySpace("borda", tallies.MAX_N + 1)


def _grid(word, radix, nfields):
    """The tallies packed in one decision-table word."""
    return [word // radix ** j % radix for j in range(nfields)]


@pytest.mark.parametrize("name", ["plurality", "borda"])
@pytest.mark.parametrize("m", [3, 4])
def test_argmax_decisions_elect_the_first_maximum(name, m):
    """Every tally vector of the decision table, ties included, elects the
    first alternative of largest tally."""
    n = 4
    fields = tallies._fields(name, m)
    radix = int(fields.max()) * n + 1
    word, decision = tallies._decision_table(name, m, n)
    assert decision.size == radix ** m
    for w in range(decision.size):
        tally = _grid(w, radix, m)
        assert decision[w] == tally.index(max(tally)), (w, tally)


@pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_majority_decisions_say_m_without_a_strict_majority_winner(m, n):
    pairs = list(combinations(range(m), 2))
    _, decision = tallies._decision_table("pairwise_majority_fallback", m, n)

    def beats(tally, a, b):
        above = tally[pairs.index((a, b))] if a < b else n - tally[pairs.index((b, a))]
        return 2 * above > n

    for w in range(decision.size):
        tally = _grid(w, n + 1, len(pairs))
        winners = [a for a in range(m) if all(beats(tally, a, b) for b in range(m) if b != a)]
        assert decision[w] == (winners[0] if winners else m), (w, tally)
    cycle = np.array([[2], [1], [2]])  # 0 beats 1, 2 beats 0, 1 beats 2
    assert tallies._majority_winner(cycle, 3, 3).tolist() == [3]
