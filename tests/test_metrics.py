"""Manipulation power, inter-pair dependence, and minority preference.

The exact engines are cross-checked against deliberately slow profile-level
recomputations that only use the object layer, then against frozen values.
"""

from fractions import Fraction

import numpy as np
import pytest

from votelab.metrics import (
    ColumnStats,
    MetricReport,
    column_stats,
    mab,
    manipulation_power,
    manipulation_power_total,
    manipulation_reports,
    nab,
    pair_reports,
)
from votelab.lattice import sets_ab
from votelab.orders import order_from_index, profile_from_index
from votelab.rules import ScfRule, zoo_rules
from votelab.sampling import CHUNK

from oracles import pairwise_column

PAIRS = ((0, 1), (0, 2), (1, 2))


def slow_manipulation_power(scf, i, n):
    """Pr over (profile, replacement ballot) that the winner after the swap
    beats the old winner in voter i's true ranking."""
    hits = 0
    total = 6 ** n * 6
    for idx in range(6 ** n):
        p = profile_from_index(idx, n)
        truth = p.voters[i]
        old = scf.winner(p)
        for r in range(6):
            new = scf.winner(p.replace(i, order_from_index(r)))
            hits += truth.prefers(new, old)
    return Fraction(hits, total)


def slow_pair_dependence(scf, a, b, n):
    """Pr two profiles sharing only the (a, b) column elect a and b."""
    hits = 0
    by_column = {}
    for idx in range(6 ** n):
        p = profile_from_index(idx, n)
        z = pairwise_column(p, a, b).index
        by_column.setdefault(z, []).append(scf.winner(p))
    for z, winners in by_column.items():
        na = sum(w == a for w in winners)
        nb = sum(w == b for w in winners)
        hits += na * nb
    return Fraction(hits, (2 ** n) * (9 ** n))


def slow_minority_preference(scf, a, b, n):
    """Expected min of the conditional election frequencies of a and b."""
    by_column = {}
    for idx in range(6 ** n):
        p = profile_from_index(idx, n)
        z = pairwise_column(p, a, b).index
        by_column.setdefault(z, []).append(scf.winner(p))
    total = Fraction(0)
    for z, winners in by_column.items():
        na = sum(w == a for w in winners)
        nb = sum(w == b for w in winners)
        total += Fraction(min(na, nb), len(winners))
    return total / 2 ** n


@pytest.mark.parametrize("rule", [ScfRule("random_table", seed=5), ScfRule("borda")])
def test_one_m_i_equals_its_row_of_the_reports(rule):
    """Each exact M_i, counted alone from its voter's reads, equals its row
    of manipulation_reports, which counts every voter at once: on a table's
    line view and on the tally engine, whose voters 2..n-1 share voter 1's
    count."""
    rows = manipulation_reports(rule, 5, mode="exact")
    for i in range(5):
        assert manipulation_power(rule, i, 5, mode="exact") == rows[i]


def test_one_m_i_reads_only_its_voters_lines(monkeypatch):
    """An exact M_i on the line view reads the lines of voter i alone."""
    from votelab import lines
    read, original = [], lines.blocks

    def counting(table, base, i, k=1):
        read.append(i)
        return original(table, base, i, k)

    monkeypatch.setattr(lines, "blocks", counting)
    rule = ScfRule("random_table", seed=6)
    for i in range(4):
        read.clear()
        manipulation_power(rule, i, 4, mode="exact")
        assert read == [i]
    read.clear()
    manipulation_reports(rule, 4, mode="exact")
    assert read == [0, 1, 2, 3]


@pytest.mark.parametrize("name,params", [
    ("plurality", {}), ("borda", {}), ("pairwise_majority_fallback", {}),
    ("dictatorship", {"voter": 0}), ("random_table", {"seed": 3}),
])
def test_manipulation_power_matches_slow_oracle_n2(name, params):
    scf = ScfRule(name, **params)
    for i in range(2):
        assert manipulation_power(scf, i, 2).fraction == slow_manipulation_power(scf, i, 2)


@pytest.mark.parametrize("name,params", [
    ("plurality", {}), ("borda", {}), ("random_table", {"seed": 4}),
])
def test_mab_matches_slow_oracle_n2(name, params):
    scf = ScfRule(name, **params)
    for a, b in PAIRS:
        assert mab(scf, a, b, 2).fraction == slow_pair_dependence(scf, a, b, 2)


@pytest.mark.parametrize("name,params", [
    ("plurality", {}), ("borda", {}), ("random_table", {"seed": 5}),
])
def test_nab_matches_slow_oracle_n2(name, params):
    scf = ScfRule(name, **params)
    for a, b in PAIRS:
        assert nab(scf, a, b, 2).fraction == slow_minority_preference(scf, a, b, 2)


def test_plurality_frozen_values():
    plu = ScfRule("plurality")
    for i in range(3):
        assert manipulation_power(plu, i, 3).fraction == Fraction(2, 81)
    assert manipulation_power_total(plu, 3).fraction == Fraction(6, 81)
    assert mab(plu, 0, 1, 3).fraction == Fraction(4, 81)
    assert mab(plu, 0, 2, 3).fraction == Fraction(4, 81)
    assert mab(plu, 1, 2, 3).fraction == 0
    assert nab(plu, 0, 1, 3).fraction == Fraction(1, 9)
    assert nab(plu, 0, 2, 3).fraction == Fraction(1, 9)
    assert nab(plu, 1, 2, 3).fraction == 0


def test_borda_frozen_values():
    borda = ScfRule("borda")
    for i in range(3):
        assert manipulation_power(borda, i, 3).fraction == Fraction(5, 324)


def test_pmf_frozen_values():
    pmf = ScfRule("pairwise_majority_fallback")
    for i in range(3):
        assert manipulation_power(pmf, i, 3).fraction == Fraction(1, 108)


@pytest.mark.parametrize("rule", zoo_rules(3), ids=lambda r: r.label)
def test_exact_total_is_sum_of_voter_powers(rule):
    # M_total sweeps all voters at once; M_i sweeps one voter at a time
    total = sum((manipulation_power(rule, i, 3).fraction for i in range(3)), Fraction(0))
    assert manipulation_power_total(rule, 3).fraction == total


def test_dictatorship_is_strategyproof():
    d = ScfRule("dictatorship", voter=1)
    for i in range(3):
        assert manipulation_power(d, i, 3).fraction == 0
    c = ScfRule("constant", alt=2)
    for i in range(2):
        assert manipulation_power(c, i, 2).fraction == 0


def test_mab_symmetry_in_pair_order():
    scf = ScfRule("random_table", seed=9)
    assert mab(scf, 0, 1, 2).fraction == mab(scf, 1, 0, 2).fraction
    assert nab(scf, 2, 0, 2).fraction == nab(scf, 0, 2, 2).fraction


def test_column_stats_consistency():
    scf = ScfRule("plurality")
    st = column_stats(scf, 0, 1, 3)
    assert st.completions == 27
    assert (st.count_a + st.count_b <= 27).all()
    # counts reassemble into the exact pair dependence
    num = int(np.dot(st.count_a, st.count_b))
    assert Fraction(num, 8 * 27 ** 2) == mab(scf, 0, 1, 3).fraction


def test_anonymous_rules_have_voter_independent_power():
    for name in ("plurality", "borda"):
        scf = ScfRule(name)
        values = {manipulation_power(scf, i, 3).fraction for i in range(3)}
        assert len(values) == 1


def test_first_reduction_inequality_small_corpus():
    for rule in zoo_rules(2) + [ScfRule("random_table", seed=s) for s in range(30)]:
        bound = 6 * manipulation_power_total(rule, 2).fraction
        for a, b in PAIRS:
            assert mab(rule, a, b, 2).fraction <= bound, rule.label


def test_cauchy_schwarz_step_small_corpus():
    for rule in zoo_rules(2) + [ScfRule("random_table", seed=s) for s in range(30)]:
        for a, b in PAIRS:
            nr = nab(rule, a, b, 2).fraction
            assert nr * nr <= mab(rule, a, b, 2).fraction, rule.label


def test_report_invariants():
    r = manipulation_power(ScfRule("plurality"), 0, 3)
    assert r.mode == "exact" and r.ci95 is None and r.samples is None
    assert 0 <= r.value <= 1
    s = manipulation_power(ScfRule("plurality"), 0, 3, mode="sampled",
                           samples=5000, seed=1)
    assert s.mode == "sampled" and s.samples == 5000 and s.ci95 > 0
    with pytest.raises(ValueError):
        MetricReport("m", (), "exact", 2, 1)
    with pytest.raises(ValueError):
        MetricReport("m", (), "sampled", 1, 2)
    with pytest.raises(ValueError):
        s.fraction


def test_sampled_estimates_near_exact():
    plu = ScfRule("plurality")
    exact = mab(plu, 0, 1, 3).fraction
    rep = mab(plu, 0, 1, 3, mode="sampled", samples=200_000, seed=2)
    assert abs(rep.value - float(exact)) <= 3 * rep.ci95 / 1.96 + 1e-12
    exact_n = nab(plu, 0, 1, 3).fraction
    rep_n = nab(plu, 0, 1, 3, mode="sampled", samples=50_000, seed=3)
    assert abs(rep_n.value - float(exact_n)) < 0.01


def test_sampled_total_near_exact():
    plu = ScfRule("plurality")
    exact = manipulation_power_total(plu, 3).fraction
    rep = manipulation_power_total(plu, 3, mode="sampled", samples=100_000, seed=4)
    assert abs(rep.value - float(exact)) < 0.01


def test_mab_requires_three_alternatives():
    with pytest.raises(ValueError):
        mab(ScfRule("plurality", 4), 0, 1, 2)
    with pytest.raises(ValueError):
        mab(ScfRule("plurality"), 0, 0, 2)


@pytest.mark.parametrize("b", [-1, 3, 5])
def test_pair_metrics_reject_alternatives_outside_0_to_2(b):
    """-1 once indexed as alternative 2 and 5 as an IndexError; both are
    now the one ValueError of the shared pair check."""
    borda = ScfRule("borda")
    for call in (lambda: mab(borda, 0, b, n=3), lambda: nab(borda, 0, b, n=3),
                 lambda: mab(borda, b, 0, n=3, mode="sampled", samples=100, seed=0),
                 lambda: nab(borda, 0, b, n=3, mode="sampled", samples=100, seed=0),
                 lambda: column_stats(borda, 0, b, 3), lambda: sets_ab(borda, 0, b, 0, 3)):
        with pytest.raises(ValueError, match="0..2"):
            call()


def test_sampled_convergence_coverage():
    """Repeated sampled runs stay near the exact value: at least 99 of 100
    independent estimates within three standard errors, and the nominal 95
    percent interval hits at a plausible rate."""
    plu = ScfRule("plurality")
    exact = float(mab(plu, 0, 1, 3).fraction)
    inside3, inside95 = 0, 0
    for rep in range(100):
        r = mab(plu, 0, 1, 3, mode="sampled", samples=4000, seed=1000 + rep)
        se = r.ci95 / 1.959963984540054
        inside3 += abs(r.value - exact) <= 3 * se
        inside95 += abs(r.value - exact) <= r.ci95
    assert inside3 >= 99
    assert inside95 >= 85


# --- one pass per metric family ------------------------------------------

def _per_item_reports(scf, n, **kw):
    """The family reports built one voter and one pair at a time."""
    voters = [manipulation_power(scf, i, n, **kw) for i in range(n)]
    pairs = ([mab(scf, a, b, n, **kw) for a, b in PAIRS]
             + [nab(scf, a, b, n, **kw) for a, b in PAIRS])
    return voters + [manipulation_power_total(scf, n, **kw)], pairs


FAMILY_RULES = [ScfRule("borda"), ScfRule("pairwise_majority_fallback"),
                ScfRule("random_table", seed=4)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("scf", FAMILY_RULES, ids=lambda rule: rule.label)
def test_sampled_family_passes_equal_per_item_reports(scf, n, workers):
    kw = dict(mode="sampled", samples=CHUNK + 100, seed=21, workers=workers)  # two chunks
    voters, pairs = _per_item_reports(scf, n, **kw)
    assert manipulation_reports(scf, n, **kw) == voters
    assert pair_reports(scf, n, **kw) == pairs


@pytest.mark.parametrize("scf", zoo_rules(3), ids=lambda rule: rule.label)
def test_exact_family_passes_equal_per_item_reports(scf):
    for n in (3, 4):
        voters, pairs = _per_item_reports(scf, n)
        assert manipulation_reports(scf, n) == voters
        assert pair_reports(scf, n) == pairs


def test_mab_report_exact_past_int64():
    """At n = 16 the sum of count_a * count_b exceeds 2^63."""
    c = np.full(2 ** 16, 3 ** 16 // 2)
    report = ColumnStats(0, 1, 16, c, c).mab_report()
    assert report.fraction == Fraction((3 ** 16 // 2) ** 2, 9 ** 16)


def _python_int_mab(stats):
    """``mab`` summed as Python ints, a slice of columns at a time."""
    num = 0
    for lo in range(0, 1 << stats.n, 1 << 16):
        a, b = stats.count_a[lo:lo + (1 << 16)], stats.count_b[lo:lo + (1 << 16)]
        num += sum(x * y for x, y in zip(a.tolist(), b.tolist()))
    return Fraction(num, 2 ** stats.n * 9 ** stats.n)


@pytest.mark.parametrize("n", [16, 20, 21])
def test_mab_report_equals_the_python_int_sum(n):
    """Random counts, and every column's 3^n completions split evenly or
    all electing a; n = 21 is past every engine, so built directly."""
    rng = np.random.default_rng(n)
    count_a = rng.integers(0, 3 ** n + 1, size=1 << n)
    count_b = (rng.random(1 << n) * (3 ** n - count_a)).astype(np.int64)
    half, every = np.full(1 << n, 3 ** n // 2), np.full(1 << n, 3 ** n)
    for a, b in ((count_a, count_b), (half, every - half), (every, every * 0)):
        stats = ColumnStats(0, 1, n, a, b)
        assert stats.mab_report().fraction == _python_int_mab(stats)
