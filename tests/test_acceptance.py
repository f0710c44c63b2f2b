"""Acceptance gate: exact small-instance oracles plus property sweeps.

Each criterion prints one PASS/FAIL line with its instance count and wall
time, then asserts.  Headline constants from the asymptotic theory are not
checkable at desk scale, so everything here is either an exact rational
identity or a seeded statistical check with explicit tolerances.
"""

import time
from fractions import Fraction

import numpy as np

from votelab.lattice import (
    TernarySet,
    border_counts,
    check_border_inequality,
    is_monotone,
    sets_ab,
    shift_monotone,
)
from votelab.metrics import mab, manipulation_power, manipulation_power_total, nab
from votelab.orders import profile_from_index
from votelab.rules import (
    ScfRule,
    dist_to_dictatorship,
    neutrality_counts,
    zoo_rules,
)
from votelab.welfare import (
    check_composition,
    check_identities,
    check_reduction_chain,
    dist_tr3,
    majority_g,
    neutral_tensor,
    ngcw,
    nt,
    random_iia_gswf,
    random_odd_g,
    scf_from_gswf,
)
from votelab.suites import build_gswf, gswf_corpus

from oracles import dist_tr3_bruteforce, pairwise_column

PAIRS = ((0, 1), (0, 2), (1, 2))

def announce(capsys, ok, line):
    with capsys.disabled():
        print(("PASS" if ok else "FAIL") + " " + line, flush=True)
    assert ok, line

def corpus_for(n, count, seed):
    return zoo_rules(n) + [ScfRule("random_table", seed=seed + k)
                           for k in range(count)]

def test_criterion_1_pair_dependence_bound(capsys):
    t0 = time.perf_counter()
    checked = bad = 0
    for n, count, seed in ((2, 200, 1000), (3, 200, 2000), (4, 20, 3000)):
        for rule in corpus_for(n, count, seed):
            bound = 6 * manipulation_power_total(rule, n).fraction
            for a, b in PAIRS:
                checked += 1
                bad += mab(rule, a, b, n).fraction > bound
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt <= 60
    announce(capsys, ok,
             f"criterion 1: pairwise dependence <= 6x total manipulation "
             f"power, {checked} exact checks, {bad} violations, {dt:.1f}s")

def test_criterion_2_border_inequality(capsys):
    t0 = time.perf_counter()
    checked = bad = 0
    for k in range(10_000):
        rng = np.random.default_rng([77, k])
        n = 1 + k % 6
        p, q = rng.choice((0.25, 0.5, 0.75), size=2)
        a = rng.random(3 ** n) < p
        b = ~a & (rng.random(3 ** n) < q)
        checked += 1
        bad += not check_border_inequality(TernarySet(n, a),
                                           TernarySet(n, b)).holds
    for n in (1, 2, 3, 4):
        for rule in zoo_rules(n):
            for pr in PAIRS:
                for z in range(2 ** n):
                    A, B = sets_ab(rule, *pr, z, n)
                    checked += 1
                    bad += not check_border_inequality(A, B).holds
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt <= 30
    announce(capsys, ok,
             f"criterion 2: directed border inequality, {checked} pairs "
             f"(random + all zoo columns), {bad} violations, {dt:.1f}s")

def test_criterion_3_shifting(capsys):
    t0 = time.perf_counter()
    checked = bad = 0
    for k in range(10_000):
        rng = np.random.default_rng([88, k])
        n = 1 + k % 6
        p = rng.choice((0.25, 0.5, 0.75))
        s = TernarySet(n, rng.random(3 ** n) < p)
        t = shift_monotone(s)
        before = border_counts(s).counts
        after = border_counts(t).counts
        moved = int((t.membership & ~s.membership).sum())
        checked += 1
        bad += not (t.size == s.size and is_monotone(t)
                    and all(x <= y for x, y in zip(after, before))
                    and moved <= sum(before))
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt <= 30
    announce(capsys, ok,
             f"criterion 3: shifting preserves size, monotonizes, never grows "
             f"any border, moves <= border, {checked} sets, {bad} violations, "
             f"{dt:.1f}s")

def test_criterion_4_minority_preference_squared(capsys):
    t0 = time.perf_counter()
    checked = bad = 0
    for n, count, seed in ((2, 200, 1000), (3, 200, 2000), (4, 20, 3000)):
        for rule in corpus_for(n, count, seed):
            for a, b in PAIRS:
                checked += 1
                nr = nab(rule, a, b, n).fraction
                bad += nr * nr > mab(rule, a, b, n).fraction
    dt = time.perf_counter() - t0
    ok = bad == 0
    announce(capsys, ok,
             f"criterion 4: squared minority preference <= pairwise "
             f"dependence, {checked} exact checks, {bad} violations, {dt:.1f}s")

def test_criterion_5_reduction_chain(capsys):
    t0 = time.perf_counter()
    checked = bad = 0
    for rule in corpus_for(3, 200, 2000):
        checked += 1
        bad += not check_reduction_chain(rule, n=3).holds
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt <= 60
    announce(capsys, ok,
             f"criterion 5: transitivity and distance chain at n=3, "
             f"{checked} rules, {bad} violations, {dt:.1f}s")

def test_criterion_6_cross_size_identities(capsys):
    t0 = time.perf_counter()
    gs = [majority_g(3)] + [random_odd_g(3, 4000 + k) for k in range(20)]
    four_bad = five_bad = 0
    for k, g in enumerate(gs):
        rep = check_identities(g, samples=1_000_000, seed=6000 + k)
        four_bad += not (rep.four_exact and rep.four_holds)
        five_bad += not rep.five_holds
    exact_small = 0
    for g in (np.array([False, True]), np.array([True, False])):
        rep = check_identities(g)
        exact_small += not (rep.four_tol == 0 and rep.five_tol == 0
                            and rep.holds and rep.ngcw5.fraction == 0)
    dt = time.perf_counter() - t0
    ok = four_bad == 0 and five_bad == 0 and exact_small == 0 and dt <= 120
    announce(capsys, ok,
             f"criterion 6: four-alternative identity exact and five/six "
             f"relation within 3 SE at 1e6 samples for {len(gs)} g, exact at "
             f"n=1, {four_bad + five_bad + exact_small} violations, {dt:.1f}s")

def test_criterion_7_condorcet_cross_check(capsys):
    t0 = time.perf_counter()
    G = neutral_tensor(majority_g(3), 3)
    cyclic = 0
    for idx in range(216):
        p = profile_from_index(idx, 3)
        bits = tuple(bool(G.pairwise(a, b)[pairwise_column(p, a, b).index])
                     for a, b in PAIRS)
        cyclic += bits in ((True, False, True), (False, True, False))
    oracle_ok = nt(G).fraction == Fraction(cyclic, 216) == Fraction(12, 216)
    agree = all(ngcw(H).fraction == nt(H).fraction
                for H in map(build_gswf, gswf_corpus(3, 10, seed=7000)))
    dt = time.perf_counter() - t0
    ok = oracle_ok and agree
    announce(capsys, ok,
             f"criterion 7: majority cycling count matches brute force "
             f"(12/216) and no-winner equals cyclic on the corpus, {dt:.1f}s")

def test_criterion_8_converse_bound(capsys):
    t0 = time.perf_counter()
    checked = bad = 0
    for G in map(build_gswf, gswf_corpus(3, 10, seed=8000)):
        bound = 2 * ngcw(G).fraction
        F = scf_from_gswf(G)
        for a, b in PAIRS:
            checked += 1
            bad += mab(F, a, b, 3).fraction > bound
    dt = time.perf_counter() - t0
    ok = bad == 0
    announce(capsys, ok,
             f"criterion 8: rules from pairwise functions obey the paradox "
             f"bound, {checked} exact checks, {bad} violations, {dt:.1f}s")

def test_criterion_9_composition_exact(capsys):
    t0 = time.perf_counter()
    checked = bad = 0
    for seed in range(10):
        rep = check_composition(random_odd_g(2, 9000 + seed))
        checked += 1
        bad += not (rep.holds and rep.tol == 0
                    and rep.joint.fraction == rep.left.fraction
                    * rep.right.fraction)
    dt = time.perf_counter() - t0
    ok = bad == 0
    announce(capsys, ok,
             f"criterion 9: block independence exact at n=2, {checked} g, "
             f"{bad} violations, {dt:.1f}s")

def test_criterion_10_structured_search_exact(capsys):
    t0 = time.perf_counter()
    checked = bad = 0
    targets = [neutral_tensor(majority_g(3), 3)]
    targets += [random_iia_gswf(2, 3, 10_000 + k) for k in range(10)]
    targets += [random_iia_gswf(3, 3, 11_000 + k) for k in range(10)]
    for G in targets:
        checked += 1
        bad += dist_tr3(G)[0] != dist_tr3_bruteforce(G)[0]
    dt = time.perf_counter() - t0
    ok = bad == 0
    announce(capsys, ok,
             f"criterion 10: structured transitive-family search equals brute "
             f"force at n=2,3, {checked} functions, {bad} violations, {dt:.1f}s")

def test_criterion_11_sampled_determinism(capsys):
    t0 = time.perf_counter()
    plu = ScfRule("plurality")
    G6 = neutral_tensor(majority_g(3), 6)
    mismatches = 0
    jobs = [
        lambda w: manipulation_power(plu, 2, 6, mode="sampled",
                                     samples=200_000, seed=1, workers=w),
        lambda w: manipulation_power_total(plu, 6, mode="sampled",
                                           samples=200_000, seed=2, workers=w),
        lambda w: mab(plu, 0, 1, 6, mode="sampled", samples=200_000, seed=3,
                      workers=w),
        lambda w: nab(plu, 0, 2, 6, mode="sampled", samples=50_000, seed=4,
                      workers=w),
        lambda w: nt(random_iia_gswf(6, 3, 5), mode="sampled",
                     samples=200_000, seed=5, workers=w),
        lambda w: ngcw(G6, mode="sampled", samples=200_000, seed=6, workers=w),
        lambda w: dist_to_dictatorship(plu, 6, mode="sampled",
                                       samples=200_000, seed=7, workers=w),
        lambda w: neutrality_counts(plu, 6, mode="sampled", samples=50_000,
                                    seed=8, workers=w),
    ]
    for job in jobs:
        first = job(1)
        again = job(1)
        wide = job(8)
        mismatches += (first != again) + (first != wide)
    dt = time.perf_counter() - t0
    ok = mismatches == 0
    announce(capsys, ok,
             f"criterion 11: sampled reports bit-identical across reruns and "
             f"1 vs 8 workers, {len(jobs)} estimators, {mismatches} "
             f"mismatches, {dt:.1f}s")
