"""The counting driver: exact sweeps and deterministic chunked sampling."""

from math import factorial

import numpy as np
import pytest

from votelab.metrics import mab, manipulation_power, manipulation_power_total, nab
from votelab.orders import profile_from_index
from votelab.rules import (
    ScfRule,
    anonymity_counts,
    dist_to_antidictatorship,
    dist_to_dictatorship,
    neutrality_counts,
    range_min_prob,
)
from votelab.sampling import (
    CHUNK,
    BudgetError,
    count,
    normal_half_width,
    pick_mode,
    run_chunks,
    wilson_half_width,
)
from votelab.welfare import (
    check_composition,
    check_identities,
    neutral_tensor,
    ngcw,
    nt,
    random_iia_gswf,
    random_odd_g,
)


def counting_counter(rng, size):
    draws = rng.integers(0, 6, size=size)
    return np.array([int((draws == 0).sum()), size], dtype=np.int64)


def test_chunk_partition_is_exact():
    totals = run_chunks(counting_counter, 2, 200_001, seed=3)
    assert totals[1] == 200_001


def test_same_seed_same_totals():
    a = run_chunks(counting_counter, 2, 150_000, seed=9)
    b = run_chunks(counting_counter, 2, 150_000, seed=9)
    assert (a == b).all()


def test_worker_count_does_not_change_totals():
    for samples in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17):
        a = run_chunks(counting_counter, 2, samples, seed=4, workers=1)
        b = run_chunks(counting_counter, 2, samples, seed=4, workers=8)
        assert (a == b).all(), samples


def test_chunk_size_changes_stream_but_not_validity():
    # streams are defined per (seed, chunk index): a different chunk size is
    # a different (valid) estimator, not an error
    a = run_chunks(counting_counter, 2, 50_000, seed=5, chunk=1 << 12)
    b = run_chunks(counting_counter, 2, 50_000, seed=5, chunk=1 << 13)
    assert a[1] == b[1] == 50_000
    assert abs(a[0] - b[0]) < 2_000


def test_different_seeds_differ():
    a = run_chunks(counting_counter, 2, 100_000, seed=1)
    b = run_chunks(counting_counter, 2, 100_000, seed=2)
    assert a[0] != b[0]


def test_wilson_half_width_behaviour():
    import pytest
    with pytest.raises(ValueError):
        wilson_half_width(0, 0)
    mid = wilson_half_width(500, 1000)
    edge = wilson_half_width(1, 1000)
    assert 0 < edge < mid
    # interval shrinks like 1/sqrt(samples)
    assert wilson_half_width(5000, 10_000) < mid < wilson_half_width(50, 100)


def test_wilson_symmetry():
    assert abs(wilson_half_width(100, 1000) - wilson_half_width(900, 1000)) < 1e-12


def test_normal_half_width():
    assert normal_half_width(10, 100, 1) == float("inf")
    assert normal_half_width(30, 60, 20) > 0
    # constant observations: zero variance
    assert normal_half_width(20, 20, 20) == 0.0


# --- the counting driver -----------------------------------------------

BORDA = ScfRule("borda")
PLURALITY = ScfRule("plurality")
PMF = ScfRule("pairwise_majority_fallback")


def _report(r):
    return (r.num, r.den, r.ci95)


def _sampled(samples, seed):
    return dict(mode="sampled", samples=samples, seed=seed)


def _identity_gaps(g, **kw):
    r = check_identities(g, **kw)
    return (r.four_gap, r.four_tol, r.five_gap, r.five_tol,
            r.composition.gap, r.composition.tol)


# Sampled outputs recorded before the estimators shared sampling.count; any
# change to what a chunk draws or how it is tallied changes them.
FROZEN = [
    ("M_i", lambda: _report(manipulation_power(BORDA, 1, 4, **_sampled(3000, 5))),
     (57, 3000, 0.004920857819389925)),
    ("M_total", lambda: _report(manipulation_power_total(PMF, 4, **_sampled(3000, 6))),
     (147, 3000, 0.008954545672540346)),
    ("mab", lambda: _report(mab(PLURALITY, 0, 2, 4, **_sampled(3000, 7))),
     (122, 3000, 0.007087781243435198)),
    ("nab", lambda: _report(nab(BORDA, 1, 2, 4, **_sampled(3000, 8))),
     (5398, 96000, 0.0029080111145582507)),
    ("nt", lambda: _report(nt(random_iia_gswf(5, 3, 2), **_sampled(3000, 9))),
     (819, 3000, 0.015934197773234265)),
    ("ngcw", lambda: _report(ngcw(neutral_tensor(random_odd_g(3, 1), 4),
                                  **_sampled(3000, 10))),
     (315, 3000, 0.010974287251688497)),
    ("dist_dictatorship", lambda: dist_to_dictatorship(
        ScfRule("random_table", seed=3), 4, **_sampled(3000, 11)),
     (0.6626666666666666, 1)),
    ("dist_antidictatorship", lambda: dist_to_antidictatorship(
        BORDA, 4, **_sampled(3000, 12)),
     (0.8613333333333333, 2)),
    ("range_min", lambda: range_min_prob(PLURALITY, 5, **_sampled(CHUNK + 100, 13)),
     (0.20971722835029558, 2)),
    ("neutrality", lambda: neutrality_counts(PLURALITY, 4, **_sampled(3000, 14)),
     (1998, 15000)),
    ("anonymity", lambda: anonymity_counts(PMF, 4, **_sampled(3000, 15)),
     (1353, 9000)),
    ("composition", lambda: _report(check_composition(
        random_odd_g(3, 0), **_sampled(3000, 16)).joint),
     (8, 3000, 0.0019508160258685603)),
    # (gap, tol) of both identities and of composition, ngcw_3 exact and the rest sampled;
    # recorded before the identities shared one exact-or-sampled check
    ("identities", lambda: _identity_gaps(random_odd_g(6, 0), samples=4000, seed=0),
     (0.010370370370370363, 0.02275840274387152, 0.011891975308641944,
      0.024884509508737544, 4.3552812071329106e-05, 0.008649828751458826)),
]


@pytest.mark.parametrize("estimate,expected", [case[1:] for case in FROZEN],
                         ids=[case[0] for case in FROZEN])
def test_sampled_estimates_are_frozen(estimate, expected):
    assert estimate() == expected


def _elected_tally(rule, m):
    return lambda digits: np.bincount(rule.winners_from_digits(digits), minlength=m)


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
@pytest.mark.parametrize("name", ["borda", "plurality", "pairwise_majority_fallback"])
def test_exact_count_matches_profile_walk(name, n, m):
    rule = ScfRule(name, m)
    counts, trials, mode = count(_elected_tally(rule, m), m, n, m, mode="auto")
    walk = np.zeros(m, np.int64)
    for idx in range(factorial(m) ** n):
        walk[rule.winner(profile_from_index(idx, n, m))] += 1
    assert mode == "exact" and trials == factorial(m) ** n
    assert counts.tolist() == walk.tolist()


@pytest.mark.parametrize("workers", [1, 3])
def test_sampled_count_sums_chunks(workers):
    tally = _elected_tally(PLURALITY, 3)
    counts, trials, mode = count(tally, 3, 4, 3, mode="sampled", samples=CHUNK + 7,
                                 seed=2, workers=workers)
    assert mode == "sampled" and trials == CHUNK + 7 == counts.sum()


@pytest.mark.parametrize("mode,samples,seed,error", [
    ("exact", None, None, BudgetError),
    ("auto", None, None, ValueError),
    ("sampled", 10, None, ValueError),
    ("fast", 10, 1, ValueError),
])
def test_count_mode_errors(mode, samples, seed, error):
    with pytest.raises(error):
        count(lambda digits: [0], 1, 11, 3, mode=mode, samples=samples, seed=seed)


@pytest.mark.parametrize("workers", [0, -3])
def test_run_chunks_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_chunks(counting_counter, 2, 100, seed=1, workers=workers)


@pytest.mark.parametrize("mode,n,samples", [("sampled", 3, 0), ("sampled", 3, -5),
                                            ("auto", 11, 0)])
def test_pick_mode_rejects_empty_samples(mode, n, samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        pick_mode(mode, n, 3, samples, 1)
