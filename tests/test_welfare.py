"""Pairwise welfare functions, paradox probabilities, distances, and the
identities and reductions connecting them.

Exact engines are cross-checked two independent ways: a slow profile-level
enumeration through the object layer, and a column-distribution sum that
never touches profiles at all.
"""

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import numpy as np
import pytest

from votelab import _tables, tallies
from votelab.metrics import mab
from votelab.orders import (MAX_COLUMN_VOTERS, Profile, column_complement, order_from_index,
                            profile_chunks, profile_from_index, voter_bits)
from votelab.rules import BudgetError, ScfRule
from votelab.sampling import exact_feasible
from votelab.welfare import (
    GswfIia,
    anti_dictator_swf,
    check_composition,
    check_identities,
    check_reduction_chain,
    dictator_swf,
    dist_dict2,
    dist_tr3,
    gcw,
    gcw_winner_at,
    gswf_from_scf,
    is_neutral_gswf,
    is_odd,
    majority_g,
    neutral_tensor,
    ngcw,
    nt,
    random_iia_gswf,
    random_odd_g,
    restrict_gswf,
    scf_from_gswf,
    _beats_all_count,
    _wins,
)

from oracles import (dist_tr3_bruteforce, dist_tr3_by_profiles, gswf_disagreement,
                     gswf_winners_by_argmax, ngcw_enumerated, pairwise_column, tr3_members,
                     tr_member_tables, wins_by_pairs)

PAIRS = ((0, 1), (0, 2), (1, 2))


def slow_nt(G, n):
    """Count cyclic outputs by walking every profile through the object layer."""
    count = 0
    for idx in range(6 ** n):
        p = profile_from_index(idx, n)
        bits = {}
        for a, b in PAIRS:
            z = pairwise_column(p, a, b).index
            bits[(a, b)] = bool(G.pairwise(a, b)[z])
        t01, t02, t12 = bits[(0, 1)], bits[(0, 2)], bits[(1, 2)]
        count += (t01, t02, t12) in ((True, False, True), (False, True, False))
    return Fraction(count, 6 ** n)


def column_sum_ngcw(G):
    """No-winner probability without enumerating profiles: sum over the
    per-voter sets of alternatives ranked below a candidate winner, using
    the exact weight k!(m-1-k)!/m! for a below-set of size k."""
    m, n = G.m, G.n
    others = {a: [b for b in range(m) if b != a] for a in range(m)}
    win_total = Fraction(0)
    for a in range(m):
        rows = {b: G.pairwise(a, b) for b in others[a]}
        for below_sets in product(range(1 << (m - 1)), repeat=n):
            weight = Fraction(1)
            cols = {b: 0 for b in others[a]}
            for v, mask in enumerate(below_sets):
                k = bin(mask).count("1")
                weight *= Fraction(factorial(k) * factorial(m - 1 - k),
                                   factorial(m))
                for j, b in enumerate(others[a]):
                    if mask >> j & 1:
                        cols[b] |= 1 << v
            if all(rows[b][cols[b]] for b in others[a]):
                win_total += weight
    return 1 - win_total


def test_gswf_table_shape_checked():
    with pytest.raises(ValueError):
        GswfIia(3, 2, np.zeros((2, 4), dtype=bool))
    with pytest.raises(ValueError):
        GswfIia(3, 2, np.zeros((3, 5), dtype=bool))


def test_pairwise_query_orientation():
    G = random_iia_gswf(2, 3, 12)
    comp = 3 ^ np.arange(4)
    for a, b in PAIRS:
        fwd = G.pairwise(a, b)
        rev = G.pairwise(b, a)
        assert (rev == ~fwd[comp]).all()
    with pytest.raises(ValueError):
        G.pairwise(0, 0)


def test_oddness():
    assert is_odd(majority_g(3))
    assert is_odd(np.array([False, True]))
    assert not is_odd(np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        neutral_tensor(np.ones(8, dtype=bool), 3)
    with pytest.raises(ValueError):
        majority_g(4)


def test_random_generators_reproducible():
    assert (random_odd_g(3, 7) == random_odd_g(3, 7)).all()
    assert is_odd(random_odd_g(4, 7))
    assert random_iia_gswf(3, 3, 7) == random_iia_gswf(3, 3, 7)
    assert random_iia_gswf(3, 3, 7) != random_iia_gswf(3, 3, 8)


def test_dictator_swf_tables():
    D = dictator_swf(1, 2)
    # societal preference on every pair copies voter 1's column bit
    for a, b in PAIRS:
        assert (D.pairwise(a, b) == np.array([False, False, True, True])).all()
    A = anti_dictator_swf(0, 2)
    for a, b in PAIRS:
        assert (A.pairwise(a, b) == np.array([True, False, True, False])).all()


def test_nt_matches_slow_enumeration():
    G = neutral_tensor(majority_g(3), 3)
    rep = nt(G)
    assert rep.fraction == slow_nt(G, 3) == Fraction(12, 216)
    H = random_iia_gswf(2, 3, 21)
    assert nt(H).fraction == slow_nt(H, 2)
    for seed in range(3):
        for G4 in (random_iia_gswf(4, 3, seed), neutral_tensor(random_odd_g(4, seed), 3)):
            assert nt(G4).fraction == slow_nt(G4, 4), seed


def test_dictators_never_cycle():
    assert nt(dictator_swf(0, 3)).fraction == 0
    assert nt(anti_dictator_swf(2, 3)).fraction == 0


def test_ngcw_equals_nt_for_three_alternatives():
    for G in (neutral_tensor(majority_g(3), 3),
              dictator_swf(1, 3),
              random_iia_gswf(3, 3, 5),
              random_iia_gswf(3, 3, 6),
              gswf_from_scf(ScfRule("borda"), n=3)):
        assert ngcw(G).fraction == nt(G).fraction


def test_gcw_complements_ngcw():
    G = neutral_tensor(majority_g(3), 3)
    assert gcw(G).fraction + ngcw(G).fraction == 1


def test_ngcw_matches_column_sum_oracle():
    maj = neutral_tensor(majority_g(3), 3)
    assert ngcw(maj).fraction == column_sum_ngcw(maj)
    four = neutral_tensor(majority_g(3), 4)
    assert ngcw(four).fraction == column_sum_ngcw(four)
    H = random_iia_gswf(2, 3, 31)
    assert ngcw(H).fraction == column_sum_ngcw(H)


def _largest_n(m, limit=None):
    """The largest voter count exact mode allows at m alternatives, and
    with at most ``limit`` profiles when given."""
    n = 1
    while exact_feasible(n + 1, m) and (limit is None or factorial(m) ** (n + 1) <= limit):
        n += 1
    return n


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_column_engine_matches_enumeration(m):
    for n in range(1, _largest_n(m, 10 ** 6) + 1):
        cases = {"random_iia": random_iia_gswf(n, m, 17 * n + m),
                 "neutral": neutral_tensor(random_odd_g(n, n + m), m),
                 "dictator": dictator_swf(n - 1, n, m),
                 "anti_dictator": anti_dictator_swf(0, n, m)}
        if m == 3:
            cases["from_borda"] = gswf_from_scf(ScfRule("borda"), n=n)
            cases["from_random_table"] = gswf_from_scf(ScfRule("random_table", seed=n), n=n)
        for name, G in cases.items():
            want = ngcw_enumerated(G)
            assert ngcw(G).fraction == want, (m, n, name)
            if m == 3:
                assert nt(G).fraction == want, (n, name)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_column_engine_closed_forms_at_largest_n(m):
    n = _largest_n(m)
    tabs = random_iia_gswf(n, m, m).tables.copy()
    tabs[:m - 1] = True  # the first m - 1 slots are the pairs (0, b): 0 beats all
    G = GswfIia(m, n, tabs)
    assert ngcw(G).fraction == 0
    assert gcw(G).fraction == 1
    if m == 3:
        assert nt(neutral_tensor(majority_g(3), 3)).fraction == Fraction(1, 18)


@pytest.mark.parametrize("n,m", [(24, 2), (14, 3), (8, 4), (4, 6)])
def test_column_engine_counts_every_profile_past_the_budget(n, m):
    """Where 0 beats everyone, it wins at all (m!)^n profiles, past the
    exact budget at every m (past 2^32 at m = 3, n = 14): no step of the
    contraction may wrap in a narrow dtype."""
    G = GswfIia(m, n, np.ones((m * (m - 1) // 2, 1 << n), bool))
    counts = [_beats_all_count(G, a) for a in range(m)]
    assert counts == [factorial(m) ** n] + [0] * (m - 1)


def test_wins_on_a_block_matches_object_layer():
    """_wins over a block of an m=6 GSWF: the per-pair outputs read through
    Profile columns, and the winner of the restricted GSWF at the profile
    restricted to the block."""
    for n in (1, 2, 3):
        G = random_iia_gswf(n, 6, 50 + n)
        digits = np.random.default_rng(n).integers(0, 720, size=(n, 30))
        for alts in ((0, 1, 2), (3, 4, 5), (0, 2, 5), (1, 4), (0, 1, 2, 3, 4, 5)):
            wins = _wins(G, digits, alts)
            assert wins.shape == (len(alts), 30)
            R = restrict_gswf(G, alts)
            for s in range(30):
                p = Profile(tuple(order_from_index(int(k), 6) for k in digits[:, s]))
                for i, a in enumerate(alts):
                    assert wins[i, s] == sum(
                        bool(G.pairwise(a, b)[pairwise_column(p, a, b).index])
                        for b in alts if b != a)
                best = int(wins[:, s].argmax())
                got = best if wins[best, s] == len(alts) - 1 else None
                sub = Profile(tuple(tuple(alts.index(x) for x in v.ranking if x in alts)
                                    for v in p.voters))
                assert got == gcw_winner_at(R, sub), (n, alts, s)


def _random_gswf_by_bits(n, m, seed) -> GswfIia:
    """A seeded random IIA GSWF built from packed random bytes, so that its
    tables take one byte per column even at n = 26."""
    size = len(_tables.pair_list(m)) << n
    bits = np.unpackbits(np.frombuffer(np.random.default_rng(seed).bytes(-(-size // 8)), np.uint8))
    return GswfIia(m, n, bits[:size].view(bool).reshape(-1, 1 << n))


@pytest.mark.parametrize("m,n", [(3, 1), (6, 1), (3, 21), (6, 5), (6, 9), (4, 11), (3, 22),
                                 (3, MAX_COLUMN_VOTERS)])
def test_packed_wins_equal_per_pair_columns(m, n):
    """_wins packs floor(63 / n) pairs to a word.  Its wins equal those of one
    column_index read per pair where every pair fits one word (n = 1), where
    a word's last pair reaches bit 62 ((3, 21) and the first of three words
    at (6, 9)), and where the pairs take two words ((6, 5), (4, 11), (3, 22),
    (3, 26)).  Each profile block holds random profiles, one where every
    voter casts ranking 0 (every column all ones) and one where every voter
    casts its reverse."""
    G = _random_gswf_by_bits(n, m, 60 + n)
    digits = np.random.default_rng(n).integers(0, factorial(m), size=(n, 64))
    digits[:, :2] = [0, factorial(m) - 1]
    for alts in {tuple(range(m)), (0, m - 1), (0, 1, m - 1)}:
        assert np.array_equal(_wins(G, digits, alts), wins_by_pairs(G, digits, alts)), alts


@pytest.mark.parametrize("n", [5, 6])
def test_gswf_winner_equals_the_argmax_oracle(n):
    """The gswf_winner rule's winners at every profile equal the argmax of
    the wins where a GCW exists, and the fallback voter's top elsewhere,
    for every fallback voter; at m = 4 on random profiles."""
    _, _, digits = next(profile_chunks(n))  # all 6^n profiles
    digits4 = np.random.default_rng(n).integers(0, 24, size=(n, 4000))
    for seed in range(3):
        G, G4 = random_iia_gswf(n, 3, 70 + seed), random_iia_gswf(n, 4, 70 + seed)
        for H, block in ((G, digits), (G4, digits4)):
            assert (wins_by_pairs(H, block, range(H.m)).max(0) < H.m - 1).any()  # some no-GCW
            for fallback in range(n):
                rule = ScfRule("gswf_winner", H.m, gswf=H, fallback_voter=fallback)
                assert np.array_equal(rule.winners_from_digits(block),
                                      gswf_winners_by_argmax(H, fallback, block)), (seed, fallback)


def test_gcw_winner_at_examples():
    G = neutral_tensor(majority_g(3), 3)
    cyc = Profile(tuple(order_from_index(k) for k in (0, 3, 4)))
    assert gcw_winner_at(G, cyc) is None
    assert gcw_winner_at(G, Profile(tuple(order_from_index(k)
                                          for k in (0, 0, 3)))) == 0


def test_neutral_tensor_alternative_symmetry():
    """Under a neutral tensor every alternative is the unique winner (and the
    unique loser) equally often."""
    G = neutral_tensor(majority_g(3), 3)
    win = [0, 0, 0]
    lose = [0, 0, 0]
    for idx in range(216):
        p = profile_from_index(idx, 3)
        beats = {a: 0 for a in range(3)}
        for a, b in PAIRS:
            z = pairwise_column(p, a, b).index
            if G.pairwise(a, b)[z]:
                beats[a] += 1
            else:
                beats[b] += 1
        for a in range(3):
            if beats[a] == 2:
                win[a] += 1
            if beats[a] == 0:
                lose[a] += 1
    assert win == [68, 68, 68]
    assert lose == [68, 68, 68]


def test_is_neutral_gswf():
    assert is_neutral_gswf(neutral_tensor(majority_g(3), 3))
    assert is_neutral_gswf(gswf_from_scf(ScfRule("plurality"), n=3))
    # copying one voter's preference commutes with relabeling alternatives
    assert is_neutral_gswf(dictator_swf(0, 3))
    assert not is_neutral_gswf(random_iia_gswf(3, 3, 7))


def test_gswf_from_scf_matches_column_stats():
    from votelab.metrics import column_stats
    scf = ScfRule("borda")
    for tie_voter in (0, 2):
        G = gswf_from_scf(scf, tie_voter=tie_voter, n=3)
        tie = (np.arange(8) >> tie_voter & 1).astype(bool)
        for a, b in PAIRS:
            st = column_stats(scf, a, b, 3)
            want = (st.count_a > st.count_b) | ((st.count_a == st.count_b) & tie)
            assert (G.pairwise(a, b) == want).all()


def test_gswf_from_scf_of_plurality_is_majority():
    G = gswf_from_scf(ScfRule("plurality"), tie_voter=0, n=3)
    maj = neutral_tensor(majority_g(3), 3)
    assert G == maj


def test_scf_from_gswf_winner_semantics():
    G = neutral_tensor(majority_g(3), 3)
    F = scf_from_gswf(G, fallback_voter=1)
    assert F.winner(Profile(tuple(order_from_index(k) for k in (0, 0, 3)))) == 0
    cyc = Profile(tuple(order_from_index(k) for k in (0, 3, 4)))
    assert F.winner(cyc) == 1  # voter 1 ranks (1, 2, 0)
    F0 = scf_from_gswf(G, fallback_voter=0)
    assert F0.winner(cyc) == 0


def test_converse_manipulability_bound():
    G = neutral_tensor(majority_g(3), 3)
    F = scf_from_gswf(G)
    eps = ngcw(G).fraction
    for a, b in PAIRS:
        r = mab(F, a, b, 3).fraction
        assert r == Fraction(8, 729)
        assert r <= 2 * eps
    for seed in range(5):
        H = random_iia_gswf(2, 3, 40 + seed)
        bound = 2 * ngcw(H).fraction
        FH = scf_from_gswf(H)
        for a, b in PAIRS:
            assert mab(FH, a, b, 2).fraction <= bound


def test_dist_dict2_values():
    assert dist_dict2(majority_g(3))[0] == Fraction(1, 4)
    parity2 = np.array([bool(bin(z).count("1") % 2) for z in range(4)])
    assert dist_dict2(parity2)[0] == Fraction(1, 2)
    bit1 = (np.arange(8) >> 1 & 1).astype(bool)
    value, witness = dist_dict2(bit1)
    assert value == 0 and witness == ("dictator", 1)
    value, witness = dist_dict2(~bit1)
    assert value == 0 and witness == ("anti_dictator", 1)


def test_dist_tr3_majority_frozen():
    G = neutral_tensor(majority_g(3), 3)
    value, member = dist_tr3(G)
    assert value == Fraction(19, 36)
    assert member.kind == "dictator" and member.voter == 0
    bvalue, bmember = dist_tr3_bruteforce(G)
    assert bvalue == value


# (n, kind, seed, value, member label, free pair, h as bits LSB-first) of
# dist_tr3 on random_iia_gswf(n, 3, seed) ("iia") and on the neutral tensor
# of random_odd_g(n, seed) ("odd"), recorded from the engine that read the
# output triple pair by pair
DIST_TR3_FROZEN = [
    (1, "iia", 0, (0, 1), "bottom_fixed(1)", (0, 2), 1),
    (1, "iia", 1, (1, 2), "top_fixed(0)", (1, 2), 0),
    (1, "iia", 2, (1, 2), "top_fixed(2)", (0, 1), 1),
    (1, "odd", 0, (0, 1), "anti_dictator(0)", None, None),
    (1, "odd", 1, (0, 1), "dictator(0)", None, None),
    (2, "iia", 0, (3, 4), "top_fixed(2)", (0, 1), 7),
    (2, "iia", 1, (4, 9), "dictator(1)", None, None),
    (2, "iia", 2, (4, 9), "bottom_fixed(0)", (1, 2), 14),
    (2, "odd", 0, (0, 1), "anti_dictator(1)", None, None),
    (2, "odd", 1, (0, 1), "dictator(0)", None, None),
    (3, "iia", 0, (19, 54), "bottom_fixed(2)", (0, 1), 7),
    (3, "iia", 1, (13, 18), "bottom_fixed(0)", (1, 2), 243),
    (3, "iia", 2, (17, 24), "top_fixed(1)", (0, 2), 94),
    (3, "odd", 0, (19, 36), "anti_dictator(0)", None, None),
    (3, "odd", 1, (19, 36), "dictator(0)", None, None),
    (4, "iia", 0, (61, 108), "top_fixed(0)", (1, 2), 57354),
    (4, "iia", 1, (139, 216), "top_fixed(2)", (0, 1), 9422),
    (4, "iia", 2, (277, 432), "top_fixed(1)", (0, 2), 40233),
    (4, "odd", 0, (65, 216), "anti_dictator(2)", None, None),
    (4, "odd", 1, (65, 216), "dictator(1)", None, None),
    (5, "iia", 0, (191, 288), "top_fixed(0)", (1, 2), 3379784765),
    (5, "iia", 1, (1721, 2592), "top_fixed(1)", (0, 2), 694911569),
    (5, "iia", 2, (461, 648), "bottom_fixed(2)", (0, 1), 2636733985),
    (5, "odd", 0, (347, 648), "dictator(3)", None, None),
    (5, "odd", 1, (823, 1296), "dictator(1)", None, None),
]


@pytest.mark.parametrize("n, kind, seed, value, label, free_pair, h", DIST_TR3_FROZEN)
def test_dist_tr3_witness_frozen(n, kind, seed, value, label, free_pair, h):
    G = (random_iia_gswf(n, 3, seed) if kind == "iia"
         else neutral_tensor(random_odd_g(n, seed), 3))
    got, member = dist_tr3(G)
    assert got == Fraction(*value)
    assert (member.label, member.free_pair) == (label, free_pair)
    got_h = None if member.h is None else sum(int(b) << z for z, b in enumerate(member.h))
    assert got_h == h
    # the witness is at the reported distance, counted by the independent oracle
    assert gswf_disagreement(G, tr_member_tables(member, n)) == got


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7])
def test_dist_tr3_equals_the_scan_of_every_profile(n):
    """Random GSWFs and borda's at n = 1..7; n = 7 reads its outcome codes
    in six blocks of 6^6 profiles."""
    borda = gswf_from_scf(ScfRule("borda"), 0, n)
    for G in [random_iia_gswf(n, 3, seed) for seed in range(3)] + [borda]:
        value, member = dist_tr3(G)
        assert (value, member.label) == dist_tr3_by_profiles(G)


@pytest.mark.parametrize("block", [1, 7, 36, 500])
def test_dist_tr3_does_not_depend_on_the_block_size(monkeypatch, block):
    """dist_tr3's line reads and composition's exact joint sweep (720
    profiles at n = 1) give the values of the default block size."""
    joint = check_composition(random_odd_g(1, 0)).joint
    monkeypatch.setattr(_tables, "BLOCK", block)
    for n, kind, seed, value, label, _, _ in DIST_TR3_FROZEN[10:20]:
        G = (random_iia_gswf(n, 3, seed) if kind == "iia"
             else neutral_tensor(random_odd_g(n, seed), 3))
        got, member = dist_tr3(G)
        assert (got, member.label) == (Fraction(*value), label)
    assert check_composition(random_odd_g(1, 0)).joint == joint


def test_gswf_engines_read_outcomes_through_wins(monkeypatch):
    from votelab import welfare
    calls = []
    original = welfare._wins

    def counting(G, digits, alts):
        calls.append(tuple(alts))
        return original(G, digits, alts)

    monkeypatch.setattr(welfare, "_wins", counting)
    G = random_iia_gswf(2, 3, 4)
    for engine in (nt, ngcw):
        calls.clear()
        engine(G)  # exact: pairwise columns only, no profile sweep
        assert calls == [], engine.__name__
        engine(G, mode="sampled", samples=100, seed=0)
        assert calls == [(0, 1, 2)], engine.__name__
    calls.clear()
    dist_tr3(G)  # reads its outcome codes as lines of one table, not profile by profile
    assert calls == []
    calls.clear()
    check_composition(random_odd_g(1, 0))
    # the blocks' shared ngcw reads columns; the joint sweep reads both blocks
    assert calls == [(0, 1, 2), (3, 4, 5)]


def test_dist_tr3_is_zero_on_family_members():
    for n in (2, 3):
        assert dist_tr3(dictator_swf(1, n))[0] == 0
        assert dist_tr3(anti_dictator_swf(0, n))[0] == 0
    for member in list(tr3_members(2))[:40]:
        G = tr_member_tables(member, 2)
        assert dist_tr3(G)[0] == 0, member.label


def test_dist_tr3_structured_equals_bruteforce():
    for seed in range(30):
        G = random_iia_gswf(2, 3, seed)
        assert dist_tr3(G)[0] == dist_tr3_bruteforce(G)[0], seed
    for seed in (0, 1):
        G = random_iia_gswf(3, 3, seed)
        assert dist_tr3(G)[0] == dist_tr3_bruteforce(G)[0], seed


def test_tr3_family_size():
    assert len(list(tr3_members(2))) == 2 * 2 + 6 * 2 ** 4
    labels = {m.label for m in tr3_members(2)}
    assert "dictator(0)" in labels and "anti_dictator(1)" in labels
    assert any(l.startswith("top_fixed") for l in labels)
    assert any(l.startswith("bottom_fixed") for l in labels)


def test_tr_member_tables_are_transitive():
    for member in tr3_members(2):
        G = tr_member_tables(member, 2)
        assert nt(G).fraction == 0, member.label


def test_gswf_disagreement_granularity():
    G = neutral_tensor(majority_g(3), 3)
    D = dictator_swf(0, 3)
    assert gswf_disagreement(G, G) == 0
    triple = gswf_disagreement(G, D)
    bits = gswf_disagreement(G, D, granularity="bits")
    assert triple == Fraction(19, 36)
    assert 0 < bits <= triple


def test_restrict_gswf():
    G = random_iia_gswf(2, 4, 3)
    R = restrict_gswf(G, (0, 2, 3))
    assert R.m == 3 and R.n == 2
    assert (R.pairwise(0, 1) == G.pairwise(0, 2)).all()
    assert (R.pairwise(1, 2) == G.pairwise(2, 3)).all()
    with pytest.raises(ValueError):
        restrict_gswf(G, (0, 5))
    with pytest.raises(ValueError):
        restrict_gswf(G, (1,))


def test_identity_four_exact_small_sample():
    for g in (majority_g(3), random_odd_g(3, 1), random_odd_g(3, 2)):
        r3 = ngcw(neutral_tensor(g, 3))
        r4 = ngcw(neutral_tensor(g, 4))
        assert r4.fraction == 2 * r3.fraction


def test_identities_all_exact_at_n1_and_n2():
    for g in (np.array([False, True]), np.array([True, False])):
        rep = check_identities(g)
        assert rep.four_exact and rep.four_tol == 0
        assert rep.five_tol == 0
        assert rep.holds
        assert rep.ngcw5.fraction == 0
    rep2 = check_identities(random_odd_g(2, 9))
    assert rep2.four_exact and rep2.five_tol == 0 and rep2.holds


def test_identities_majority_n3():
    rep = check_identities(majority_g(3), samples=150_000, seed=2)
    assert rep.ngcw3.fraction == Fraction(12, 216)
    assert rep.ngcw4.fraction == Fraction(24, 216)
    assert rep.four_exact and rep.four_holds
    assert rep.ngcw5.mode == "exact"
    assert rep.ngcw6.mode == "sampled"
    assert rep.five_holds and rep.holds


def test_three_blocks_of_a_neutral_tensor_share_its_ngcw():
    """The premise on which check_composition reuses one block's ngcw for
    the other block of the same size."""
    for n in (1, 2, 3):
        for seed in range(6):
            g = random_odd_g(n, seed)
            tensor = neutral_tensor(g, 6)
            expected = ngcw(neutral_tensor(g, 3))
            for block in combinations(range(6), 3):
                assert ngcw(restrict_gswf(tensor, block)) == expected, (n, seed, block)


def test_identities_evaluate_ngcw_five_times(monkeypatch):
    from votelab import welfare
    g = random_odd_g(2, 3)
    calls = []
    original = welfare.ngcw

    def counting(G, **kw):
        calls.append(G.m)
        return original(G, **kw)

    monkeypatch.setattr(welfare, "ngcw", counting)
    rep = check_identities(g)
    assert sorted(calls) == [3, 3, 4, 5, 6]
    tensor = neutral_tensor(g, 6)
    assert rep.composition.left == original(restrict_gswf(tensor, range(3)))
    assert rep.composition.right == original(restrict_gswf(tensor, range(3, 6)))


def test_composition_exact():
    rep = check_composition(random_odd_g(2, 4))
    assert rep.holds and rep.tol == 0
    assert rep.joint.fraction == rep.left.fraction * rep.right.fraction


def test_composition_sampled_majority():
    rep = check_composition(majority_g(3), samples=200_000, seed=3)
    assert rep.left.fraction == Fraction(1, 18)
    assert rep.right.fraction == Fraction(1, 18)
    assert rep.holds


def test_chain_plurality_frozen():
    rep = check_reduction_chain(ScfRule("plurality"), n=3)
    assert rep.holds
    assert rep.eps1 == Fraction(4, 81)
    assert rep.eps2 == Fraction(7, 27)
    assert rep.dist == Fraction(19, 36)
    assert rep.nt_report.fraction == Fraction(12, 216)
    assert sum(r.fraction for r in rep.nab_reports) == Fraction(2, 9)
    assert rep.g_is_neutral and not rep.scf_is_neutral
    assert rep.member.kind == "dictator"


def test_chain_holds_on_small_corpus():
    for name, params in (("borda", {}), ("pairwise_majority_fallback", {}),
                         ("dictatorship", {"voter": 0}),
                         ("constant", {"alt": 1})):
        assert check_reduction_chain(ScfRule(name, **params), n=3).holds
    for seed in range(10):
        rep = check_reduction_chain(ScfRule("random_table", seed=seed), n=2)
        assert rep.holds, seed


def test_nt_rejects_other_sizes():
    with pytest.raises(ValueError):
        nt(neutral_tensor(majority_g(3), 4))


def test_budget_guards():
    with pytest.raises(BudgetError):
        ngcw(neutral_tensor(majority_g(3), 6), mode="exact")
    with pytest.raises(BudgetError):
        dist_tr3_bruteforce(random_iia_gswf(4, 3, 0))


def test_column_tables_refuse_past_the_voter_bound_before_allocating():
    assert MAX_COLUMN_VOTERS >= tallies.MAX_N  # gswf_from_scf keeps the tally engine's reach
    for build in (lambda n: voter_bits(0, n), column_complement, majority_g,
                  lambda n: random_odd_g(n, 0), lambda n: random_iia_gswf(n, 3, 0)):
        with pytest.raises(ValueError, match="takes at most 26 voters, got n=41"):
            build(41)
    assert gswf_from_scf(ScfRule("borda"), n=tallies.MAX_N).n == tallies.MAX_N


def test_composition_samples_its_block_past_the_budget():
    rep = check_composition(majority_g(11), samples=4096, seed=0)
    assert rep.left.mode == rep.joint.mode == "sampled" and rep.left.samples == 4096
    p = rep.left.value  # p^2 carries the delta method's half-width 2 p ci95
    se = np.hypot(rep.joint.ci95, 2 * p * rep.left.ci95) / 1.959963984540054
    assert rep.gap == pytest.approx(abs(rep.joint.value - p * p))
    assert rep.tol == pytest.approx(3 * se)


def test_sampled_nt_deterministic_and_near_exact():
    G = neutral_tensor(majority_g(3), 3)
    r1 = nt(G, mode="sampled", samples=100_000, seed=6, workers=1)
    r2 = nt(G, mode="sampled", samples=100_000, seed=6, workers=8)
    assert r1 == r2
    assert abs(r1.value - 12 / 216) <= 3 * r1.ci95 / 1.96 + 1e-12
