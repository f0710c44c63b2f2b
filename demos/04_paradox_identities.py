#!/usr/bin/env python3
"""Condorcet paradox probabilities across different numbers of alternatives.

A neutral tensor applies one odd Boolean function g to every pairwise
contest of m alternatives.  The probability that no alternative beats
all others then obeys exact linear identities across m, plus an exact
independence property between disjoint blocks of alternatives.
"""

from fractions import Fraction

from votelab import (
    check_composition,
    check_identities,
    dictator_swf,
    gcw_winner_at,
    majority_g,
    neutral_tensor,
    ngcw,
    nt,
    profile_from_index,
    random_odd_g,
    restrict_gswf,
)

def main():
    n = 3
    g = majority_g(n)

    # m = 3 with simple majority: the classic cycle probability. All 216
    # three-voter profiles are enumerated; 12 of them produce a cycle.
    G3 = neutral_tensor(g, 3)
    print("majority of 3 voters, m=3:")
    print("  cyclic probability NT      =", nt(G3).fraction)
    print("  no-Condorcet-winner NGCW   =", ngcw(G3).fraction,
          "(equal by definition at m=3)")

    # One concrete cyclic profile: rankings 012, 120, 201.
    cyc = profile_from_index(0 + 3 * 6 + 4 * 36, 3)
    print("  profile", tuple(v.ranking for v in cyc.voters),
          "-> Condorcet winner:", gcw_winner_at(G3, cyc))

    # Cross-size identities, all exact at this scale:
    #   NGCW_4 = 2 NGCW_3
    #   NGCW_5 = NGCW_6 / 3 + 5 NGCW_3 / 3
    rep = check_identities(g, samples=200_000, seed=1)
    print("\ncross-size identities for majority:")
    print(f"  NGCW_3 = {rep.ngcw3.fraction}")
    print(f"  NGCW_4 = {rep.ngcw4.fraction} "
          f"(= 2 NGCW_3: {rep.four_holds}, exact: {rep.four_exact})")
    print(f"  NGCW_5 = {rep.ngcw5.fraction} (exact)")
    print(f"  NGCW_6 ~ {rep.ngcw6.value:.6f} (sampled, ci95 "
          f"{rep.ngcw6.ci95:.6f})")
    print(f"  five/six relation within 3 SE: {rep.five_holds}")

    # The identity is not special to majority; any odd g obeys it.
    for seed in (11, 12):
        r = check_identities(random_odd_g(3, seed), samples=200_000, seed=seed)
        print(f"  random odd g (seed {seed}): four exact {r.four_exact} "
              f"{r.four_holds}, five within tolerance {r.five_holds}")

    # Block independence: for the 6-alternative tensor, "no winner among
    # the first three" and "no winner among the last three" are exactly
    # independent events.  At n=2 every restriction is enumerable.
    comp = check_composition(random_odd_g(2, 5))
    print("\nblock independence at n=2:")
    print(f"  joint = {comp.joint.fraction}   product = "
          f"{comp.left.fraction * comp.right.fraction}   exact match: "
          f"{comp.holds}")

    # With three voters the blocks have positive paradox probability and
    # the identity is checked statistically (1/18 squared = 1/324).
    comp3 = check_composition(g, samples=300_000, seed=9)
    print("block independence at n=3 (sampled):")
    print(f"  joint ~ {comp3.joint.value:.6f}   product ~ "
          f"{comp3.left.value * comp3.right.value:.6f}   within 3 SE: "
          f"{comp3.holds}")

    # Restriction acts on alternatives: dropping alternative 3 from the
    # m=4 tensor leaves the m=3 tensor of the same g.
    G4 = neutral_tensor(g, 4)
    sub = restrict_gswf(G4, (0, 1, 2))
    print("\nrestriction of the m=4 tensor to {0,1,2} equals the m=3 tensor:",
          sub == G3)

    # A dictator's output is always transitive, so every paradox
    # probability vanishes.
    D = dictator_swf(0, n)
    print("dictator paradox probabilities:", ngcw(D).fraction,
          nt(D).fraction)
    assert ngcw(D).fraction == 0 == nt(D).fraction

if __name__ == "__main__":
    main()
