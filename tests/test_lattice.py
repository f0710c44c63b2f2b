"""Edge borders, monotone shifting, and correlation on {0,1,2}^n."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from votelab.lattice import (
    _PACK_FLOORS,
    BorderReport,
    EdgeBorder,
    HarrisReport,
    SetStack,
    TernarySet,
    border_counts,
    border_total,
    check_border_inequality,
    check_harris,
    direction_counts,
    edge_border,
    is_monotone,
    random_set,
    sets_ab,
    shift_coordinate,
    shift_monotone,
)
from votelab.metrics import manipulation_power
from votelab.rules import ScfRule, zoo_rules

from oracles import (border_counts_by_direction, shift_coordinate_by_lines,
                     shift_monotone_by_lines)


def from_points(n, *points):
    """Build a set from explicit digit tuples, digit 0 least significant."""
    idx = [sum(d * 3 ** i for i, d in enumerate(p)) for p in points]
    return TernarySet.from_indices(n, idx)


def test_set_construction_and_indices():
    s = TernarySet.from_indices(2, [0, 4, 8])
    assert s.size == 3
    assert sorted(s.indices().tolist()) == [0, 4, 8]
    assert 4 in s and 5 not in s
    with pytest.raises(ValueError):
        TernarySet.from_indices(1, [3])
    with pytest.raises(ValueError):
        TernarySet(1, np.zeros(4, dtype=bool))
    assert TernarySet.from_indices(2, []) == TernarySet.empty(2)


def test_points_and_columns_must_be_integers():
    with pytest.raises(ValueError, match="must be integers"):
        TernarySet.from_indices(2, [1.5])
    with pytest.raises(ValueError, match="flat list"):
        TernarySet.from_indices(2, [[1, 2]])
    with pytest.raises(ValueError, match="must be integers"):
        sets_ab(ScfRule("borda"), 0, 1, 2.9, 2)


def test_border_trivial_sets():
    for s in (TernarySet.empty(2), TernarySet.full(2)):
        assert border_total(s) == 0
        assert all(c == 0 for c in border_counts(s).counts)


def test_border_of_origin_singleton():
    for n in (1, 2, 3):
        s = from_points(n, (0,) * n)
        assert all(edge_border(s, i) == 2 for i in range(n))
        assert border_total(s) == 2 * n


def test_border_of_upper_cylinder():
    # v_0 = 2 is monotone: no upward edge leaves it
    memb = np.array([(v % 3) == 2 for v in range(9)])
    s = TernarySet(2, memb)
    assert edge_border(s, 0) == 0
    assert edge_border(s, 1) == 0
    assert is_monotone(s)


def test_border_counts_middle_point():
    # {1} at n=1 emits only 1 -> 2
    s = from_points(1, (1,))
    assert edge_border(s, 0) == 1
    # {0, 1}: edges 0->2 and 1->2 exit, 0->1 stays inside
    s2 = from_points(1, (0,), (1,))
    assert edge_border(s2, 0) == 2


def test_borders_with_edge_listing():
    s = from_points(1, (0,))
    rep = border_counts(s, with_edges=True)
    assert rep.counts == (2,)
    heads = sorted(h for (_, _, h) in rep.edges)
    assert heads == [1, 2]


def test_shift_single_coordinate_examples():
    assert shift_monotone(from_points(1, (0,))) == from_points(1, (2,))
    assert shift_monotone(from_points(1, (0,), (2,))) == from_points(1, (1,), (2,))
    assert shift_monotone(from_points(1, (1,))) == from_points(1, (2,))


def test_shift_fixes_monotone_sets():
    memb = np.array([(v % 3) == 2 for v in range(9)])
    s = TernarySet(2, memb)
    assert shift_monotone(s) == s
    assert shift_monotone(TernarySet.full(3)) == TernarySet.full(3)
    assert shift_monotone(TernarySet.empty(3)) == TernarySet.empty(3)


def test_is_monotone_examples():
    assert is_monotone(TernarySet.full(2))
    assert is_monotone(TernarySet.empty(2))
    assert not is_monotone(from_points(2, (0, 0)))


def test_shift_properties_random_sweep():
    for seed in range(200):
        n = 1 + seed % 5
        s = random_set(n, seed=seed)
        t = shift_monotone(s)
        assert t.size == s.size
        assert is_monotone(t)
        before = border_counts(s).counts
        after = border_counts(t).counts
        assert all(a <= b for a, b in zip(after, before))
        moved = int((t.membership & ~s.membership).sum())
        assert moved <= sum(before)


def test_border_inequality_hand_example():
    A = from_points(1, (0,))
    B = from_points(1, (2,))
    rep = check_border_inequality(A, B)
    assert rep.border_a == 2 and rep.border_b == 0
    assert rep.holds
    assert rep.lhs == 3 * 2 and rep.rhs == 1


def test_border_inequality_empty_side():
    rep = check_border_inequality(TernarySet.empty(2), TernarySet.full(2))
    assert rep.holds and rep.rhs == 0


def test_border_inequality_rejects_overlap():
    with pytest.raises(ValueError):
        check_border_inequality(from_points(1, (0,)), from_points(1, (0,)))


def test_border_inequality_random_sweep():
    rng = np.random.default_rng(10)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        u = rng.random(3 ** n)
        a = u < 0.4
        b = ~a & (rng.random(3 ** n) < 0.5)
        rep = check_border_inequality(TernarySet(n, a), TernarySet(n, b))
        assert rep.holds


def test_harris_independent_cylinders():
    A = TernarySet(2, np.array([(v % 3) == 2 for v in range(9)]))
    B = TernarySet(2, np.array([(v // 3) == 2 for v in range(9)]))
    rep = check_harris(A, B)
    assert rep.holds
    assert rep.lhs == rep.rhs  # independent events: exact equality
    full = TernarySet.full(2)
    rep2 = check_harris(full, full)
    assert rep2.holds and rep2.lhs == rep2.rhs


def test_harris_rejects_non_monotone():
    with pytest.raises(ValueError):
        check_harris(from_points(1, (0,)), TernarySet.full(1))


def test_harris_random_monotone_sweep():
    for seed in range(300):
        n = 1 + seed % 5
        A = shift_monotone(random_set(n, seed=seed))
        B = shift_monotone(random_set(n, seed=seed + 10_000))
        assert check_harris(A, B).holds


def test_sets_ab_frozen_membership():
    A, B = sets_ab(ScfRule("plurality"), 0, 1, 3, 3)
    assert sorted(A.indices().tolist()) == [
        4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17,
        19, 20, 21, 22, 23, 24, 25, 26]
    assert B.size == 0


def test_sets_ab_disjoint_everywhere():
    for rule in zoo_rules(2):
        for a, b in ((0, 1), (0, 2), (1, 2)):
            for z in range(4):
                A, B = sets_ab(rule, a, b, z, 2)
                assert A.is_disjoint(B)
                assert A.intersection_size(B) == 0


def test_manipulation_power_dominates_expected_border():
    """Exact direction of the geometric lower bound: 6 * 3^n * M_i is at
    least the average over columns of voter i's outgoing borders."""
    for n in (2, 3):
        for rule in zoo_rules(n):
            M = [manipulation_power(rule, i, n).fraction for i in range(n)]
            for a, b in ((0, 1), (0, 2), (1, 2)):
                tot = [0] * n
                for z in range(2 ** n):
                    A, B = sets_ab(rule, a, b, z, n)
                    for i in range(n):
                        tot[i] += edge_border(A, i) + edge_border(B, i)
                for i in range(n):
                    assert M[i] >= Fraction(tot[i], 6 * 3 ** n * 2 ** n), \
                        (rule.label, n, (a, b), i)


def slow_border(s):
    """Per-direction exit counts and the explicit exits, by walking every
    point of the set and every edge step."""
    counts = [0] * s.n
    edges = set()
    for p in s.indices().tolist():
        for i in range(s.n):
            digit = p // 3 ** i % 3
            for lo, hi in ((0, 1), (1, 2), (0, 2)):
                if digit == lo and p + (hi - lo) * 3 ** i not in s:
                    counts[i] += 1
                    edges.add((p, i, hi))
    return counts, edges


def slow_monotone(s):
    """Raising any digit of a member by one stays in the set."""
    return all(p + 3 ** i in s for p in s.indices().tolist()
               for i in range(s.n) if p // 3 ** i % 3 < 2)


def shifted_except(s, j, shift=shift_coordinate):
    """s shifted along every direction but j."""
    for i in range(s.n):
        if i != j:
            s = shift(s, i)
    return s


def test_border_functions_agree_with_point_walk():
    rng = np.random.default_rng(11)
    monotone = 0
    for n in range(1, 6):
        for _ in range(4):
            s = random_set(n, rng=rng)
            for t in (s, shift_monotone(s), *(shifted_except(s, j) for j in range(n))):
                counts, edges = slow_border(t)
                full = border_counts(t, with_edges=True)
                assert list(full.counts) == counts
                assert [edge_border(t, i) for i in range(n)] == counts
                assert border_counts(t).counts == full.counts
                assert len(full.edges) == len(edges) and set(full.edges) == edges
                assert border_total(t) == full.total == sum(counts)
                assert is_monotone(t) == slow_monotone(t)
                monotone += is_monotone(t)
    assert 20 <= monotone < 100  # every fully shifted set, and not every set


def test_random_set_reproducible():
    assert random_set(3, seed=4) == random_set(3, seed=4)
    assert random_set(3, seed=4) != random_set(3, seed=5)


def oracle_corpus(n, rng):
    """Random sets at each density, the empty and full sets, and each random
    set fully shifted and shifted along every direction but one, all by the
    per-direction oracle."""
    sets = [TernarySet.empty(n), TernarySet.full(n)]
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        s = TernarySet(n, rng.random(3 ** n) < p)
        sets.append(s)
        sets.append(shift_monotone_by_lines(s))
        sets.extend(shifted_except(s, j, shift_coordinate_by_lines) for j in range(n))
    return sets


@pytest.mark.parametrize("n", range(7))
def test_edge_table_engine_equals_per_direction_oracle(n):
    rng = np.random.default_rng(100 + n)
    sets = oracle_corpus(n, rng)
    for t in sets:
        want = border_counts_by_direction(t, with_edges=True)
        got = border_counts(t, with_edges=True)
        assert got == want  # edges in the same order
        assert all(type(x) is int for edge in got.edges for x in edge)
        assert border_counts(t) == border_counts_by_direction(t)
        assert [edge_border(t, i) for i in range(n)] == list(want.counts)
        assert border_total(t) == want.total
        assert is_monotone(t) == (want.total == 0)
        assert [shift_coordinate(t, i) for i in range(n)] == \
            [shift_coordinate_by_lines(t, i) for i in range(n)]
        assert shift_monotone(t) == shift_monotone_by_lines(t)
    for a in sets:
        b = TernarySet(n, ~a.membership & (rng.random(3 ** n) < 0.5))
        ta = border_counts_by_direction(a).total
        tb = border_counts_by_direction(b).total
        assert check_border_inequality(a, b) == BorderReport(
            n, a.size, b.size, ta, tb, 3 ** n * (ta + tb) >= a.size * b.size)
        sa, sb = shift_monotone_by_lines(a), shift_monotone_by_lines(b)
        inter = int((sa.membership & sb.membership).sum())
        assert check_harris(sa, sb) == HarrisReport(
            n, sa.size, sb.size, inter, 3 ** n * inter >= sa.size * sb.size)


def test_zero_and_one_dimensional_borders_and_shifts():
    for memb in ([False], [True]):
        s = TernarySet(0, np.array(memb))
        assert border_counts(s, with_edges=True) == EdgeBorder((), ())
        assert border_counts(s) == EdgeBorder(())
        assert is_monotone(s) and shift_monotone(s) == s
        with pytest.raises(ValueError):
            edge_border(s, 0)
        with pytest.raises(ValueError):
            shift_coordinate(s, 0)
    # n = 1, every subset of {0, 1, 2}: edges (tail, direction, head digit)
    for code in range(8):
        s = TernarySet(1, np.array([code >> d & 1 for d in range(3)], dtype=bool))
        want = tuple((lo, 0, hi) for lo, hi in ((0, 1), (1, 2), (0, 2))
                     if lo in s and hi not in s)
        assert border_counts(s, with_edges=True) == EdgeBorder((len(want),), want)
        packed = TernarySet(1, np.arange(3) >= 3 - s.size)
        assert shift_coordinate(s, 0) == shift_monotone(s) == packed


@pytest.mark.parametrize("n", range(7))
def test_cached_tables_are_read_only(n):
    for frozen in (_PACK_FLOORS, TernarySet.full(n).membership):
        assert not frozen.flags.writeable
        with pytest.raises(ValueError):
            frozen[...] = 0


def test_line_view_borders_at_nine_dimensions():
    rng = np.random.default_rng(9)
    for p in (0.1, 0.5, 0.9):
        s = TernarySet(9, rng.random(3 ** 9) < p)
        want = border_counts_by_direction(s, with_edges=True)
        counts, edges = slow_border(s)
        assert list(want.counts) == counts and set(want.edges) == edges
        assert border_counts(s, with_edges=True) == want  # edges in the same order
        assert direction_counts(s).tolist() == counts
        assert [edge_border(s, i) for i in range(9)] == counts


def test_line_view_borders_at_twelve_dimensions():
    rng = np.random.default_rng(12)
    memb = rng.random((2, 3 ** 12)) < 0.5
    sets = [TernarySet(12, row) for row in memb]  # MAX_N bounds only from_indices
    want = [list(border_counts_by_direction(s).counts) for s in sets]
    assert [list(border_counts(s).counts) for s in sets] == want
    assert direction_counts(SetStack(12, memb)).tolist() == want


def test_borders_allocate_masks_not_tables():
    """A border at n = 10 allocates a few 3^10-byte masks per direction,
    for one set and for a stack of eight, and keeps nothing per n."""
    rng = np.random.default_rng(10)
    s = TernarySet(10, rng.random(3 ** 10) < 0.5)
    stack = SetStack(10, rng.random((8, 3 ** 10)) < 0.5)
    tracemalloc.start()
    try:
        border_counts(s)
        direction_counts(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
