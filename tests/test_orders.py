"""Ranking, profile, and pair-splitting encodings."""

from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelab import _tables, orders
from votelab._tables import digits_index, index_digits
from votelab.orders import (
    LinearOrder,
    Profile,
    column_popcounts,
    join_pair,
    order_from_index,
    order_to_index,
    profile_chunks,
    profile_digits,
    profile_from_index,
    split_pair,
    voter_bits,
)

from oracles import (PairwiseColumn, TernaryVector, compose, decompose, index_digits_divmod,
                     pairwise_column, profile_to_index)

PAIRS = ((0, 1), (0, 2), (1, 2))


def test_order_index_is_top_first_lexicographic():
    assert order_from_index(0).ranking == (0, 1, 2)
    assert order_from_index(1).ranking == (0, 2, 1)
    assert order_from_index(2).ranking == (1, 0, 2)
    assert order_from_index(3).ranking == (1, 2, 0)
    assert order_from_index(4).ranking == (2, 0, 1)
    assert order_from_index(5).ranking == (2, 1, 0)


def test_order_round_trip_all_m():
    from math import factorial
    for m in (3, 4, 5):
        seen = set()
        for k in range(factorial(m)):
            o = order_from_index(k, m)
            assert order_to_index(o) == k
            seen.add(o.ranking)
        assert len(seen) == factorial(m)


def test_order_helpers():
    o = order_from_index(3)  # (1, 2, 0)
    assert o.top == 1 and o.bottom == 0
    assert o.prefers(1, 0) and o.prefers(2, 0) and not o.prefers(0, 2)
    assert o.reverse().ranking == (0, 2, 1)
    # relabeling by pi maps alternative a to pi[a]
    assert o.relabel((2, 0, 1)).ranking == (0, 1, 2)


def test_bad_rankings_rejected():
    with pytest.raises(ValueError):
        LinearOrder((0, 0, 1))
    with pytest.raises(ValueError):
        LinearOrder((0, 1, 3))
    with pytest.raises(ValueError):
        order_from_index(6)


def test_profile_index_voter_zero_least_significant():
    p = profile_from_index(3 + 5 * 6, 2)
    assert order_to_index(p.voters[0]) == 3
    assert order_to_index(p.voters[1]) == 5
    assert profile_to_index(p) == 33


def test_profile_round_trip_n3():
    for idx in range(216):
        assert profile_to_index(profile_from_index(idx, 3)) == idx


def test_profile_replace_and_relabel():
    p = profile_from_index(7, 2)
    q = p.replace(1, order_from_index(0))
    assert q.voters[0] == p.voters[0]
    assert q.voters[1].ranking == (0, 1, 2)
    r = p.relabel((1, 2, 0))
    assert all(rv.ranking == tuple((1, 2, 0)[a] for a in pv.ranking)
               for pv, rv in zip(p.voters, r.voters))


def test_pairwise_column_bits_and_complement():
    p = Profile((order_from_index(0), order_from_index(3), order_from_index(5)))
    col = pairwise_column(p, 0, 1)
    assert col.bits == (True, False, False)
    assert col.index == 1
    assert col.complement().bits == (False, True, True)
    assert PairwiseColumn.from_index(5, 3).bits == (True, False, True)


def test_decompose_compose_round_trip_all_pairs():
    for idx in range(216):
        p = profile_from_index(idx, 3)
        for a, b in PAIRS:
            col, ter = decompose(p, a, b)
            assert compose(col, ter, a, b) == p


def test_decompose_semantics():
    # voter ranks (1, 2, 0): for pair (0, 2), prefers 2; third alt 1 on top
    p = Profile((order_from_index(3),))
    col, ter = decompose(p, 0, 2)
    assert col.bits == (False,)
    assert ter.digits == (0,)
    # third alternative between: (2, 1, 0) for pair (0, 2)
    col2, ter2 = decompose(Profile((order_from_index(5),)), 0, 2)
    assert ter2.digits == (1,)
    # third alternative below both: (0, 2, 1) for pair (0, 2)
    col3, ter3 = decompose(Profile((order_from_index(1),)), 0, 2)
    assert ter3.digits == (2,)


def test_ternary_vector_round_trip():
    for t in range(27):
        assert TernaryVector.from_index(t, 3).index == t


def test_array_kernels_match_object_layer():
    idx = np.arange(216)
    digits = profile_digits(idx, 3)
    assert digits.shape == (3, 216)
    back = digits_index(digits, 6)
    assert (back == idx).all()
    for a, b in PAIRS:
        z, t = split_pair(digits, a, b)
        joined = digits_index(join_pair(z, t, 3, a, b), 6)
        assert (joined == idx).all()
        for i in (0, 17, 215):
            col, ter = decompose(profile_from_index(i, 3), a, b)
            assert col.index == int(z[i])
            assert ter.index == int(t[i])


@pytest.mark.parametrize("base", [2, 3, 6, 720])
def test_index_digits_equal_repeated_division(base):
    """numpy's unravelling gives the digits of n divisions, also where
    base^n passes the int64 range and for a lone index."""
    rng = np.random.default_rng(base)
    for n in range(1, 13):
        top = min(base ** n, 2 ** 63 - 1)
        idx = np.concatenate([[0, top - 1], rng.integers(0, top, size=200)])
        assert np.array_equal(index_digits(idx, base, n), index_digits_divmod(idx, base, n))
        single = int(idx[2])
        assert np.array_equal(index_digits(single, base, n),
                              index_digits_divmod(single, base, n))


def test_index_digits_of_join_pairs_broadcast_input():
    """``join_pair`` decodes one column broadcast against many points."""
    for n in (1, 4, 6):
        z = np.broadcast_to(np.int64((1 << n) - 2), (3 ** n,))
        assert np.array_equal(index_digits(z, 2, n), index_digits_divmod(z, 2, n))
        t = np.arange(3 ** n)
        assert np.array_equal(index_digits(t, 3, n), index_digits_divmod(t, 3, n))


@pytest.mark.parametrize("m,ks", [(2, (1, 3, 9)), (3, (1, 2, 4)), (4, (1, 2, 3))])
def test_digit_table_equals_decoded_indices(monkeypatch, m, ks):
    """The broadcast digit table equals decoding every index it covers, is
    read-only, and is rebuilt when a sweep needs more voters."""
    monkeypatch.setattr(orders, "_DIGIT_TABLES", {})
    base = factorial(m)
    for k in ks:
        table = orders._digit_table(m, k)
        assert table.shape == (k, base ** k) and table.dtype == np.int64
        assert np.array_equal(table, index_digits(np.arange(base ** k), base, k))
        assert not table.flags.writeable
    assert orders._digit_table(m, ks[0]) is table


def test_profile_chunks_cover_everything():
    seen = []
    for lo, hi, digits in profile_chunks(3):
        assert digits.shape == (3, hi - lo)
        seen.extend(digits_index(digits, 6).tolist())
    assert seen == list(range(216))


@pytest.mark.parametrize("n,m", [*((n, 3) for n in range(1, 8)), (3, 4), (4, 4), (2, 6),
                                 (17, 2)])
def test_sweep_blocks_equal_decoded_digits(n, m):
    """Blocks read from the digit table tile the index range in order, each
    equal to decoding its indices, read-only and within ``_tables.BLOCK``.
    The resident digit table is no wider than one block: at m = 2 and
    n = 17 it holds 16 voters' digits (8 MiB), not 17."""
    lo_expected, blocks = 0, 0
    for lo, hi, digits in profile_chunks(n, m):
        assert lo == lo_expected and 0 < hi - lo <= _tables.BLOCK
        assert np.array_equal(digits, profile_digits(np.arange(lo, hi), n, m))
        assert not digits.flags.writeable
        lo_expected, blocks = hi, blocks + 1
    assert lo_expected == factorial(m) ** n
    assert (blocks > 1) == (factorial(m) ** n > _tables.BLOCK)
    assert orders._DIGIT_TABLES[m].shape[1] <= _tables.BLOCK


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6 ** 4 - 1), st.sampled_from(PAIRS))
def test_join_inverts_split_n4(idx, pair):
    digits = profile_digits(np.array([idx]), 4)
    z, t = split_pair(digits, *pair)
    joined = digits_index(join_pair(z, t, 4, *pair), 6)
    assert int(joined[0]) == idx


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 23), st.integers(0, 23))
def test_order_round_trip_m4(k1, k2):
    p = Profile((order_from_index(k1, 4), order_from_index(k2, 4)))
    assert profile_to_index(p) == k1 + 24 * k2
    assert profile_from_index(k1 + 24 * k2, 2, 4) == p


@pytest.mark.parametrize("i", [3, -1])
def test_voter_bits_refuses_voters_outside_the_profile(i):
    with pytest.raises(ValueError, match=f"voter {i} out of range for n=3"):
        voter_bits(i, 3)


def test_column_popcounts_count_each_columns_voters():
    for n in range(13):
        assert column_popcounts(n).tolist() == [bin(z).count("1") for z in range(1 << n)]
