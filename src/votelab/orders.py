"""Canonical encodings of rankings and profiles, and the array kernels that
read profiles as digit blocks: profile indices, the exact sweep over all
profiles (in blocks of ``_tables.BLOCK`` profiles, each decoding only
its period indices), pairwise column indices (one
``_tables.voter_fields`` sum) and their popcounts, and the m=3 split of a
profile into one pair's column and the third alternative's positions
(``split_pair``, inverted by ``join_pair``).

Conventions, normative for file formats and profile indices:

* rankings are listed top-first and enumerated lexicographically, so index 0
  is ``(0, 1, ..., m-1)`` and index ``m! - 1`` is its reverse;
* a profile of ``n`` rankings is a mixed-radix number with voter 0 as the
  least significant digit;
* the pairwise column of ``(a, b)`` has bit ``v`` set iff voter ``v`` prefers
  ``a`` to ``b``, packed with voter 0 as bit 0;
* at ``m = 3`` a voter's ranking, given its pair bit, is determined by the
  position of the remaining alternative ``c``: digit 0 puts ``c`` above both,
  1 between, 2 below both (ternary point index packs voter 0 first).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import _tables


@dataclass(frozen=True)
class LinearOrder:
    """A strict ranking of ``m`` alternatives, most preferred first."""

    ranking: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(int(x) for x in self.ranking))
        if sorted(self.ranking) != list(range(len(self.ranking))):
            raise ValueError(f"not a permutation of 0..{len(self.ranking) - 1}: {self.ranking}")

    @property
    def m(self) -> int:
        return len(self.ranking)

    @property
    def top(self) -> int:
        return self.ranking[0]

    @property
    def bottom(self) -> int:
        return self.ranking[-1]

    def prefers(self, a: int, b: int) -> bool:
        return self.ranking.index(a) < self.ranking.index(b)

    def relabel(self, pi) -> "LinearOrder":
        """Apply the alternative relabeling a -> pi[a]."""
        return LinearOrder(tuple(pi[x] for x in self.ranking))

    def reverse(self) -> "LinearOrder":
        return LinearOrder(self.ranking[::-1])


@dataclass(frozen=True)
class Profile:
    """One LinearOrder per voter, all over the same alternatives."""

    voters: tuple[LinearOrder, ...]

    def __post_init__(self):
        voters = tuple(v if isinstance(v, LinearOrder) else LinearOrder(tuple(v))
                       for v in self.voters)
        object.__setattr__(self, "voters", voters)
        if not voters:
            raise ValueError("a profile needs at least one voter")
        if len({v.m for v in voters}) != 1:
            raise ValueError("all voters must rank the same alternatives")

    @property
    def n(self) -> int:
        return len(self.voters)

    @property
    def m(self) -> int:
        return self.voters[0].m

    def replace(self, i: int, order: LinearOrder) -> "Profile":
        return Profile(self.voters[:i] + (order,) + self.voters[i + 1:])

    def relabel(self, pi) -> "Profile":
        return Profile(tuple(v.relabel(pi) for v in self.voters))


def order_from_index(k: int, m: int = 3) -> LinearOrder:
    """The k-th ranking under lexicographic enumeration of top-first sequences."""
    if not 0 <= k < factorial(m):
        raise ValueError(f"order index {k} out of range for m={m}")
    avail = list(range(m))
    ranking = []
    for v in range(m - 1, -1, -1):
        q, k = divmod(k, factorial(v))
        ranking.append(avail.pop(q))
    return LinearOrder(tuple(ranking))


def order_to_index(order: LinearOrder) -> int:
    """Inverse of order_from_index."""
    ranking = order.ranking if isinstance(order, LinearOrder) else tuple(order)
    avail = sorted(ranking)
    k = 0
    for v, x in enumerate(ranking):
        k += avail.index(x) * factorial(len(ranking) - 1 - v)
        avail.remove(x)
    return k


def profile_from_index(idx: int, n: int, m: int = 3) -> Profile:
    base = factorial(m)
    if not 0 <= idx < base ** n:
        raise ValueError(f"profile index {idx} out of range for n={n}, m={m}")
    voters = []
    for _ in range(n):
        idx, k = divmod(idx, base)
        voters.append(order_from_index(k, m))
    return Profile(tuple(voters))


# Array kernels used by the metric engines.  Profiles travel as "digit"
# arrays of shape (n, S): one ranking index per voter per profile.

def profile_block(profile: Profile) -> np.ndarray:
    """The digit array of one profile; shape (n, 1)."""
    return np.array([[order_to_index(v)] for v in profile.voters])


def profile_digits(idx, n: int, m: int = 3) -> np.ndarray:
    """Per-voter ranking indices of each profile index; shape (n, len(idx))."""
    return _tables.index_digits(idx, factorial(m), n)


def profile_chunks(n: int, m: int = 3):
    """Yield (lo, hi, digits) blocks covering all (m!)^n profile indices in
    order, each of at most ``_tables.BLOCK`` profiles; ``digits`` is
    read-only.

    A block is a run of whole periods of (m!)^k profiles, k the
    ``_tables.low_voters`` whose profiles fit one block.  Its low k rows
    are written by broadcasting, since digit v steps every (m!)^v
    profiles, and only its period indices are decoded into its other rows,
    which are constant across each period.  Nothing is kept across sweeps.
    """
    base = factorial(m)
    k = _tables.low_voters(base, n)
    period = base ** k
    periods, per = base ** (n - k), _tables.BLOCK // period
    for first in range(0, periods, per):
        count = min(per, periods - first)
        digits = np.empty((n, count, period), np.int64)
        for v in range(k):
            digits[v].reshape(count, -1, base, base ** v)[:] = np.arange(base)[:, None]
        digits[k:] = _tables.index_digits(np.arange(first, first + count), base,
                                          n - k)[:, :, None]
        digits = digits.reshape(n, count * period)
        digits.setflags(write=False)
        yield first * period, (first + count) * period, digits


def column_index(digits, a: int, b: int, m: int = 3) -> np.ndarray:
    """Pairwise column index of (a, b) for every profile; shape (S,)."""
    return _tables.voter_fields(_tables.pair_bit(m, a, b)[:, None], digits, 1)[0]


# Most voters of a table over all 2^n pairwise columns: it is built from
# int64 column arrays of 8 * 2^n bytes (512 MiB at n = 26), while the exact
# engines that read it stop at n = 20, the tally engine's cap.
MAX_COLUMN_VOTERS = 26


def column_count(n: int) -> int:
    """2^n, the number of pairwise columns of n voters; a ValueError past
    MAX_COLUMN_VOTERS, before any table over the columns is allocated."""
    if n > MAX_COLUMN_VOTERS:
        raise ValueError(f"a 2^n-column table takes at most {MAX_COLUMN_VOTERS} voters, got n={n}")
    return 1 << n


def voter_bits(i: int, n: int) -> np.ndarray:
    """Voter i's bit in every one of the 2^n column indices."""
    if not 0 <= i < n:
        raise ValueError(f"voter {i} out of range for n={n}")
    return (np.arange(column_count(n)) >> i & 1).astype(bool)


def column_popcounts(n: int) -> np.ndarray:
    """The number of voters with their bit set in each of the 2^n column
    indices."""
    counts = np.zeros(column_count(n), np.intp)
    for v in range(n):  # columns 2^v..2^(v+1)-1 add voter v to 0..2^v-1
        counts[1 << v:2 << v] = counts[:1 << v] + 1
    return counts


def column_complement(n: int) -> np.ndarray:
    """Index of the complemented column (every voter flipped) of each column."""
    size = column_count(n)
    return (size - 1) ^ np.arange(size)


def split_pair(digits, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and ternary point indices of m=3 profiles; both shape
    (S,).  Inverse of join_pair."""
    digs = _tables.third_digit3(a, b)[digits]
    return column_index(digits, a, b), _tables.digits_index(digs, 3)


def join_pair(z, t, n: int, a: int, b: int) -> np.ndarray:
    """Ranking-digit array of the profiles with column(s) z and ternary points t."""
    t = np.atleast_1d(np.asarray(t, dtype=np.int64))
    z = np.broadcast_to(np.asarray(z, dtype=np.int64), t.shape)
    zbits = _tables.index_digits(z, 2, n)
    tdigs = _tables.index_digits(t, 3, n)
    return _tables.order_of_bit_digit3(a, b)[zbits, tdigs]
