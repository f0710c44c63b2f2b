"""Exact counts of a winner table, read one voter at a time as lines.

A table over the (m!)^n profiles of n voters lists one entry per profile
index, voter 0's ballot the least significant digit.  So
``table.reshape((m!)^(n-1-i), m!, (m!)^i)`` puts voter i's ballot on the
middle axis: a line along it holds the entries of the m! profiles that
differ only in voter i's ballot.  ``TableSpace`` makes every exact count of
a rule outside the tally engine from such reads, with the count methods of
``tallies.TallySpace``; it decodes no profile's digits.

Every read runs in blocks of at most ``_tables.BLOCK`` table entries, the
block size of the exact sweep too, cut on the leading axis, or on the
trailing one where a single leading row is larger, so a count holds little
beyond the table itself.  ``columns`` reads a stack of K tables of one n,
shape (K, 6^n), and one of its blocks may span several tables; a single
table is a stack of one.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from . import _tables


def blocks(table, base: int, i: int, k: int = 1):
    """Yield ``table`` viewed as (lead, base, ..., base, trail), the k
    ballot axes those of voters i + k - 1 down to i, in blocks of at most
    ``_tables.BLOCK`` entries; each block is a view."""
    view = table.reshape(-1, *(base,) * k, base ** i)
    lead, trail, mid = view.shape[0], view.shape[-1], base ** k
    cols = min(trail, max(1, _tables.BLOCK // mid))
    rows = max(1, _tables.BLOCK // (mid * cols))
    for r in range(0, lead, rows):
        for c in range(0, trail, cols):
            yield view[r:r + rows, ..., c:c + cols]


def count_equal(table, base: int, i: int, per_ballot) -> int:
    """The profiles whose entry is ``per_ballot[d]``, d the ballot of voter
    i."""
    per_ballot = np.asarray(per_ballot, table.dtype)[:, None]
    return sum(int(np.count_nonzero(block == per_ballot)) for block in blocks(table, base, i))


def _digit_map(values, vbase: int, k: int) -> np.ndarray:
    """sum_j values[d_j] · vbase^j at each of the len(values)^k profiles of
    k voters, in profile order (d_0 the least significant ballot)."""
    out = np.zeros(1, np.intp)
    for j in range(k):
        out = (np.asarray(values, np.intp)[:, None] * vbase ** j + out).ravel()
    return out


def mapped_rows(source, values, vbase: int, n: int):
    """Yield (profiles, block) over the profiles of n voters in order:
    ``block`` holds ``source[sum_v values[d_v] · vbase^v]`` at each profile
    of the slice ``profiles``, in rows of the base^w profiles of the low w
    voters (base = len(values)), one gather of source rows and one take
    along them.  With ``values`` a relabelling of the ballots, that reads a
    table at the relabelled profiles; with a pair's bits, a table over the
    pair's columns at each profile's column."""
    w = _tables.low_voters(len(values), n)
    high, low = _digit_map(values, vbase, n - w), _digit_map(values, vbase, w)
    rows = source.reshape(-1, vbase ** w)
    step = max(1, _tables.BLOCK // low.size)
    for lo in range(0, high.size, step):
        block = rows[high[lo:lo + step]].take(low, axis=1)
        yield slice(lo * low.size, lo * low.size + block.size), block


def _by_bit(x, order, k: int, summed: int):
    """Sum the (K, base^k · R) counts ``x`` over the ballots of their k
    leading voters, per voter those whose pair bit is 0 and then those
    whose bit is 1 (``order`` lists the ballots so); shape (K, 2^k · R),
    the first voter's bit the most significant.  The counts already sum
    ``summed`` voters' ballots, at most 3^summed each, and each step widens
    the dtype to what its sums need."""
    base, K = len(order), x.shape[0]
    for j in range(k):
        dtype = np.min_scalar_type(3 ** (summed + j + 1))
        x = x.reshape(K << j, base, -1)[:, order]
        x = x.reshape(K << j, 2, base // 2, -1).sum(2, dtype=dtype)
    return x.reshape(K, -1)


class TableSpace:
    """Exact counts over the (m!)^n profiles of an ``ScfTable``, read as
    lines; each is the count over profiles that ``rules`` and ``metrics``
    define.  The table is only read."""

    def __init__(self, table):
        self.n, self.m = table.n, table.m
        self.base = factorial(table.m)
        self.outputs = table.outputs

    def gains(self, voters) -> list[int]:
        """Per listed voter, the (profile, ballot) pairs at which the voter
        casting the ballot instead elects an alternative the voter ranks
        higher: from the joint histogram of the winners (x, y) of each
        ballot pair r < d on the voter's lines, at which a voter casting d
        gains by moving to r iff d prefers x to y, and one casting r iff r
        prefers y to x.  Only the listed voters' lines are read."""
        m, size = self.m, self.m * self.m
        first, second = np.triu_indices(self.base, 1)
        prefers = _tables.prefers(m)
        weight = (prefers[second] + prefers[first].transpose(0, 2, 1).astype(np.int64)).ravel()
        dtype = np.min_scalar_type(first.size * size - 1)
        offsets = (np.arange(first.size) * size).astype(dtype)[:, None]
        gains = []
        for i in voters:
            hist = np.zeros(first.size * size, np.int64)  # [pair, x, y]
            for block in blocks(self.outputs, self.base, i):
                code = block[:, first].astype(dtype, copy=False)
                code *= m
                code += block[:, second]
                code += offsets
                hist += np.bincount(code.ravel(), minlength=hist.size)
            gains.append(int(hist @ weight))
        return gains

    def structure(self) -> list:
        """``rules._diag_counts``' counts: per voter, the profiles electing
        other than the voter's top, then than its bottom; per alternative,
        the profiles electing it; the relabelling violations over the
        non-identity relabelings; and the violations of the n - 1 adjacent
        voter swaps."""
        perms, total = _tables.perms(self.m), self.outputs.size
        top, bottom = ([total - count_equal(self.outputs, self.base, i, perms[:, end])
                        for i in range(self.n)] for end in (0, -1))
        elected = sum(np.bincount(block.ravel(), minlength=self.m)
                      for block in blocks(self.outputs, self.base, 0))
        swapped = sum(self._swapped(i) for i in range(self.n - 1))
        return [*top, *bottom, *elected, self._relabelled(), swapped]

    def _swapped(self, i) -> int:
        """The profiles whose winner changes when voters i and i + 1 trade
        ballots."""
        return sum(int(np.count_nonzero(block != block.swapaxes(1, 2)))
                   for block in blocks(self.outputs, self.base, i, 2))

    def _relabelled(self) -> int:
        """The violations of F(pi o x) = pi(F(x)) over the non-identity
        relabelings pi.  Those of pi equal those of its inverse (put x =
        pi^-1 o y), so a relabeling and its inverse take one pass."""
        perms, act = _tables.perms(self.m), _tables.relabel_action(self.m)
        total = 0
        for q in range(1, self.base):
            inverse = int((act == np.argsort(act[q])).all(1).argmax())
            if inverse < q:
                continue
            relabel = perms[q].astype(np.uint8)
            count = sum(int(np.count_nonzero(block.ravel() != relabel[self.outputs[profiles]]))
                        for profiles, block in mapped_rows(self.outputs, act[q], self.base, self.n))
            total += count if inverse == q else 2 * count
        return total

    def columns(self, a, b) -> np.ndarray:
        """``metrics.column_stats``' counts (m = 3): per column z of the pair
        (a, b), the profiles electing a, then per column those electing b;
        ``columns`` of the table as a stack of one."""
        return columns(self.outputs[None], self.n, a, b)[0]


def columns(stack, n: int, a, b) -> np.ndarray:
    """Per table of the (K, 6^n) stack of winner tables of n voters (m = 3)
    and per column z of the pair (a, b), the profiles electing a, then per
    column those electing b; shape (K, 2^(n+1)), int64.  The stack is read
    as rows of the 6^w profiles of its low w voters, in blocks of whole
    rows: several tables' rows where a table is smaller than a block.  Each
    block sums its low voters' ballots by their pair bit, and the rows'
    sums then sum each table's high voters' ballots."""
    w = _tables.low_voters(6, n)
    order = np.argsort(_tables.pair_bit(3, a, b), kind="stable")
    rows = stack.reshape(-1, 6 ** w)
    per = np.empty((2, len(rows), 1 << w), np.min_scalar_type(3 ** w))  # [a or b, row, low z]
    step = max(1, _tables.BLOCK // rows.shape[1])
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        sides = np.stack([block == a, block == b], 1).reshape(2 * len(block), -1)
        per[:, lo:lo + len(block)] = _by_bit(sides, order, w, 0).reshape(
            len(block), 2, -1).swapaxes(0, 1)
    counts = _by_bit(per.reshape(2 * len(stack), -1), order, n - w, w)  # [a or b, table]
    return counts.reshape(2, len(stack), -1).swapaxes(0, 1).reshape(len(stack), -1).astype(np.int64)
