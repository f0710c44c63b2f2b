# Cached permutation tables shared across modules, and the one owner of the
# profile layout's block size and packed per-voter sum.

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np


def _frozen(a):
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def perms(m):
    """All m! rankings of m alternatives, top choice first, lexicographic order."""
    return _frozen(np.array(list(permutations(range(m))), dtype=np.int8))


@lru_cache(maxsize=None)
def rank_in_order(m):
    """rank_in_order(m)[k, a] = position of alternative a in ranking k (0 = top)."""
    p = perms(m)
    r = np.empty_like(p)
    r[np.arange(len(p))[:, None], p] = np.arange(m, dtype=np.int8)[None, :]
    return _frozen(r)


@lru_cache(maxsize=None)
def prefers(m):
    """prefers(m)[k, a, b] = True iff ranking k places a above b."""
    r = rank_in_order(m)
    return _frozen(r[:, :, None] < r[:, None, :])


@lru_cache(maxsize=None)
def relabel_action(m):
    """relabel_action(m)[q, k] = ranking index obtained by applying alternative
    relabeling perms(m)[q] to ranking k."""
    p = perms(m).tolist()
    index_of = {tuple(row): i for i, row in enumerate(p)}
    act = np.empty((len(p), len(p)), dtype=np.int32)
    for q, pi in enumerate(p):
        for k, row in enumerate(p):
            act[q, k] = index_of[tuple(pi[x] for x in row)]
    return _frozen(act)


@lru_cache(maxsize=None)
def pair_bit(m, a, b):
    """pair_bit(m, a, b)[k] = 1 iff ranking k places a above b."""
    return _frozen(prefers(m)[:, a, b].astype(np.int64))


# m = 3 pair helpers: a ranking splits into (pair bit, position of the third
# alternative), the latter being 0 = above both, 1 = between, 2 = below both.

@lru_cache(maxsize=None)
def third_digit3(a, b):
    """third_digit3(a, b)[k] = position code of the remaining alternative in ranking k."""
    c = 3 - a - b
    return _frozen(rank_in_order(3)[:, c].astype(np.int64))


@lru_cache(maxsize=None)
def order_of_bit_digit3(a, b):
    """Inverse of (pair_bit(3, a, b), third_digit3): [bit, digit] -> m=3 ranking index."""
    out = np.empty((2, 3), dtype=np.int64)
    bits, digs = pair_bit(3, a, b), third_digit3(a, b)
    for k in range(6):
        out[bits[k], digs[k]] = k
    return _frozen(out)


@lru_cache(maxsize=None)
def pair_list(m):
    """Unordered alternative pairs (a < b) in lexicographic order."""
    return tuple(combinations(range(m), 2))


@lru_cache(maxsize=None)
def pair_slot(m):
    return {p: i for i, p in enumerate(pair_list(m))}


def index_digits(idx, base, n):
    """Mixed-radix digits of each index; shape (n, len(idx)), digit 0 least
    significant.  numpy unravels the k digits whose place values fit int64;
    an int64 index has one more at most."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    k = next(k for k in range(n + 1) if k == n or base ** (k + 1) >= 1 << 63)
    out = np.zeros((n, idx.size), np.int64)
    out[k:k + 1], low = np.divmod(idx, base ** k)
    if k:
        out[:k] = np.unravel_index(low, (base,) * k, order="F")
    return out


BLOCK = 1 << 16  # the most profiles, or table entries, that one read holds


def low_voters(base: int, n: int) -> int:
    """The most voters, up to n, whose base^k profiles fit one block."""
    k = 0
    while k < n and base ** (k + 1) <= BLOCK:
        k += 1
    return k


def _word_sum(word, digits, shift) -> np.ndarray:
    """sum_v word[digits[v]] << shift·v, the last voter first: one gather
    and one add (and one shift) per voter."""
    acc = word[digits[-1]]  # a fresh array, so summed in place
    for row in digits[-2::-1]:
        if shift:
            acc <<= shift
        acc += word[row]
    return acc


def voter_fields(fields, digits, shift=0) -> np.ndarray:
    """The (F, S) int64 sums over voters v of ``fields[digits[v]] << shift·v``.

    ``fields`` is an (m!, F) table of nonnegative ints and ``digits`` an
    (n, S) block of ranking indices.  Each field gets just enough bits to
    hold its largest possible sum, and as many fields as fit below the sign
    bit share one int64 word, so the sums take one gather and one add (and
    one shift) per voter and word.  With shift 1, a field of pair bits sums
    to the pair's column index (voter 0 as bit 0).
    """
    fields = np.asarray(fields, dtype=np.int64)
    nfields = fields.shape[1]
    if nfields == 1:  # nothing to pack
        return _word_sum(fields[:, 0], digits, shift)[None]
    n, count = digits.shape
    bits = max(int(fields.max(initial=0)) * sum(1 << shift * v for v in range(n)), 1).bit_length()
    per, mask = 63 // bits, (1 << bits) - 1
    sums = np.empty((nfields, count), np.int64)
    for lo in range(0, nfields, per):
        group = fields[:, lo:lo + per]
        acc = _word_sum((group << (bits * np.arange(group.shape[1]))).sum(1), digits, shift)
        for j in range(group.shape[1]):
            sums[lo + j] = acc >> (bits * j) & mask
    return sums


def digits_index(digits, base):
    """Inverse of index_digits."""
    digits = np.asarray(digits, dtype=np.int64)
    idx = np.zeros(digits.shape[1:], dtype=np.int64)
    for v in range(digits.shape[0] - 1, -1, -1):
        idx *= base
        idx += digits[v]
    return idx
