"""The ternary cube {0,1,2}^n: per-column winner sets, directed upper edge
borders, monotone shifting, and the two correlation inequalities.

Point index = sum of digit_i * 3^i.  The three directed edges per line are
0->1, 1->2, 0->2; a border edge has its tail inside the set and its head
outside.  All comparisons are exact integer arithmetic.

Borders of a set, in every direction at once, are one gather of its
membership at the tails and heads of a cached per-n edge table
(``_edge_table``: the tail and head point of each of the n 3^n directed
edges, as intp).  It takes 16 n 3^n bytes: 288 B at n = 2, 5,184 B at
n = 4 and 69,984 B at n = 6, the suites' largest n; 9.4 MB at n = 10 and
102 MB at n = 12.  Shifting packs the membership array one direction at
a time and builds one set at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .metrics import _check_pairs
from .orders import join_pair
from .rules import resolve_n

EDGE_STEPS = ((0, 1), (1, 2), (0, 2))
DENSITIES = (0.25, 0.5, 0.75)  # the membership densities random sets draw from


@dataclass(frozen=True, eq=False)
class TernarySet:
    """A subset of {0,1,2}^n as a membership indicator over point indices."""

    n: int
    membership: np.ndarray

    def __post_init__(self):
        memb = np.ascontiguousarray(self.membership, dtype=bool)
        if memb.shape != (3 ** self.n,):
            raise ValueError(f"need 3^{self.n} membership flags, got shape {memb.shape}")
        memb.setflags(write=False)
        object.__setattr__(self, "membership", memb)

    @classmethod
    def from_indices(cls, n: int, indices) -> "TernarySet":
        memb = np.zeros(3 ** n, dtype=bool)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= 3 ** n):
            raise ValueError("point index out of range")
        memb[idx] = True
        return cls(n, memb)

    @classmethod
    def empty(cls, n: int) -> "TernarySet":
        return cls(n, np.zeros(3 ** n, dtype=bool))

    @classmethod
    def full(cls, n: int) -> "TernarySet":
        return cls(n, np.ones(3 ** n, dtype=bool))

    @property
    def size(self) -> int:
        return int(self.membership.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.membership)

    def intersection_size(self, other: "TernarySet") -> int:
        return int((self.membership & other.membership).sum())

    def is_disjoint(self, other: "TernarySet") -> bool:
        return not (self.membership & other.membership).any()

    def __contains__(self, point: int) -> bool:
        return bool(self.membership[point])

    def __eq__(self, other):
        return (isinstance(other, TernarySet) and self.n == other.n
                and np.array_equal(self.membership, other.membership))


@dataclass(frozen=True)
class EdgeBorder:
    """Directed border sizes per direction, with an optional explicit edge
    list of (tail point, direction, head digit) triples."""

    counts: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...] | None = None

    @property
    def total(self) -> int:
        return sum(self.counts)


def _lines(memb: np.ndarray, n: int, i: int) -> np.ndarray:
    """Membership reshaped to (prefix, digit_i, suffix) lines along direction i."""
    return memb.reshape(3 ** (n - 1 - i), 3, 3 ** i)


@lru_cache(maxsize=None)
def _edge_table(n: int) -> np.ndarray:
    """Tail and head point of every directed edge, shape (2, n, step, 3^(n-1)):
    entry [0, i, k, r] is the tail and [1, i, k, r] the head of the edge of
    step EDGE_STEPS[k] in direction i on the line r = prefix * 3^i + suffix.
    Read-only."""
    points = np.arange(3 ** n)
    table = np.empty((2, n, 3, 3 ** n // 3), dtype=np.intp)
    for i in range(n):
        lines = _lines(points, n, i)
        for end, digits in enumerate(zip(*EDGE_STEPS)):
            table[end, i] = lines[:, digits].transpose(1, 0, 2).reshape(3, -1)
    table.setflags(write=False)
    return table


def edge_border(s: TernarySet, i: int) -> int:
    """Number of directed edges in direction i leaving the set."""
    if not 0 <= i < s.n:
        raise ValueError(f"direction {i} out of range for n={s.n}")
    tails, heads = _edge_table(s.n)[:, i]
    return int(np.count_nonzero(s.membership[tails] & ~s.membership[heads]))


def border_counts(s: TernarySet, with_edges: bool = False) -> EdgeBorder:
    """All per-direction border sizes, optionally with the explicit edges,
    listed by direction, then step, then line."""
    tails, heads = _edge_table(s.n)
    exits = s.membership[tails] & ~s.membership[heads]
    counts = tuple(np.count_nonzero(exits, axis=(1, 2)).tolist())
    if not with_edges:
        return EdgeBorder(counts)
    direction, step, line = np.nonzero(exits)
    points = tails[direction, step, line].tolist()
    head_digits = [EDGE_STEPS[k][1] for k in step.tolist()]
    return EdgeBorder(counts, tuple(zip(points, direction.tolist(), head_digits)))


def border_total(s: TernarySet) -> int:
    return border_counts(s).total


def is_monotone(s: TernarySet) -> bool:
    """True iff membership never drops when any single digit increases; a
    0->2 exit implies a 0->1 or a 1->2 exit, so this is an empty border."""
    return border_total(s) == 0


# digit d of a packed line is set iff the line has more than 2 - d members
_PACK_FLOORS = np.array([[2], [1], [0]])
_PACK_FLOORS.setflags(write=False)


def _pack(memb: np.ndarray, n: int, i: int) -> np.ndarray:
    """Each direction-i line's members moved to its top slots, flat."""
    k = _lines(memb, n, i).sum(1, keepdims=True)
    return (k > _PACK_FLOORS).reshape(-1)


def shift_coordinate(s: TernarySet, i: int) -> TernarySet:
    """One shifting step: pack each direction-i line into its top slots."""
    if not 0 <= i < s.n:
        raise ValueError(f"direction {i} out of range for n={s.n}")
    return TernarySet(s.n, _pack(s.membership, s.n, i))


def shift_monotone(s: TernarySet) -> TernarySet:
    """The full n-step shift; same cardinality, monotone in every coordinate."""
    memb = s.membership
    for i in range(s.n):
        memb = _pack(memb, s.n, i)
    return TernarySet(s.n, memb)


def random_set(n: int, seed=None, rng=None, p=None) -> TernarySet:
    """A random subset; density p defaults to a seeded draw from DENSITIES."""
    if rng is None:
        rng = np.random.default_rng(seed)
    if p is None:
        p = rng.choice(DENSITIES)
    return TernarySet(n, rng.random(3 ** n) < p)


@dataclass(frozen=True)
class BorderReport:
    """Exact-integer verdict of the disjoint-set border inequality."""

    n: int
    size_a: int
    size_b: int
    border_a: int
    border_b: int
    holds: bool

    @property
    def lhs(self) -> int:
        return 3 ** self.n * (self.border_a + self.border_b)

    @property
    def rhs(self) -> int:
        return self.size_a * self.size_b


def check_border_inequality(a: TernarySet, b: TernarySet) -> BorderReport:
    """Check 3^n (|dA| + |dB|) >= |A| |B| for disjoint A, B."""
    if a.n != b.n:
        raise ValueError("sets live in different dimensions")
    if not a.is_disjoint(b):
        raise ValueError("sets must be disjoint")
    ba, bb = border_total(a), border_total(b)
    holds = 3 ** a.n * (ba + bb) >= a.size * b.size
    return BorderReport(a.n, a.size, b.size, ba, bb, holds)


@dataclass(frozen=True)
class HarrisReport:
    """Exact-integer verdict of positive correlation of monotone sets."""

    n: int
    size_a: int
    size_b: int
    size_intersection: int
    holds: bool

    @property
    def lhs(self) -> int:
        return 3 ** self.n * self.size_intersection

    @property
    def rhs(self) -> int:
        return self.size_a * self.size_b


def check_harris(a: TernarySet, b: TernarySet) -> HarrisReport:
    """Check 3^n |A  ^ B| >= |A| |B| for monotone A, B."""
    if a.n != b.n:
        raise ValueError("sets live in different dimensions")
    if not is_monotone(a) or not is_monotone(b):
        raise ValueError("both sets must be monotone")
    inter = a.intersection_size(b)
    holds = 3 ** a.n * inter >= a.size * b.size
    return HarrisReport(a.n, a.size, b.size, inter, holds)


def sets_ab(scf, a: int, b: int, column: int, n=None) -> tuple[TernarySet, TernarySet]:
    """The winner sets A, B over completions of the (a, b) column with index
    ``column`` (bit v = voter v prefers a to b): point v is in A iff the
    profile with that column and third-alternative positions v elects a
    (B likewise for b)."""
    _check_pairs(scf, [(a, b)], "winner sets")
    z = int(column)
    n = resolve_n(scf, n)
    if not 0 <= z < 1 << n:
        raise ValueError(f"column index {z} out of range for n={n}")
    digits = join_pair(z, np.arange(3 ** n), n, a, b)
    winners = np.asarray(scf.winners_from_digits(digits))
    return (TernarySet(n, winners == a), TernarySet(n, winners == b))
