"""The ternary cube {0,1,2}^n: per-column winner sets, directed upper edge
borders, monotone shifting, and the two correlation inequalities.

Point index = sum of digit_i * 3^i.  The three directed edges per line are
0->1, 1->2, 0->2; a border edge has its tail inside the set and its head
outside.  All comparisons are exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _exits(s: TernarySet, i: int) -> np.ndarray:
    """Direction-i border edges as a mask of shape (step, prefix, suffix):
    entry [k, p, q] is set iff edge step EDGE_STEPS[k] leaves the set on the
    line (p, q)."""
    tails, heads = zip(*EDGE_STEPS)
    lines = _lines(s.membership, s.n, i)
    return (lines[:, tails] & ~lines[:, heads]).transpose(1, 0, 2)


def edge_border(s: TernarySet, i: int) -> int:
    """Number of directed edges in direction i leaving the set."""
    if not 0 <= i < s.n:
        raise ValueError(f"direction {i} out of range for n={s.n}")
    return int(np.count_nonzero(_exits(s, i)))


def border_counts(s: TernarySet, with_edges: bool = False) -> EdgeBorder:
    """All per-direction border sizes, optionally with the explicit edges."""
    counts = tuple(edge_border(s, i) for i in range(s.n))
    if not with_edges:
        return EdgeBorder(counts)
    edges = []
    for i in range(s.n):
        for step, prefix, suffix in zip(*np.nonzero(_exits(s, i))):
            lo, hi = EDGE_STEPS[step]
            edges.append((int(prefix * 3 ** (i + 1) + lo * 3 ** i + suffix), i, hi))
    return EdgeBorder(counts, tuple(edges))


def border_total(s: TernarySet) -> int:
    return border_counts(s).total


def is_monotone(s: TernarySet) -> bool:
    """True iff membership never drops when any single digit increases; a
    0->2 exit implies a 0->1 or a 1->2 exit, so this is an empty border."""
    return border_total(s) == 0


def shift_coordinate(s: TernarySet, i: int) -> TernarySet:
    """One shifting step: pack each direction-i line into its top slots."""
    if not 0 <= i < s.n:
        raise ValueError(f"direction {i} out of range for n={s.n}")
    lines = _lines(s.membership, s.n, i)
    k = lines.sum(1)
    packed = np.empty_like(lines)
    packed[:, 2] = k >= 1
    packed[:, 1] = k >= 2
    packed[:, 0] = k == 3
    return TernarySet(s.n, packed.reshape(-1))


def shift_monotone(s: TernarySet) -> TernarySet:
    """The full n-step shift; same cardinality, monotone in every coordinate."""
    for i in range(s.n):
        s = shift_coordinate(s, i)
    return s


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
