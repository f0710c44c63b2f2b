"""The ternary cube {0,1,2}^n: per-column winner sets, directed upper edge
borders, monotone shifting, and the two correlation inequalities.

Point index = sum of digit_i * 3^i.  The three directed edges per line are
0->1, 1->2, 0->2; a border edge has its tail inside the set and its head
outside.  All comparisons are exact integer arithmetic.

Borders and shifts run on stacked memberships: a ``SetStack`` holds K
subsets of one cube as a (K, 3^n) array, and the kernels take a
``TernarySet`` as a stack of one.  Both read the membership one direction
at a time as lines (``_lines``): a border compares each line's tail and
head digits, and a shift packs each line into its top slots.  Nothing is
kept per n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import _check_pairs
from .orders import join_pair
from .rules import resolve_n

EDGE_STEPS = ((0, 1), (1, 2), (0, 2))
DENSITIES = (0.25, 0.5, 0.75)  # the membership densities random sets draw from
# Largest dimension a set is built in from its points: a suite block stacks
# up to 128 membership rows of 3^n bytes (7.6 MB at n = 10) and a descriptor
# lists up to 3^n points, while every suite stays at n <= 6.
MAX_N = 10


def check_integer(value, what: str, lo=None, hi=None) -> int:
    """value as an int, if it is an integer (a bool is not one) and, given
    bounds, in lo..hi; a one-line ValueError naming ``what`` otherwise."""
    span = "" if lo is None else f" in {lo}..{hi}"
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (lo is not None and not lo <= value <= hi)):
        raise ValueError(f"{what} must be an integer{span}, got {value!r}")
    return int(value)


def check_dimension(n) -> int:
    """n itself, if it is an integer in 0..MAX_N; a ValueError otherwise."""
    return check_integer(n, "lattice dimension", 0, MAX_N)


def _integers(values, what: str) -> np.ndarray:
    """values as int64; a ValueError unless numpy reads them as integers."""
    z = np.asarray(values)
    if z.size and z.dtype.kind not in "iu":  # numpy reads [] as float
        raise ValueError(f"{what} must be integers, got {z.dtype} values")
    return z.astype(np.int64, copy=False)


def _scatter(n, index_lists) -> np.ndarray:
    """(K, 3^n) membership stack with row k set at the points index_lists[k]."""
    n = check_dimension(n)
    idx = [_integers(points, "point indices") for points in index_lists]
    if any(points.ndim != 1 for points in idx):
        raise ValueError("point indices must be a flat list")
    lengths = [len(points) for points in idx]
    flat = np.concatenate(idx) if idx else np.zeros(0, np.int64)
    if flat.size and (flat.min() < 0 or flat.max() >= 3 ** n):
        raise ValueError("point index out of range")
    memb = np.zeros((len(idx), 3 ** n), dtype=bool)
    memb[np.repeat(np.arange(len(idx)), lengths), flat] = True
    return memb


def _freeze_membership(s, ndim: int) -> None:
    """Store s.membership as a read-only boolean array of ndim axes whose
    last axis holds the 3^n points."""
    memb = np.ascontiguousarray(s.membership, dtype=bool)
    if memb.ndim != ndim or memb.shape[-1] != 3 ** s.n:
        raise ValueError(f"need 3^{s.n} membership flags per set, got shape {memb.shape}")
    memb.setflags(write=False)
    object.__setattr__(s, "membership", memb)


@dataclass(frozen=True, eq=False)
class TernarySet:
    """A subset of {0,1,2}^n as a membership indicator over point indices."""

    n: int
    membership: np.ndarray

    def __post_init__(self):
        _freeze_membership(self, 1)

    @classmethod
    def from_indices(cls, n: int, indices) -> "TernarySet":
        return cls(n, _scatter(n, [indices])[0])

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
        return self.membership.nonzero()[0]

    def intersection_size(self, other: "TernarySet") -> int:
        return int((self.membership & other.membership).sum())

    def is_disjoint(self, other: "TernarySet") -> bool:
        return not (self.membership & other.membership).any()

    def __contains__(self, point: int) -> bool:
        return bool(self.membership[point])

    def __eq__(self, other):
        return (isinstance(other, TernarySet) and self.n == other.n
                and np.array_equal(self.membership, other.membership))


@dataclass(frozen=True, eq=False)
class SetStack:
    """K subsets of {0,1,2}^n as a (K, 3^n) membership stack, one row per
    set.  ``direction_counts``, ``border_total``, ``shift_monotone`` and
    ``check_border_inequality`` take a stack as they take a set, row by row."""

    n: int
    membership: np.ndarray

    def __post_init__(self):
        _freeze_membership(self, 2)

    @classmethod
    def from_indices(cls, n: int, index_lists) -> "SetStack":
        """Row k holds the points index_lists[k]."""
        return cls(n, _scatter(n, index_lists))

    @property
    def size(self) -> np.ndarray:
        return np.count_nonzero(self.membership, axis=1)

    def is_disjoint(self, other: "SetStack") -> bool:
        """True iff each row is disjoint from the same row of the other stack."""
        return not (self.membership & other.membership).any()


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
    """Membership reshaped to (..., prefix, digit_i, suffix) lines along
    direction i; leading axes index the sets of a stack."""
    return memb.reshape(*memb.shape[:-1], 3 ** (n - 1 - i), 3, 3 ** i)


def _exits(memb: np.ndarray, n: int, i: int) -> np.ndarray:
    """Direction-i exit mask of each set of a membership stack, shape
    (..., prefix, step, suffix): set where the edge of step EDGE_STEPS[k] on
    line (prefix, suffix) has its tail in the set and its head outside."""
    lines = _lines(memb, n, i)
    tails, heads = zip(*EDGE_STEPS)
    return lines[..., tails, :] > lines[..., heads, :]


def edge_border(s: TernarySet, i: int) -> int:
    """Number of directed edges in direction i leaving the set."""
    if not 0 <= i < s.n:
        raise ValueError(f"direction {i} out of range for n={s.n}")
    return int(np.count_nonzero(_exits(s.membership, s.n, i)))


def direction_counts(s) -> np.ndarray:
    """Border size per direction: shape (n,) for a set, (K, n) for a stack."""
    counts = np.empty((*s.membership.shape[:-1], s.n), np.intp)
    for i in range(s.n):
        counts[..., i] = _exits(s.membership, s.n, i).sum((-3, -2, -1))
    return counts


def border_counts(s: TernarySet, with_edges: bool = False) -> EdgeBorder:
    """All per-direction border sizes, optionally with the explicit edges,
    listed by direction, then step, then line (prefix * 3^i + suffix)."""
    counts = tuple(direction_counts(s).tolist())
    if not with_edges:
        return EdgeBorder(counts)
    edges = []
    for i in range(s.n):
        step, prefix, suffix = np.nonzero(np.moveaxis(_exits(s.membership, s.n, i), 1, 0))
        tail, head = np.array(EDGE_STEPS)[step].T
        points = (3 * prefix + tail) * 3 ** i + suffix
        edges += zip(points.tolist(), [i] * len(step), head.tolist())
    return EdgeBorder(counts, tuple(edges))


def border_total(s):
    """Border size of a set, or an array of one per set of a stack."""
    total = direction_counts(s).sum(-1)
    return int(total) if total.ndim == 0 else total


def is_monotone(s: TernarySet) -> bool:
    """True iff membership never drops when any single digit increases; a
    0->2 exit implies a 0->1 or a 1->2 exit, so this is an empty border."""
    return border_total(s) == 0


# digit d of a packed line is set iff the line has more than 2 - d members
_PACK_FLOORS = np.array([[2], [1], [0]])
_PACK_FLOORS.setflags(write=False)


def _pack(memb: np.ndarray, n: int, i: int) -> np.ndarray:
    """Each direction-i line's members moved to its top slots, in the shape
    of ``memb`` (a set's membership or a stack's)."""
    k = _lines(memb, n, i).sum(-2, keepdims=True)
    return (k > _PACK_FLOORS).reshape(memb.shape)


def shift_coordinate(s: TernarySet, i: int) -> TernarySet:
    """One shifting step: pack each direction-i line into its top slots."""
    if not 0 <= i < s.n:
        raise ValueError(f"direction {i} out of range for n={s.n}")
    return TernarySet(s.n, _pack(s.membership, s.n, i))


def shift_monotone(s):
    """The full n-step shift of a set, or of each set of a stack (returned
    as the same kind); same cardinality, monotone in every coordinate."""
    memb = s.membership
    for i in range(s.n):
        memb = _pack(memb, s.n, i)
    return type(s)(s.n, memb)


def random_set(n: int, seed=None, rng=None, p=None) -> TernarySet:
    """A random subset; density p defaults to a seeded draw from DENSITIES,
    indexed by ``rng.integers(0, 3)``: the call ``rng.choice(DENSITIES)``
    makes, so the stream and the set are those of ``choice``, without its
    per-call conversion of DENSITIES to an array."""
    if rng is None:
        rng = np.random.default_rng(seed)
    if p is None:
        p = DENSITIES[rng.integers(0, len(DENSITIES))]
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


def check_border_inequality(a, b) -> BorderReport:
    """Check 3^n (|dA| + |dB|) >= |A| |B| for disjoint A, B.  Two stacks
    are checked row by row; the report's fields are then arrays."""
    if a.n != b.n:
        raise ValueError("sets live in different dimensions")
    if not a.is_disjoint(b):
        raise ValueError("sets must be disjoint")
    ba, bb, sa, sb = border_total(a), border_total(b), a.size, b.size
    return BorderReport(a.n, sa, sb, ba, bb, 3 ** a.n * (ba + bb) >= sa * sb)


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


def sets_ab(scf, a: int, b: int, column, n=None):
    """The winner sets A, B over completions of the (a, b) column with index
    ``column`` (bit v = voter v prefers a to b): point v is in A iff the
    profile with that column and third-alternative positions v elects a
    (B likewise for b).  For a sequence of column indices, A and B are
    stacks with one row per column."""
    _check_pairs(scf, [(a, b)], "winner sets")
    z = _integers(column, "column indices")
    n = resolve_n(scf, n)
    bad = z[(z < 0) | (z >= 1 << n)]
    if bad.size:
        raise ValueError(f"column index {bad.flat[0]} out of range for n={n}")
    points = np.broadcast_to(np.arange(3 ** n), (*z.shape, 3 ** n))
    digits = join_pair(np.broadcast_to(z[..., None], points.shape), points, n, a, b)
    winners = np.asarray(scf.winners_from_digits(digits)).reshape(points.shape)
    kind = TernarySet if z.ndim == 0 else SetStack
    return kind(n, winners == a), kind(n, winners == b)
