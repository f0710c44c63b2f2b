"""Slow reference implementations that the tests check the engines against.

They work through the object layer (``Profile``, ``LinearOrder``), read a
GSWF's tables at each profile's pairwise columns through
``orders.column_index`` themselves, or sweep profiles where the engine
they check reads only columns, so no oracle calls the outcome reader of the
engine it checks:

* ``profile_to_index``, ``PairwiseColumn``, ``pairwise_column``,
  ``TernaryVector``, ``decompose`` and ``compose``: the object-level
  encodings behind the array kernels of ``orders``;
* ``index_digits_divmod``: mixed-radix digits by repeated division, where
  ``_tables.index_digits`` unravels them with numpy;
* ``tr3_members`` and ``tr_member_tables``: every member of the
  always-transitive family at m = 3, with its explicit tables;
* ``gswf_disagreement``: the disagreement probability of two GSWFs;
* ``dist_tr3_bruteforce``: ``dist_tr3`` by minimizing over every member;
* ``dist_tr3_by_profiles``: ``dist_tr3``'s candidate scan by reading the
  output triple at every profile, where the engine reads one table of
  outcome codes by lines;
* ``ngcw_enumerated``: the exact no-GCW probability by visiting every
  profile, through the ``_no_gcw`` tally of the sampled path, where the
  exact engine reads only pairwise columns;
* ``wins_by_pairs`` and ``gswf_winners_by_argmax``: ``welfare._wins`` with
  one ``column_index`` read per pair, where the engine packs every pair's
  column into shared words, and the ``gswf_winner`` rule's winners as the
  argmax of those wins, where the rule writes each alternative where its
  row shows a GCW;
* ``plurality_by_top_counts``: plurality's per-voter and symmetry counts
  as a Python-int sum over the top counts (c0, c1, c2), where the tally
  engine weighs a histogram of packed words; it reaches any n;
* ``border_counts_by_direction``, ``shift_coordinate_by_lines`` and
  ``shift_monotone_by_lines``: lattice borders and shifts one direction at
  a time on reshaped lines, one set per call, where the engine takes a
  stack of sets, compares each line's tail and head digits and packs
  without intermediate sets;
* ``border_check_by_instance`` and ``shift_check_by_instance``: the
  ``border`` and ``shifting`` suite checks one descriptor at a time on
  those per-direction borders and shifts, where the suites check a block's
  sets as stacks, one dimension at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np

from votelab import _tables, sampling
from votelab.lattice import EDGE_STEPS, EdgeBorder, TernarySet
from votelab.orders import (LinearOrder, Profile, column_index, join_pair,
                            order_to_index, profile_digits)
from votelab.rules import BudgetError
from votelab.welfare import (PAIRS3, GswfIia, TrMember, _free_pair, _no_gcw,
                             anti_dictator_swf, dictator_swf)


# --- object-level encodings ----------------------------------------------

def profile_to_index(p: Profile) -> int:
    """Mixed-radix profile index, voter 0 least significant."""
    base = factorial(p.m)
    return sum(order_to_index(v) * base ** i for i, v in enumerate(p.voters))


def index_digits_divmod(idx, base: int, n: int) -> np.ndarray:
    """``_tables.index_digits`` by n divisions: shape (n, len(idx))."""
    rem = np.array(idx, dtype=np.int64, copy=True)
    quot = np.empty_like(rem)
    out = np.empty((n, rem.size), dtype=np.int64)
    for v in range(n):
        np.floor_divide(rem, base, out=quot)  # rem - base * (rem // base)
        np.multiply(quot, base, out=out[v])
        np.subtract(rem, out[v], out=out[v])
        rem, quot = quot, rem
    return out


@dataclass(frozen=True)
class PairwiseColumn:
    """Per-voter preference bits on one ordered pair; bit = 1 means the first
    alternative is preferred."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1: {bits}")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        return sum(b << v for v, b in enumerate(self.bits))

    def complement(self) -> "PairwiseColumn":
        return PairwiseColumn(tuple(1 - b for b in self.bits))

    @classmethod
    def from_index(cls, z: int, n: int) -> "PairwiseColumn":
        if not 0 <= z < 1 << n:
            raise ValueError(f"column index {z} out of range for n={n}")
        return cls(tuple(z >> v & 1 for v in range(n)))


def pairwise_column(p: Profile, a: int, b: int) -> PairwiseColumn:
    """Preference bits of the ordered pair (a, b), one per voter."""
    if a == b:
        raise ValueError("a pairwise column needs two distinct alternatives")
    return PairwiseColumn(tuple(int(v.prefers(a, b)) for v in p.voters))


@dataclass(frozen=True)
class TernaryVector:
    """Per-voter position codes of the third alternative relative to a pair."""

    digits: tuple[int, ...]

    def __post_init__(self):
        digits = tuple(int(d) for d in self.digits)
        if any(d not in (0, 1, 2) for d in digits):
            raise ValueError(f"digits must be in {{0,1,2}}: {digits}")
        object.__setattr__(self, "digits", digits)

    @property
    def n(self) -> int:
        return len(self.digits)

    @property
    def index(self) -> int:
        return sum(d * 3 ** v for v, d in enumerate(self.digits))

    @classmethod
    def from_index(cls, t: int, n: int) -> "TernaryVector":
        if not 0 <= t < 3 ** n:
            raise ValueError(f"point index {t} out of range for n={n}")
        return cls(tuple(t // 3 ** v % 3 for v in range(n)))


def decompose(p: Profile, a: int, b: int) -> tuple[PairwiseColumn, TernaryVector]:
    """Split an m=3 profile into its (a, b) column and the third alternative's
    position vector; lossless, see compose."""
    if p.m != 3:
        raise ValueError("the ternary decomposition requires m = 3")
    c = 3 - a - b
    column = pairwise_column(p, a, b)
    ternary = TernaryVector(tuple(v.ranking.index(c) for v in p.voters))
    return column, ternary


def compose(column: PairwiseColumn, ternary: TernaryVector, a: int, b: int) -> Profile:
    """Rebuild the unique m=3 profile with the given (a, b) column and third
    alternative positions."""
    if column.n != ternary.n:
        raise ValueError("column and ternary vector disagree on voter count")
    c = 3 - a - b
    voters = []
    for bit, d in zip(column.bits, ternary.digits):
        pair = [a, b] if bit else [b, a]
        pair.insert(d, c)
        voters.append(LinearOrder(tuple(pair)))
    return Profile(tuple(voters))


# --- the always-transitive family at m = 3 ------------------------------

# (pair, output bit) of the two pairs a top-fixed or bottom-fixed member fixes
_TOP_FIXED = {0: (((0, 1), 1), ((0, 2), 1)), 1: (((0, 1), 0), ((1, 2), 1)),
              2: (((0, 2), 0), ((1, 2), 0))}
_BOTTOM_FIXED = {0: (((0, 1), 0), ((0, 2), 0)), 1: (((0, 1), 1), ((1, 2), 0)),
                 2: (((0, 2), 1), ((1, 2), 1))}


def tr3_members(n: int):
    """Every member of the transitive family at m = 3: 2n (anti-)dictators
    plus all top/bottom-fixed functions over all 2^(2^n) free tables."""
    for i in range(n):
        yield TrMember("dictator", voter=i)
        yield TrMember("anti_dictator", voter=i)
    size = 1 << n
    for kind in ("top_fixed", "bottom_fixed"):
        for alt in range(3):
            free = _free_pair(alt)
            for code in range(1 << size):
                h = (code >> np.arange(size) & 1).astype(bool)
                yield TrMember(kind, alt=alt, free_pair=free, h=h)


def tr_member_tables(member: TrMember, n: int) -> GswfIia:
    """The explicit pairwise tables of a transitive-family member."""
    if member.kind == "dictator":
        return dictator_swf(member.voter, n)
    if member.kind == "anti_dictator":
        return anti_dictator_swf(member.voter, n)
    fixed = _TOP_FIXED if member.kind == "top_fixed" else _BOTTOM_FIXED
    tabs = np.empty((3, 1 << n), bool)
    slot = _tables.pair_slot(3)
    for pair, value in fixed[member.alt]:
        tabs[slot[pair]] = bool(value)
    tabs[slot[member.free_pair]] = np.asarray(member.h, dtype=bool)
    return GswfIia(3, n, tabs)


# --- GSWF distances -------------------------------------------------------

def _outputs(G: GswfIia, digits) -> np.ndarray:
    """G's output bit on each pair a < b at each profile; shape (pairs, S)."""
    return np.array([G.tables[slot][column_index(digits, a, b, G.m)]
                     for slot, (a, b) in enumerate(_tables.pair_list(G.m))])


def wins_by_pairs(G: GswfIia, digits, alts) -> np.ndarray:
    """Each alternative of ``alts``' victories over the others in ``alts``,
    one ``column_index`` read per pair; shape (len(alts), S)."""
    wins = np.zeros((len(alts), digits.shape[1]), np.int64)
    for i in range(len(alts)):
        for j in range(i + 1, len(alts)):
            bits = G.pairwise(alts[i], alts[j])[column_index(digits, alts[i], alts[j], G.m)]
            wins[i] += bits
            wins[j] += ~bits
    return wins


def gswf_winners_by_argmax(G: GswfIia, fallback: int, digits) -> np.ndarray:
    """The alternative with the most wins where it beats all m - 1 others,
    else the fallback voter's top, at each profile of ``digits``."""
    wins = wins_by_pairs(G, digits, range(G.m))
    tops = _tables.perms(G.m)[digits[fallback], 0]
    return np.where(wins.max(0) == G.m - 1, wins.argmax(0), tops)


def gswf_disagreement(G, H, granularity: str = "triple") -> Fraction:
    """Disagreement probability of two GSWFs over uniform profiles: the
    chance the full output triple differs, or the mean per-pair bit
    disagreement."""
    if (G.m, G.n) != (H.m, H.n):
        raise ValueError("GSWFs have different sizes")
    if granularity not in ("triple", "bits"):
        raise ValueError("granularity is 'triple' or 'bits'")
    total = factorial(G.m) ** G.n
    digits = profile_digits(np.arange(total), G.n, G.m)
    diff = _outputs(G, digits) != _outputs(H, digits)
    if granularity == "triple":
        return Fraction(int(diff.any(0).sum()), total)
    return Fraction(int(diff.sum()), total * diff.shape[0])


def dist_tr3_bruteforce(G):
    """Full minimization over every transitive-family member; exponential in
    2^n, so n <= 3 only."""
    if G.m != 3:
        raise ValueError("the transitive family search is defined for m = 3")
    n = G.n
    if n > 3:
        raise BudgetError("brute force enumerates all free tables; n <= 3 only")
    total = 6 ** n
    digits = profile_digits(np.arange(total), n)
    columns = [column_index(digits, a, b) for a, b in PAIRS3]
    outputs = np.array([table[z] for table, z in zip(G.tables, columns)])
    best = None
    for member in tr3_members(n):
        tabs = tr_member_tables(member, n).tables
        theirs = np.array([table[z] for table, z in zip(tabs, columns)])
        agree = int((theirs == outputs).all(0).sum())
        if best is None or agree > best[0]:
            best = (agree, member)
    return Fraction(total - best[0], total), best[1]


def dist_tr3_by_profiles(G):
    """``dist_tr3``'s distance and witness label from G's output triple at
    every profile, read through ``orders.column_index``: each candidate's
    agreements counted profile by profile, in ``dist_tr3``'s scan order."""
    n = G.n
    digits = profile_digits(np.arange(6 ** n), n)
    bits = _outputs(G, digits).astype(np.int64)  # pairs (0, 1), (0, 2), (1, 2)
    wins = np.array([bits[0] + bits[1], 1 - bits[0] + bits[2], 2 - bits[1] - bits[2]])
    ranked = 2 - _tables.rank_in_order(3).astype(np.int64)  # [ballot, alt]: the wins of its ranking
    agrees = []
    for ballots in digits:
        agrees += [int((wins == ranked[ballots].T).all(0).sum()),
                   int((wins == 2 - ranked[ballots].T).all(0).sum())]
    agrees += [int((row == 2).sum()) for row in wins] + [int((row == 0).sum()) for row in wins]
    best = int(np.argmax(agrees))
    if best < 2 * n:
        label = f"{('dictator', 'anti_dictator')[best % 2]}({best // 2})"
    else:
        kind, alt = divmod(best - 2 * n, 3)
        label = f"{('top_fixed', 'bottom_fixed')[kind]}({alt})"
    return Fraction(6 ** n - agrees[best], 6 ** n), label


# --- no-GCW counts by enumeration ----------------------------------------

def ngcw_enumerated(G) -> Fraction:
    """Probability that no alternative beats every other, from one exact
    ``sampling.count`` sweep over all (m!)^n profiles."""
    (count,), trials, _ = sampling.count(
        lambda digits: [_no_gcw(G, digits, range(G.m)).sum()], 1, G.n, G.m,
        mode="exact")
    return Fraction(int(count), trials)


# --- plurality by its top counts -----------------------------------------

def plurality_by_top_counts(n: int) -> dict:
    """Plurality's exact counts over the 6^n profiles at m = 3, from its top
    counts alone.  Each voter's ranking is a top and one of two orders of
    the rest, so k voters with top counts c cast k!/(c0!c1!c2!) · 2^k
    profiles; the winner is the first alternative of most tops.

    Returns, per voter (the same for all, plurality being anonymous):
    ``gains``, the (profile, ballot) pairs at which the ballot elects an
    alternative the voter ranks higher; ``top`` and ``bottom``, the
    profiles electing other than the voter's top, bottom.  Then
    ``elected``, the profiles electing each alternative; ``relabelled``,
    the violations of F(pi o x) = pi(F(x)) over the five non-identity
    relabelings pi; and ``swapped``, the adjacent voter-swap violations."""
    rankings = list(permutations(range(3)))  # top first

    def winner(c):
        return max(range(3), key=lambda a: (c[a], -a))

    def tops(k):  # (top counts of k voters, profiles behind them)
        return [((a, b, k - a - b),
                 factorial(k) // (factorial(a) * factorial(b) * factorial(k - a - b)) * 2 ** k)
                for a in range(k + 1) for b in range(k + 1 - a)]

    def plus(c, a):
        return tuple(x + (j == a) for j, x in enumerate(c))

    gains = top = bottom = 0
    for c, weight in tops(n - 1):  # the other voters; the voter casts r, or s instead
        for r in rankings:
            w = winner(plus(c, r[0]))
            top += weight * (w != r[0])
            bottom += weight * (w != r[2])
            gains += weight * sum(r.index(winner(plus(c, s[0]))) < r.index(w)
                                  for s in rankings)
    elected, relabelled = [0, 0, 0], 0
    for c, weight in tops(n):
        elected[winner(c)] += weight
        for pi in rankings[1:]:  # alternative a becomes pi[a]
            moved = [c[pi.index(a)] for a in range(3)]
            relabelled += weight * (winner(moved) != pi[winner(c)])
    return {"gains": gains, "top": top, "bottom": bottom, "elected": elected,
            "relabelled": relabelled, "swapped": 0}


# --- lattice borders and shifts, one direction at a time ------------------

def _lines(memb: np.ndarray, n: int, i: int) -> np.ndarray:
    """Membership reshaped to (prefix, digit_i, suffix) lines along direction i."""
    return memb.reshape(3 ** (n - 1 - i), 3, 3 ** i)


def direction_exits(s: TernarySet, i: int) -> np.ndarray:
    """Direction-i border edges as a mask of shape (step, prefix, suffix):
    entry [k, p, q] is set iff edge step EDGE_STEPS[k] leaves the set on the
    line (p, q)."""
    tails, heads = zip(*EDGE_STEPS)
    lines = _lines(s.membership, s.n, i)
    return (lines[:, tails] & ~lines[:, heads]).transpose(1, 0, 2)


def border_counts_by_direction(s: TernarySet, with_edges: bool = False) -> EdgeBorder:
    """``lattice.border_counts`` from one exit mask per direction."""
    counts = tuple(int(np.count_nonzero(direction_exits(s, i))) for i in range(s.n))
    if not with_edges:
        return EdgeBorder(counts)
    edges = []
    for i in range(s.n):
        for step, prefix, suffix in zip(*np.nonzero(direction_exits(s, i))):
            lo, hi = EDGE_STEPS[step]
            edges.append((int(prefix * 3 ** (i + 1) + lo * 3 ** i + suffix), i, hi))
    return EdgeBorder(counts, tuple(edges))


def shift_coordinate_by_lines(s: TernarySet, i: int) -> TernarySet:
    """One shifting step: pack each direction-i line into its top slots."""
    lines = _lines(s.membership, s.n, i)
    k = lines.sum(1)
    packed = np.empty_like(lines)
    packed[:, 2] = k >= 1
    packed[:, 1] = k >= 2
    packed[:, 0] = k == 3
    return TernarySet(s.n, packed.reshape(-1))


def shift_monotone_by_lines(s: TernarySet) -> TernarySet:
    """The full shift as n sets, one per direction."""
    for i in range(s.n):
        s = shift_coordinate_by_lines(s, i)
    return s


# --- the border and shifting suite checks, one instance at a time ---------

def _set_of_points(n: int, points) -> TernarySet:
    memb = np.zeros(3 ** n, dtype=bool)
    memb[list(points)] = True
    return TernarySet(n, memb)


def sets_ab_by_column(scf, a: int, b: int, column: int, n: int):
    """``lattice.sets_ab`` of one column, from its own profiles' winners."""
    winners = np.asarray(scf.winners_from_digits(join_pair(column, np.arange(3 ** n),
                                                           n, a, b)))
    return TernarySet(n, winners == a), TernarySet(n, winners == b)


def border_check_by_instance(desc, borders=border_counts_by_direction):
    """The ``border`` suite's (holds, detail) of one descriptor."""
    from votelab.suites import build_scf
    n = desc["n"]
    if desc["source"] == "scf":
        A, B = sets_ab_by_column(build_scf(desc["scf"]), *desc["pair"], desc["column"], n)
    else:
        A, B = _set_of_points(n, desc["a_indices"]), _set_of_points(n, desc["b_indices"])
    assert not (A.membership & B.membership).any()
    lhs = 3 ** n * (borders(A).total + borders(B).total)
    rhs = A.size * B.size
    return (True, {}) if lhs >= rhs else (False, {"lhs": str(lhs), "rhs": str(rhs)})


def shift_check_by_instance(desc, shift=shift_monotone_by_lines,
                            borders=border_counts_by_direction):
    """The ``shifting`` suite's (holds, detail) of one descriptor, testing
    its four conditions in order and reporting the first that fails."""
    s = _set_of_points(desc["n"], desc["indices"])
    t = shift(s)
    if t.size != s.size:
        return False, {"reason": "size changed", "before": s.size, "after": t.size}
    after = borders(t)
    if after.total:
        return False, {"reason": "result not monotone"}
    before = borders(s).counts
    if any(a > b for a, b in zip(after.counts, before)):
        return False, {"reason": "a border direction grew",
                       "before": list(before), "after": list(after.counts)}
    moved = int((t.membership & ~s.membership).sum())
    if moved > sum(before):
        return False, {"reason": "moved more cells than the border size",
                       "moved": moved, "border": sum(before)}
    return True, {}
