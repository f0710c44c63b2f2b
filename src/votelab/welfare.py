"""Pairwise social welfare functions with independence of irrelevant
alternatives, the SCF <-> GSWF reductions, transitivity and Condorcet-winner
probabilities, distances to the always-transitive families, neutral tensor
constructions, and the cross-size identities they satisfy."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _tables, sampling
from .metrics import (MetricReport, column_stats, count_report, exact_report,
                      sampled_report)
from .orders import (Profile, column_complement, column_index, order_to_index,
                     profile_digits, voter_bits)
from .rules import ScfRule, _diag_counts, is_neutral, register_rule, resolve_n
from .sampling import BudgetError

PAIRS3 = _tables.pair_list(3)


@dataclass(frozen=True, eq=False)
class GswfIia:
    """A pairwise welfare function: one Boolean table per unordered pair.

    ``tables[slot(a, b)][z] = 1`` means a is socially preferred to b when
    column z (bit v = voter v prefers a to b) describes the electorate.
    Independence of irrelevant alternatives holds by representation.
    """

    m: int
    n: int
    tables: np.ndarray

    def __post_init__(self):
        tabs = np.ascontiguousarray(self.tables, dtype=bool)
        want = (len(_tables.pair_list(self.m)), 1 << self.n)
        if tabs.shape != want:
            raise ValueError(f"need table shape {want}, got {tabs.shape}")
        tabs.setflags(write=False)
        object.__setattr__(self, "tables", tabs)

    def pairwise(self, a: int, b: int) -> np.ndarray:
        """Output bits over all 2^n columns of the ordered pair (a, b); the
        (b, a) query is the complement at the complemented column."""
        if a == b or not (0 <= a < self.m and 0 <= b < self.m):
            raise ValueError(f"bad pair ({a}, {b}) for m={self.m}")
        if a < b:
            return self.tables[_tables.pair_slot(self.m)[(a, b)]]
        return ~self.tables[_tables.pair_slot(self.m)[(b, a)]][column_complement(self.n)]

    def __eq__(self, other):
        return (isinstance(other, GswfIia) and self.m == other.m
                and self.n == other.n and np.array_equal(self.tables, other.tables))

    def __ne__(self, other):
        return not self.__eq__(other)


def _boolean_table(g) -> tuple[np.ndarray, int]:
    """g as a Boolean array over 2^n columns, with n."""
    g = np.asarray(g, dtype=bool)
    size = g.shape[0]
    if g.ndim != 1 or size & (size - 1):
        raise ValueError("g must be a table over 2^n columns")
    return g, size.bit_length() - 1


def is_odd(g) -> bool:
    """True iff g(complement(z)) = 1 - g(z) for every column z."""
    g, n = _boolean_table(g)
    return bool((g[column_complement(n)] == ~g).all())


def neutral_tensor(g, m: int) -> GswfIia:
    """The fully neutral GSWF: all C(m,2) pairwise tables equal to the odd
    function g."""
    g, n = _boolean_table(g)
    if not is_odd(g):
        raise ValueError("the pairwise rule of a neutral GSWF must be odd")
    return GswfIia(m, n, np.tile(g, (len(_tables.pair_list(m)), 1)))


def majority_g(n: int) -> np.ndarray:
    """Simple-majority bits over all columns; n must be odd."""
    if n % 2 == 0:
        raise ValueError("majority needs an odd voter count")
    z = np.arange(1 << n)
    ones = np.zeros(1 << n, np.int64)
    for v in range(n):
        ones += z >> v & 1
    return 2 * ones > n


def random_odd_g(n: int, seed) -> np.ndarray:
    """A seeded uniform odd Boolean table over 2^n columns."""
    size = 1 << n
    comp = column_complement(n)
    lower = np.arange(size) < comp
    bits = np.random.default_rng(seed).integers(0, 2, size=size).astype(bool)
    return np.where(lower, bits, ~bits[comp])


def random_iia_gswf(n: int, m: int, seed) -> GswfIia:
    """A seeded uniform IIA GSWF (independent random pairwise tables)."""
    pairs = len(_tables.pair_list(m))
    tabs = np.random.default_rng(seed).integers(0, 2, size=(pairs, 1 << n)).astype(bool)
    return GswfIia(m, n, tabs)


def dictator_swf(i: int, n: int, m: int = 3) -> GswfIia:
    """Every pairwise output copies voter i's preference bit."""
    if not 0 <= i < n:
        raise ValueError(f"voter {i} out of range for n={n}")
    return neutral_tensor(voter_bits(i, n), m)


def anti_dictator_swf(i: int, n: int, m: int = 3) -> GswfIia:
    """Every pairwise output negates voter i's preference bit."""
    if not 0 <= i < n:
        raise ValueError(f"voter {i} out of range for n={n}")
    return neutral_tensor(~voter_bits(i, n), m)


def is_neutral_gswf(G) -> bool:
    """True iff relabeling alternatives commutes with the output: all pair
    tables equal one odd function."""
    first = G.tables[0]
    if any(not np.array_equal(t, first) for t in G.tables[1:]):
        return False
    return is_odd(first)


def restrict_gswf(G, subset) -> GswfIia:
    """Keep only the pairwise tables inside a subset of alternatives."""
    subset = sorted(set(int(a) for a in subset))
    if len(subset) < 2:
        raise ValueError("a restriction needs at least two alternatives")
    if subset[0] < 0 or subset[-1] >= G.m:
        raise ValueError("alternative out of range")
    slot = _tables.pair_slot(G.m)
    rows = [slot[(subset[i], subset[j])]
            for i in range(len(subset)) for j in range(i + 1, len(subset))]
    return GswfIia(len(subset), G.n, G.tables[rows])


# --- evaluation engines ------------------------------------------------

def _triple3(G: GswfIia, digits):
    return tuple(G.tables[slot][column_index(digits, a, b)]
                 for slot, (a, b) in enumerate(PAIRS3))


def _cyclic_mask(G: GswfIia, digits) -> np.ndarray:
    t01, t02, t12 = _triple3(G, digits)
    return (t01 & ~t02 & t12) | (~t01 & t02 & ~t12)


def _wins(G: GswfIia, digits, alts) -> np.ndarray:
    """Pairwise victories of each of the increasing alternatives ``alts``
    over the others in ``alts``; shape (len(alts), S).  Only the pairs
    inside ``alts`` are evaluated."""
    alts = tuple(alts)
    slot = _tables.pair_slot(G.m)
    wins = np.zeros((len(alts), digits.shape[1]), np.int8)
    for i, j in _tables.pair_list(len(alts)):
        a, b = alts[i], alts[j]
        bits = G.tables[slot[(a, b)]][column_index(digits, a, b, G.m)]
        wins[i] += bits
        wins[j] += ~bits
    return wins


def nt(G, *, mode="auto", samples=None, seed=None, workers=1) -> MetricReport:
    """Probability of a cyclic output triple (m = 3 only)."""
    if G.m != 3:
        raise ValueError("cyclicity is a three-alternative notion; use ngcw")
    (count,), trials, mode = sampling.count(
        lambda digits: [_cyclic_mask(G, digits).sum()], 1, G.n, 3, mode=mode,
        samples=samples, seed=seed, workers=workers)
    return count_report("nt", (), count, trials, mode, seed)


def ngcw(G, *, mode="auto", samples=None, seed=None, workers=1) -> MetricReport:
    """Probability that no alternative beats every other."""
    (count,), trials, mode = sampling.count(
        lambda digits: [(_wins(G, digits, range(G.m)).max(0) < G.m - 1).sum()],
        1, G.n, G.m, mode=mode, samples=samples, seed=seed, workers=workers)
    return count_report("ngcw", (), count, trials, mode, seed)


def gcw(G, **kw) -> MetricReport:
    """Probability that a generalized Condorcet winner exists (1 - ngcw)."""
    r = ngcw(G, **kw)
    if r.mode == "exact":
        return exact_report("gcw", (), r.den - r.num, r.den)
    return sampled_report("gcw", (), r.samples - r.num, r.samples, r.ci95,
                          r.samples, r.seed)


def gcw_winner_at(G, profile: Profile):
    """The unique alternative beating all others at one profile, or None."""
    digits = np.array([[order_to_index(v)] for v in profile.voters])
    if digits.shape[0] != G.n:
        raise ValueError(f"profile has {digits.shape[0]} voters, G expects {G.n}")
    wins = _wins(G, digits, range(G.m))[:, 0]
    best = int(wins.argmax())
    return best if wins[best] == G.m - 1 else None


# --- the two constructions ---------------------------------------------

def gswf_from_scf(scf, tie_voter: int = 0, n=None) -> GswfIia:
    """Per pair and column, prefer the alternative elected by more
    completions; break exact ties with the tie voter's column bit."""
    n = resolve_n(scf, n)
    if scf.m != 3:
        raise ValueError("the construction is defined for m = 3")
    tie = _tie_bits(tie_voter, n)
    return _gswf_from_stats([column_stats(scf, a, b, n) for a, b in PAIRS3], tie)


def _tie_bits(tie_voter: int, n: int) -> np.ndarray:
    """The tie voter's bit in every column."""
    if not 0 <= tie_voter < n:
        raise ValueError(f"tie voter {tie_voter} out of range for n={n}")
    return voter_bits(tie_voter, n)


def _gswf_from_stats(stats, tie) -> GswfIia:
    """gswf_from_scf from the ColumnStats of the pairs PAIRS3, in order."""
    tabs = [(st.count_a > st.count_b) | ((st.count_a == st.count_b) & tie) for st in stats]
    return GswfIia(3, stats[0].n, np.array(tabs))


@register_rule("gswf_winner", ("gswf", "fallback_voter"))
def _eval_gswf_winner(rule, digits):
    G = rule.params["gswf"]
    fallback = rule.params["fallback_voter"]
    if digits.shape[0] != G.n:
        raise ValueError(f"G expects n={G.n}, got {digits.shape[0]} voter rows")
    wins = _wins(G, digits, range(G.m))
    best = wins.argmax(0)
    tops = _tables.perms(G.m)[digits[fallback], 0]
    return np.where(wins.max(0) == G.m - 1, best, tops)


def scf_from_gswf(G, fallback_voter: int = 0) -> ScfRule:
    """The SCF electing the generalized Condorcet winner when it exists,
    else the fallback voter's top choice."""
    if G.m != 3:
        raise ValueError("the converse construction is defined for m = 3")
    if not 0 <= fallback_voter < G.n:
        raise ValueError(f"fallback voter {fallback_voter} out of range for n={G.n}")
    return ScfRule("gswf_winner", G.m, gswf=G, fallback_voter=fallback_voter)


# --- distances ---------------------------------------------------------

def dist_dict2(g):
    """Distance of a Boolean table to the nearest (anti-)dictator bit, with
    the witness (kind, voter)."""
    g, n = _boolean_table(g)
    size = g.shape[0]
    best = None
    for i in range(n):
        bit = voter_bits(i, n)
        for kind, bad in (("dictator", int((g != bit).sum())),
                          ("anti_dictator", int((g == bit).sum()))):
            cand = (Fraction(bad, size), (kind, i))
            if best is None or cand[0] < best[0]:
                best = cand
    return best


@dataclass(frozen=True, eq=False)
class TrMember:
    """A member of the always-transitive family: a dictator, an
    anti-dictator, or a function fixing one alternative at the top or the
    bottom with a free table h on the remaining pair."""

    kind: str
    voter: int | None = None
    alt: int | None = None
    free_pair: tuple[int, int] | None = None
    h: np.ndarray | None = None

    @property
    def label(self) -> str:
        if self.kind in ("dictator", "anti_dictator"):
            return f"{self.kind}({self.voter})"
        return f"{self.kind}({self.alt})"


_TOP_FIXED = {0: (((0, 1), 1), ((0, 2), 1)), 1: (((0, 1), 0), ((1, 2), 1)),
              2: (((0, 2), 0), ((1, 2), 0))}
_BOTTOM_FIXED = {0: (((0, 1), 0), ((0, 2), 0)), 1: (((0, 1), 1), ((1, 2), 0)),
                 2: (((0, 2), 1), ((1, 2), 1))}


def _free_pair(alt: int) -> tuple[int, int]:
    others = [x for x in range(3) if x != alt]
    return (others[0], others[1])


def tr_member_tables(member: TrMember, n: int) -> GswfIia:
    """The explicit pairwise tables of a transitive-family member."""
    if member.kind == "dictator":
        return dictator_swf(member.voter, n)
    if member.kind == "anti_dictator":
        return anti_dictator_swf(member.voter, n)
    size = 1 << n
    fixed = _TOP_FIXED if member.kind == "top_fixed" else _BOTTOM_FIXED
    tabs = np.empty((3, size), bool)
    slot = _tables.pair_slot(3)
    for pair, value in fixed[member.alt]:
        tabs[slot[pair]] = bool(value)
    tabs[slot[member.free_pair]] = np.asarray(member.h, dtype=bool)
    return GswfIia(3, n, tabs)


def _tr3_agreement_masks(G: GswfIia, digits):
    """Per-candidate agreement masks in fixed scan order; the free pair of a
    top/bottom candidate agrees for free by choosing h = G's own table."""
    t01, t02, t12 = _triple3(G, digits)
    n = digits.shape[0]
    cands = []
    for i in range(n):
        b01 = _tables.pair_bit(3, 0, 1)[digits[i]].astype(bool)
        b02 = _tables.pair_bit(3, 0, 2)[digits[i]].astype(bool)
        b12 = _tables.pair_bit(3, 1, 2)[digits[i]].astype(bool)
        cands.append((TrMember("dictator", voter=i),
                      (t01 == b01) & (t02 == b02) & (t12 == b12)))
        cands.append((TrMember("anti_dictator", voter=i),
                      (t01 != b01) & (t02 != b02) & (t12 != b12)))
    top = {0: t01 & t02, 1: ~t01 & t12, 2: ~t02 & ~t12}
    bottom = {0: ~t01 & ~t02, 1: t01 & ~t12, 2: t02 & t12}
    slot = _tables.pair_slot(3)
    for kind, masks in (("top_fixed", top), ("bottom_fixed", bottom)):
        for alt in range(3):
            free = _free_pair(alt)
            member = TrMember(kind, alt=alt, free_pair=free,
                              h=G.tables[slot[free]].copy())
            cands.append((member, masks[alt]))
    return cands


def dist_tr3(G):
    """Distance (triple-level disagreement probability) to the nearest
    always-transitive member, with the minimizer.

    The anti-dictator candidate requires all three output bits flipped; a
    top-fixed (bottom-fixed) candidate requires only its two constrained
    pairs to favor (disfavor) the fixed alternative, because its free-pair
    table may be chosen pointwise equal to G's own."""
    if G.m != 3:
        raise ValueError("the transitive family search is defined for m = 3")
    members = []

    def tally(digits):
        cands = _tr3_agreement_masks(G, digits)
        members[:] = [member for member, _ in cands]
        return [mask.sum() for _, mask in cands]

    agrees, total, _ = sampling.count(tally, 2 * G.n + 6, G.n, 3, mode="exact")
    best = int(agrees.argmax())  # first maximum: deterministic scan order
    return Fraction(total - int(agrees[best]), total), members[best]


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


def gswf_disagreement(G, H, granularity: str = "triple") -> Fraction:
    """Disagreement probability of two GSWFs over uniform profiles: the
    chance the full output triple differs, or the mean per-pair bit
    disagreement."""
    if (G.m, G.n) != (H.m, H.n):
        raise ValueError("GSWFs have different sizes")
    if granularity not in ("triple", "bits"):
        raise ValueError("granularity is 'triple' or 'bits'")
    m = G.m
    pairs = _tables.pair_list(m)

    def tally(digits):
        diff = np.zeros(digits.shape[1], np.int64)
        for slot, (a, b) in enumerate(pairs):
            z = column_index(digits, a, b, m)
            diff += G.tables[slot][z] != H.tables[slot][z]
        return [(diff > 0).sum() if granularity == "triple" else diff.sum()]

    (count,), total, _ = sampling.count(tally, 1, G.n, m, mode="exact")
    return Fraction(int(count), total * (1 if granularity == "triple" else len(pairs)))


def dist_tr3_bruteforce(G):
    """Full minimization over every transitive-family member; exponential in
    2^n, intended as the n <= 3 cross-check of dist_tr3."""
    if G.m != 3:
        raise ValueError("the transitive family search is defined for m = 3")
    n = G.n
    if n > 3:
        raise BudgetError("brute force enumerates all free tables; n <= 3 only")
    digits = profile_digits(np.arange(6 ** n), n)
    t01, t02, t12 = _triple3(G, digits)
    z01, z02, z12 = (column_index(digits, a, b) for a, b in PAIRS3)
    total = 6 ** n
    best = None
    for member in tr3_members(n):
        tabs = tr_member_tables(member, n).tables
        agree = int(((tabs[0][z01] == t01) & (tabs[1][z02] == t02)
                     & (tabs[2][z12] == t12)).sum())
        if best is None or agree > best[0]:
            best = (agree, member)
    return Fraction(total - best[0], total), best[1]


# --- identities across alternative counts ------------------------------

def _se(report: MetricReport) -> float:
    return 0.0 if report.mode == "exact" else report.ci95 / sampling.Z95


def _check_linear(lhs: MetricReport, terms) -> tuple[float, float, bool]:
    """(gap, tol, holds) of the identity lhs = sum of num * r / den over the
    terms (num, r, den): Fraction equality with tol 0 when every report is
    exact, else a gap within 3 standard errors."""
    gap = abs(lhs.value - sum(num * r.value / den for num, r, den in terms))
    if all(r.mode == "exact" for r in (lhs, *(r for _, r, _ in terms))):
        return gap, 0.0, lhs.fraction == sum(num * r.fraction / den for num, r, den in terms)
    var = _se(lhs) ** 2
    for num, r, den in terms:
        var += (num * _se(r) / den) ** 2
    tol = 3.0 * var ** 0.5
    return gap, tol, gap <= tol


@dataclass(frozen=True)
class CompositionReport:
    """Joint no-GCW probability over two disjoint alternative blocks versus
    the product of the per-block probabilities."""

    m1: int
    m2: int
    joint: MetricReport
    left: MetricReport
    right: MetricReport
    gap: float
    tol: float
    holds: bool


def check_composition(g, m1: int = 3, m2: int = 3, *, mode="auto",
                      samples=None, seed=None, workers=1) -> CompositionReport:
    """Verify independence of the no-GCW events of the first m1 and last m2
    alternatives under the neutral tensor of g."""
    m = m1 + m2
    tensor = neutral_tensor(g, m)
    blocks = (range(m1), range(m1, m))
    left = ngcw(restrict_gswf(tensor, blocks[0]))
    # the restrictions of a neutral tensor to blocks of one size are equal
    right = left if m1 == m2 else ngcw(restrict_gswf(tensor, blocks[1]))

    def tally(digits):
        both = np.ones(digits.shape[1], bool)
        for block in blocks:
            both &= _wins(tensor, digits, block).max(0) < len(block) - 1
        return [both.sum()]

    (count,), trials, mode = sampling.count(tally, 1, tensor.n, m, mode=mode,
                                            samples=samples, seed=seed, workers=workers)
    joint = count_report("ngcw_joint", (), count, trials, mode, seed)
    product = left.fraction * right.fraction
    rhs = exact_report("ngcw_product", (), product.numerator, product.denominator)
    return CompositionReport(m1, m2, joint, left, right, *_check_linear(joint, [(1, rhs, 1)]))


@dataclass(frozen=True)
class IdentityReport:
    """The two cross-size identities of a neutral tensor plus the block
    composition check.

    In GCW form the identities read GCW_4 = 2 GCW_3 - 1 and
    GCW_5 = GCW_6 / 3 + 5 GCW_3 / 3 - 1; both are stated here in the
    equivalent no-GCW form (ngcw_4 = 2 ngcw_3, ngcw_5 = ngcw_6 / 3 +
    5 ngcw_3 / 3)."""

    ngcw3: MetricReport
    ngcw4: MetricReport
    four_gap: float
    four_tol: float
    four_holds: bool
    four_exact: bool
    ngcw5: MetricReport
    ngcw6: MetricReport
    five_gap: float
    five_tol: float
    five_holds: bool
    composition: CompositionReport

    @property
    def holds(self) -> bool:
        return self.four_holds and self.five_holds and self.composition.holds


def check_identities(g, *, mode="auto", samples=None, seed=None,
                     workers=1) -> IdentityReport:
    """Evaluate the tensor of g at m = 3..6 and verify the cross-size
    identities, exactly where the budget allows."""
    reports = {}
    for m in (3, 4, 5, 6):
        reports[m] = ngcw(neutral_tensor(g, m), mode=mode, samples=samples,
                          seed=seed, workers=workers)
    r3, r4, r5, r6 = (reports[m] for m in (3, 4, 5, 6))
    four_exact = r3.mode == "exact" and r4.mode == "exact"
    comp = check_composition(g, 3, 3, mode=mode, samples=samples, seed=seed,
                             workers=workers)
    return IdentityReport(r3, r4, *_check_linear(r4, [(2, r3, 1)]), four_exact,
                          r5, r6, *_check_linear(r5, [(1, r6, 3), (5, r3, 3)]), comp)


# --- the full reduction chain ------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """Exact verdicts of the manipulation -> transitivity reduction chain
    for one SCF: NT(G) <= sum of minority preferences <= 3 sqrt(eps1), and
    dist(G, transitive family) >= eps2 - 3 sqrt(eps1), with square roots
    compared by squaring."""

    eps1: Fraction
    eps2: Fraction
    dist_dict: Fraction
    dist_anti: Fraction
    range_min: Fraction
    mab_reports: tuple[MetricReport, ...]
    nab_reports: tuple[MetricReport, ...]
    nt_report: MetricReport
    G: GswfIia
    dist: Fraction
    member: TrMember
    g_is_neutral: bool
    scf_is_neutral: bool
    nt_le_sum_nab: bool
    cauchy_each: bool
    sum_nab_sq_le_9eps1: bool
    dist_bound: bool

    @property
    def holds(self) -> bool:
        return (self.nt_le_sum_nab and self.cauchy_each
                and self.sum_nab_sq_le_9eps1 and self.dist_bound)


def check_reduction_chain(scf, tie_voter: int = 0, n=None) -> ChainReport:
    """Build G from the SCF and verify the chain in exact arithmetic."""
    n = resolve_n(scf, n)
    scf = scf.as_table(n)  # one rule evaluation per profile for all sweeps below
    tie = _tie_bits(tie_voter, n)
    stats = [column_stats(scf, a, b, n) for a, b in PAIRS3]  # one sweep per pair
    mab_reports = tuple(st.mab_report() for st in stats)
    nab_reports = tuple(st.nab_report() for st in stats)
    eps1 = max(r.fraction for r in mab_reports)
    diag, trials, _ = _diag_counts(scf, n, "exact", None, None, 1)
    dd, da, rm = (Fraction(int(counts.min()), trials) for counts in diag)
    eps2 = min(dd, da, rm)
    G = _gswf_from_stats(stats, tie)
    nt_report = nt(G)
    dist, member = dist_tr3(G)
    sum_nab = sum(r.fraction for r in nab_reports)
    nt_le = nt_report.fraction <= sum_nab
    cauchy = all(r_n.fraction ** 2 <= r_m.fraction
                 for r_n, r_m in zip(nab_reports, mab_reports))
    sum_sq = sum_nab ** 2 <= 9 * eps1
    dist_ok = dist >= eps2 or 9 * eps1 >= (eps2 - dist) ** 2
    return ChainReport(eps1, eps2, dd, da, rm, mab_reports, nab_reports,
                       nt_report, G, dist, member,
                       is_neutral_gswf(G), is_neutral(scf, n),
                       nt_le, cauchy, sum_sq, dist_ok)
