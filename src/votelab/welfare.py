"""Pairwise social welfare functions with independence of irrelevant
alternatives, the SCF <-> GSWF reductions, transitivity and Condorcet-winner
probabilities, distances to the always-transitive families, neutral tensor
constructions, and the cross-size identities they satisfy."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial

import numpy as np

from . import _tables, lines, sampling
from .metrics import MetricReport, column_stats, count_report
from .orders import (Profile, column_complement, column_count, column_popcounts, profile_block,
                     voter_bits)
from .rules import ScfRule, _diag_mins, register_rule, resolve_n

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
        (b, a) query is the complement at the complemented column, which is
        column 2^n - 1 - z, so the table read backwards."""
        if a == b or not (0 <= a < self.m and 0 <= b < self.m):
            raise ValueError(f"bad pair ({a}, {b}) for m={self.m}")
        if a < b:
            return self.tables[_tables.pair_slot(self.m)[(a, b)]]
        return ~self.tables[_tables.pair_slot(self.m)[(b, a)]][::-1]

    def __eq__(self, other):
        return (isinstance(other, GswfIia) and self.m == other.m
                and self.n == other.n and np.array_equal(self.tables, other.tables))


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
    return 2 * column_popcounts(n) > n


def random_odd_g(n: int, seed) -> np.ndarray:
    """A seeded uniform odd Boolean table over 2^n columns."""
    if seed < 0:
        raise ValueError(f"random_odd_g seed must be nonnegative, got {seed}")
    comp = column_complement(n)
    lower = np.arange(comp.size) < comp
    bits = np.random.default_rng(seed).integers(0, 2, size=comp.size).astype(bool)
    return np.where(lower, bits, ~bits[comp])


def random_iia_gswf(n: int, m: int, seed) -> GswfIia:
    """A seeded uniform IIA GSWF (independent random pairwise tables)."""
    if seed < 0:
        raise ValueError(f"random_iia_gswf seed must be nonnegative, got {seed}")
    pairs = len(_tables.pair_list(m))
    tabs = np.random.default_rng(seed).integers(0, 2, size=(pairs, column_count(n))).astype(bool)
    return GswfIia(m, n, tabs)


def dictator_swf(i: int, n: int, m: int = 3) -> GswfIia:
    """Every pairwise output copies voter i's preference bit."""
    return neutral_tensor(voter_bits(i, n), m)


def anti_dictator_swf(i: int, n: int, m: int = 3) -> GswfIia:
    """Every pairwise output negates voter i's preference bit."""
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
#
# Exact no-GCW counts (nt, ngcw, gcw) come from pairwise columns: whether a
# beats every other alternative b_1 < ... < b_{m-1} depends only on the
# columns of the pairs (a, b_j), and a voter whose bits on those pairs rank
# k of the b_j below a has k! (m-1-k)! rankings.  So ``_beats_all_count``
# weighs the outputs of G with a product of per-voter weights, contracted
# one voter at a time without forming it: the output table of (a, b_1)
# meets each voter's 2 x 2^(m-2) weight map in turn, in the narrowest
# unsigned dtype of the step, and the table left over the columns of the
# other m - 2 pairs is summed where a beats them.  ``dist_tr3`` reads the
# outcome codes of all 6^n profiles as lines of one table.  Every other
# reader (sampled no-GCW counts, check_composition's joint sweep,
# gcw_winner_at, the gswf_winner rule) reads pairwise outcomes profile by
# profile through ``_wins``, which sums the columns of all the pairs it
# needs (both blocks' in the joint sweep) at once in
# ``_tables.voter_fields``: each ranking's bits on the
# pairs are packed into int64 words, so one gather per voter and word
# assembles every pair's column index, and one masked shift then reads each
# pair's out of its word.

def _wins(G: GswfIia, digits, *blocks) -> np.ndarray:
    """Pairwise victories of each alternative of the blocks, each a list of
    increasing alternatives, over the others in its block; shape (number of
    listed alternatives, S), the blocks' rows in turn.  Only the pairs
    inside a block are evaluated, all blocks' columns read in one sum."""
    pairs, first = [], 0  # (row of a, row of b, a, b)
    for alts in blocks:
        alts = list(alts)
        i, j = np.triu_indices(len(alts), 1)
        pairs += [(first + p, first + q, alts[p], alts[q]) for p, q in zip(i, j)]
        first += len(alts)
    _, _, a, b = np.array(pairs, np.intp).reshape(-1, 4).T
    columns = _tables.voter_fields(_tables.prefers(G.m)[:, a, b], digits, 1)
    slot = _tables.pair_slot(G.m)
    wins = np.zeros((first, digits.shape[1]), np.int8)
    for (row_a, row_b, x, y), z in zip(pairs, columns):
        bits = G.tables[slot[x, y]][z]
        wins[row_a] += bits
        wins[row_b] += ~bits
    return wins


def _no_gcw(G: GswfIia, digits, *blocks) -> np.ndarray:
    """True where no block has an alternative that beats every other in
    the block."""
    wins = _wins(G, digits, *blocks)
    out = np.ones(digits.shape[1], bool)
    first = 0
    for alts in blocks:
        out &= wins[first:first + len(alts)].max(0) < len(alts) - 1
        first += len(alts)
    return out


def _beats_all_count(G: GswfIia, a: int) -> int:
    """Number of profiles at which a beats every other alternative.

    Each step takes the leading bit of the table (the last voter still in
    it) and appends that voter's bits on (a, b_2), ..., (a, b_{m-1}),
    weighted by ``per_k`` of the number of b_j the voter ranks below a.
    After t voters an entry counts at most (m!)^t profiles, the dtype of
    step t.  The final sums accumulate in uint64 and count sets of
    profiles, so they stay within (m!)^n and cannot overflow."""
    n, m = G.n, G.m
    others = [b for b in range(m) if b != a]
    per_k = [factorial(k) * factorial(m - 1 - k) for k in range(m)]
    weights = np.array([[per_k[bit + y.bit_count()] for y in range(1 << (m - 2))]
                        for bit in (0, 1)])
    acc = G.pairwise(a, others[0]).view(np.uint8)  # bools are bytes of 0 or 1
    for t in range(1, n + 1):
        step = weights.astype(np.min_scalar_type(factorial(m) ** t))
        acc = acc.reshape(2, -1).T @ step
    # axes (voter, pair) -> (pair, voter): the column index of each pair
    order = np.arange(n * (m - 2)).reshape(n, m - 2).T.ravel()
    acc = acc.reshape((2,) * (n * (m - 2))).transpose(order).reshape(-1)
    for b in others[1:]:
        acc = acc.reshape(1 << n, -1).sum(0, where=G.pairwise(a, b)[:, None])
    return int(acc[0])


def _no_gcw_report(metric, G, mode, samples, seed, workers) -> MetricReport:
    mode = sampling.pick_mode(mode, G.n, G.m, samples, seed)
    if mode == "exact":
        # a GCW is unique when it exists, so the events "a beats all" are disjoint
        total = factorial(G.m) ** G.n
        count = total - sum(_beats_all_count(G, a) for a in range(G.m))
        return count_report(metric, (), count, total, mode, seed)
    (count,), trials, mode = sampling.count(
        lambda digits: [_no_gcw(G, digits, range(G.m)).sum()], 1, G.n, G.m,
        mode=mode, samples=samples, seed=seed, workers=workers)
    return count_report(metric, (), count, trials, mode, seed)


def nt(G, *, mode="auto", samples=None, seed=None, workers=1) -> MetricReport:
    """Probability of a cyclic output triple (m = 3 only): the no-GCW
    count of ``ngcw``, since a three-way tournament is cyclic exactly when
    no alternative beats both others."""
    if G.m != 3:
        raise ValueError("cyclicity is a three-alternative notion; use ngcw")
    return _no_gcw_report("nt", G, mode, samples, seed, workers)


def ngcw(G, *, mode="auto", samples=None, seed=None, workers=1) -> MetricReport:
    """Probability that no alternative beats every other."""
    return _no_gcw_report("ngcw", G, mode, samples, seed, workers)


def gcw(G, **kw) -> MetricReport:
    """Probability that a generalized Condorcet winner exists (1 - ngcw)."""
    r = ngcw(G, **kw)  # den - num stays reduced; a sampled den is the samples
    return replace(r, metric="gcw", num=r.den - r.num)


def gcw_winner_at(G, profile: Profile):
    """The unique alternative beating all others at one profile, or None."""
    digits = profile_block(profile)
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
    # a GCW, which beats all m - 1 others, is unique where it exists
    winners = _tables.perms(G.m)[digits[fallback], 0]
    for a, row in enumerate(_wins(G, digits, range(G.m))):
        winners[row == G.m - 1] = a
    return winners


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


def _free_pair(alt: int) -> tuple[int, int]:
    others = [x for x in range(3) if x != alt]
    return (others[0], others[1])


def dist_tr3(G):
    """Distance (triple-level disagreement probability) to the nearest
    always-transitive member, with the minimizer.

    Candidates are scanned in a fixed order: the dictator and anti-dictator
    of each voter, then the top-fixed and the bottom-fixed member of each
    alternative; the first with the most agreements wins.  Every agreement
    is a condition on the wins: dictator i agrees iff voter i's top beats
    both others and voter i's bottom beats neither, the anti-dictator iff
    the reverse holds, and a top-fixed (bottom-fixed) member iff its
    alternative beats both (neither), because its free-pair table may be
    chosen pointwise equal to G's own.

    The first two conditions say that the wins are voter i's ranking (the
    top wins 2, the middle 1, the bottom 0), or its reverse.  So G's
    output at each profile is read once, as a 3-bit outcome code whose bit
    p is pair p's table at the profile's column (``lines.mapped_rows``),
    and the code table is read by lines: voter i agrees with dictator i on
    the line entries whose code is the ranking of voter i's ballot."""
    if G.m != 3:
        raise ValueError("the transitive family search is defined for m = 3")
    sampling.pick_mode("exact", G.n, 3, None, None)  # the code table holds 6^n entries
    code = np.zeros(6 ** G.n, np.uint8)
    for p, (a, b) in enumerate(PAIRS3):
        for profiles, block in lines.mapped_rows(G.tables[p], _tables.pair_bit(3, a, b), 2, G.n):
            code[profiles] |= block.ravel().astype(np.uint8) << p
    # the code of each ballot's ranking; the reversed ranking's is its complement
    ranked = sum(_tables.pair_bit(3, a, b) << p for p, (a, b) in enumerate(PAIRS3))
    agrees = [lines.count_equal(code, 6, i, codes) for i in range(G.n)
              for codes in (ranked, ranked ^ 7)]
    bits = np.arange(8) >> np.arange(3)[:, None] & 1  # [pair, code]
    wins = np.array([bits[0] + bits[1], 1 - bits[0] + bits[2], 2 - bits[1] - bits[2]])
    hist = sum(np.bincount(block.ravel(), minlength=8) for block in lines.blocks(code, 6, 0))
    agrees = np.array([*agrees, *(wins == 2) @ hist, *(wins == 0) @ hist])
    total = 6 ** G.n
    best = int(agrees.argmax())  # first maximum: deterministic scan order
    if best < 2 * G.n:
        member = TrMember(("dictator", "anti_dictator")[best % 2], voter=best // 2)
    else:
        kind, alt = divmod(best - 2 * G.n, 3)
        free = _free_pair(alt)
        member = TrMember(("top_fixed", "bottom_fixed")[kind], alt=alt, free_pair=free,
                          h=G.tables[_tables.pair_slot(3)[free]].copy())
    return Fraction(total - int(agrees[best]), total), member


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
    """Joint no-GCW probability over the blocks {0, 1, 2} and {3, 4, 5} of
    a six-alternative neutral tensor versus the product of the per-block
    probabilities."""

    joint: MetricReport
    left: MetricReport
    right: MetricReport
    gap: float
    tol: float
    holds: bool


def check_composition(g, *, mode="auto", samples=None, seed=None,
                      workers=1) -> CompositionReport:
    """Verify independence of the no-GCW events of the blocks {0, 1, 2} and
    {3, 4, 5} under the six-alternative neutral tensor of g.  Both blocks
    are three-alternative restrictions of one neutral tensor, so they are
    equal and share one ngcw, exact within the budget (``auto``)."""
    tensor = neutral_tensor(g, 6)
    block = ngcw(restrict_gswf(tensor, range(3)), samples=samples, seed=seed,
                 workers=workers)

    def tally(digits):
        return [_no_gcw(tensor, digits, range(3), range(3, 6)).sum()]

    (count,), trials, mode = sampling.count(tally, 1, tensor.n, 6, mode=mode,
                                            samples=samples, seed=seed, workers=workers)
    joint = count_report("ngcw_joint", (), count, trials, mode, seed)
    # p^2 (reduced when p is), with the delta method's half-width 2 p ci95
    rhs = replace(block, metric="ngcw_product", num=block.num ** 2, den=block.den ** 2,
                  ci95=None if block.ci95 is None else 2 * block.value * block.ci95)
    return CompositionReport(joint, block, block, *_check_linear(joint, [(1, rhs, 1)]))


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
    ngcw5: MetricReport
    ngcw6: MetricReport
    five_gap: float
    five_tol: float
    five_holds: bool
    composition: CompositionReport

    @property
    def four_exact(self) -> bool:
        return self.ngcw3.mode == self.ngcw4.mode == "exact"

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
    comp = check_composition(g, mode=mode, samples=samples, seed=seed, workers=workers)
    return IdentityReport(r3, r4, *_check_linear(r4, [(2, r3, 1)]),
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
    sampling.pick_mode("exact", n, 3, None, None, exact_only="the reduction chain")
    tie = _tie_bits(tie_voter, n)
    stats = [column_stats(scf, a, b, n) for a, b in PAIRS3]
    mab_reports = tuple(st.mab_report() for st in stats)
    nab_reports = tuple(st.nab_report() for st in stats)
    eps1 = max(r.fraction for r in mab_reports)
    mins, ((relabelled, _), _), trials, _ = _diag_mins(scf, n, "exact", None, None, 1)
    dd, da, rm = (Fraction(count, trials) for count, _ in mins)
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
                       is_neutral_gswf(G), relabelled == 0,
                       nt_le, cauchy, sum_sq, dist_ok)
