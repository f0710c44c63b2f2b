"""Per-voter manipulation power, inter-pair dependence, and minority
preference, exact or sampled.

Exact values are integer counts over all profiles and reduce to exact
rationals: from the rule's winner table read one voter at a time as lines
(``lines.TableSpace``), or for a tally rule over three alternatives at
n <= ``tallies.MAX_N`` from the tally-space engine, which counts the same
profiles through the distribution of their summed tally words (each
voter's ``M_i`` count, and ``column_stats`` per voter 0's bit and popcount
of the others' bits).  Sampled values are deterministic for a given seed
regardless of worker count (see sampling.count).

Each metric family is computed in one pass.  Every voter's sampled M_i
draws the same stream; so does every pair's sampled mab, and every pair's
sampled nab.  ``manipulation_reports`` and ``pair_reports`` therefore draw
each chunk once for the whole family and give the per-voter and per-pair
estimates bit for bit.  Those estimates were always correlated for the same
reason: all voters, or all pairs, see the same draws.  A pair pass elects
the drawn codes under all three pairs' decodings with one
``tallies.decoded_winners`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from . import _tables, sampling
from .rules import resolve_n
from .tallies import decoded_winners


@dataclass(frozen=True)
class MetricReport:
    """One reported quantity: exact rational or seeded estimate.

    ``num``/``den`` are a reduced fraction in exact mode and raw success /
    trial counts in sampled mode.  ``value`` is always ``num / den``.
    """

    metric: str
    indices: tuple[int, ...]
    mode: str
    num: int
    den: int
    ci95: float | None = None
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "num", int(self.num))
        object.__setattr__(self, "den", int(self.den))
        if self.den <= 0 or self.num < 0:
            raise ValueError("need den > 0 and num >= 0")
        if self.mode == "exact":
            # sums of probabilities (metric *_total) may exceed 1; plain metrics may not
            if self.num > self.den and not self.metric.endswith("_total"):
                raise ValueError(f"exact {self.metric} above 1: {self.num}/{self.den}")
            if self.ci95 is not None or self.samples is not None:
                raise ValueError("exact reports carry no ci95/samples")
        elif self.mode == "sampled":
            if not self.samples or self.samples <= 0:
                raise ValueError("sampled reports need samples > 0")
            if self.ci95 is None or self.ci95 < 0:
                raise ValueError("sampled reports need ci95 >= 0")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def value(self) -> float:
        return self.num / self.den

    @property
    def fraction(self) -> Fraction:
        if self.mode != "exact":
            raise ValueError("only exact reports are rationals")
        return Fraction(self.num, self.den)


def exact_report(metric, indices, num, den) -> MetricReport:
    f = Fraction(int(num), int(den))
    return MetricReport(metric, tuple(indices), "exact", f.numerator, f.denominator)


def sampled_report(metric, indices, num, den, ci95, samples, seed) -> MetricReport:
    return MetricReport(metric, tuple(indices), "sampled", num, den,
                        ci95=float(ci95), samples=int(samples),
                        seed=None if seed is None else int(seed))


def count_report(metric, indices, count, trials, mode, seed) -> MetricReport:
    """A proportion count/trials: the exact fraction, or the Wilson estimate."""
    if mode == "exact":
        return exact_report(metric, indices, count, trials)
    half = sampling.wilson_half_width(int(count), int(trials))
    return sampled_report(metric, indices, count, trials, half, trials, seed)


@dataclass(frozen=True, eq=False)
class ColumnStats:
    """Per-column counts of completions electing each side of a pair.

    For every column z of the pair (a, b) there are 3^n completing profiles;
    ``count_a[z]`` of them elect a and ``count_b[z]`` elect b.
    """

    a: int
    b: int
    n: int
    count_a: np.ndarray
    count_b: np.ndarray

    def __post_init__(self):
        ca = np.ascontiguousarray(self.count_a, dtype=np.int64)
        cb = np.ascontiguousarray(self.count_b, dtype=np.int64)
        if ca.shape != (1 << self.n,) or cb.shape != (1 << self.n,):
            raise ValueError(f"need 2^{self.n} per-column counts")
        if (ca < 0).any() or (cb < 0).any() or (ca + cb > 3 ** self.n).any():
            raise ValueError("counts must be nonnegative and sum to at most 3^n per column")
        for name, arr in (("count_a", ca), ("count_b", cb)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def completions(self) -> int:
        return 3 ** self.n

    def mab_report(self) -> MetricReport:
        """Exact ``mab``: the mean over columns z of
        count_a[z] * count_b[z] / 9^n."""
        w = (63 - self.n) // 2  # w-bit limbs: each limb product summed over 2^n columns is < 2^63
        shifts = np.arange(0, (3 ** self.n).bit_length(), w)[:, None]  # counts are <= 3^n
        a, b = ((c >> shifts) & ((1 << w) - 1) for c in (self.count_a, self.count_b))
        num = sum(int(v) << w * (i + j) for (i, j), v in np.ndenumerate(a @ b.T))
        return exact_report("mab", (self.a, self.b), num, 2 ** self.n * 9 ** self.n)

    def nab_report(self) -> MetricReport:
        """Exact ``nab``: the mean over columns z of
        min(count_a[z], count_b[z]) / 3^n."""
        num = int(np.minimum(self.count_a, self.count_b).sum())
        return exact_report("nab", (self.a, self.b), num, 2 ** self.n * 3 ** self.n)


def _check_pairs(scf, pairs, what):
    """Reject a rule over other than three alternatives, and any pair that
    is not two distinct alternatives of 0..2."""
    if scf.m != 3:
        raise ValueError(f"{what} requires m = 3")
    for a, b in pairs:
        if not (0 <= a < 3 and 0 <= b < 3):
            raise ValueError(f"alternatives must lie in 0..2, got ({a}, {b})")
        if a == b:
            raise ValueError("need two distinct alternatives")


def column_stats(scf, a: int, b: int, n=None) -> ColumnStats:
    """Exact ColumnStats (m = 3): from the rule's winner table, summing its
    voters' ballots by their pair bit, or for a tally rule from its counts
    per voter 0's bit and popcount of the other voters' bits."""
    n = resolve_n(scf, n)
    _check_pairs(scf, [(a, b)], "column statistics")
    size = 1 << n
    counts, _, _ = sampling.count(None, 2 * size, n, 3, mode="exact", scf=scf,
                                  space_tally=lambda space: space.columns(a, b))
    return ColumnStats(a, b, n, counts[:size], counts[size:])


def _gains(voters, m):
    """Tally of strict improvements from a fresh ballot for each listed voter.

    ``tally(block, ballots)`` returns one count per listed voter, then the
    sum of squares over profiles of the per-profile number of improving
    (voter, ballot) pairs; ``ballots[k]`` is voter ``voters[k]``'s fresh
    ballot per profile.
    """
    improves = _tables.prefers(m).reshape(-1)  # [(own * m + moved) * m + winner]

    def tally(block, ballots):
        winners = block.winners()
        per_profile = np.zeros(block.digits.shape[1], np.int64)
        counts = []
        for k, i in enumerate(voters):
            gained = improves[(block.digits[i] * m + block.moved(i, ballots[k])) * m + winners]
            per_profile += gained
            counts.append(gained.sum())
        return [*counts, (per_profile ** 2).sum()]

    return tally


def _voter_gains(scf, voters, n, *, mode, samples, seed, workers, fresh):
    """sampling.count of ``_gains`` for the listed voters.  A sampled chunk
    draws the (n, S) profiles and then ``fresh`` rows of ballots: one row
    shared by every listed voter, or one row per voter."""
    nord = factorial(scf.m)

    def draw(rng, size):
        digits = rng.integers(0, nord, size=(n, size))
        ballots = rng.integers(0, nord, size=(fresh, size))
        return digits, np.broadcast_to(ballots, (len(voters), size))

    def space_gains(space):  # no sampled interval, so no sum of squares
        return [*space.gains(voters), 0]

    return sampling.count(_gains(voters, scf.m), len(voters) + 1, n, scf.m, mode=mode,
                          samples=samples, seed=seed, workers=workers, draw=draw, scf=scf,
                          space_tally=space_gains)


def _m_i_reports(scf, voters, n, **kw) -> list[MetricReport]:
    """The M_i report of each listed voter, from one exact count or one sampled
    pass in which all of them share each chunk's profiles and fresh ballot."""
    counts, trials, mode = _voter_gains(scf, voters, n, fresh=1, **kw)
    # exact mode counts all m! ballots at each profile; the own one never improves
    trials *= factorial(scf.m) if mode == "exact" else 1
    return [count_report("M_i", (i,), counts[k], trials, mode, kw["seed"])
            for k, i in enumerate(voters)]


def manipulation_power(scf, i: int, n=None, *, mode="auto", samples=None,
                       seed=None, workers=1) -> MetricReport:
    """Probability that a fresh uniform ballot for voter i strictly improves
    the outcome under the voter's true ranking."""
    n = resolve_n(scf, n)
    if not 0 <= i < n:
        raise ValueError(f"voter {i} out of range for n={n}")
    return _m_i_reports(scf, (i,), n, mode=mode, samples=samples, seed=seed,
                        workers=workers)[0]


def manipulation_power_total(scf, n=None, *, mode="auto", samples=None,
                             seed=None, workers=1) -> MetricReport:
    """Sum over voters of manipulation_power."""
    n = resolve_n(scf, n)
    counts, trials, mode = _voter_gains(scf, range(n), n, mode=mode, samples=samples,
                                        seed=seed, workers=workers, fresh=n)
    total, total_sq = int(counts[:n].sum()), int(counts[n])
    if mode == "exact":
        return exact_report("M_total", (), total, trials * factorial(scf.m))
    half = sampling.normal_half_width(total, total_sq, trials)
    return sampled_report("M_total", (), total, trials, half, trials, seed)


def manipulation_reports(scf, n=None, *, mode="auto", samples=None, seed=None,
                         workers=1) -> list[MetricReport]:
    """The M_i report of every voter, then M_total.

    Exact mode makes one gains count for all of them (from the winner
    table's lines, or one tally-engine count per voter for a tally rule);
    M_total is their sum.  Sampled mode makes one pass for every M_i, whose
    chunks each voter would draw alike on its own, and one for M_total,
    which draws a fresh ballot per voter.
    """
    n = resolve_n(scf, n)
    kw = dict(mode=sampling.pick_mode(mode, n, scf.m, samples, seed, scf=scf),
              samples=samples, seed=seed, workers=workers)
    rows = _m_i_reports(scf, range(n), n, **kw)
    if kw["mode"] == "exact":
        total = sum(r.fraction for r in rows)
        return rows + [exact_report("M_total", (), total.numerator, total.denominator)]
    return rows + [manipulation_power_total(scf, n, **kw)]


NAB_INNER = 32  # fresh completions per sampled column of the nab estimate


def _sampled_mab(scf, pairs, n, samples, seed, workers) -> list[MetricReport]:
    """Sampled mab of each listed pair; every pair reads the same drawn
    column bits and completions of a chunk, decoded for that pair."""
    decoders = [_tables.order_of_bit_digit3(a, b).ravel() for a, b in pairs]  # [3 * bit + digit]

    def counter(rng, size):
        z = 3 * rng.integers(0, 2, size=(n, size))
        first = rng.integers(0, 3, size=(n, size))
        first += z
        second = rng.integers(0, 3, size=(n, size))
        second += z
        del z  # the decoding needs only the two completions
        wins_a = decoded_winners(scf, first, decoders)
        wins_b = decoded_winners(scf, second, decoders)
        return [((wa == a) & (wb == b)).sum() for wa, wb, (a, b) in zip(wins_a, wins_b, pairs)]

    counts = sampling.run_chunks(counter, len(pairs), samples, seed, workers=workers)
    return [count_report("mab", pair, count, samples, "sampled", seed)
            for pair, count in zip(pairs, counts)]


def _sampled_nab(scf, pairs, n, samples, seed, workers) -> list[MetricReport]:
    """Sampled nab of each listed pair (the plug-in estimate of ``nab``);
    every pair reads the same drawn column bits and completions of a chunk,
    decoded for that pair."""
    decoders = [_tables.order_of_bit_digit3(a, b).ravel() for a, b in pairs]  # [3 * bit + digit]

    def counter(rng, size):
        z = 3 * rng.integers(0, 2, size=(n, size))
        codes = rng.integers(0, 3, size=(n, size, NAB_INNER))
        codes += z[:, :, None]
        winners = decoded_winners(scf, codes.reshape(n, size * NAB_INNER), decoders)
        sums = []
        for row, (a, b) in zip(winners.reshape(len(pairs), size, NAB_INNER), pairs):
            mins = np.minimum((row == a).sum(1), (row == b).sum(1))
            sums += [mins.sum(), (mins ** 2).sum()]
        return sums

    sums = sampling.run_chunks(counter, 2 * len(pairs), samples, seed,
                               workers=workers, chunk=sampling.CHUNK // NAB_INNER)
    rows = []
    for pair, total, total_sq in zip(pairs, sums[::2], sums[1::2]):
        half = sampling.normal_half_width(int(total), int(total_sq), samples) / NAB_INNER
        rows.append(sampled_report("nab", pair, int(total), samples * NAB_INNER, half,
                                   samples, seed))
    return rows


def _pair_split(scf, pairs, n, what, mode, samples, seed):
    """(n, each pair's ``column_stats`` in exact mode, None in sampled)."""
    n = resolve_n(scf, n)
    _check_pairs(scf, pairs, what)
    if sampling.pick_mode(mode, n, 3, samples, seed, scf=scf) == "exact":
        return n, [column_stats(scf, a, b, n) for a, b in pairs]
    return n, None


def mab(scf, a: int, b: int, n=None, *, mode="auto", samples=None, seed=None,
        workers=1) -> MetricReport:
    """Probability the winner is a, then b, after redrawing everything but
    the (a, b) column."""
    n, stats = _pair_split(scf, [(a, b)], n, "inter-pair dependence", mode, samples, seed)
    if stats:
        return stats[0].mab_report()
    return _sampled_mab(scf, [(a, b)], n, samples, seed, workers)[0]


def nab(scf, a: int, b: int, n=None, *, mode="auto", samples=None, seed=None,
        workers=1) -> MetricReport:
    """Expected min of the two conditional election probabilities given the
    (a, b) column.

    The sampled path is a plug-in estimate: per sampled column it counts
    winners over NAB_INNER fresh completions and averages the min, which is
    consistent (bias O(1/sqrt(NAB_INNER))) but not unbiased.  Its ``ci95``
    is the interval of the plug-in mean, not of ``nab``: min is concave, so
    by Jensen the plug-in mean is at most ``nab``, and the interval can lie
    wholly below it (ROADMAP item 3 plans fields that bracket ``nab``).
    """
    n, stats = _pair_split(scf, [(a, b)], n, "minority preference", mode, samples, seed)
    if stats:
        return stats[0].nab_report()
    return _sampled_nab(scf, [(a, b)], n, samples, seed, workers)[0]


def pair_reports(scf, n=None, *, mode="auto", samples=None, seed=None,
                 workers=1) -> list[MetricReport]:
    """The mab report of each pair (0, 1), (0, 2), (1, 2), then their nab
    reports.  Exact mode makes one ``column_stats`` per pair for both metrics;
    sampled mode makes one pass for the three mab and one for the three
    nab, each chunk drawn once and elected for every pair by
    ``tallies.decoded_winners``."""
    pairs = _tables.pair_list(3)
    n, stats = _pair_split(scf, pairs, n, "each pair metric", mode, samples, seed)
    if stats:
        return [st.mab_report() for st in stats] + [st.nab_report() for st in stats]
    return (_sampled_mab(scf, pairs, n, samples, seed, workers)
            + _sampled_nab(scf, pairs, n, samples, seed, workers))
