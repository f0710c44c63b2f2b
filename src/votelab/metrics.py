"""Per-voter manipulation power, inter-pair dependence, and minority
preference, exact or sampled.

Exact values are integer counts over full enumerations and reduce to exact
rationals.  Sampled values are deterministic for a given seed regardless of
worker count (see sampling.count).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from . import _tables, sampling
from .orders import column_index
from .rules import resolve_n


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
        num = int(np.dot(self.count_a, self.count_b))
        return exact_report("mab", (self.a, self.b), num, 2 ** self.n * 9 ** self.n)

    def nab_report(self) -> MetricReport:
        """Exact ``nab``: the mean over columns z of
        min(count_a[z], count_b[z]) / 3^n."""
        num = int(np.minimum(self.count_a, self.count_b).sum())
        return exact_report("nab", (self.a, self.b), num, 2 ** self.n * 3 ** self.n)


def column_stats(scf, a: int, b: int, n=None) -> ColumnStats:
    """Exact ColumnStats by full profile enumeration (m = 3), reading the
    winners from the rule's table."""
    n = resolve_n(scf, n)
    if scf.m != 3:
        raise ValueError("column statistics require m = 3")
    if a == b:
        raise ValueError("need two distinct alternatives")
    size = 1 << n

    def tally(block):
        winners = block.winners()
        z = column_index(block.digits, a, b)
        return np.concatenate([np.bincount(z[winners == a], minlength=size),
                               np.bincount(z[winners == b], minlength=size)])

    counts, _, _ = sampling.count(tally, 2 * size, n, 3, mode="exact", scf=scf)
    return ColumnStats(a, b, n, counts[:size], counts[size:])


def _gains(voters, m):
    """Tally of strict improvements from a fresh ballot for each listed voter.

    ``tally(block, ballots)`` returns the sum and the sum of squares over
    profiles of the per-profile number of improving (voter, ballot) pairs;
    ``ballots[k]`` is voter ``voters[k]``'s fresh ballot per profile, and
    without ``ballots`` every other ballot is tried: the voter's own never
    improves the outcome.
    """
    improves = _tables.prefers(m).reshape(-1)  # [(own * m + moved) * m + winner]
    nord = factorial(m)
    rotate = (np.arange(nord)[:, None] + np.arange(nord)) % nord  # [step, own]

    def tally(block, ballots=None):
        winners = block.winners()
        per_profile = np.zeros(block.digits.shape[1], np.int64)
        for k, i in enumerate(voters):
            own = block.digits[i]
            key = own * (m * m) + winners
            fresh = ((ballots[k],) if ballots is not None
                     else (rotate[step][own] for step in range(1, nord)))
            for ballot in fresh:
                per_profile += improves[key + m * block.moved(i, ballot)]
        return [per_profile.sum(), (per_profile ** 2).sum()]

    return tally


def manipulation_power(scf, i: int, n=None, *, mode="auto", samples=None,
                       seed=None, workers=1) -> MetricReport:
    """Probability that a fresh uniform ballot for voter i strictly improves
    the outcome under the voter's true ranking."""
    n = resolve_n(scf, n)
    m = scf.m
    if not 0 <= i < n:
        raise ValueError(f"voter {i} out of range for n={n}")
    nord = factorial(m)

    def draw(rng, size):
        return (rng.integers(0, nord, size=(n, size)),
                rng.integers(0, nord, size=(1, size)))

    (count, _), trials, mode = sampling.count(
        _gains((i,), m), 2, n, m, mode=mode, samples=samples, seed=seed,
        workers=workers, draw=draw, scf=scf)
    # exact mode counts all m! ballots at each profile; the own one never improves
    return count_report("M_i", (i,), count, trials * nord if mode == "exact" else trials,
                        mode, seed)


def manipulation_power_total(scf, n=None, *, mode="auto", samples=None,
                             seed=None, workers=1) -> MetricReport:
    """Sum over voters of manipulation_power."""
    n = resolve_n(scf, n)
    m = scf.m
    nord = factorial(m)

    def draw(rng, size):
        return (rng.integers(0, nord, size=(n, size)),
                rng.integers(0, nord, size=(n, size)))

    (total, total_sq), trials, mode = sampling.count(
        _gains(range(n), m), 2, n, m, mode=mode, samples=samples, seed=seed,
        workers=workers, draw=draw, scf=scf)
    if mode == "exact":
        return exact_report("M_total", (), total, trials * nord)
    half = sampling.normal_half_width(int(total), int(total_sq), trials)
    return sampled_report("M_total", (), int(total), trials, half, trials, seed)


def mab(scf, a: int, b: int, n=None, *, mode="auto", samples=None, seed=None,
        workers=1) -> MetricReport:
    """Probability the winner is a, then b, after redrawing everything but
    the (a, b) column."""
    n = resolve_n(scf, n)
    if scf.m != 3:
        raise ValueError("inter-pair dependence requires m = 3")
    if a == b:
        raise ValueError("need two distinct alternatives")
    mode = sampling.pick_mode(mode, n, 3, samples, seed)

    if mode == "exact":
        return column_stats(scf, a, b, n).mab_report()

    lookup = _tables.order_of_bit_digit3(a, b).ravel()  # [3 * bit + digit]

    def counter(rng, size):
        z = 3 * rng.integers(0, 2, size=(n, size))
        first = lookup[z + rng.integers(0, 3, size=(n, size))]
        second = lookup[z + rng.integers(0, 3, size=(n, size))]
        hit_a = np.asarray(scf.winners_from_digits(first)) == a
        hit_b = np.asarray(scf.winners_from_digits(second)) == b
        return np.array([(hit_a & hit_b).sum()], dtype=np.int64)

    count = sampling.run_chunks(counter, 1, samples, seed, workers=workers)[0]
    return count_report("mab", (a, b), count, samples, mode, seed)


def nab(scf, a: int, b: int, n=None, *, mode="auto", samples=None, seed=None,
        workers=1, inner: int = 32) -> MetricReport:
    """Expected min of the two conditional election probabilities given the
    (a, b) column.

    The sampled path is a plug-in estimate: per sampled column it counts
    winners over ``inner`` fresh completions and averages the min, which is
    consistent (bias O(1/sqrt(inner))) but not unbiased; the interval covers
    the plug-in mean.
    """
    n = resolve_n(scf, n)
    if scf.m != 3:
        raise ValueError("minority preference requires m = 3")
    if a == b:
        raise ValueError("need two distinct alternatives")
    mode = sampling.pick_mode(mode, n, 3, samples, seed)

    if mode == "exact":
        return column_stats(scf, a, b, n).nab_report()

    if inner < 1:
        raise ValueError("inner must be >= 1")
    lookup = _tables.order_of_bit_digit3(a, b).ravel()  # [3 * bit + digit]

    def counter(rng, size):
        z = 3 * rng.integers(0, 2, size=(n, size))
        completions = lookup[z[:, :, None] + rng.integers(0, 3, size=(n, size, inner))]
        winners = np.asarray(scf.winners_from_digits(completions.reshape(n, size * inner)))
        winners = winners.reshape(size, inner)
        mins = np.minimum((winners == a).sum(1), (winners == b).sum(1))
        return np.array([mins.sum(), (mins ** 2).sum()], dtype=np.int64)

    chunk = max(1024, sampling.CHUNK // inner)
    total, total_sq = sampling.run_chunks(counter, 2, samples, seed,
                                          workers=workers, chunk=chunk)
    half = sampling.normal_half_width(int(total), int(total_sq), samples) / inner
    return sampled_report("nab", (a, b), int(total), samples * inner, half,
                          samples, seed)
