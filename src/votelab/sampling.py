"""The one counting driver behind every exact or sampled metric, and the
interval helpers of sampled reports.

Every metric is a count over uniform profiles of n voters and m
alternatives, and ``count`` makes it in one of two modes:

- exact mode counts over all (m!)^n profiles.  A count over a rule's
  outcomes visits no profile: it asks the rule's exact engine.  A tally
  rule over three alternatives (``plurality``, ``borda``,
  ``pairwise_majority_fallback``) at n <= ``tallies.MAX_N`` has
  ``tallies.TallySpace``, which weighs each summed tally word by the
  number of profiles behind it; every other rule has ``lines.TableSpace``,
  which reads the rule's winner table, materialized once per rule and n,
  one voter at a time as lines, so a moved ballot, a voter swap or a
  relabelling is a view, a transpose or a gather of the table.  A count
  with no rule sweeps the profiles, whose digits it reads from one
  resident, read-only digit table per m (``orders.profile_chunks``);
- sampled mode splits the samples into fixed-size chunks; chunk k draws
  from ``default_rng([seed, k])`` and counts are integer sums, so the
  result is the same for any worker count and schedule.  A chunk's draws
  depend only on (seed, k) and the calls made, so metrics that make the
  same calls share one draw per chunk and are computed in one pass: every
  voter's M_i, every pair's mab or nab, and a rule's structure counts
  (distances to dictatorships, range, neutrality and anonymity, all from
  ``rules._diag_counts``).  Their estimates are correlated.  M_i and
  M_total each keep their own draw, since each draws fresh ballots after
  the profiles.  A drawn block of a tally rule is read through
  ``tallies.Summed``, which sums its voters once and answers each moved or
  swapped read from that sum; any other rule's through ``Evaluated``,
  which evaluates the rule on each varied block.

``auto`` picks exact iff (m!)^n * m! <= EXACT_BUDGET (10^9), for every
rule, and past it sampled mode, or refuses when given no samples.
Explicit exact mode also runs past that budget where the tally engine
serves the rule, and refuses everywhere else.

The exact no-GCW counts of ``welfare`` (``nt``, ``ngcw``, ``gcw``) choose
their mode with ``pick_mode`` but do not visit profiles: they come from
pairwise columns, each weighted by the number of profiles behind it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from math import factorial, sqrt

import numpy as np

from . import tallies
from .lines import TableSpace
from .orders import profile_chunks

CHUNK = 1 << 16
Z95 = 1.959963984540054
EXACT_BUDGET = 10 ** 9


class BudgetError(ValueError):
    """An exact enumeration would exceed the evaluation budget."""


def power_surely_exceeds(base: int, k: int, limit: int) -> bool:
    """True when base^k > ``limit`` follows from bit lengths alone, as
    base^k >= 2^(k·(bit_length(base) - 1)), so that a huge power is refused
    without being built.  When False, base^k < 2^(2·bit_length(limit))."""
    return k * (base.bit_length() - 1) >= limit.bit_length()


def exact_feasible(n: int, m: int = 3) -> bool:
    """True when full profile enumeration fits the (m!)^n * m! budget."""
    base = factorial(m)
    return (not power_surely_exceeds(base, n + 1, EXACT_BUDGET)
            and base ** (n + 1) <= EXACT_BUDGET)


def pick_mode(mode: str, n: int, m: int, samples, seed, *, scf=None,
              exact_only=None) -> str:
    """Resolve ``auto`` and check that the chosen mode can run.  Exact mode
    runs within the enumeration budget, or where the tally engine serves
    the rule ``scf`` at n; ``auto`` reads the budget alone, and past it
    refuses when given no samples.  The refusal of exact mode names
    ``exact_only``, a caller with no sampled path."""
    if mode not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    feasible = exact_feasible(n, m)
    reach = tallies.exact_reach(scf)
    if mode == "auto":
        if not feasible and samples is None:
            runs = " (exact mode runs here, on the tally engine)" if n <= reach else ""
            raise BudgetError(f"exact enumeration at n={n}, m={m} exceeds the budget; "
                              f"rerun with samples and a seed{runs}")
        mode = "exact" if feasible else "sampled"
    if mode == "exact" and not feasible and n > reach:
        beyond = f" (the tally engine stops at n={reach})" if reach else ""
        advice = ("; rerun with samples and a seed" if exact_only is None
                  else f", and {exact_only} has no sampled path")
        raise BudgetError(f"exact enumeration at n={n}, m={m} exceeds the budget"
                          f"{beyond}{advice}")
    if mode == "sampled" and (samples is None or seed is None):
        raise ValueError("sampled mode needs samples and seed")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return mode


def count(tally, slots: int, n: int, m: int, *, mode="auto", samples=None,
          seed=None, workers=1, draw=None, scf=None,
          space_tally=None) -> tuple[np.ndarray, int, str]:
    """Sum ``tally`` over uniform profiles; returns (counts, trials, mode).

    ``tally(digits)`` maps an (n, S) block of ranking indices to ``slots``
    nonnegative integer counts.  Exact mode passes every profile once and
    ``trials`` is (m!)^n.  Sampled mode passes the arguments returned by
    ``draw(rng, size)``, by default one uniform (n, size) block, and
    ``trials`` is ``samples``.

    Given the rule ``scf``, exact mode visits no profile: it returns
    ``space_tally(space)``, the same counts made by the rule's exact
    engine, ``tallies.TallySpace`` where ``tallies.exact_reach`` serves the
    rule and else ``lines.TableSpace`` on the rule's winner table.  In
    sampled mode the block arrives as a view that also reads the rule's
    winners: ``tallies.Summed`` on the summed tallies of a tally rule, else
    ``Evaluated`` by the rule.
    """
    mode = pick_mode(mode, n, m, samples, seed, scf=scf)
    if mode == "exact" and scf is not None:
        space = (tallies.tally_space(scf.name, n) if n <= tallies.exact_reach(scf)
                 else TableSpace(scf.as_table(n)))
        return np.asarray(space_tally(space), dtype=np.int64), factorial(m) ** n, mode
    if mode == "exact":
        counts = np.zeros(slots, np.int64)
        for _, _, digits in profile_chunks(n, m):
            counts += np.asarray(tally(digits), dtype=np.int64)
        return counts, factorial(m) ** n, mode

    if draw is None:
        nord = factorial(m)

        def draw(rng, size):
            return (rng.integers(0, nord, size=(n, size)),)

    view = tallies.Summed if tallies.is_tally(scf) else Evaluated

    def counter(rng, size):
        digits, *rest = draw(rng, size)
        return tally(digits if scf is None else view(scf, digits), *rest)

    counts = run_chunks(counter, slots, samples, seed, workers=workers)
    return counts, samples, mode


class Evaluated:
    """A sampled block of profiles, ``digits`` of shape (n, S), reading the
    rule's winners by evaluating it on each (varied) profile: ``winners()``,
    ``moved(i, ballots)`` (voter i casts ``ballots``, one ranking index or
    one per profile) and ``swapped(i)`` (voters i and i + 1 trade
    ballots)."""

    def __init__(self, scf, digits):
        self.scf = scf
        self.digits = digits
        self._edited = None  # one scratch copy, restored after each edit

    def winners(self):
        return np.asarray(self.scf.winners_from_digits(self.digits))

    def moved(self, i, ballots):
        if self._edited is None:
            self._edited = self.digits.copy()
        self._edited[i] = ballots
        out = np.asarray(self.scf.winners_from_digits(self._edited))
        self._edited[i] = self.digits[i]
        return out

    def swapped(self, i):
        return self.moved([i, i + 1], self.digits[[i + 1, i]])


def run_chunks(counter, slots: int, samples: int, seed: int, *, workers: int = 1,
               chunk: int = CHUNK) -> np.ndarray:
    """Sum of ``counter(rng, size)`` over all chunks; shape (slots,), int64.

    ``counter`` must return nonnegative integer counts and draw a fixed
    amount of randomness per requested size.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed is None or int(seed) < 0:
        raise ValueError("seed must be a nonnegative integer")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seed = int(seed)
    tasks = [(k, min(chunk, samples - k * chunk))
             for k in range((samples + chunk - 1) // chunk)]

    def one(task):
        k, size = task
        out = np.asarray(counter(np.random.default_rng([seed, k]), size), dtype=np.int64)
        if out.shape != (slots,):
            raise ValueError(f"counter returned shape {out.shape}, expected ({slots},)")
        return out

    total = np.zeros(slots, np.int64)
    if workers == 1:
        for task in tasks:
            total += one(task)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for out in pool.map(one, tasks):
                total += out
    return total


def wilson_half_width(successes: int, trials: int, z: float = Z95) -> float:
    """Half-width of the Wilson score interval for a Bernoulli proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    return z * sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom


def normal_half_width(total: int, total_sq: int, count: int, z: float = Z95) -> float:
    """Half-width of the normal-approximation interval for a mean of
    bounded integer observations with the given sum and sum of squares."""
    if count < 2:
        return float("inf")
    var = (total_sq - total * total / count) / (count - 1)
    return z * sqrt(max(var, 0.0) / count)
