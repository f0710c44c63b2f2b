"""The one counting driver behind every exact or sampled metric, and the
interval helpers of sampled reports.

Every metric is a count over uniform profiles of n voters and m
alternatives, and ``count`` makes it in one of two modes:

- exact mode visits every one of the (m!)^n profiles;
- sampled mode splits the samples into fixed-size chunks; chunk k draws
  from ``default_rng([seed, k])`` and counts are integer sums, so the
  result is the same for any worker count and schedule.

``auto`` picks exact iff (m!)^n * m! <= EXACT_BUDGET (10^9).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from math import factorial, sqrt

import numpy as np

from .orders import profile_chunks

CHUNK = 1 << 16
Z95 = 1.959963984540054
EXACT_BUDGET = 10 ** 9


class BudgetError(ValueError):
    """An exact enumeration would exceed the evaluation budget."""


def exact_feasible(n: int, m: int = 3) -> bool:
    """True when full profile enumeration fits the (m!)^n * m! budget."""
    return factorial(m) ** n * factorial(m) <= EXACT_BUDGET


def pick_mode(mode: str, n: int, m: int, samples, seed) -> str:
    """Resolve ``auto`` and check that the chosen mode can run."""
    if mode not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if exact_feasible(n, m) else "sampled"
    if mode == "exact" and not exact_feasible(n, m):
        raise BudgetError(f"exact enumeration at n={n}, m={m} exceeds the budget; "
                          f"rerun with samples and a seed")
    if mode == "sampled" and (samples is None or seed is None):
        raise ValueError("sampled mode needs samples and seed")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return mode


def count(tally, slots: int, n: int, m: int, *, mode="auto", samples=None,
          seed=None, workers=1, draw=None) -> tuple[np.ndarray, int, str]:
    """Sum ``tally`` over uniform profiles; returns (counts, trials, mode).

    ``tally(digits)`` maps an (n, S) block of ranking indices to ``slots``
    nonnegative integer counts.  Exact mode passes every profile once and
    ``trials`` is (m!)^n.  Sampled mode passes the arguments returned by
    ``draw(rng, size)``, by default one uniform (n, size) block, and
    ``trials`` is ``samples``.
    """
    mode = pick_mode(mode, n, m, samples, seed)
    if mode == "exact":
        counts = np.zeros(slots, np.int64)
        for _, _, digits in profile_chunks(n, m):
            counts += np.asarray(tally(digits), dtype=np.int64)
        return counts, factorial(m) ** n, mode

    if draw is None:
        nord = factorial(m)

        def draw(rng, size):
            return (rng.integers(0, nord, size=(n, size)),)

    counts = run_chunks(lambda rng, size: tally(*draw(rng, size)), slots,
                        samples, seed, workers=workers)
    return counts, samples, mode


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
    if workers <= 1:
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
