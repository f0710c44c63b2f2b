"""Named verification suites over seeded corpora.

Each suite re-checks one family of inequalities or identities across a
corpus of voting rules, pairwise preference functions, or random subset
pairs.  A failing instance is serialized with enough detail to rebuild
it; ``replay`` does exactly that and re-runs the single check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lattice, welfare
from .metrics import mab, nab, manipulation_power_total
from .rules import BudgetError, ScfRule, exact_feasible, zoo_rules
from .welfare import PAIRS3


# --- corpora and their serialization -----------------------------------

def random_table_rules(n: int, count: int, seed: int, m: int = 3) -> list[ScfRule]:
    """Seeded uniform-random winner tables, seeds ``seed .. seed+count-1``."""
    return [ScfRule("random_table", m, seed=seed + k) for k in range(count)]


def scf_corpus(n: int, trials: int, seed: int, m: int = 3) -> list[ScfRule]:
    return zoo_rules(n, m) + random_table_rules(n, trials, seed, m)


def scf_descriptor(rule: ScfRule) -> dict:
    return {"name": rule.name, "m": rule.m,
            "params": {k: int(v) for k, v in rule.params.items()}}


def build_scf(desc: dict) -> ScfRule:
    return ScfRule(desc["name"], desc.get("m", 3), **desc.get("params", {}))


def gswf_corpus(n: int, trials: int, seed: int) -> list[tuple[dict, welfare.GswfIia]]:
    """Dictator and anti-dictator orderings, the simple-majority tensor when
    n is odd, seeded neutral tensors and free tables, and rules from the
    zoo pushed through the pairwise construction."""
    descs = [{"kind": "dictator_swf", "voter": 0, "n": n},
             {"kind": "anti_dictator_swf", "voter": n - 1, "n": n}]
    if n % 2 == 1:
        descs.append({"kind": "majority_tensor", "n": n})
    for k in range(trials):
        descs.append({"kind": "odd_tensor", "seed": seed + k, "n": n})
        descs.append({"kind": "random_iia", "seed": seed + 1000 + k, "n": n})
    for name in ("plurality", "borda", "pairwise_majority_fallback"):
        descs.append({"kind": "from_scf", "scf": scf_descriptor(ScfRule(name)),
                      "tie_voter": 0, "n": n})
    return [(desc, build_gswf(desc)) for desc in descs]


def build_gswf(desc: dict) -> welfare.GswfIia:
    kind, n = desc["kind"], desc["n"]
    if kind == "dictator_swf":
        return welfare.dictator_swf(desc["voter"], n)
    if kind == "anti_dictator_swf":
        return welfare.anti_dictator_swf(desc["voter"], n)
    if kind == "majority_tensor":
        return welfare.neutral_tensor(welfare.majority_g(n), 3)
    if kind == "odd_tensor":
        return welfare.neutral_tensor(welfare.random_odd_g(n, desc["seed"]), 3)
    if kind == "random_iia":
        return welfare.random_iia_gswf(n, 3, desc["seed"])
    if kind == "from_scf":
        return welfare.gswf_from_scf(build_scf(desc["scf"]),
                                     tie_voter=desc["tie_voter"], n=n)
    raise ValueError(f"unknown GSWF descriptor kind {kind!r}")


def _odd_g_corpus(n: int, trials: int, seed: int) -> list[tuple[dict, np.ndarray]]:
    descs = [{"kind": "majority_g", "n": n}] if n % 2 == 1 else []
    descs += [{"kind": "random_odd_g", "seed": seed + k, "n": n} for k in range(trials)]
    return [(desc, _build_odd_g(desc)) for desc in descs]


def _build_odd_g(desc: dict) -> np.ndarray:
    if desc["kind"] == "majority_g":
        return welfare.majority_g(desc["n"])
    return welfare.random_odd_g(desc["n"], desc["seed"])


# --- per-instance checks (shared by suites and replay) -----------------

def _check_first_reduction(scf: ScfRule, n: int) -> tuple[bool, dict]:
    six_total = 6 * manipulation_power_total(scf, n).fraction
    for a, b in PAIRS3:
        r = mab(scf, a, b, n)
        if r.fraction > six_total:
            return False, {"pair": [a, b], "mab": str(r.fraction),
                           "six_m_total": str(six_total)}
    return True, {}


def _check_border_pair(A: lattice.TernarySet, B: lattice.TernarySet) -> tuple[bool, dict]:
    rep = lattice.check_border_inequality(A, B)
    if rep.holds:
        return True, {}
    return False, {"lhs": str(rep.lhs), "rhs": str(rep.rhs)}


def _check_shift(s: lattice.TernarySet) -> tuple[bool, dict]:
    t = lattice.shift_monotone(s)
    if t.size != s.size:
        return False, {"reason": "size changed", "before": s.size, "after": t.size}
    if not lattice.is_monotone(t):
        return False, {"reason": "result not monotone"}
    before = lattice.border_counts(s).counts
    after = lattice.border_counts(t).counts
    if any(a > b for a, b in zip(after, before)):
        return False, {"reason": "a border direction grew",
                       "before": list(before), "after": list(after)}
    moved = int((t.membership & ~s.membership).sum())
    if moved > sum(before):
        return False, {"reason": "moved more cells than the border size",
                       "moved": moved, "border": sum(before)}
    return True, {}


def _check_cauchy(scf: ScfRule, n: int) -> tuple[bool, dict]:
    for a, b in PAIRS3:
        nr = nab(scf, a, b, n).fraction
        mr = mab(scf, a, b, n).fraction
        if nr * nr > mr:
            return False, {"pair": [a, b], "nab": str(nr), "mab": str(mr)}
    return True, {}


def _check_chain(scf: ScfRule, n: int) -> tuple[bool, dict]:
    rep = welfare.check_reduction_chain(scf, n=n)
    if rep.holds:
        return True, {}
    return False, {"nt_le_sum_nab": rep.nt_le_sum_nab,
                   "cauchy_each": rep.cauchy_each,
                   "sum_nab_sq_le_9eps1": rep.sum_nab_sq_le_9eps1,
                   "dist_bound": rep.dist_bound}


def _check_four_identity(g: np.ndarray) -> tuple[bool, dict]:
    r3 = welfare.ngcw(welfare.neutral_tensor(g, 3))
    r4 = welfare.ngcw(welfare.neutral_tensor(g, 4))
    if r4.fraction == 2 * r3.fraction:
        return True, {}
    return False, {"ngcw3": str(r3.fraction), "ngcw4": str(r4.fraction)}


def _check_composition(g: np.ndarray, samples, seed) -> tuple[bool, dict]:
    rep = welfare.check_composition(g, samples=samples, seed=seed)
    if rep.holds:
        return True, {}
    return False, {"joint": str(rep.joint.value),
                   "product": str(rep.left.value * rep.right.value),
                   "gap": rep.gap, "tol": rep.tol}


def _check_converse(G: welfare.GswfIia, n: int) -> tuple[bool, dict]:
    bound = 2 * welfare.ngcw(G).fraction
    F = welfare.scf_from_gswf(G)
    for a, b in PAIRS3:
        r = mab(F, a, b, n)
        if r.fraction > bound:
            return False, {"pair": [a, b], "mab": str(r.fraction),
                           "two_ngcw": str(bound)}
    return True, {}


# --- suite drivers -----------------------------------------------------

def _suite_first_reduction(trials, n, seed, samples, workers):
    for rule in scf_corpus(n, trials, seed):
        ok, extra = _check_first_reduction(rule, n)
        yield {"suite": "first-reduction", "n": n,
               "scf": scf_descriptor(rule), **extra}, ok


def _random_disjoint_pair(n: int, rng) -> tuple[lattice.TernarySet, lattice.TernarySet]:
    p, q = rng.choice((0.25, 0.5, 0.75), size=2)
    u = rng.random(3 ** n)
    a = u < p
    b = ~a & (rng.random(3 ** n) < q)
    return lattice.TernarySet(n, a), lattice.TernarySet(n, b)


def _suite_border(trials, n, seed, samples, workers):
    nz = min(n, 4)
    for rule in zoo_rules(nz):
        for a, b in PAIRS3:
            for z in range(1 << nz):
                A, B = lattice.sets_ab(rule, a, b, z, nz)
                ok, extra = _check_border_pair(A, B)
                yield {"suite": "border", "source": "scf", "n": nz,
                       "scf": scf_descriptor(rule), "pair": [a, b],
                       "column": z, **extra}, ok
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        nk = 1 + k % min(n, 6)
        A, B = _random_disjoint_pair(nk, rng)
        ok, extra = _check_border_pair(A, B)
        yield {"suite": "border", "source": "random", "n": nk,
               "a_indices": A.indices().tolist(),
               "b_indices": B.indices().tolist(), **extra}, ok


def _suite_shifting(trials, n, seed, samples, workers):
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        nk = 1 + k % min(n, 6)
        p = rng.choice((0.25, 0.5, 0.75))
        s = lattice.TernarySet(nk, rng.random(3 ** nk) < p)
        ok, extra = _check_shift(s)
        yield {"suite": "shifting", "n": nk,
               "indices": s.indices().tolist(), **extra}, ok


def _suite_cauchy(trials, n, seed, samples, workers):
    for rule in scf_corpus(n, trials, seed):
        ok, extra = _check_cauchy(rule, n)
        yield {"suite": "cauchy", "n": n,
               "scf": scf_descriptor(rule), **extra}, ok


def _suite_chain(trials, n, seed, samples, workers):
    for rule in scf_corpus(n, trials, seed):
        ok, extra = _check_chain(rule, n)
        yield {"suite": "reduction-chain", "n": n,
               "scf": scf_descriptor(rule), **extra}, ok


def _suite_arrow_identity(trials, n, seed, samples, workers):
    if not exact_feasible(n, 4):
        raise BudgetError(f"exact four-alternative enumeration infeasible at n={n}")
    for desc, g in _odd_g_corpus(n, trials, seed):
        ok, extra = _check_four_identity(g)
        yield {"suite": "arrow-identity", **desc, **extra}, ok


def _suite_composition(trials, n, seed, samples, workers):
    if not exact_feasible(n, 6) and samples is None:
        raise BudgetError(
            f"joint six-alternative enumeration infeasible at n={n}; pass samples")
    for k, (desc, g) in enumerate(_odd_g_corpus(n, trials, seed)):
        ok, extra = _check_composition(g, samples, None if samples is None else seed + k)
        d = {"suite": "composition", **desc, **extra}
        if samples is not None:
            d["samples"], d["sample_seed"] = samples, seed + k
        yield d, ok


def _suite_converse(trials, n, seed, samples, workers):
    for desc, G in gswf_corpus(n, trials, seed):
        ok, extra = _check_converse(G, n)
        yield {"suite": "converse", **desc, **extra}, ok


@dataclass(frozen=True)
class SuiteSpec:
    run: object
    trials: int
    n: int
    summary: str


SUITES = {
    "first-reduction": SuiteSpec(
        _suite_first_reduction, 200, 3,
        "pairwise manipulability is at most six times total manipulation power"),
    "border": SuiteSpec(
        _suite_border, 2000, 4,
        "disjoint subset pairs satisfy the directed-border inequality"),
    "shifting": SuiteSpec(
        _suite_shifting, 2000, 4,
        "monotone rearrangement preserves size, yields monotone sets, never grows borders"),
    "cauchy": SuiteSpec(
        _suite_cauchy, 200, 3,
        "squared minority preference is at most pairwise manipulability"),
    "reduction-chain": SuiteSpec(
        _suite_chain, 50, 3,
        "the full quantitative chain from manipulation power to dictator distance"),
    "arrow-identity": SuiteSpec(
        _suite_arrow_identity, 20, 3,
        "four-alternative paradox probability doubles the three-alternative one"),
    "composition": SuiteSpec(
        _suite_composition, 5, 2,
        "no-winner events of disjoint alternative blocks are independent"),
    "converse": SuiteSpec(
        _suite_converse, 20, 3,
        "rules built from pairwise functions inherit a paradox-probability bound"),
}


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    instances: int
    passes: int
    counterexample: dict | None
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.passes == self.instances

    def to_dict(self) -> dict:
        return {"suite": self.suite, "instances": self.instances,
                "passes": self.passes, "ok": self.ok,
                "counterexample": self.counterexample,
                "wall_time": self.wall_time}


def run_suite(name: str, *, trials=None, n=None, seed: int = 0,
              samples=None, workers: int = 1) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    spec = SUITES[name]
    trials = spec.trials if trials is None else trials
    n = spec.n if n is None else n
    if n < 1:
        raise ValueError(f"need at least one voter, got n={n}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    t0 = time.perf_counter()
    total = passes = 0
    first = None
    for desc, ok in spec.run(trials, n, seed, samples, workers):
        total += 1
        passes += ok
        if not ok and first is None:
            first = desc
    return SuiteReport(name, total, passes, first, time.perf_counter() - t0)


def replay(counterexample: dict) -> bool:
    """Rebuild one serialized instance and re-run its check; True means the
    property holds on replay."""
    suite = counterexample["suite"]
    n = counterexample.get("n")
    if suite == "first-reduction":
        return _check_first_reduction(build_scf(counterexample["scf"]), n)[0]
    if suite == "cauchy":
        return _check_cauchy(build_scf(counterexample["scf"]), n)[0]
    if suite == "reduction-chain":
        return _check_chain(build_scf(counterexample["scf"]), n)[0]
    if suite == "border":
        if counterexample["source"] == "scf":
            A, B = lattice.sets_ab(build_scf(counterexample["scf"]),
                                   *counterexample["pair"],
                                   counterexample["column"], n)
        else:
            A = lattice.TernarySet.from_indices(n, counterexample["a_indices"])
            B = lattice.TernarySet.from_indices(n, counterexample["b_indices"])
        return _check_border_pair(A, B)[0]
    if suite == "shifting":
        s = lattice.TernarySet.from_indices(n, counterexample["indices"])
        return _check_shift(s)[0]
    if suite == "arrow-identity":
        return _check_four_identity(_build_odd_g(counterexample))[0]
    if suite == "composition":
        return _check_composition(_build_odd_g(counterexample),
                                  counterexample.get("samples"),
                                  counterexample.get("sample_seed"))[0]
    if suite == "converse":
        return _check_converse(build_gswf(counterexample), n)[0]
    raise ValueError(f"unknown suite {suite!r} in counterexample")
