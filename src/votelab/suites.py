"""Named verification suites over seeded corpora.

A suite is a descriptor corpus plus one check.  ``descs`` lists plain,
JSON-ready dicts, one per instance (a rule, a pairwise preference function,
or a pair of ternary subsets, named by its construction and seed or by its
points); ``check`` takes a block of descriptors, rebuilds their instances
and re-checks one family of inequalities or identities on each, returning
one verdict per descriptor.  Most checks take the block one instance at a
time; ``border`` and ``shifting`` group it by dimension and check each
group as one stack of sets, and ``cauchy`` stacks the winner tables of its
rules outside the tally engine by n, so that each read counts one pair's
columns of every stacked table.  ``run_suite`` feeds the corpus to the
check in blocks of ``BLOCK`` and reports the first failing descriptor in
corpus order; ``replay`` runs that same check on a serialized one, a block
of one.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice
from typing import Callable, Iterable

import numpy as np

from . import _tables, lattice, lines, sampling, tallies, welfare
from .metrics import column_stats, mab, manipulation_power_total, pair_mode
from .rules import ScfRule, nameable_params, zoo_rules
from .welfare import PAIRS3

BLOCK = 128  # descriptors per check call, so a corpus is never held whole


# --- corpora: descriptors and the instances they name ------------------

def scf_corpus(n: int, trials: int, seed: int) -> list[ScfRule]:
    """The rule zoo at n voters, then seeded uniform-random winner tables
    with seeds ``seed .. seed+trials-1``."""
    return zoo_rules(n) + [ScfRule("random_table", seed=seed + k) for k in range(trials)]


def scf_descriptor(rule: ScfRule) -> dict:
    return {"name": rule.name, "m": rule.m,
            "params": {k: int(v) for k, v in rule.params.items()}}


def build_scf(desc: dict) -> ScfRule:
    nameable_params(desc["name"])
    return ScfRule(desc["name"], desc.get("m", 3), **desc.get("params", {}))


def gswf_corpus(n: int, trials: int, seed: int) -> list[dict]:
    """Descriptors of dictator and anti-dictator orderings, the
    simple-majority tensor when n is odd, seeded neutral tensors and free
    tables, and rules from the zoo pushed through the pairwise construction."""
    descs = [{"kind": "dictator_swf", "voter": 0, "n": n},
             {"kind": "anti_dictator_swf", "voter": n - 1, "n": n}]
    if n % 2 == 1:
        descs.append({"kind": "majority_tensor", "n": n})
    for k in range(trials):
        descs.append({"kind": "odd_tensor", "seed": seed + k, "n": n})
        descs.append({"kind": "random_iia", "seed": seed + 1000 + k, "n": n})
    for rule in zoo_rules(n):
        if not rule.params:  # the tally rules
            descs.append({"kind": "from_scf", "scf": scf_descriptor(rule),
                          "tie_voter": 0, "n": n})
    return descs


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


def _odd_g_descs(trials, n, seed, samples) -> list[dict]:
    descs = [{"kind": "majority_g", "n": n}] if n % 2 == 1 else []
    return descs + [{"kind": "random_odd_g", "seed": seed + k, "n": n}
                    for k in range(trials)]


def _build_odd_g(desc: dict) -> np.ndarray:
    kind = desc["kind"]
    if kind == "majority_g":
        return welfare.majority_g(desc["n"])
    if kind == "random_odd_g":
        return welfare.random_odd_g(desc["n"], desc["seed"])
    raise ValueError(f"unknown odd-function descriptor kind {kind!r}")


def _scf_descs(trials, n, seed, samples):
    return [{"n": n, "scf": scf_descriptor(rule)} for rule in scf_corpus(n, trials, seed)]


def _random_lattice(trials, n, seed):
    """One generator and one dimension per trial; dimensions cycle
    1, 2, ..., min(n, 6)."""
    for k in range(trials):
        yield np.random.default_rng([seed, k]), 1 + k % min(n, 6)


def _border_descs(trials, n, seed, samples):
    nz = min(n, 4)
    for rule in zoo_rules(nz):
        scf = scf_descriptor(rule)
        for a, b in PAIRS3:
            for z in range(1 << nz):
                yield {"source": "scf", "n": nz, "scf": scf, "pair": [a, b],
                       "column": z}
    densities = np.array(lattice.DENSITIES)
    for rng, nk in _random_lattice(trials, n, seed):
        p, q = densities[rng.integers(0, len(densities), 2)]  # the draw of rng.choice
        a = rng.random(3 ** nk) < p
        b = ~a & (rng.random(3 ** nk) < q)
        yield {"source": "random", "n": nk, "a_indices": a.nonzero()[0].tolist(),
               "b_indices": b.nonzero()[0].tolist()}


def _shifting_descs(trials, n, seed, samples):
    for rng, nk in _random_lattice(trials, n, seed):
        yield {"n": nk, "indices": lattice.random_set(nk, rng=rng).indices().tolist()}


def _composition_descs(trials, n, seed, samples):
    descs = _odd_g_descs(trials, n, seed, samples)
    if samples is not None:
        descs = [{**d, "samples": samples, "sample_seed": seed + k}
                 for k, d in enumerate(descs)]
    return descs


def _converse_descs(trials, n, seed, samples):
    return gswf_corpus(n, trials, seed)


# --- checks: block of descriptors -> one (holds, failure detail) each ---

def _each(check):
    """A block check that runs a per-instance check on each descriptor."""
    return lambda block: [check(desc) for desc in block]


def _by_dimension(block, kind=lambda desc: None) -> dict:
    """Positions of the block's descriptors, grouped by (n, kind(desc))
    in first-seen order; each n is checked to be a lattice dimension."""
    groups = defaultdict(list)
    for k, desc in enumerate(block):
        groups[lattice.check_dimension(desc["n"]), kind(desc)].append(k)
    return groups


def _check_first_reduction(desc) -> tuple[bool, dict]:
    scf, n = build_scf(desc["scf"]), desc["n"]
    six_total = 6 * manipulation_power_total(scf, n).fraction
    for a, b in PAIRS3:
        r = mab(scf, a, b, n)
        if r.fraction > six_total:
            return False, {"pair": [a, b], "mab": str(r.fraction),
                           "six_m_total": str(six_total)}
    return True, {}


def _border_stacks(block, rows, n, scf_source):
    """The stacks of sets A and B of the descriptors at ``rows``: winner
    sets of rule columns, or the points of random pairs."""
    descs = [block[k] for k in rows]
    if not scf_source:
        return (lattice.SetStack.from_indices(n, [d[key] for d in descs])
                for key in ("a_indices", "b_indices"))
    # one call per run of columns of the same rule and pair
    runs = [lattice.sets_ab(build_scf(scf), *pair, [d["column"] for d in run], n)
            for (scf, pair), run in groupby(descs, lambda d: (d["scf"], d["pair"]))]
    return (lattice.SetStack(n, np.concatenate([r[side].membership for r in runs]))
            for side in (0, 1))


def _check_border(block) -> list[tuple[bool, dict]]:
    out: list = [None] * len(block)
    for (n, scf_source), rows in _by_dimension(block, lambda d: d["source"] == "scf").items():
        A, B = _border_stacks(block, rows, n, scf_source)
        rep = lattice.check_border_inequality(A, B)
        for k, holds, lhs, rhs in zip(rows, rep.holds.tolist(), rep.lhs.tolist(),
                                      rep.rhs.tolist()):
            out[k] = (True, {}) if holds else (False, {"lhs": str(lhs), "rhs": str(rhs)})
    return out


def _check_shift(block) -> list[tuple[bool, dict]]:
    out: list = [None] * len(block)
    for (n, _), rows in _by_dimension(block).items():
        s = lattice.SetStack.from_indices(n, [block[k]["indices"] for k in rows])
        t = lattice.shift_monotone(s)
        before, after = lattice.direction_counts(s), lattice.direction_counts(t)
        moved = np.count_nonzero(t.membership & ~s.membership, axis=1)
        for k, *row in zip(rows, s.size.tolist(), t.size.tolist(), before.tolist(),
                           after.tolist(), moved.tolist()):
            out[k] = _shift_verdict(*row)
    return out


def _shift_verdict(size_s, size_t, before, after, moved) -> tuple[bool, dict]:
    if size_t != size_s:
        return False, {"reason": "size changed", "before": size_s, "after": size_t}
    if any(after):  # lattice.is_monotone's test: the border is empty
        return False, {"reason": "result not monotone"}
    if any(a > b for a, b in zip(after, before)):
        return False, {"reason": "a border direction grew",
                       "before": before, "after": after}
    if moved > sum(before):
        return False, {"reason": "moved more cells than the border size",
                       "moved": moved, "border": sum(before)}
    return True, {}


def _check_cauchy(block) -> list[tuple[bool, dict]]:
    """nab^2 <= mab for the three pairs of each rule, exact.  A tally rule
    counts its columns on the tally engine (``column_stats``); every other
    rule's winner table joins a stack of the block's tables of its n, at
    most ``_tables.BLOCK`` entries (or one table), and each read of a stack
    counts one pair's columns of all its tables."""
    out: list = [None] * len(block)
    tabled = defaultdict(list)  # n -> positions of the rules read as tables
    for k, desc in enumerate(block):
        scf = build_scf(desc["scf"])
        n, _ = pair_mode(scf, PAIRS3, desc["n"], "each pair metric", "exact", None, None)
        if n <= tallies.exact_reach(scf):
            stats = [column_stats(scf, a, b, n) for a, b in PAIRS3]
            out[k] = _cauchy_verdict(n, [s.nab_sum for s in stats], [s.mab_sum for s in stats])
        else:
            tabled[n].append(k)
    for n, rows in tabled.items():
        per = max(1, _tables.BLOCK // 6 ** n)
        for lo in range(0, len(rows), per):
            part = rows[lo:lo + per]
            # rules built afresh, so that no table outlives its stack
            tables = [build_scf(block[k]["scf"]).as_table(n).outputs for k in part]
            stack = tables[0][None] if len(tables) == 1 else np.stack(tables)
            counts = np.stack([lines.columns(stack, n, a, b) for a, b in PAIRS3], 1)
            side_a, side_b = counts[..., :1 << n], counts[..., 1 << n:]  # [table, pair, z]
            mins = np.minimum(side_a, side_b).sum(-1).tolist()
            products = (side_a * side_b).sum(-1).tolist()  # < 2^40 at the budget's n <= 10
            for k, *sums in zip(part, mins, products):
                out[k] = _cauchy_verdict(n, *sums)
    return out


def _cauchy_verdict(n, mins, products) -> tuple[bool, dict]:
    """nab^2 <= mab for each pair of ``PAIRS3``, from the pair's column
    sums: ``mins``, sum_z min(count_a, count_b) = 6^n nab, and
    ``products``, sum_z count_a count_b = 2^n 9^n mab; in integers,
    mins^2 <= 2^n products.  A failure names the first failing pair."""
    for (a, b), low, both in zip(PAIRS3, mins, products):
        if low * low > both << n:
            return False, {"pair": [a, b], "nab": str(Fraction(low, 6 ** n)),
                           "mab": str(Fraction(both, 2 ** n * 9 ** n))}
    return True, {}


def _check_chain(desc) -> tuple[bool, dict]:
    rep = welfare.check_reduction_chain(build_scf(desc["scf"]), n=desc["n"])
    if rep.holds:
        return True, {}
    return False, {"nt_le_sum_nab": rep.nt_le_sum_nab,
                   "cauchy_each": rep.cauchy_each,
                   "sum_nab_sq_le_9eps1": rep.sum_nab_sq_le_9eps1,
                   "dist_bound": rep.dist_bound}


def _check_four_identity(desc) -> tuple[bool, dict]:
    g = _build_odd_g(desc)
    r3 = welfare.ngcw(welfare.neutral_tensor(g, 3))
    r4 = welfare.ngcw(welfare.neutral_tensor(g, 4))
    if r4.fraction == 2 * r3.fraction:
        return True, {}
    return False, {"ngcw3": str(r3.fraction), "ngcw4": str(r4.fraction)}


def _check_composition(desc) -> tuple[bool, dict]:
    rep = welfare.check_composition(_build_odd_g(desc), samples=desc.get("samples"),
                                    seed=desc.get("sample_seed"))
    if rep.holds:
        return True, {}
    return False, {"joint": str(rep.joint.value),
                   "product": str(rep.left.value * rep.right.value),
                   "gap": rep.gap, "tol": rep.tol}


def _check_converse(desc) -> tuple[bool, dict]:
    G = build_gswf(desc)
    bound = 2 * welfare.ngcw(G).fraction
    F = welfare.scf_from_gswf(G)
    for a, b in PAIRS3:
        r = mab(F, a, b, G.n)
        if r.fraction > bound:
            return False, {"pair": [a, b], "mab": str(r.fraction),
                           "two_ngcw": str(bound)}
    return True, {}


@dataclass(frozen=True)
class SuiteSpec:
    """``descs(trials, n, seed, samples)`` lists the instance descriptors;
    ``check(block)`` rebuilds the instances of a list of descriptors and
    returns one (holds, detail) per descriptor, in order.  A check with no
    sampled path enumerates profiles of ``exact_m`` alternatives, and
    ``run_suite`` refuses sizes past the exact budget."""

    descs: Callable[..., Iterable[dict]]
    check: Callable[[list[dict]], list[tuple[bool, dict]]]
    trials: int
    n: int
    summary: str
    exact_m: int | None = None


SUITES = {
    "first-reduction": SuiteSpec(
        _scf_descs, _each(_check_first_reduction), 200, 3,
        "pairwise manipulability is at most six times total manipulation power", 3),
    "border": SuiteSpec(
        _border_descs, _check_border, 2000, 4,
        "disjoint subset pairs satisfy the directed-border inequality"),
    "shifting": SuiteSpec(
        _shifting_descs, _check_shift, 2000, 4,
        "monotone rearrangement preserves size, yields monotone sets, never grows borders"),
    "cauchy": SuiteSpec(
        _scf_descs, _check_cauchy, 200, 3,
        "squared minority preference is at most pairwise manipulability", 3),
    "reduction-chain": SuiteSpec(
        _scf_descs, _each(_check_chain), 50, 3,
        "the full quantitative chain from manipulation power to dictator distance", 3),
    "arrow-identity": SuiteSpec(
        _odd_g_descs, _each(_check_four_identity), 20, 3,
        "four-alternative paradox probability doubles the three-alternative one", 4),
    "composition": SuiteSpec(
        _composition_descs, _each(_check_composition), 5, 2,
        "no-winner events of disjoint alternative blocks are independent"),
    "converse": SuiteSpec(
        _converse_descs, _each(_check_converse), 20, 3,
        "rules built from pairwise functions inherit a paradox-probability bound", 3),
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
              samples=None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    spec = SUITES[name]
    trials = spec.trials if trials is None else trials
    n = spec.n if n is None else n
    if n < 1:
        raise ValueError(f"need at least one voter, got n={n}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if spec.exact_m is not None:
        sampling.pick_mode("exact", n, spec.exact_m, None, None,
                           exact_only=f"the {name} suite")
    t0 = time.perf_counter()
    total = passes = 0
    first = None
    descs = iter(spec.descs(trials, n, seed, samples))
    while block := list(islice(descs, BLOCK)):
        for desc, (ok, detail) in zip(block, spec.check(block), strict=True):
            passes += ok
            if not ok and first is None:
                first = {"suite": name, **desc, **detail}
        total += len(block)
    if total == 0:
        raise ValueError(f"suite {name!r} has no instances to check at trials={trials}, n={n}")
    return SuiteReport(name, total, passes, first, time.perf_counter() - t0)


# The integer fields of a descriptor, besides ``pair`` and a rule's ``params``
_INTEGER_FIELDS = ("n", "m", "voter", "seed", "tie_voter", "samples", "sample_seed")


def _check_integer_fields(desc: dict) -> None:
    """Refuse, with a ValueError, a descriptor whose integer fields hold
    anything but integers: those of ``_INTEGER_FIELDS``, the two
    alternatives of ``pair`` and every value of ``params``, in the
    descriptor and in its rule descriptor ``scf``."""
    fields = [(key, desc[key]) for key in _INTEGER_FIELDS if key in desc]
    if "pair" in desc:
        if not isinstance(desc["pair"], list) or len(desc["pair"]) != 2:
            raise ValueError(f"pair must list two alternatives, got {desc['pair']!r}")
        fields += [("pair", a) for a in desc["pair"]]
    for key in ("params", "scf"):
        if key in desc and not isinstance(desc[key], dict):
            raise ValueError(f"{key} must be an object, got {desc[key]!r}")
    fields += [(f"parameter {k!r}", v) for k, v in desc.get("params", {}).items()]
    for key, value in fields:
        lattice.check_integer(value, key)
    if "scf" in desc:
        _check_integer_fields(desc["scf"])


def replay(counterexample: dict) -> bool:
    """Re-run the check of the counterexample's suite on the instance it
    describes; True means the property holds on replay."""
    try:
        suite = counterexample["suite"]
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r} in counterexample")
        _check_integer_fields(counterexample)
        return SUITES[suite].check([counterexample])[0][0]
    except KeyError as exc:
        raise ValueError(f"counterexample lacks field {exc.args[0]!r}") from None
