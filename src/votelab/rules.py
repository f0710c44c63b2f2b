"""Social choice functions: explicit tables, the named rule zoo, and the
distance/structure diagnostics (distance to dictatorships, range spread,
neutrality, anonymity).  The diagnostics all come from one structure pass,
``_diag_counts``: one visit of the rule's exact engine, or one sampled
draw per chunk, elected once and once more under all the relabellings."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from . import _tables, sampling
from .orders import Profile, profile_block, profile_chunks
from .sampling import BudgetError
from .tallies import _TALLY_RULES, decoded_winners


def _check_m(m) -> None:
    if m < 2:
        raise ValueError(f"need at least two alternatives, got m={m}")


@dataclass(frozen=True, eq=False)
class ScfTable:
    """An explicit SCF: one winning alternative per profile index."""

    n: int
    m: int
    outputs: np.ndarray

    def __post_init__(self):
        _check_m(self.m)
        out = np.ascontiguousarray(self.outputs, dtype=np.uint8)
        total = factorial(self.m) ** self.n
        if out.shape != (total,):
            raise ValueError(f"need {total} outputs for n={self.n}, m={self.m}, got shape {out.shape}")
        if out.size and int(out.max()) >= self.m:
            raise ValueError("output alternative out of range")
        out.setflags(write=False)
        object.__setattr__(self, "outputs", out)

    @property
    def label(self) -> str:
        return f"table[m={self.m},n={self.n}]"

    def winner(self, profile: Profile) -> int:
        """The winner at one profile; ``ScfRule`` shares this body."""
        return int(self.winners_from_digits(profile_block(profile))[0])

    def winners_from_digits(self, digits) -> np.ndarray:
        digits = np.asarray(digits, dtype=np.int64)
        if digits.shape[0] != self.n:
            raise ValueError(f"table is for n={self.n}, got {digits.shape[0]} voter rows")
        return self.outputs[_tables.digits_index(digits, factorial(self.m))]

    def as_table(self, n: int) -> "ScfTable":
        if n != self.n:
            raise ValueError(f"table is for n={self.n}")
        return self

    def __eq__(self, other):
        return (isinstance(other, ScfTable) and self.n == other.n and self.m == other.m
                and np.array_equal(self.outputs, other.outputs))


_EVALUATORS = {}
_REQUIRED = {}


def register_rule(name, required=()):
    """Register an evaluator fn(rule, digits) -> winners for ScfRule dispatch."""
    def deco(fn):
        _EVALUATORS[name] = fn
        _REQUIRED[name] = tuple(required)
        return fn
    return deco


def nameable_params(name) -> tuple:
    """The parameters of the rule called ``name`` where a name alone builds
    it (the CLI's ``name:int`` and a replayed rule descriptor): only the
    registered rules taking at most one parameter.  Refuses any other name."""
    nameable = {k: v for k, v in _REQUIRED.items() if len(v) <= 1}
    if name not in nameable:
        raise ValueError(f"unknown rule {name!r}; names: {', '.join(nameable)}")
    return nameable[name]


class ScfRule:
    """A named rule, evaluable lazily at any voter count.

    Parameters are rule-specific: ``voter`` for dictatorship and
    anti_dictatorship, ``alt`` for constant, ``seed`` for random_table.
    """

    def __init__(self, name: str, m: int = 3, **params):
        if name not in _EVALUATORS:
            raise ValueError(f"unknown rule: {name!r}")
        _check_m(m)
        missing = [k for k in _REQUIRED[name] if k not in params]
        if missing:
            raise ValueError(f"rule {name!r} needs parameters {missing}")
        stray = sorted(k for k in params if k not in _REQUIRED[name])
        if stray:
            raise ValueError(f"rule {name!r} does not take {stray}; "
                             f"it takes {list(_REQUIRED[name]) or 'no parameters'}")
        if name == "constant" and not 0 <= params["alt"] < m:
            raise ValueError(f"constant alternative {params['alt']} out of range for m={m}")
        if name in ("dictatorship", "anti_dictatorship") and params["voter"] < 0:
            raise ValueError("voter index must be nonnegative")
        if name == "random_table" and params["seed"] < 0:
            raise ValueError(f"random_table seed must be nonnegative, got {params['seed']}")
        self.name = name
        self.m = m
        self.params = dict(params)
        self._table_cache = {}
        self._table_lock = threading.Lock()  # worker threads share one cache

    @property
    def label(self) -> str:
        shown = [f"{k}={v}" for k, v in sorted(self.params.items())
                 if isinstance(v, (int, np.integer))]
        return self.name if not shown else f"{self.name}({','.join(shown)})"

    def __repr__(self):
        return f"ScfRule({self.label}, m={self.m})"

    winner = ScfTable.winner

    def winners_from_digits(self, digits) -> np.ndarray:
        digits = np.asarray(digits, dtype=np.int64)
        return _EVALUATORS[self.name](self, digits)

    def as_table(self, n: int) -> ScfTable:
        """The rule's winner at every profile of n voters, built once per n."""
        with self._table_lock:
            cached = self._table_cache.get(n)
            if cached is None:
                if not sampling.exact_feasible(n, self.m):
                    raise BudgetError(f"materializing {self.label} at n={n} exceeds the budget")
                total = factorial(self.m) ** n
                if self.name == "random_table":
                    rng = np.random.default_rng(self.params["seed"])
                    out = rng.integers(0, self.m, size=total, dtype=np.uint8)
                else:
                    out = np.empty(total, np.uint8)
                    for lo, hi, digits in profile_chunks(n, self.m):
                        out[lo:hi] = self.winners_from_digits(digits)
                cached = self._table_cache[n] = ScfTable(n, self.m, out)
            return cached


@register_rule("anti_dictatorship", ("voter",))
@register_rule("dictatorship", ("voter",))  # applied first: listed before anti_dictatorship
def _eval_dictator(rule, digits):
    """The voter's top choice, or bottom choice for the anti-dictatorship."""
    i = rule.params["voter"]
    if i >= digits.shape[0]:
        raise ValueError(f"dictator index {i} out of range for n={digits.shape[0]}")
    return _tables.perms(rule.m)[digits[i], -1 if rule.name == "anti_dictatorship" else 0]


@register_rule("constant", ("alt",))
def _eval_constant(rule, digits):
    return np.full(digits.shape[1], rule.params["alt"], dtype=np.uint8)


def _eval_tallies(rule, digits) -> np.ndarray:
    """A tally rule's winners: its one decoding, the identity."""
    return decoded_winners(rule, digits, [np.arange(factorial(rule.m))])[0]


for _name in _TALLY_RULES:
    register_rule(_name)(_eval_tallies)


@register_rule("random_table", ("seed",))
def _eval_random_table(rule, digits):
    return rule.as_table(digits.shape[0]).winners_from_digits(digits)


def zoo_rules(n: int, m: int = 3) -> list[ScfRule]:
    """Every parameterized zoo rule instance at the given sizes."""
    rules = [ScfRule("dictatorship", m, voter=i) for i in range(n)]
    rules += [ScfRule("anti_dictatorship", m, voter=i) for i in range(n)]
    rules += [ScfRule("constant", m, alt=a) for a in range(m)]
    rules += [ScfRule(name, m) for name in _TALLY_RULES]
    return rules


def resolve_n(scf, n=None) -> int:
    """Voter count of an ScfTable, or the explicit n for a rule; at least 1."""
    if isinstance(scf, ScfTable):
        if n is not None and n != scf.n:
            raise ValueError(f"table is for n={scf.n}, asked for n={n}")
        n = scf.n
    elif n is None:
        raise ValueError("n is required when evaluating a rule")
    if int(n) < 1:
        raise ValueError(f"need at least one voter, got n={n}")
    return int(n)


def _diag_counts(scf, n, mode, samples, seed, workers):
    """A rule's structure counts from one exact count or sampled pass: per voter,
    the disagreements with the voter's top choice, then with the voter's
    bottom choice; per alternative, its wins; then the relabelling
    violations and the adjacent voter-swap violations:
    ((top, bottom, elected, relabelled, swapped), trials, mode)."""
    n = resolve_n(scf, n)
    m = scf.m
    perms = _tables.perms(m)
    relabelings = _tables.relabel_action(m)[1:]

    def tally(block):
        winners = block.winners()
        top = [(winners != perms[block.digits[i], 0]).sum() for i in range(n)]
        bottom = [(winners != perms[block.digits[i], -1]).sum() for i in range(n)]
        relabelled = int((decoded_winners(scf, block.digits, relabelings)
                          != perms[1:][:, winners]).sum())
        swapped = sum(int((block.swapped(i) != winners).sum()) for i in range(n - 1))
        return np.concatenate([top, bottom, np.bincount(winners, minlength=m),
                               [relabelled, swapped]])

    counts, trials, mode = sampling.count(
        tally, 2 * n + m + 2, n, m, mode=mode, samples=samples, seed=seed,
        workers=workers, scf=scf,
        space_tally=lambda space: space.structure())
    return (counts[:n], counts[n:2 * n], counts[2 * n:-2], counts[-2], counts[-1]), trials, mode


def _diag_mins(scf, n, mode, samples, seed, workers):
    """The smallest count of each of ``_diag_counts``' per-voter and
    per-alternative parts (top, bottom, elected) with its first index, and
    the (violations, checks) of neutrality and of anonymity:
    ([(count, index)] * 3, [(violations, checks)] * 2, trials, mode)."""
    n = resolve_n(scf, n)
    (*diag, relabelled, swapped), trials, mode = _diag_counts(scf, n, mode, samples,
                                                               seed, workers)
    mins = [(int(part.min()), int(part.argmin())) for part in diag]
    violations = [(int(relabelled), trials * (factorial(scf.m) - 1)),
                  (int(swapped), trials * (n - 1))]
    return mins, violations, trials, mode


def _diag_min(scf, which, n, mode, samples, seed, workers):
    """``_diag_mins``' part ``which`` (0 top, 1 bottom, 2 elected) as a
    probability, a Fraction when exact, and its index."""
    mins, _, trials, used = _diag_mins(scf, n, mode, samples, seed, workers)
    count, i = mins[which]
    return (Fraction(count, trials) if used == "exact" else count / trials), i


def dist_to_dictatorship(scf, n=None, *, mode="auto", samples=None, seed=None, workers=1):
    """min_i Pr[F(x) != top of voter i] with the argmin voter."""
    return _diag_min(scf, 0, n, mode, samples, seed, workers)


def dist_to_antidictatorship(scf, n=None, *, mode="auto", samples=None, seed=None, workers=1):
    """min_i Pr[F(x) != bottom of voter i] with the argmin voter."""
    return _diag_min(scf, 1, n, mode, samples, seed, workers)


def range_min_prob(scf, n=None, *, mode="auto", samples=None, seed=None, workers=1):
    """min_a Pr[F(x) = a] with the argmin alternative."""
    return _diag_min(scf, 2, n, mode, samples, seed, workers)


def neutrality_counts(scf, n=None, *, mode="auto", samples=None, seed=None, workers=1):
    """(violations, checks) of F(pi o x) = pi(F(x)) over non-identity
    relabelings, read from the structure pass of ``_diag_counts``."""
    return _diag_mins(scf, n, mode, samples, seed, workers)[1][0]


def anonymity_counts(scf, n=None, *, mode="auto", samples=None, seed=None, workers=1):
    """(violations, checks) of invariance under adjacent voter transpositions,
    read from the structure pass of ``_diag_counts``."""
    return _diag_mins(scf, n, mode, samples, seed, workers)[1][1]


def is_neutral(scf, n=None, **kw) -> bool:
    """True iff no relabeling violation exists (exhaustive or sampled coverage)."""
    bad, _ = neutrality_counts(scf, n, **kw)
    return bad == 0


def is_anonymous(scf, n=None, **kw) -> bool:
    """True iff no voter-swap violation exists (exhaustive or sampled coverage)."""
    bad, _ = anonymity_counts(scf, n, **kw)
    return bad == 0
