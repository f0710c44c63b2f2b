"""Tally rules: the per-voter words they decide from, and the tally-space
engine that makes their exact counts.

``plurality``, ``borda`` and ``pairwise_majority_fallback`` decide from F
per-voter tallies summed over the voters (``pairwise_majority_fallback``
also reads voter 0's top when no alternative wins every pair).  Every tally
lies in 0..n·max, so a profile's F tallies pack without carries into one
mixed-radix word, and a profile's word is the sum of its voters' words.

So a count over the 6^n uniform profiles at m = 3 is a count over the
distribution of that sum (IAC-style anonymous counting).  ``TallySpace``
builds one context table per rule and n: the ballots of voter 0 and voter
1 fixed, the other voters' words convolved into a histogram over word
sums.  Every per-voter and symmetry count weighs outcomes on that table.
Only voter 0 is read apart from the sum, so voters 1..n-1 are
exchangeable: a per-voter count is made on voter 0's view of the table and
on voter 1's, and voter 1's stands for the rest.  It serves n up to
``MAX_N``.

The engine and ``decoded_winners``, the one path by which a sampled pass
or a rule's own evaluation elects a block under decodings of its ballots,
read one cached decision table per (rule, m, n), a rule's decision at every
word.  At m = 3 it holds borda up to n = 20 and the other two rules up to
n = 40; past that the rule decides on the unpacked tallies.  ``_scorer``
is the one place that turns summed tallies into a decision, on either side
of the cap; ``_tables.voter_fields`` sums a block's words, or its tallies,
over its voters.  ``Summed``, a sampled block of a tally rule, sums its
voters once and decides each moved or swapped read from that sum.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _tables
from .orders import column_popcounts

# At n = 20 every histogram entry and count is at most 6 · 6^20 < 2^55, a
# ColumnStats holds 2 x 8 MiB, and borda's words span 41^3 sums.
MAX_N = 20


def _majority_winner(above, m, n) -> np.ndarray:
    """The alternative beating every other by a strict majority, from the
    tallies ``above`` of the pairs a < b in ``np.triu_indices(m, 1)`` order;
    m where there is none.  A strict-majority Condorcet winner is unique."""
    beats_all = np.ones((m, above.shape[1]), bool)
    for a, b, wins in zip(*np.triu_indices(m, 1), above):
        beats_all[a] &= 2 * wins > n
        beats_all[b] &= 2 * wins < n
    return np.where(beats_all.any(0), beats_all.argmax(0), m)


def _pair_fields(m):
    """Per ranking and pair a < b (as in pair_list(m)): 1 if a is above b."""
    first, second = np.triu_indices(m, 1)
    return _tables.prefers(m)[:, first, second]


# A tally rule's winner depends only on F per-voter tallies summed over the
# voters: name -> (the (m!, F) field table of m, the decision on (F, S)
# tallies of n voters).  argmax elects the first of tied alternatives.
_TALLY_RULES = {
    "plurality": (lambda m: _tables.rank_in_order(m) == 0, lambda t, m, n: t.argmax(0)),
    "borda": (lambda m: m - 1 - _tables.rank_in_order(m), lambda t, m, n: t.argmax(0)),
    "pairwise_majority_fallback": (_pair_fields, _majority_winner),
}
_FALLS_BACK = "pairwise_majority_fallback"  # the one tally rule reading voter 0's top
# Borda's table at m = 3 and n = MAX_N, the largest any tally rule needs
# within the engine's reach; past it the tallies are unpacked instead
_DECISION_TABLE_MAX = (2 * MAX_N + 1) ** 3


def is_tally(scf) -> bool:
    """True when ``scf`` is one of the tally rules (at any m)."""
    return getattr(scf, "name", None) in _TALLY_RULES


def _fields(name, m) -> np.ndarray:
    return np.asarray(_TALLY_RULES[name][0](m), dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _decision_table(name, m, n):
    """(word, decision) of a tally rule at n voters, or None past
    ``_DECISION_TABLE_MAX`` entries; read-only and shared.

    Every tally lies in 0..n·max, so the F tallies of a profile pack without
    carries into one mixed-radix word sum_j tally_j · R^j, R = n·max + 1:
    ``word[r]`` is ranking r's contribution, and a profile's word is the sum
    of its voters'.  ``decision`` holds the rule's decision at each of the
    R^F words, unreachable tally vectors included.
    """
    fields = _fields(name, m)
    radix = int(fields.max()) * n + 1
    size = radix ** fields.shape[1]
    if size > _DECISION_TABLE_MAX:
        return None
    weights = radix ** np.arange(fields.shape[1])
    grid = np.arange(size) // weights[:, None] % radix
    table = fields @ weights, _TALLY_RULES[name][1](grid, m, n).astype(np.uint8)
    for part in table:
        part.setflags(write=False)  # shared by every caller
    return table


def _fall_back_to_voter_0(winners, first, tops, m) -> np.ndarray:
    """In place, where ``winners`` is m (no strict-majority winner), voter
    0's top choice ``tops[first]``, given voter 0's ballot codes ``first``."""
    none = winners == m
    winners[none] = tops[first[none]]
    return winners


def _scorer(name, m, n):
    """(contrib, decide): a tally rule's decision at n voters, before the
    voter-0 fallback, is ``decide(sums)`` on the (K, S) sums over voters of
    the (m!, K) per-ranking table ``contrib``.  Within the decision table's
    cap K = 1, a ranking's word, and ``decide`` is a gather on the table;
    past it ``contrib`` is the rule's fields and ``decide`` its decision."""
    table = _decision_table(name, m, n)
    if table is not None:
        word, decision = table
        return word[:, None], lambda sums: decision[sums[0]]
    decide = _TALLY_RULES[name][1]
    return _fields(name, m), lambda sums: decide(sums, m, n)


def decoded_winners(scf, codes, decoders) -> np.ndarray:
    """Row k is ``scf.winners_from_digits(decoders[k][codes])``; the (n, S)
    block ``codes`` is only read.  A tally rule composes each decoding into
    its per-ranking words, or past the table's cap its per-ranking fields
    (``_scorer``), so the voters are summed once for all; any other rule
    elects each decoding."""
    if not is_tally(scf):
        return np.stack([scf.winners_from_digits(d[codes]) for d in decoders])
    name, m, n = scf.name, scf.m, codes.shape[0]
    contrib, decide = _scorer(name, m, n)
    sums = _tables.voter_fields(np.concatenate([contrib[d] for d in decoders], 1), codes)
    winners = np.stack([decide(part) for part in np.split(sums, len(decoders))])
    if name == _FALLS_BACK:
        for row, d in zip(winners, decoders):
            _fall_back_to_voter_0(row, codes[0], _tables.perms(m)[d, 0], m)
    return winners


class Summed:
    """A sampled block of profiles, ``digits`` of shape (n, S), of a tally
    rule, with the reads of ``sampling.Evaluated``.  The voters are summed
    once; a move of voter i decides on the sum less voter i's share plus
    the new ballot's, and a swap keeps the sum, so it changes only the
    voter-0 fallback of ``pairwise_majority_fallback``.  Every read returns
    one winner per profile; ``digits`` is only read."""

    def __init__(self, scf, digits):
        self.scf = scf
        self.digits = digits
        self._contrib, self._decide = _scorer(scf.name, scf.m, digits.shape[0])
        self._sums = _tables.voter_fields(self._contrib, digits)
        self._tops = _tables.perms(scf.m)[:, 0] if scf.name == _FALLS_BACK else None
        self._decided = self._decide(self._sums)
        self._decided.setflags(write=False)  # returned as the winners when no fallback

    def _elect(self, decided, first):
        """``decided`` with voter 0 casting ``first`` wherever it falls back."""
        if self._tops is None:
            return decided
        return _fall_back_to_voter_0(decided.copy(), first, self._tops, self.scf.m)

    def winners(self):
        return self._elect(self._decided, self.digits[0])

    def moved(self, i, ballots):
        ballots = np.broadcast_to(ballots, self.digits.shape[1:])
        sums = self._sums - self._contrib[self.digits[i]].T + self._contrib[ballots].T
        return self._elect(self._decide(sums), ballots if i == 0 else self.digits[0])

    def swapped(self, i):
        return self._elect(self._decided, self.digits[1] if i == 0 else self.digits[0])


def exact_reach(scf) -> int:
    """The largest n at which ``TallySpace`` makes the exact counts of
    ``scf``: ``MAX_N`` for a tally rule over three alternatives, else 0."""
    return MAX_N if is_tally(scf) and scf.m == 3 else 0


@functools.lru_cache(maxsize=8)
def tally_space(name: str, n: int) -> "TallySpace":
    """The engine of tally rule ``name`` at n voters, built once."""
    return TallySpace(name, n)


class TallySpace:
    """Exact counts over the 6^n profiles of a tally rule at m = 3, made
    over the distribution of the voters' summed words.

    A profile's winner is ``outcome[word sum, voter 0's ballot]``.  Every
    per-voter and symmetry count reads one context table: the ballots of
    voters 0 and 1 (voter 0 alone at n = 1) against the word histogram of
    the others, each outcome weighed by the number of profiles behind it.
    This class is the one place that knows voters 1..n-1 are exchangeable;
    ``gains`` and ``structure`` return counts for all n voters, what
    ``lines.TableSpace`` counts on the rule's winner table.
    """

    def __init__(self, name: str, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"the tally engine serves 1 <= n <= {MAX_N}, got n={n}")
        self.n = n
        self.fields = _fields(name, 3)
        self.top = int(self.fields.max())
        self.radix = self.top * n + 1
        self.weights = self.radix ** np.arange(self.fields.shape[1])
        self.word, decision = _decision_table(name, 3, n)
        outcome = np.repeat(decision[:, None], 6, axis=1)  # [word sum, voter 0's ballot]
        if name == _FALLS_BACK:
            _fall_back_to_voter_0(outcome, np.broadcast_to(np.arange(6), outcome.shape),
                                  _tables.perms(3)[:, 0], 3)
        outcome.setflags(write=False)  # shared by every caller of ``tally_space``
        self.outcome = outcome

    def _spread(self, dist, k, ballots) -> np.ndarray:
        """The histogram ``dist`` of word sums after adding k voters, each
        casting any of ``ballots``.  No sum carries past a field's radix,
        so a shift by a word on the flat index is exact."""
        for _ in range(k):
            out = np.zeros_like(dist)
            for w in self.word[ballots]:
                out[w:] += dist[:dist.size - w]
            dist = out
        return dist

    def _empty(self) -> np.ndarray:
        """The histogram of zero voters: one profile, word sum 0."""
        dist = np.zeros(self.radix ** self.fields.shape[1], np.int64)
        dist[0] = 1
        return dist

    @functools.cached_property
    def _context(self):
        """The one context table, (others, weight, ballots): voter 0, and
        voter 1 when n >= 2, cast ``ballots[:, t]`` (t = b_0 + 6·b_1), and
        the other voters sum to their c-th reachable word sum ``others[c]``
        in ``weight[c]`` profiles per tuple."""
        j = min(self.n, 2)
        dist = self._spread(self._empty(), self.n - j, np.arange(6))
        others = np.flatnonzero(dist)
        return others, dist[others], _tables.index_digits(np.arange(6 ** j), 6, j)

    def _winners(self, others, ballots) -> np.ndarray:
        """``[t, c]``: the winner once the fixed voters cast ``ballots[:, t]``
        (voter 0 first) and the others sum to ``others[c]``."""
        return self.outcome[others + self.word[ballots].sum(0)[:, None], ballots[0][:, None]]

    def _per_voter(self, count, voters) -> list:
        """Each listed voter's ``count(winners, weight)``: ``winners[r, c]``
        is the winner once the voter casts ballot r in the c-th context of
        the others, which ``weight[c]`` profiles share.  The others enter
        through the word sum, and only voter 0 through its ballot too, so
        voters 2..n-1 repeat voter 1's count; each of the two counts is
        made only if a listed voter needs it."""
        others, weight, ballots = self._context
        grid = self._winners(others, ballots).reshape(-1, 6, others.size)  # [b_1, b_0, c]
        views = [grid.transpose(1, 0, 2), grid][:len(ballots)]  # rows: b_0, then b_1
        rows = [min(i, len(views) - 1) for i in voters]
        counts = {j: count(views[j].reshape(6, -1), np.tile(weight, len(grid)))
                  for j in sorted(set(rows))}
        return [counts[j] for j in rows]

    def gains(self, voters) -> list[int]:
        """Per listed voter, the (profile, ballot) pairs at which the voter
        casting the ballot instead elects an alternative the voter ranks
        higher."""
        own = np.arange(6)[:, None, None]

        def count(winners, weight):
            improves = _tables.prefers(3)[own, winners[None], winners[:, None]]  # [own, fresh, c]
            return int(improves.sum((0, 1)) @ weight)
        return self._per_voter(count, voters)

    def structure(self) -> list:
        """``rules._diag_counts``' counts: per voter, the profiles electing
        other than the voter's top, then than its bottom; per alternative,
        the profiles electing it; the relabelling violations, F(pi o x) !=
        pi(F(x)), over the five non-identity relabelings pi; and the
        violations of the n - 1 adjacent voter swaps."""
        perms, act = _tables.perms(3), _tables.relabel_action(3)
        top, bottom = zip(*self._per_voter(lambda winners, weight: (
            (winners != perms[:, :1]).sum(0) @ weight, (winners != perms[:, -1:]).sum(0) @ weight),
            range(self.n)))
        others, weight, ballots = self._context
        winners = self._winners(others, ballots)
        elected = [(winners == a).sum(0) @ weight for a in range(3)]
        relabelled = sum((self._winners(self._relabeled(others, q, self.n - len(ballots)),
                                        act[q][ballots]) != perms[q][winners]).sum(0) @ weight
                         for q in range(1, 6))
        # swapping voters 0 and 1 keeps the word sum; a swap of voters i, i + 1 >= 1
        # keeps voter 0's ballot too, so it changes nothing
        swapped = (self._winners(others, ballots[::-1]) != winners).sum(0) @ weight
        return [*top, *bottom, *elected, relabelled, swapped]

    def _relabeled(self, words, q, voters) -> np.ndarray:
        """The word sum of ``voters`` voters whose ballots sum to ``words``,
        once every ballot is relabelled by ``perms(3)[q]``: each field of a
        relabelled ranking is a field of the ranking, or that field's
        complement."""
        moved = self.fields[_tables.relabel_action(3)[q]]
        out = np.zeros_like(words)
        for j, column in enumerate(moved.T):
            for k, field in enumerate(self.fields.T):
                if (column == field).all():
                    out += (words // self.weights[k] % self.radix) * self.weights[j]
                    break
                if (column == self.top - field).all():
                    out += (self.top * voters - words // self.weights[k] % self.radix) \
                        * self.weights[j]
                    break
            else:
                raise AssertionError(f"relabelling {q} does not act on the fields")
        return out

    def columns(self, a, b) -> np.ndarray:
        """``metrics.column_stats``' counts: per column z of the pair
        (a, b), the completions electing a, then per column those electing
        b.  A column's counts depend only on voter 0's bit and on how many
        other voters put a above b."""
        n = self.n
        bit = _tables.pair_bit(3, a, b)
        sides = np.flatnonzero(bit == 0), np.flatnonzero(bit)  # ballots by bit
        per = np.zeros((2, 2, n), np.int64)  # [a or b, voter 0's bit, others above]
        above = self._empty()  # histogram of the others putting a above b
        for k in range(n):
            dist = self._spread(above, n - 1 - k, sides[0])
            support = np.flatnonzero(dist)
            for bit0, ballots in enumerate(sides):
                winners = self.outcome[support + self.word[ballots][:, None], ballots[:, None]]
                per[0, bit0, k] = (winners == a).sum(0) @ dist[support]
                per[1, bit0, k] = (winners == b).sum(0) @ dist[support]
            above = self._spread(above, 1, sides[1])
        popcount = column_popcounts(n - 1)  # of the others' bits, z >> 1
        return per[:, :, popcount].transpose(0, 2, 1).reshape(-1)
