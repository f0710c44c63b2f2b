"""Verification suite runner, corpora, and counterexample replay."""

import dataclasses
import json

import numpy as np
import pytest

from oracles import (border_check_by_instance, border_counts_by_direction,
                     cauchy_check_by_instance, shift_check_by_instance,
                     shift_monotone_by_lines)
from votelab import _tables, lattice, suites
from votelab.metrics import column_stats
from votelab.rules import BudgetError
from votelab.suites import (
    SUITES,
    build_gswf,
    build_scf,
    gswf_corpus,
    replay,
    run_suite,
    scf_corpus,
    scf_descriptor,
)
from votelab.welfare import PAIRS3


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonesuch")


def test_scf_corpus_composition():
    corpus = scf_corpus(3, 7, seed=100)
    names = [r.name for r in corpus]
    assert names.count("random_table") == 7
    assert len(corpus) == 12 + 7
    seeds = [r.params["seed"] for r in corpus if r.name == "random_table"]
    assert seeds == list(range(100, 107))


def test_scf_descriptor_round_trip():
    for rule in scf_corpus(2, 3, seed=0):
        again = build_scf(scf_descriptor(rule))
        assert again.name == rule.name and again.params == rule.params
        assert again.as_table(2) == rule.as_table(2)


def test_gswf_descriptor_round_trip():
    for desc in gswf_corpus(3, 2, seed=5):
        assert build_gswf(json.loads(json.dumps(desc))) == build_gswf(desc)


def test_all_suites_pass_small():
    cases = {
        "first-reduction": dict(trials=5),
        "border": dict(trials=40, n=3),
        "shifting": dict(trials=40, n=3),
        "cauchy": dict(trials=5),
        "reduction-chain": dict(trials=3),
        "arrow-identity": dict(trials=2),
        "composition": dict(trials=2),
        "converse": dict(trials=3),
    }
    assert set(cases) == set(SUITES)
    for name, kw in cases.items():
        rep = run_suite(name, seed=1, **kw)
        assert rep.ok, (name, rep.counterexample)
        assert rep.instances > 0
        assert rep.passes == rep.instances
        assert rep.counterexample is None
        assert rep.wall_time >= 0


def test_suite_reports_are_reproducible():
    a = run_suite("border", trials=30, n=3, seed=7)
    b = run_suite("border", trials=30, n=3, seed=7)
    assert (a.instances, a.passes, a.counterexample) == \
        (b.instances, b.passes, b.counterexample)


def test_suite_report_to_dict():
    rep = run_suite("cauchy", trials=2, seed=0)
    d = rep.to_dict()
    assert d["suite"] == "cauchy" and d["ok"] is True
    assert d["passes"] == d["instances"]


def test_composition_needs_samples_at_large_n():
    with pytest.raises(BudgetError):
        run_suite("composition", n=3, trials=1)
    rep = run_suite("composition", n=3, trials=2, seed=2, samples=40_000)
    assert rep.ok


@pytest.mark.parametrize("name,n", [("shifting", 3), ("composition", 2),
                                    ("arrow-identity", 2)])
def test_empty_corpus_is_refused(name, n):
    with pytest.raises(ValueError, match="no instances"):
        run_suite(name, n=n, trials=0)


def test_arrow_identity_budget_guard():
    with pytest.raises(BudgetError):
        run_suite("arrow-identity", n=6, trials=1)


def test_counterexample_capture_and_replay(monkeypatch):
    """Force a failure to exercise serialization, then replay it against the
    real check (which holds)."""
    spec = SUITES["cauchy"]
    monkeypatch.setitem(SUITES, "cauchy", dataclasses.replace(
        spec, check=lambda block: [(False, {"pair": [0, 1]})] * len(block)))
    rep = run_suite("cauchy", trials=2, seed=3)
    assert not rep.ok
    assert rep.passes == 0
    ce = rep.counterexample
    assert ce["suite"] == "cauchy"
    assert ce["scf"]["name"] == "dictatorship"
    monkeypatch.undo()
    assert replay(ce) is True


def test_replay_dispatch_all_suites():
    examples = [
        {"suite": "first-reduction", "n": 2,
         "scf": {"name": "borda", "m": 3, "params": {}}},
        {"suite": "cauchy", "n": 2,
         "scf": {"name": "random_table", "m": 3, "params": {"seed": 4}}},
        {"suite": "reduction-chain", "n": 2,
         "scf": {"name": "plurality", "m": 3, "params": {}}},
        {"suite": "border", "source": "random", "n": 2,
         "a_indices": [0, 3], "b_indices": [8]},
        {"suite": "border", "source": "scf", "n": 2, "pair": [0, 2],
         "column": 1, "scf": {"name": "plurality", "m": 3, "params": {}}},
        {"suite": "shifting", "n": 2, "indices": [0, 4, 5]},
        {"suite": "arrow-identity", "kind": "majority_g", "n": 3},
        {"suite": "composition", "kind": "random_odd_g", "seed": 2, "n": 2},
        {"suite": "converse", "kind": "random_iia", "seed": 3, "n": 2},
    ]
    for ce in examples:
        assert replay(ce) is True, ce
    with pytest.raises(ValueError):
        replay({"suite": "nonesuch"})


def test_replay_reruns_every_corpus_instance():
    """Each descriptor a suite lists replays through the suite's own check."""
    sizes = {
        "first-reduction": dict(trials=2, n=2),
        "border": dict(trials=12, n=2),
        "shifting": dict(trials=12, n=3),
        "cauchy": dict(trials=2, n=2),
        "reduction-chain": dict(trials=2, n=2),
        "arrow-identity": dict(trials=2, n=3),
        "composition": dict(trials=2, n=2),
        "converse": dict(trials=2, n=2),
    }
    assert set(sizes) == set(SUITES)
    for name, kw in sizes.items():
        descs = list(SUITES[name].descs(kw["trials"], kw["n"], 4, None))
        assert descs, name
        for d in descs:
            assert replay({"suite": name, **d}) is True, (name, d)
    sampled = SUITES["composition"].descs(1, 3, 4, 20_000)
    assert all(replay({"suite": "composition", **d}) is True for d in sampled)


def test_replay_missing_field_is_value_error():
    for ce in ({"suite": "shifting"}, {"n": 2, "indices": [0]},
               {"suite": "cauchy", "n": 2, "scf": {"m": 3}},
               {"suite": "border", "n": 2, "a_indices": [0], "b_indices": [8]}):
        with pytest.raises(ValueError, match="counterexample lacks field"):
            replay(ce)


def test_scf_corpus_random_tables_are_distinct():
    rules = [r for r in scf_corpus(2, 4, seed=50) if r.name == "random_table"]
    tables = [r.as_table(2) for r in rules]
    assert len({tuple(t.outputs.tolist()) for t in tables}) == 4


# --- the stacked border and shifting checks ------------------------------

REFERENCE = {"border": border_check_by_instance, "shifting": shift_check_by_instance}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", ["border", "shifting"])
def test_stacked_checks_equal_the_per_instance_oracle(name, n, seed):
    """Each instance's verdict and detail, checked in one block that spans
    every dimension group and as a stack of one, equal the per-instance
    reference's."""
    descs = list(SUITES[name].descs(150, n, seed, None))
    want = [REFERENCE[name](d) for d in descs]
    assert SUITES[name].check(descs) == want
    assert [SUITES[name].check([d])[0] for d in descs] == want
    assert len({d["n"] for d in descs}) == min(n, 6)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_stacked_kernels_equal_per_set_oracles(n):
    """The numbers behind the verdicts, row by row: shifts, per-direction
    borders and both sides of the border inequality."""
    shifting = [d for d in SUITES["shifting"].descs(60, 6, n, None) if d["n"] == n]
    stack = lattice.SetStack.from_indices(n, [d["indices"] for d in shifting])
    sets = [lattice.TernarySet.from_indices(n, d["indices"]) for d in shifting]
    shifted = lattice.shift_monotone(stack)
    assert isinstance(shifted, lattice.SetStack)
    assert [lattice.TernarySet(n, row) for row in shifted.membership] == \
        [shift_monotone_by_lines(s) for s in sets]
    assert lattice.direction_counts(stack).tolist() == \
        [list(border_counts_by_direction(s).counts) for s in sets]
    assert lattice.border_total(stack).tolist() == \
        [border_counts_by_direction(s).total for s in sets]
    pairs = [d for d in SUITES["border"].descs(60, 6, n, None)
             if d["source"] == "random" and d["n"] == n]
    A, B = (lattice.SetStack.from_indices(n, [d[k] for d in pairs])
            for k in ("a_indices", "b_indices"))
    rep = lattice.check_border_inequality(A, B)
    for row, d in enumerate(pairs):
        a = lattice.TernarySet.from_indices(n, d["a_indices"])
        b = lattice.TernarySet.from_indices(n, d["b_indices"])
        one = lattice.check_border_inequality(a, b)
        assert (rep.lhs[row], rep.rhs[row], rep.holds[row]) == (one.lhs, one.rhs, one.holds)
        assert one.lhs == 3 ** n * (border_counts_by_direction(a).total
                                    + border_counts_by_direction(b).total)


def _key(n, memb) -> tuple:
    return n, tuple(np.flatnonzero(memb).tolist())


def _desc_key(desc, field="indices") -> tuple:
    return desc["n"], tuple(desc[field])  # corpus points are sorted and distinct


def _force_shift(monkeypatch, forced):
    """Make the stacked shift return ``forced[key](row)`` for each set whose
    ``_key`` is in ``forced``; returns the per-set shift that does the
    same, for the per-instance reference."""
    real = lattice.shift_monotone

    def stacked(s):
        memb = real(s).membership.copy()
        for k, row in enumerate(s.membership):
            if _key(s.n, row) in forced:
                memb[k] = forced[_key(s.n, row)](row)
        return lattice.SetStack(s.n, memb)

    def single(s):
        change = forced.get(_key(s.n, s.membership))
        return lattice.TernarySet(s.n, change(s.membership)) if change else \
            shift_monotone_by_lines(s)

    monkeypatch.setattr(lattice, "shift_monotone", stacked)
    return single


def _drop_one(row):
    out = row.copy()
    out[np.flatnonzero(row)[0]] = False
    return out


def _unshifted(row):
    return row.copy()


@pytest.mark.parametrize("block", [16, 512])
def test_shifting_counterexample_is_the_first_in_corpus_order(monkeypatch, block):
    """Failures forced at corpus positions 8 (n = 3) and 13 (n = 2): the
    n = 2 group holds position 1, so a block checks it before the n = 3
    group, yet the counterexample is position 8.  With blocks of 16, the
    second failure is position 20 (n = 3), in the next block.  Position
    8's forced result is both smaller and not monotone; the report names
    the first of the per-instance check's reasons."""
    monkeypatch.setattr(suites, "BLOCK", block)
    descs = list(SUITES["shifting"].descs(40, 6, 0, None))
    assert [descs[k]["n"] for k in (1, 8, 13, 20)] == [2, 3, 2, 3]
    first, later = descs[8], descs[20 if block == 16 else 13]
    keys = [_desc_key(first), _desc_key(later)]
    assert [_desc_key(d) in keys for d in descs].count(True) == 2
    assert not lattice.is_monotone(lattice.TernarySet.from_indices(3, first["indices"]))
    single = _force_shift(monkeypatch, {keys[0]: _drop_one, keys[1]: _unshifted})
    rep = run_suite("shifting", trials=40, n=6, seed=0)
    assert rep.passes == rep.instances - 2
    want = shift_check_by_instance(first, shift=single)
    size = len(first["indices"])
    assert want == (False, {"reason": "size changed", "before": size, "after": size - 1})
    assert rep.counterexample == {"suite": "shifting", **first, **want[1]}
    assert list(rep.counterexample) == ["suite", "n", "indices", "reason", "before", "after"]


def _top_levels(row):
    """A monotone set of the same size as ``row``: the points of largest
    digit sum, ties to the larger index (every point above one of them has
    a larger digit sum, so it is in the set too)."""
    points = np.arange(row.size)
    n = len(np.base_repr(row.size - 1, 3)) if row.size > 1 else 0
    digit_sums = sum((points // 3 ** i) % 3 for i in range(n))
    out = np.zeros_like(row)
    out[np.lexsort((-points, -digit_sums))[:row.sum()]] = True
    return out


def test_shifting_reasons_follow_the_per_instance_order(monkeypatch):
    """A forced result that is not monotone, and a monotone set forced to
    another monotone set of its size (which moves cells past an empty
    border), each report the per-instance check's reason and detail keys.
    "a border direction grew" cannot follow a monotone result, whose
    border is empty; "size changed" is pinned above."""
    descs = [d for d in SUITES["shifting"].descs(60, 6, 1, None) if d["n"] == 4]
    rough = next(d for d in descs
                 if not lattice.is_monotone(lattice.TernarySet.from_indices(4, d["indices"])))
    up = next(t for t in (lattice.shift_monotone(lattice.TernarySet.from_indices(4, d["indices"]))
                          for d in descs)
              if t != lattice.TernarySet(4, _top_levels(t.membership)))
    smooth = {"n": 4, "indices": up.indices().tolist()}
    assert lattice.is_monotone(lattice.TernarySet(4, _top_levels(up.membership)))
    single = _force_shift(monkeypatch, {_desc_key(rough): _unshifted,
                                        _desc_key(smooth): _top_levels})
    for desc, reason, keys in ((rough, "result not monotone", ["reason"]),
                               (smooth, "moved more cells than the border size",
                                ["reason", "moved", "border"])):
        want = shift_check_by_instance(desc, shift=single)
        assert want[0] is False and want[1]["reason"] == reason and list(want[1]) == keys
        assert SUITES["shifting"].check([desc]) == [want]
        assert replay({"suite": "shifting", **desc}) is False


def test_border_counterexample_is_the_first_in_corpus_order(monkeypatch):
    """Borders forced to zero on two random pairs of nonempty sets, in
    different dimension groups and blocks, make both fail; the
    counterexample is the earlier, with the per-instance check's lhs and
    rhs."""
    monkeypatch.setattr(suites, "BLOCK", 16)
    descs = list(SUITES["border"].descs(40, 3, 0, None))
    sides = ("a_indices", "b_indices")
    pairs = [k for k, d in enumerate(descs) if d["source"] == "random"]
    keys = [_desc_key(descs[k], side) for k in pairs for side in sides]
    usable = [k for k in pairs if all(
        descs[k][side] and keys.count(_desc_key(descs[k], side)) == 1 for side in sides)]
    first = next(k for k in usable if descs[k]["n"] == 3)
    later = next(k for k in usable if descs[k]["n"] == 2 and k // 16 > first // 16)
    zeroed = {_desc_key(descs[k], side) for k in (first, later) for side in sides}
    real = lattice.direction_counts

    def forced(stack):
        counts = real(stack).copy()
        for k, row in enumerate(stack.membership):
            if _key(stack.n, row) in zeroed:
                counts[k] = 0
        return counts

    def borders(s):
        return border_counts_by_direction(
            lattice.TernarySet.empty(s.n) if _key(s.n, s.membership) in zeroed else s)

    monkeypatch.setattr(lattice, "direction_counts", forced)
    rep = run_suite("border", trials=40, n=3, seed=0)
    want = border_check_by_instance(descs[first], borders=borders)
    assert want[0] is False and rep.passes == rep.instances - 2
    assert rep.counterexample == {"suite": "border", **descs[first], **want[1]}


# --- the stacked cauchy check ---------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_stacked_cauchy_equals_the_per_instance_oracle(n, seed):
    """Each rule's verdict and detail, checked in one block and as a stack
    of one, equal the per-instance reference's.  Up to n = 6 a block's
    tables share stacks; at n = 7 a table exceeds one read block."""
    descs = list(SUITES["cauchy"].descs(12 if n < 7 else 2, n, seed, None))
    want = [cauchy_check_by_instance(d) for d in descs]
    assert SUITES["cauchy"].check(descs) == want
    assert [SUITES["cauchy"].check([d])[0] for d in descs] == want


@pytest.mark.parametrize("block", [1, 7, 500])
def test_stacked_cauchy_does_not_depend_on_the_block_size(monkeypatch, block):
    """Read blocks of 1, 7 and 500 table entries (so stacks of one table,
    or of 2 to 83 tables with blocks of 500) give the reference's verdicts,
    on a block that mixes n = 1, 2, 3 in shuffled order and in a suite run
    of 16-descriptor blocks."""
    descs = [d for n in (1, 2, 3) for d in SUITES["cauchy"].descs(3, n, block, None)]
    descs = [descs[k] for k in np.random.default_rng(block).permutation(len(descs))]
    want = [cauchy_check_by_instance(d) for d in descs]
    monkeypatch.setattr(_tables, "BLOCK", block)
    monkeypatch.setattr(suites, "BLOCK", 16)
    assert SUITES["cauchy"].check(descs) == want
    rep = run_suite("cauchy", n=3, trials=24, seed=block)
    assert (rep.instances, rep.passes, rep.counterexample) == (36, 36, None)


def _sums(desc) -> tuple:
    """A descriptor's n and the per-pair column sums behind nab and mab of
    its rule, the arguments of the cauchy verdict."""
    scf, n = build_scf(desc["scf"]), desc["n"]
    stats = [column_stats(scf, a, b, n) for a, b in PAIRS3]
    return n, tuple(s.nab_sum for s in stats), tuple(s.mab_sum for s in stats)


def _force_cauchy(monkeypatch, descs, forced):
    """Raise the nab sum of each pair in ``forced[k]`` by 6^n for the rule
    of ``descs[k]``, in the verdict both the stacked and the tally path
    reach, so that its nab exceeds 1 and the pair fails; returns the
    reference's matching bump, 1 on the pair's nab."""
    keys = [_sums(d) for d in descs]
    by_key = {keys[k]: pairs for k, pairs in forced.items()}
    assert all(keys.count(keys[k]) == 1 for k in forced)
    real = suites._cauchy_verdict

    def verdict(n, mins, products):
        pairs = by_key.get((n, tuple(mins), tuple(products)), ())
        return real(n, [low + 6 ** n * (pair in pairs) for pair, low in zip(PAIRS3, mins)],
                    products)

    monkeypatch.setattr(suites, "_cauchy_verdict", verdict)
    bumps = {json.dumps(descs[k], sort_keys=True): pairs for k, pairs in forced.items()}
    return lambda desc, pair: int(pair in bumps.get(json.dumps(desc, sort_keys=True), ()))


def test_cauchy_counterexample_is_the_first_in_corpus_order(monkeypatch):
    """Failures forced on borda (position 10, a tally rule) and on random
    tables at positions 14 and 20, in 16-descriptor blocks: the
    counterexample is borda with its first failing pair, (0, 2), and the
    per-instance check's nab and mab strings; with borda's forced pairs
    dropped it is position 14, a stacked table.  Checked in reverse
    order, where position 14 precedes borda in its block, every verdict
    equals the reference's."""
    monkeypatch.setattr(suites, "BLOCK", 16)
    descs = list(SUITES["cauchy"].descs(40, 3, 0, None))
    assert descs[10]["scf"]["name"] == "borda"
    assert {descs[k]["scf"]["name"] for k in (14, 20)} == {"random_table"}
    for forced, first in (({10: [(1, 2), (0, 2)], 14: [(0, 1)], 20: [(0, 1)]}, 10),
                          ({14: [(1, 2)], 20: [(0, 1)]}, 14)):
        bump = _force_cauchy(monkeypatch, descs, forced)
        rep = run_suite("cauchy", trials=40, n=3, seed=0)
        assert rep.passes == rep.instances - len(forced)
        want = cauchy_check_by_instance(descs[first], bump)
        assert want[0] is False and want[1]["pair"] == list(min(forced[first]))
        assert rep.counterexample == {"suite": "cauchy", **descs[first], **want[1]}
        assert list(rep.counterexample) == ["suite", "n", "scf", "pair", "nab", "mab"]
        backwards = descs[20::-1]
        assert SUITES["cauchy"].check(backwards) == \
            [cauchy_check_by_instance(d, bump) for d in backwards]
        monkeypatch.undo()
        monkeypatch.setattr(suites, "BLOCK", 16)
