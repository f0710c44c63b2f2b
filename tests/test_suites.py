"""Verification suite runner, corpora, and counterexample replay."""

import dataclasses
import json

import pytest

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
        spec, check=lambda desc: (False, {"pair": [0, 1]})))
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
