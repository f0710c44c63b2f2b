"""Command line interface: schemas, exit codes, and determinism."""

import csv
import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest

from votelab import lines, orders, rules, sampling, suites, tallies
from votelab.cli import main
from votelab.fileio import read_gswf, read_scf
from votelab.rules import ScfRule
from votelab.suites import SuiteReport
from votelab.welfare import gswf_from_scf, majority_g, neutral_tensor

SCHEMA = ("metric", "indices", "mode", "num", "den", "value", "ci95",
          "samples", "seed")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_metrics_exact_json(capsys):
    code, out, err = run(capsys, "metrics", "--scf", "plurality", "--n", "3",
                         "--exact")
    assert code == 0
    rows = json.loads(out)
    assert all(tuple(r) == SCHEMA for r in rows)
    by_key = {(r["metric"], tuple(r["indices"])): r for r in rows}
    assert by_key[("M_i", (0,))]["num"] == "2"
    assert by_key[("M_i", (0,))]["den"] == "81"
    assert by_key[("M_total", ())]["num"] == "2"
    assert by_key[("mab", (0, 1))]["num"] == "4"
    assert by_key[("nab", (1, 2))]["num"] == "0"
    assert by_key[("dist_dictatorship", (0,))]["num"] == "10"
    assert by_key[("range_min", (1,))]["num"] == "7"
    assert by_key[("is_neutral", ())]["num"] == "0"
    assert by_key[("is_anonymous", ())]["num"] == "1"
    assert all(r["mode"] == "exact" for r in rows)


@pytest.mark.parametrize("mode", [["--exact"], ["--samples", "2000"]])
def test_metrics_one_voter_leaves_out_anonymity(capsys, mode):
    """One voter has no pair to swap: no anonymity rows, and no 0/0."""
    code, out, err = run(capsys, "metrics", "--scf", "borda", "--n", "1", *mode)
    assert code == 0, err
    metrics = [r["metric"] for r in json.loads(out)]
    assert "is_anonymous" not in metrics and "anonymity_violations" not in metrics
    assert "is_neutral" in metrics and "neutrality_violations" in metrics


@pytest.mark.parametrize("mode,digest", [
    (["--exact"], "16fe20ac8c64c437446f30371e522abe891829cb34c6b4a3c4263be5ac91636c"),
    (["--samples", "4096", "--seed", "0"],
     "37305e4245d97d67a6787f5370f1aa5b4bce9898b58b468cfa640e4484a81f85"),
])
def test_metrics_one_voter_makes_no_anonymity_pass(capsys, monkeypatch, mode, digest):
    """The n - 1 = 0 swap checks are known before any pass, so the structure
    pass reads no swapped block; the JSON is the one recorded while a
    separate anonymity pass was still made."""
    def refuse(*args, **kwargs):
        raise AssertionError("voter swap at n = 1")

    monkeypatch.setattr(sampling.Evaluated, "swapped", refuse)
    monkeypatch.setattr(lines.TableSpace, "_swapped", refuse)
    monkeypatch.setattr(tallies.Summed, "swapped", refuse)
    code, out, err = run(capsys, "metrics", "--scf", "borda", "--n", "1", *mode)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,n,digest", [
    ("plurality", 2, "f75bfd6eedee0529a57b49cfa18a21a7eee805b04964e58e66f2191cfe57150c"),
    ("borda", 2, "e1c7384ac4e021991d7b3fcebb948bc7221c0ff7a16e7b583661fc0443d7fff1"),
    ("pairwise_majority_fallback", 2,
     "8257a583ba52ab7dc9c174e5c4acbd94018f3f2232e6178301f92a6f06d4c5e1"),
    ("plurality", 11, "3e3dfa4857c539c18730f65684fd5c209f15234efb2f2940754e2f37e7ee9cf7"),
    ("borda", 11, "ac9c81640b23e3d0164997479d181929820de5c30b2d1ae08d68c5c2d426eaa8"),
    ("pairwise_majority_fallback", 11,
     "398ebe308b585faec88ab351b9602d16e9d1d839882b9cc25cdecd841d994d91"),
    ("borda", 21, "6e7b04bc99ac8ad1ca457f17b16d701f0dd0ca7b5c3cefb02aa6485f3222ece1"),
    ("pairwise_majority_fallback", 41,
     "43486ecb5f333f4078786b88bfa3691db57d39b5444ac0d7dd60e3552e6c59c6"),
])
def test_sampled_tally_metrics_keep_their_bytes(capsys, name, n, digest):
    """Sampled metrics of the tally rules, on and past the decision table's
    cap, are the JSON recorded while every read re-evaluated the rule."""
    code, out, err = run(capsys, "metrics", "--scf", name, "--n", str(n),
                         "--samples", "4096", "--seed", "0")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_metrics_csv_to_file(capsys, tmp_path):
    out_path = tmp_path / "m.csv"
    code, out, err = run(capsys, "metrics", "--scf", "borda", "--n", "2",
                         "--exact", "--format", "csv", "--out", str(out_path))
    assert code == 0 and out == ""
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == list(SCHEMA)
    assert any(r[0] == "M_total" for r in rows[1:])


def test_metrics_named_rule_with_argument(capsys):
    code, out, _ = run(capsys, "metrics", "--scf", "dictatorship:1", "--n", "2",
                       "--exact")
    assert code == 0
    rows = json.loads(out)
    by_key = {(r["metric"], tuple(r["indices"])): r for r in rows}
    assert by_key[("M_total", ())]["num"] == "0"
    assert by_key[("dist_dictatorship", (1,))]["num"] == "0"


def test_metrics_sampled_deterministic_across_workers(capsys):
    args = ("metrics", "--scf", "plurality", "--n", "5", "--samples", "60000",
            "--seed", "11")
    code1, out1, _ = run(capsys, *args, "--workers", "1")
    code2, out2, _ = run(capsys, *args, "--workers", "8")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)
    sampled = [r for r in rows if r["mode"] == "sampled"]
    assert sampled and all(r["samples"] is not None for r in sampled)


def _count_passes(monkeypatch) -> dict:
    """Count the sampled passes (``sampling.run_chunks`` calls) and exact
    sweeps (``orders.profile_chunks`` calls) made from here on, wrapping
    each function under every name that holds it in a votelab module."""
    passes = {"sampled": 0, "swept": 0}
    for key, fn in (("sampled", sampling.run_chunks), ("swept", orders.profile_chunks)):
        def counted(*args, _key=key, _fn=fn, **kwargs):
            passes[_key] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "votelab" or name.startswith("votelab."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return passes


@pytest.mark.parametrize("scf,n", [("borda", "11"), ("random_table:1", "6")])
def test_sampled_metrics_make_five_passes(capsys, monkeypatch, scf, n):
    """M_i, M_total, mab, nab, and one structure pass for the distances,
    the range, neutrality and anonymity."""
    passes = _count_passes(monkeypatch)
    code, _, err = run(capsys, "metrics", "--scf", scf, "--n", n,
                       "--samples", "4096", "--seed", "0")
    assert code == 0, err
    assert passes == {"sampled": 5, "swept": 0}


@pytest.mark.parametrize("argv", [["metrics", "--exact"], ["reduce"]])
@pytest.mark.parametrize("scf", ["random_table:1", "borda"])
def test_a_table_file_makes_no_sweep(capsys, monkeypatch, tmp_path, argv, scf):
    """metrics reads the M_i counts, each pair's column counts and the
    structure counts from the table's line view; reduce reads the column
    and structure counts so, and dist_tr3 reads its GSWF's outcome codes
    by lines too.  A table file makes no sweep and no sampled pass (5
    sweeps each while every count swept the table)."""
    path = tmp_path / "t.scf3"
    assert run(capsys, "gen", "--scf", scf, "--n", "4", "--out", str(path))[0] == 0
    passes = _count_passes(monkeypatch)
    code, _, err = run(capsys, argv[0], "--scf", str(path), *argv[1:])
    assert code == 0, err
    assert passes == {"sampled": 0, "swept": 0}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("src", ["plurality", "random_table:1"])
def test_structure_rows_equal_the_standalone_counts(capsys, src, seed, workers):
    """The metrics command's distance, range, neutrality and anonymity rows
    are what each public function gives on its own."""
    n, samples = 5, 3000
    code, out, err = run(capsys, "metrics", "--scf", src, "--n", str(n), "--samples",
                         str(samples), "--seed", str(seed), "--workers", str(workers))
    assert code == 0, err
    rows = {r["metric"]: r for r in json.loads(out)}
    name, _, arg = src.partition(":")
    rule = ScfRule(name, **({"seed": int(arg)} if arg else {}))
    kw = dict(mode="sampled", samples=samples, seed=seed, workers=workers)
    for metric, fn in (("dist_dictatorship", rules.dist_to_dictatorship),
                       ("dist_antidictatorship", rules.dist_to_antidictatorship),
                       ("range_min", rules.range_min_prob)):
        value, i = fn(rule, n, **kw)
        assert (rows[metric]["value"], rows[metric]["indices"]) == (value, [i]), metric
    for metric, fn in (("neutrality_violations", rules.neutrality_counts),
                       ("anonymity_violations", rules.anonymity_counts)):
        bad, checks = fn(rule, n, **kw)
        assert (rows[metric]["num"], rows[metric]["den"]) == (str(bad), str(checks)), metric


def test_metrics_four_alternatives_skips_pair_metrics(capsys):
    code, out, _ = run(capsys, "metrics", "--scf", "borda", "--m", "4",
                       "--n", "2", "--exact")
    assert code == 0
    metrics_seen = {r["metric"] for r in json.loads(out)}
    assert "mab" not in metrics_seen and "nab" not in metrics_seen
    assert "M_total" in metrics_seen


def test_metrics_unknown_rule_exits_2(capsys):
    code, out, err = run(capsys, "metrics", "--scf", "approval", "--n", "3")
    assert code == 2
    assert "error:" in err


def test_metrics_missing_n_exits_2(capsys):
    code, _, err = run(capsys, "metrics", "--scf", "plurality")
    assert code == 2 and "required" in err


def test_metrics_budget_exits_2(capsys):
    code, _, err = run(capsys, "metrics", "--scf", "random_table:0", "--n", "13",
                       "--exact")
    assert code == 2 and err == ("error: exact enumeration at n=13, m=3 exceeds the "
                                 "budget; rerun with samples and a seed\n")


def test_metrics_past_the_tally_engine_cap_exits_2(capsys):
    code, out, err = run(capsys, "metrics", "--scf", "borda", "--n", "21", "--exact")
    assert code == 2 and out == ""
    assert err == ("error: exact enumeration at n=21, m=3 exceeds the budget (the "
                   "tally engine stops at n=20); rerun with samples and a seed\n")


@pytest.mark.parametrize("argv,message", [
    (("metrics", "--scf", "borda", "--n", "15"),
     "exact enumeration at n=15, m=3 exceeds the budget; rerun with samples and a "
     "seed (exact mode runs here, on the tally engine)"),
    (("metrics", "--scf", "random_table:1", "--n", "12"),
     "exact enumeration at n=12, m=3 exceeds the budget; rerun with samples and a seed"),
    (("verify", "composition", "--n", "3"),
     "exact enumeration at n=3, m=6 exceeds the budget; rerun with samples and a seed"),
])
def test_auto_past_budget_without_samples_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_composition_past_the_budget_runs_on_samples(capsys):
    # the three-alternative block is sampled too at n = 11; the corpus is
    # the five random functions and, at odd n, the majority function
    code, out, err = run(capsys, "verify", "composition", "--n", "11",
                         "--samples", "4096", "--seed", "0")
    assert code in (0, 1), err
    assert json.loads(out)["instances"] == 6


@pytest.mark.parametrize("suite", ["first-reduction", "cauchy", "reduction-chain",
                                   "converse", "arrow-identity"])
def test_enumeration_only_suite_refuses_samples_past_budget(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--n", "12", "--samples", "4",
                         "--seed", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert f"the {suite} suite has no sampled path" in err
    assert "rerun" not in err and "needs samples" not in err


def test_reduce_past_budget_says_the_chain_is_exact_only(capsys):
    code, out, err = run(capsys, "reduce", "--scf", "borda", "--n", "11")
    assert code == 2 and out == ""
    assert err == ("error: exact enumeration at n=11, m=3 exceeds the budget, "
                   "and the reduction chain has no sampled path\n")


@pytest.mark.parametrize("argv", [
    ("verify", "composition", "--n", "40", "--seed", "0"),
    ("verify", "composition", "--n", "40", "--seed", "0", "--samples", "100"),
    ("gen", "--g", "dictator_swf:0", "--n", "40", "--out", "x.gswf"),
    ("gen", "--g", "random_iia:1", "--n", "40", "--out", "x.gswf"),
    ("gen", "--g", "majority", "--n", "41", "--out", "x.gswf"),
])
def test_column_tables_past_the_voter_bound_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "a 2^n-column table takes at most 26 voters" in err
    assert not (tmp_path / "x.gswf").exists()


def test_reduce_at_forty_voters_refuses_on_the_budget_first(capsys):
    code, out, err = run(capsys, "reduce", "--scf", "borda", "--n", "40")
    assert code == 2 and out == ""
    assert err == ("error: exact enumeration at n=40, m=3 exceeds the budget, "
                   "and the reduction chain has no sampled path\n")


@pytest.mark.parametrize("ce", [
    {"suite": "converse", "kind": "random_iia", "seed": 0, "n": 40},
    {"suite": "arrow-identity", "kind": "random_odd_g", "seed": 0, "n": 40},
])
def test_replay_of_a_column_table_past_the_voter_bound_exits_2(capsys, tmp_path, ce):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(ce))
    code, out, err = run(capsys, "verify", "--replay", str(path))
    assert code == 2 and out == ""
    assert "takes at most 26 voters, got n=40" in err


@pytest.mark.parametrize("argv,message", [
    (("verify", "border", "--n", "0"), "at least one voter"),
    (("verify", "shifting", "--n", "-2"), "at least one voter"),
    (("verify", "border", "--trials", "-3"), "trials"),
    (("metrics", "--scf", "borda", "--n", "0"), "at least one voter"),
    (("metrics", "--scf", "borda", "--n", "-1"), "at least one voter"),
    (("reduce", "--scf", "plurality", "--n", "0"), "at least one voter"),
    (("metrics", "--scf", "borda", "--n", "3", "--samples", "0"), "samples must be >= 1"),
    (("verify", "composition", "--n", "2", "--samples", "0"), "samples must be >= 1"),
    (("metrics", "--scf", "borda", "--n", "4", "--samples", "1", "--seed", "0"),
     "--samples >= 2"),
])
def test_bad_sizes_exit_2(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv,message", [
    (("metrics", "--scf", "random_table:-1", "--n", "3", "--exact"),
     "random_table seed must be nonnegative, got -1"),
    (("gen", "--g", "random_odd:-5", "--n", "3", "--out", "{out}"),
     "random_odd_g seed must be nonnegative, got -5"),
    (("gen", "--g", "random_iia:-5", "--n", "3", "--out", "{out}"),
     "random_iia_gswf seed must be nonnegative, got -5"),
    (("verify", "border", "--seed", "-1", "--trials", "2"), "seed must be nonnegative, got -1"),
    (("verify", "--replay", "{ce}"), "random_table seed must be nonnegative, got -4"),
])
def test_negative_seeds_exit_2_naming_the_seed(capsys, tmp_path, argv, message):
    """numpy refuses a negative seed without naming it; each seed is
    refused where it enters, before numpy sees it."""
    ce = tmp_path / "ce.json"
    ce.write_text(json.dumps({"suite": "cauchy", "n": 3, "scf": {
        "name": "random_table", "params": {"seed": -4}}}))
    code, _, err = run(capsys, *(a.format(ce=ce, out=tmp_path / "g.gswf") for a in argv))
    assert code == 2
    assert err == f"error: {message}\n"


def test_replay_of_a_rule_no_name_builds_exits_2(capsys, tmp_path):
    """A descriptor may name only the rules the CLI can name: gswf_winner
    needs a preference function, which no descriptor holds."""
    path = tmp_path / "ce.json"
    path.write_text(json.dumps({"suite": "cauchy", "n": 3, "scf": {
        "name": "gswf_winner", "params": {"fallback_voter": 0, "gswf": 1}}}))
    code, out, err = run(capsys, "verify", "--replay", str(path))
    assert code == 2 and "holds" not in out and "violated" not in out
    assert err.startswith("error: unknown rule 'gswf_winner'; names: ")
    assert set(err.split("names: ")[1].strip().split(", ")) == {
        "dictatorship", "anti_dictatorship", "constant", "plurality", "borda",
        "pairwise_majority_fallback", "random_table"}


def test_replay_of_a_rule_with_stray_parameters_exits_2(capsys, tmp_path):
    """A descriptor may give a rule only the parameters it takes."""
    path = tmp_path / "ce.json"
    path.write_text(json.dumps({"suite": "cauchy", "n": 3, "scf": {
        "name": "borda", "params": {"voter": 9, "gswf": 1}}}))
    code, out, err = run(capsys, "verify", "--replay", str(path))
    assert code == 2 and out == ""
    assert err == "error: rule 'borda' does not take ['gswf', 'voter']; it takes no parameters\n"


def test_verify_that_checks_nothing_exits_2(capsys):
    """A run whose corpus is empty must not report ok; a suite with a fixed
    corpus still runs at --trials 0."""
    code, out, err = run(capsys, "verify", "shifting", "--n", "3", "--trials", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no instances" in err
    code, out, _ = run(capsys, "verify", "border", "--n", "3", "--trials", "0")
    rep = json.loads(out)
    assert code == 0 and rep["ok"] is True and rep["instances"] > 0


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("mode", [("--exact",), ("--samples", "10"), ()])
def test_metrics_workers_below_one_exit_2(capsys, mode, workers):
    code, out, err = run(capsys, "metrics", "--scf", "borda", "--n", "3", *mode,
                         "--seed", "1", "--workers", workers)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--workers must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("metrics", "--scf", "borda", "--n", "2", "--m", "1"),
    ("metrics", "--scf", "borda", "--n", "2", "--m", "0"),
    ("gen", "--scf", "borda", "--n", "2", "--m", "1"),
])
def test_fewer_than_two_alternatives_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "table.scf3"
    if argv[0] == "gen":
        argv += ("--out", str(path))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "at least two alternatives" in err
    assert not path.exists()


def test_table_file_with_no_voters_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.scf3"
    path.write_bytes(b"SCF3\x01\x03\x00\x00\x00")  # n = 0: one profile
    code, _, err = run(capsys, "metrics", "--scf", str(path))
    assert code == 2 and "at least one voter" in err


def test_reduce_json_and_gswf_file(capsys, tmp_path):
    gpath = tmp_path / "plu.gswf"
    code, out, _ = run(capsys, "reduce", "--scf", "plurality", "--n", "3",
                       "--gswf-out", str(gpath))
    assert code == 0
    payload = json.loads(out)
    by_key = {(r["metric"], tuple(r["indices"])): r for r in payload["reports"]}
    assert by_key[("nt", ())]["num"] == "1"
    assert by_key[("nt", ())]["den"] == "18"
    assert by_key[("dist_tr3", ())]["num"] == "19"
    assert by_key[("chain_holds", ())]["num"] == "1"
    assert by_key[("eps1", ())]["num"] == "4"
    assert payload["nearest_member"] == "dictator(0)"
    assert payload["tables"]["01"] == "00010111"
    G = read_gswf(gpath)
    assert G == gswf_from_scf(ScfRule("plurality"), tie_voter=0, n=3)


def test_reduce_csv(capsys):
    code, out, _ = run(capsys, "reduce", "--scf", "borda", "--n", "2",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    metrics_seen = {r[0] for r in rows[1:]}
    assert {"nt", "mab", "nab", "dist_tr3", "chain_holds"} <= metrics_seen


def test_verify_pass_and_json(capsys):
    code, out, err = run(capsys, "verify", "cauchy", "--trials", "3",
                         "--seed", "1")
    assert code == 0
    d = json.loads(out)
    assert d["suite"] == "cauchy" and d["ok"] is True


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = SuiteReport("cauchy", 5, 3, {"suite": "cauchy", "n": 2,
                                           "scf": {"name": "borda", "m": 3,
                                                   "params": {}}}, 0.1)
    monkeypatch.setattr(suites, "run_suite",
                        lambda name, **kw: failing)
    code, out, err = run(capsys, "verify", "cauchy")
    assert code == 1
    assert "2 of 5" in err
    assert json.loads(out)["ok"] is False


def test_verify_replay_round_trip(capsys, tmp_path):
    ce = {"suite": "shifting", "n": 2, "indices": [0, 1, 4]}
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(ce))
    code, out, _ = run(capsys, "verify", "--replay", str(path))
    assert code == 0
    assert "holds" in out


def test_verify_replay_accepts_suite_report_wrapper(capsys, tmp_path):
    wrapped = {"suite": "shifting", "instances": 1, "passes": 0,
               "counterexample": {"suite": "shifting", "n": 2, "indices": [2]}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(wrapped))
    code, out, _ = run(capsys, "verify", "--replay", str(path))
    assert code == 0


def test_verify_replay_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": 1}))
    code, _, err = run(capsys, "verify", "--replay", str(path))
    assert code == 2 and "error:" in err


def test_verify_replay_missing_field_exits_2(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"suite": "shifting"}))
    code, _, err = run(capsys, "verify", "--replay", str(path))
    assert code == 2
    assert "error:" in err and "lacks field 'n'" in err


def test_verify_replay_unknown_kind_exits_2(capsys, tmp_path):
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({"suite": "composition", "kind": "nonsense",
                                "seed": 2, "n": 2}))
    code, out, err = run(capsys, "verify", "--replay", str(path))
    assert code == 2 and "holds" not in out
    assert "error:" in err and "'nonsense'" in err


@pytest.mark.parametrize("ce,says", [
    ({"suite": "shifting", "n": 25, "indices": [0]}, "lattice dimension"),
    ({"suite": "shifting", "n": -2, "indices": [0]}, "lattice dimension"),
    ({"suite": "border", "source": "scf", "n": 25, "pair": [0, 1], "column": 0,
      "scf": {"name": "borda", "m": 3, "params": {}}}, "lattice dimension"),
    ({"suite": "shifting", "n": 2, "indices": [0, -1]}, "out of range"),
    ({"suite": "border", "source": "random", "n": 2, "a_indices": [-3],
      "b_indices": [8]}, "out of range"),
    ({"suite": "border", "source": "random", "n": 2, "a_indices": [0, 3],
      "b_indices": [3, 8]}, "disjoint"),
    ({"suite": "shifting", "n": 2, "indices": [1.5]}, "must be integers"),
    ({"suite": "shifting", "n": 2, "indices": [[1, 2]]}, "flat list"),
    ({"suite": "border", "source": "scf", "n": 2, "pair": [0, 1], "column": 2.9,
      "scf": {"name": "borda", "m": 3, "params": {}}}, "must be integers"),
    ({"suite": "border", "source": "random", "n": 2, "a_indices": [0.2],
      "b_indices": [0.9]}, "must be integers"),
])
def test_verify_replay_of_a_bad_lattice_descriptor_exits_2(capsys, tmp_path, ce, says):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ce))
    code, out, err = run(capsys, "verify", "--replay", str(path))
    assert code == 2 and "holds" not in out and "violated" not in out
    assert "error:" in err and says in err


BORDA = {"name": "borda", "m": 3, "params": {}}


@pytest.mark.parametrize("ce,says", [
    ({"suite": "border", "source": "scf", "n": 2, "scf": BORDA, "pair": [0, 1.0],
      "column": 1}, "pair must be an integer"),
    ({"suite": "border", "source": "scf", "n": 2, "scf": BORDA, "pair": [0, 1, 2],
      "column": 1}, "pair must list two alternatives"),
    ({"suite": "cauchy", "n": 2, "scf": {"name": "random_table", "m": 3,
                                         "params": {"seed": 1.5}}}, "parameter 'seed'"),
    ({"suite": "cauchy", "n": 2, "scf": {"name": "constant", "m": 3,
                                         "params": {"alt": 1.0}}}, "parameter 'alt'"),
    ({"suite": "cauchy", "n": 2, "scf": {"name": "borda", "m": 3, "params": [1]}},
     "params must be an object"),
    ({"suite": "converse", "kind": "dictator_swf", "voter": 1.5, "n": 3},
     "voter must be an integer"),
    ({"suite": "converse", "kind": "from_scf", "scf": BORDA, "tie_voter": 0.5, "n": 3},
     "tie_voter must be an integer"),
    ({"suite": "cauchy", "n": 2.5, "scf": BORDA}, "n must be an integer"),
    ({"suite": "cauchy", "n": "2", "scf": BORDA}, "n must be an integer"),
    ({"suite": "cauchy", "n": 2, "scf": {"name": "borda", "m": 3.0, "params": {}}},
     "m must be an integer"),
    ({"suite": "first-reduction", "n": True, "scf": BORDA}, "n must be an integer"),
    ({"suite": "composition", "kind": "random_odd_g", "seed": 0, "n": 2, "samples": 2.5,
      "sample_seed": 0}, "samples must be an integer"),
    ({"suite": "composition", "kind": "majority_g", "n": 3, "samples": 20,
      "sample_seed": 0.5}, "sample_seed must be an integer"),
])
def test_verify_replay_of_a_non_integer_field_exits_2(capsys, tmp_path, ce, says):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ce))
    code, out, err = run(capsys, "verify", "--replay", str(path))
    assert code == 2 and "holds" not in out and "violated" not in out
    assert err.count("\n") == 1 and "error:" in err and says in err


def test_verify_without_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "suite" in err


def test_gen_scf_round_trip(capsys, tmp_path):
    path = tmp_path / "r.scf3"
    code, out, _ = run(capsys, "gen", "--scf", "random_table:9", "--n", "3",
                       "--out", str(path))
    assert code == 0
    table = read_scf(path)
    assert table == ScfRule("random_table", seed=9).as_table(3)
    code2, out2, _ = run(capsys, "metrics", "--scf", str(path), "--exact")
    assert code2 == 0
    assert json.loads(out2)


def test_gen_scf_two_alternatives_reads_back(capsys, tmp_path):
    path = tmp_path / "b2.scf3"
    code, _, _ = run(capsys, "gen", "--scf", "borda", "--n", "3", "--m", "2",
                     "--out", str(path))
    assert code == 0
    assert read_scf(path) == ScfRule("borda", 2).as_table(3)
    code2, out2, err2 = run(capsys, "metrics", "--scf", str(path), "--exact")
    assert code2 == 0, err2
    assert json.loads(out2)


def test_gen_gswf_named(capsys, tmp_path):
    path = tmp_path / "maj.gswf"
    code, _, _ = run(capsys, "gen", "--g", "majority", "--n", "3",
                     "--out", str(path))
    assert code == 0
    assert read_gswf(path) == neutral_tensor(majority_g(3), 3)


def test_gen_gswf_names_match_library(capsys, tmp_path):
    from votelab.fileio import write_gswf
    from votelab.welfare import (anti_dictator_swf, dictator_swf,
                                 random_iia_gswf, random_odd_g)
    for spec, G in (("dictator_swf:1", dictator_swf(1, 3)),
                    ("anti_dictator_swf", anti_dictator_swf(0, 3)),
                    ("random_odd:4", neutral_tensor(random_odd_g(3, 4), 3)),
                    ("random_iia:2", random_iia_gswf(3, 3, 2))):
        cli_path, lib_path = tmp_path / "cli.gswf", tmp_path / "lib.gswf"
        code, _, _ = run(capsys, "gen", "--g", spec, "--n", "3",
                         "--out", str(cli_path))
        assert code == 0, spec
        write_gswf(G, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes(), spec
    code, _, err = run(capsys, "gen", "--g", "nosuch", "--n", "3",
                       "--out", str(tmp_path / "x.gswf"))
    assert code == 2
    assert err == ("error: unknown preference function 'nosuch'; names: "
                   "dictator_swf, anti_dictator_swf, majority, random_odd, "
                   "random_iia\n")


def test_gen_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--out", str(tmp_path / "x"))
    assert code == 2
    code2, _, err2 = run(capsys, "gen", "--scf", "plurality", "--g", "majority",
                         "--n", "2", "--out", str(tmp_path / "y"))
    assert code2 == 2


def test_file_n_mismatch_exits_2(capsys, tmp_path):
    path = tmp_path / "t.scf3"
    run(capsys, "gen", "--scf", "plurality", "--n", "2", "--out", str(path))
    code, _, err = run(capsys, "metrics", "--scf", str(path), "--n", "3",
                       "--exact")
    assert code == 2 and "disagrees" in err


def test_m_that_disagrees_with_what_is_loaded_exits_2(capsys, tmp_path):
    """A given --m must match a table file or a named GSWF (m = 3); a rule
    name takes it, and reduce keeps its own m = 3 refusal."""
    path = tmp_path / "b2.scf3"
    code, _, _ = run(capsys, "gen", "--scf", "borda", "--n", "3", "--m", "2",
                     "--out", str(path))
    assert code == 0
    code, _, err = run(capsys, "metrics", "--scf", str(path), "--m", "4", "--exact")
    assert code == 2 and "--m 4 disagrees with table file (m=2)" in err
    code, _, _ = run(capsys, "metrics", "--scf", str(path), "--m", "2", "--exact")
    assert code == 0
    code, _, err = run(capsys, "gen", "--g", "majority", "--n", "3", "--m", "4",
                       "--out", str(tmp_path / "maj.gswf"))
    assert code == 2 and "--m 4 disagrees with GSWF majority (m=3)" in err
    assert not (tmp_path / "maj.gswf").exists()
    code, _, err = run(capsys, "reduce", "--scf", str(path))
    assert code == 2 and "defined for m = 3" in err


def test_mutually_exclusive_modes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--scf", "plurality", "--n", "2", "--exact",
              "--samples", "100"])
    assert exc.value.code == 2
