"""Command line interface.

Examples::

    votelab metrics --scf plurality --n 3 --exact
    votelab metrics --scf random_table:17 --n 6 --samples 200000 --seed 1
    votelab reduce --scf borda --n 3 --tie-voter 0 --gswf-out borda.gswf
    votelab verify border --trials 500 --seed 2
    votelab verify --replay counterexample.json
    votelab gen --scf random_table:4 --n 4 --out t.scf3
    votelab gen --g majority --n 3 --out maj.gswf

Rule and preference-function sources are either registry names with an
optional integer argument after a colon, or paths to table files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import fileio, metrics, reports, rules, sampling, suites, welfare
from .welfare import PAIRS3

# named preference functions: name -> constructor(n, integer argument or 0)
_GSWFS = {
    "dictator_swf": lambda n, arg: welfare.dictator_swf(arg, n),
    "anti_dictator_swf": lambda n, arg: welfare.anti_dictator_swf(arg, n),
    "majority": lambda n, arg: welfare.neutral_tensor(welfare.majority_g(n), 3),
    "random_odd": lambda n, arg: welfare.neutral_tensor(welfare.random_odd_g(n, arg), 3),
    "random_iia": lambda n, arg: welfare.random_iia_gswf(n, 3, arg),
}


def _looks_like_path(src: str) -> bool:
    return os.path.exists(src) or any(c in src for c in (os.sep, "/", "."))


def _parse_named(src: str) -> tuple[str, int | None]:
    name, _, arg = src.partition(":")
    if arg:
        try:
            return name, int(arg)
        except ValueError:
            raise ValueError(f"argument of {name!r} must be an integer, got {arg!r}")
    return name, None


def _check_agrees(loaded, what: str, n: int | None, m: int | None):
    """Refuse a given --n or --m that differs from what was loaded."""
    for flag, given, found in (("n", n, loaded.n), ("m", m, loaded.m)):
        if given is not None and given != found:
            raise ValueError(f"--{flag} {given} disagrees with {what} ({flag}={found})")
    return loaded


def load_scf(src: str, m: int | None, n: int | None):
    """A rule name, optionally ``name:int`` (m = 3 unless given), or a table file."""
    if _looks_like_path(src):
        table = _check_agrees(fileio.read_scf(src), "table file", n, m)
        return table, rules.resolve_n(table)
    name, arg = _parse_named(src)
    required = rules.nameable_params(name)
    params = {}
    if arg is not None:
        if not required:
            raise ValueError(f"rule {name!r} takes no argument")
        params[required[0]] = arg
    if n is None:
        raise ValueError("--n is required for rule names")
    rule = rules.ScfRule(name, 3 if m is None else m, **params)
    return rule, rules.resolve_n(rule, n)


def load_gswf(src: str, n: int | None):
    if _looks_like_path(src):
        return _check_agrees(fileio.read_gswf(src), "GSWF file", n, None)
    if n is None:
        raise ValueError("--n is required for named preference functions")
    name, arg = _parse_named(src)
    if name not in _GSWFS:
        raise ValueError(f"unknown preference function {name!r}; "
                         f"names: {', '.join(_GSWFS)}")
    return _GSWFS[name](n, 0 if arg is None else arg)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_metrics(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    scf, n = load_scf(args.scf, args.m, args.n)
    mode = "exact" if args.exact else ("sampled" if args.samples is not None else "auto")
    mode = sampling.pick_mode(mode, n, scf.m, args.samples, args.seed, scf=scf)
    if mode == "sampled" and args.samples < 2:  # one sample has no interval
        raise ValueError(f"sampled metrics need --samples >= 2, got {args.samples}")
    kw = dict(mode=mode, samples=args.samples, seed=args.seed, workers=args.workers)
    rows = metrics.manipulation_reports(scf, n, **kw)
    if scf.m == 3:
        rows += metrics.pair_reports(scf, n, **kw)
    mins, violations, trials, _ = rules._diag_mins(scf, n, **kw)
    for metric, (count, i) in zip(("dist_dictatorship", "dist_antidictatorship",
                                   "range_min"), mins):
        rows.append(metrics.count_report(metric, (i,), count, trials, mode, args.seed))

    # one voter has no pair of voters to swap: no anonymity rows
    properties = [("neutral", "neutrality"), ("anonymous", "anonymity")][:1 + (n > 1)]
    for (metric, rate), (bad, checks) in zip(properties, violations):
        if mode == "exact":
            rows.append(metrics.exact_report(f"is_{metric}", (), int(bad == 0), 1))
        else:
            rows.append(metrics.sampled_report(f"is_{metric}", (), int(bad == 0), 1,
                                               0.0, checks, args.seed))
        rows.append(metrics.count_report(f"{rate}_violations", (), bad, checks,
                                         mode, args.seed))

    text = (reports.reports_to_json(rows) if args.format == "json"
            else reports.reports_to_csv(rows))
    _emit(text, args.out)
    return 0


def cmd_reduce(args) -> int:
    scf, n = load_scf(args.scf, None, args.n)
    if scf.m != 3:
        raise ValueError("the pairwise reduction is defined for m = 3")
    chain = welfare.check_reduction_chain(scf, tie_voter=args.tie_voter, n=n)
    G = chain.G
    if args.gswf_out:
        fileio.write_gswf(G, args.gswf_out)

    rows = [chain.nt_report, *chain.mab_reports, *chain.nab_reports]
    for metric, frac in (("eps1", chain.eps1), ("eps2", chain.eps2),
                         ("dist_dict2", chain.dist_dict),
                         ("dist_antidict2", chain.dist_anti),
                         ("range_min2", chain.range_min),
                         ("dist_tr3", chain.dist)):
        rows.append(metrics.exact_report(metric, (), frac.numerator,
                                         frac.denominator))
    for metric, flag in (("chain_holds", chain.holds),
                         ("nt_le_sum_nab", chain.nt_le_sum_nab),
                         ("cauchy_each", chain.cauchy_each),
                         ("sum_nab_sq_le_9eps1", chain.sum_nab_sq_le_9eps1),
                         ("dist_bound", chain.dist_bound),
                         ("g_is_neutral", chain.g_is_neutral),
                         ("scf_is_neutral", chain.scf_is_neutral)):
        rows.append(metrics.exact_report(metric, (), int(flag), 1))

    if args.format == "json":
        tables = {f"{a}{b}": "".join("1" if v else "0" for v in G.pairwise(a, b))
                  for a, b in PAIRS3}
        extra = {"n": n, "tie_voter": args.tie_voter,
                 "nearest_member": chain.member.label,
                 "tables": tables,
                 "gswf_file": args.gswf_out}
        text = reports.reports_to_json(rows, extra)
    else:
        text = reports.reports_to_csv(rows)
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.replay:
        with open(args.replay) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "counterexample" in data:
            data = data["counterexample"]
        if not isinstance(data, dict) or "suite" not in data:
            raise ValueError("replay file does not contain a counterexample")
        ok = suites.replay(data)
        print(f"replay {data['suite']}: {'holds' if ok else 'violated'}")
        return 0 if ok else 1
    if not args.suite:
        raise ValueError(f"give a suite name or --replay; suites: "
                         f"{', '.join(sorted(suites.SUITES))}")
    rep = suites.run_suite(args.suite, trials=args.trials, n=args.n,
                           seed=args.seed, samples=args.samples)
    if args.format == "json":
        text = json.dumps(rep.to_dict(), indent=2) + "\n"
    else:
        text = reports.csv_text(
            ["suite", "instances", "passes", "ok", "wall_time", "counterexample"],
            [[rep.suite, rep.instances, rep.passes, rep.ok, repr(rep.wall_time),
              "" if rep.counterexample is None else json.dumps(rep.counterexample)]])
    _emit(text, args.out)
    if not rep.ok:
        print(f"{rep.suite}: {rep.instances - rep.passes} of "
              f"{rep.instances} instances failed", file=sys.stderr)
    return 0 if rep.ok else 1


def cmd_gen(args) -> int:
    if (args.scf is None) == (args.g is None):
        raise ValueError("give exactly one of --scf or --g")
    if args.scf:
        scf, n = load_scf(args.scf, args.m, args.n)
        table = scf.as_table(n)
        fileio.write_scf(table, args.out)
        print(f"wrote SCF table m={table.m} n={table.n} to {args.out}")
    else:
        G = _check_agrees(load_gswf(args.g, args.n), f"GSWF {args.g}", None, args.m)
        fileio.write_gswf(G, args.out)
        print(f"wrote GSWF m={G.m} n={G.n} to {args.out}")
    return 0


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="votelab")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scf", required=True,
                       help="rule name (optionally name:arg) or table file")
        p.add_argument("--n", type=int, help="number of voters")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("metrics", help="manipulability and diagnostic metrics")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--m", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--samples", type=int)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("reduce", help="pairwise reduction and the bound chain")
    common(p)
    p.add_argument("--tie-voter", type=int, default=0)
    p.add_argument("--gswf-out", help="also write the derived GSWF here")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", nargs="?", choices=sorted(suites.SUITES))
    p.add_argument("--trials", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.add_argument("--replay", help="re-run one serialized counterexample")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="materialize tables to files")
    p.add_argument("--scf")
    p.add_argument("--g", help="preference function name or file")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
