"""In-memory span tracer for the votelab benchmark, and the per-layer
metrics computed from its spans.

The tracer wraps votelab's layer functions from outside the package.  The
modules bind each other's functions at import (``from .orders import
profile_chunks`` in metrics, rules and welfare; ``from .metrics import mab,
nab`` in welfare and suites), so replacing a name in its defining module
alone would record nothing: a wrapper replaces the function object under
every name that holds it in every loaded ``votelab`` module.  The rule
classes' methods are replaced on the classes.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Span:
    """One timed call: name, start, end, the span that caused it, attributes."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: "Span | None", attrs: dict):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Closed spans in completion order; each thread has its own stack of
    open spans, whose top is the parent of the next span opened there."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, **attrs) -> Span:
        stack = self.stack()
        span = Span(name, stack[-1] if stack else None, attrs)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack().pop()
        self.spans.append(span)

    def event(self, name: str, **attrs) -> None:
        stack = self.stack()
        self.spans.append(Span(name, stack[-1] if stack else None, attrs))


# Rules with their own per-layer metrics; every other rule counts as "other".
RULES = ("borda", "plurality", "pairwise_majority_fallback", "table", "gswf_winner")
SUITES = ("arrow-identity", "converse", "composition", "border", "shifting",
          "reduction-chain", "cauchy")
WELFARE_ENGINES = ("welfare.nt", "welfare.ngcw", "welfare.composition",
                   "welfare.dist_tr3")


def instrument(tracer: Tracer):
    """Wrap votelab's layer functions so that each call records a span;
    returns a function that restores the originals."""
    from votelab import (cli, fileio, lattice, metrics, orders, reports, rules,
                         sampling, suites, welfare)

    modules = [mod for name, mod in sys.modules.items()
               if name == "votelab" or name.startswith("votelab.")]
    undo = []

    def timed(name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, **(before(*args, **kwargs) if before else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after:
                span.attrs.update(after(result))
            return result
        return wrapper

    def replace(fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def function(name, fn, before=None, after=None):
        replace(fn, timed(name, fn, before, after))

    def method(name, cls, attr, before=None):
        fn = cls.__dict__[attr]
        undo.append((cls, attr, fn))
        setattr(cls, attr, timed(name, fn, before))

    def points(s, *args, **kwargs):
        return {"n": s.n}

    # orders: a sweep is an event; each block the generator decodes is a span
    profile_chunks = orders.profile_chunks

    def decoded(blocks):
        while True:
            span = tracer.open("orders.decode")
            try:
                lo, hi, digits = next(blocks)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            span.attrs["profiles"] = hi - lo
            yield lo, hi, digits

    @functools.wraps(profile_chunks)
    def traced_chunks(*args, **kwargs):
        tracer.event("orders.sweep")
        return decoded(profile_chunks(*args, **kwargs))

    replace(profile_chunks, traced_chunks)
    function("orders.split_pair", orders.split_pair)
    function("orders.join_pair", orders.join_pair)

    # rules
    def rule_eval(self, digits):
        return {"rule": self.name if self.name in RULES else "other",
                "profiles": len(digits[0])}

    method("rules.eval", rules.ScfRule, "winners_from_digits", rule_eval)
    method("rules.eval", rules.ScfTable, "winners_from_digits",
           lambda self, digits: {"rule": "table", "profiles": len(digits[0])})
    method("rules.materialize", rules.ScfRule, "as_table")
    function("rules.diag", rules._diag_counts)
    function("rules.neutrality", rules.neutrality_counts)
    function("rules.anonymity", rules.anonymity_counts)

    # metrics
    function("metrics.M_i", metrics.manipulation_power)
    function("metrics.M_total", metrics.manipulation_power_total)
    function("metrics.mab", metrics.mab)
    function("metrics.nab", metrics.nab)
    function("metrics.column_stats", metrics.column_stats)

    # sampling: the counter argument is wrapped to time each chunk, which
    # may run on a worker thread; there the run span becomes its parent
    run_chunks = sampling.run_chunks

    @functools.wraps(run_chunks)
    def traced_run(counter, slots, samples, seed, **kwargs):
        chunk = kwargs.get("chunk", sampling.CHUNK)
        workers = kwargs.get("workers", 1)
        run = tracer.open("sampling.run", samples=samples, workers=workers,
                          chunks=-(-samples // chunk))

        def traced_counter(rng, size):
            stack = tracer.stack()
            adopted = not stack
            if adopted:
                stack.append(run)
            part = tracer.open("sampling.chunk")
            try:
                return counter(rng, size)
            finally:
                tracer.close(part)
                if adopted:
                    stack.pop()

        try:
            return run_chunks(traced_counter, slots, samples, seed, **kwargs)
        finally:
            tracer.close(run)

    replace(run_chunks, traced_run)

    # lattice
    for fn in (lattice.border_counts, lattice.border_total, lattice.edge_border):
        function("lattice.border", fn, points)
    for fn in (lattice.shift_monotone, lattice.shift_coordinate):
        function("lattice.shift", fn, points)
    function("lattice.sets_ab", lattice.sets_ab, after=lambda sets: {"n": sets[0].n})

    # welfare
    function("welfare.nt", welfare.nt)
    function("welfare.ngcw", welfare.ngcw, lambda G, **kw: {"m": G.m})
    function("welfare.composition", welfare.check_composition)
    function("welfare.gswf_from_scf", welfare.gswf_from_scf)
    function("welfare.dist_tr3", welfare.dist_tr3)
    function("welfare.chain", welfare.check_reduction_chain)

    # suites, reports, fileio and the CLI's output step
    function("suites.check", suites.run_suite, lambda name, **kw: {"suite": name},
             lambda rep: {"instances": rep.instances})
    for fn in (reports.reports_to_json, reports.reports_to_csv, cli._emit):
        function("reports.emit", fn)
    for fn in (fileio.read_scf, fileio.read_gswf):
        function("fileio.read", fn)
    for fn in (fileio.write_scf, fileio.write_gswf):
        function("fileio.write", fn)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def _outermost(spans: list[Span]) -> list[Span]:
    """The spans with no ancestor among themselves, so nested calls of one
    group are timed once."""
    chosen = set(map(id, spans))
    out = []
    for span in spans:
        parent = span.parent
        while parent is not None and id(parent) not in chosen:
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float | int]:
    """Per-layer metrics of one traced pass.  Times are seconds of
    inclusive busy time (summed over threads); counts are ints."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def pick(name, **match):
        return [s for s in by_name[name]
                if all(s.attrs.get(k) == v for k, v in match.items())]

    def busy(group):
        return sum((s.duration for s in _outermost(group)), 0.0)

    out: dict[str, float | int] = {}
    decodes = by_name["orders.decode"]
    out["orders.sweeps"] = len(by_name["orders.sweep"])
    out["orders.profiles"] = sum(s.attrs.get("profiles", 0) for s in decodes)
    out["orders.decode_s"] = busy(decodes)
    out["orders.split_pair_s"] = busy(by_name["orders.split_pair"])
    out["orders.join_pair_s"] = busy(by_name["orders.join_pair"])

    for rule in (*RULES, "other"):
        evals = pick("rules.eval", rule=rule)
        profiles = sum(s.attrs["profiles"] for s in evals)
        seconds = busy(evals)
        out[f"rules.eval_calls.{rule}"] = len(evals)
        out[f"rules.eval_profiles.{rule}"] = profiles
        out[f"rules.eval_s.{rule}"] = seconds
        out[f"rules.profiles_per_s.{rule}"] = profiles / seconds if seconds else 0.0
    for metric, name in (("materialize_s", "materialize"), ("diag_s", "diag"),
                         ("neutrality_s", "neutrality"), ("anonymity_s", "anonymity")):
        out[f"rules.{metric}"] = busy(by_name[f"rules.{name}"])

    for metric in ("M_i", "M_total", "mab", "nab", "column_stats"):
        out[f"metrics.{metric}_s"] = busy(by_name[f"metrics.{metric}"])
    out["metrics.column_stats_calls"] = len(by_name["metrics.column_stats"])

    runs = by_name["sampling.run"]
    out["sampling.calls"] = len(runs)
    out["sampling.chunks"] = sum(s.attrs["chunks"] for s in runs)
    out["sampling.samples"] = sum(s.attrs["samples"] for s in runs)
    out["sampling.run_s"] = busy(runs)
    out["sampling.chunk_busy_s"] = busy(by_name["sampling.chunk"])
    out["sampling.parallel_eff"] = parallel_efficiency(spans) or 0.0
    out["sampling.underfilled_calls"] = sum(s.attrs["chunks"] < s.attrs["workers"]
                                            for s in runs)

    lattice_points = 0
    for metric, name in (("border_s", "border"), ("shift_s", "shift"),
                         ("sets_ab_s", "sets_ab")):
        outer = _outermost(by_name[f"lattice.{name}"])
        out[f"lattice.{metric}"] = sum((s.duration for s in outer), 0.0)
        lattice_points += sum(3 ** s.attrs["n"] for s in outer)
        if name == "border":
            out["lattice.border_calls"] = len(outer)
    out["lattice.points"] = lattice_points

    out["welfare.nt_s"] = busy(by_name["welfare.nt"])
    for m in (3, 4):
        out[f"welfare.ngcw_s.m{m}"] = busy(pick("welfare.ngcw", m=m))
    for metric in ("composition", "gswf_from_scf", "dist_tr3", "chain"):
        out[f"welfare.{metric}_s"] = busy(by_name[f"welfare.{metric}"])
    out["welfare.profiles"] = (
        sum(s.attrs.get("profiles", 0) for s in decodes
            if s.parent is not None and s.parent.name in WELFARE_ENGINES)
        + sum(s.attrs["samples"] for s in runs
              if s.parent is not None and s.parent.name in WELFARE_ENGINES))

    checks = by_name["suites.check"]
    out["suites.instances"] = sum(s.attrs.get("instances", 0) for s in checks)
    for suite in SUITES:
        out[f"suites.check_s.{suite}"] = busy(pick("suites.check", suite=suite))

    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.duration
    out["cli.self_s"] = sum((s.duration - child_time[id(s)]
                             for s in by_name["cli.command"]), 0.0)
    out["reports.emit_s"] = busy(by_name["reports.emit"])
    out["fileio.read_s"] = busy(by_name["fileio.read"])
    out["fileio.write_s"] = busy(by_name["fileio.write"])
    return out


def parallel_efficiency(spans: list[Span]) -> float | None:
    """Chunk busy time over workers x run time; None without sampling runs."""
    runs = [s for s in spans if s.name == "sampling.run"]
    capacity = sum(max(1, s.attrs["workers"]) * s.duration for s in runs)
    busy = sum(s.duration for s in spans if s.name == "sampling.chunk")
    return busy / capacity if capacity else None
