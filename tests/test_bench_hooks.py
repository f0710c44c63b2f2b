"""The traced benchmark run wraps votelab functions by name; a refactor that
removes or renames one of them must fail here rather than in the benchmark."""

import importlib.util
from pathlib import Path

from votelab import metrics, orders, rules, sampling
from votelab.rules import ScfRule

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_and_restores():
    spans = _load_spans()
    originals = (sampling.run_chunks, sampling.count, orders.profile_chunks,
                 metrics.column_stats, rules.ScfRule.winners_from_digits)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        # an exact count on a rule outside the tally engine materializes its table by a sweep
        metrics.manipulation_power_total(ScfRule("dictatorship", voter=1), 2)
        metrics.manipulation_power(ScfRule("borda"), 0, 3, mode="sampled",
                                   samples=100, seed=1)
    finally:
        restore()
    names = {span.name for span in tracer.spans}
    assert {"orders.sweep", "sampling.run", "metrics.M_total", "rules.eval"} <= names
    assert (sampling.run_chunks, sampling.count, orders.profile_chunks,
            metrics.column_stats, rules.ScfRule.winners_from_digits) == originals
