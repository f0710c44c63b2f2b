"""votelab benchmark: run one workload's CLI commands in-process, check every
output, and print the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``).

    python3 bench/run.py --workload exact-scf --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports votelab from ``src/``
and writes only under ``.bench_tmp/`` there, which it removes again.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
numbers for a reader.  Metric names and units come from ``BENCHMARK.json``.
Times are scaled to a fixed host speed (see ``hostclock.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads
import hostclock
from hostclock import HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUPS = 11  # set-ups timed per run, each in a fresh interpreter
MIN_PASSES = 2  # passes in a run, at least, so that medians have something to work on


def setup(workload: workloads.Workload, seed: int):
    """Import votelab, make the temporary directory and the commands, and
    run the untimed warm-up command.  Returns (seconds, cli, tmp, commands)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from votelab import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"votelab was imported from {cli.__file__}, not {SRC}")
    TMP.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP)
    commands = workload.commands(seed, tmp)
    rc, _, err = run_command(cli, workload.warmup(seed))
    if rc != 0:
        raise RuntimeError(f"warm-up command failed with exit code {rc}: {err}")
    return time.perf_counter() - t0, cli, tmp, commands


def probe(name: str, seed: int) -> None:
    """One set-up in a fresh interpreter; prints its time."""
    seconds, _, tmp, _ = setup(workloads.WORKLOADS[name], seed)
    remove_tmp(tmp)
    print(repr(seconds))


def remove_tmp(tmp: str) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    with contextlib.suppress(OSError):
        TMP.rmdir()


def probe_setups(clock: HostClock, name: str, seed: int, count: int) -> None:
    """Time ``count`` set-ups, each in a fresh interpreter, on ``clock``."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
            f"import run; run.probe({name!r}, {seed})")
    for _ in range(count):
        clock.reference()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        clock.record("setup", float(proc.stdout.split()[-1]))


def run_command(cli, argv):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crashing command counts as failed; the run goes on
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def another_pass(done: int, elapsed: float, seconds: int, traced: bool) -> bool:
    """Whether a run that has made ``done`` passes in ``elapsed`` seconds
    makes another: while one more fits in ``seconds`` at the mean pass time,
    and at least MIN_PASSES.  A traced run alternates untraced and traced
    passes, at least two of each."""
    if traced and (done < 4 or done % 2):
        return True
    return done < MIN_PASSES or elapsed * (done + 1) / done <= seconds


def per_command(scaled, traced: bool) -> dict:
    """Each command's median scaled time over the passes, traced or not."""
    times = {}
    for (was_traced, cmd), seconds in scaled:
        if was_traced == traced:
            times.setdefault(cmd, []).append(seconds)
    return {cmd: statistics.median(ts) for cmd, ts in times.items()}


class Run:
    """Timings, failures and traced spans of one run's passes."""

    def __init__(self, cli, commands, golden):
        self.cli = cli
        self.commands = commands
        self.golden = golden
        self.clock = HostClock()  # commands, labelled (traced, command)
        self.setup_clock = HostClock(hostclock.import_unit, hostclock.IMPORT_S)
        self.attempted = self.failed = 0
        self.traced_passes = []  # per traced pass: [(command, spans)]

    def one_pass(self, tracer: spans.Tracer | None) -> None:
        outputs = {}
        traced = []
        for cmd in self.commands:
            if cmd.writes is not None:  # a stale file must not pass for this run's output
                Path(cmd.writes).unlink(missing_ok=True)
            gc.collect()  # each command starts from a collected heap, as in a fresh process
            self.clock.reference()
            first = len(tracer.spans) if tracer else 0
            span = tracer.open("cli.command", key=cmd.key) if tracer else None
            t0 = time.perf_counter()
            rc, out, err = run_command(self.cli, cmd.argv)
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
                traced.append((cmd, tracer.spans[first:]))
            self.clock.record((tracer is not None, cmd), seconds)
            problems = workloads.check(cmd, rc, out, outputs)
            want = self.golden.get(cmd.key)
            if not problems and want is not None and workloads.digest(cmd, out) != want:
                problems.append("digest differs from the recorded one")
            outputs[cmd.key] = out
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {cmd.key}: {'; '.join(problems)} {err.strip()}"[:2000],
                      file=sys.stderr)
        if tracer:
            self.traced_passes.append(traced)


def end_to_end(run: Run, passes: int) -> tuple[dict, dict, list[str]]:
    setups = [seconds for _, seconds in run.setup_clock.scaled()]
    medians = per_command(run.clock.scaled(), traced=False)
    times = list(medians.values())
    tail_s = statistics.quantiles(times, n=10, method="inclusive")[-1]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh interpreters",
        "wall_s": f"sum over {len(times)} commands of each one's median of {passes} passes",
        "cmd_p50_s": f"median of {len(times)} commands' median times",
        "cmd_tail_s": (f"p90 of {len(times)} commands' median times, "
                       f"{sum(t > tail_s for t in times)} beyond it"),
        "peak_rss_mb": "peak RSS of this process",
    }
    lines = [f"  failed_share {run.failed / run.attempted:.4g} "
             f"({run.failed} of {run.attempted} commands failed)"]
    twins = {cmd.same_as for cmd in run.commands if cmd.workers == 2}
    w1 = sum(t for cmd, t in medians.items() if cmd.key in twins)
    w2 = sum(t for cmd, t in medians.items() if cmd.workers == 2)
    if w2:
        lines.append(f"  w2_speedup {w1 / w2:.4f} x (summed --workers 1 time "
                     f"{w1:.3f} s over summed --workers 2 time {w2:.3f} s)")
    for what, clock in (("compute", run.clock), ("import", run.setup_clock)):
        lines.append(f"  host speed: the {what} unit took {statistics.median(clock.refs) * 1e3:.2f}"
                     f" ms, median of {len(clock.refs)} runs; times are scaled to "
                     f"{clock.nominal_s * 1e3:g} ms")
    return values, notes, lines


def per_layer(run: Run) -> tuple[dict, list[str], bool]:
    passes = [spans.layer_metrics([s for _, ss in per_command for s in ss])
              for per_command in run.traced_passes]
    values, lines, repeat = {}, [], True
    for name in passes[0]:
        seen = [p[name] for p in passes]
        if isinstance(seen[0], int):
            values[name] = seen[0]
            if len(set(seen)) != 1:
                repeat = False
                lines.append(f"  count {name} differs between traced passes: {seen}")
        else:
            values[name] = statistics.median(seen)
    scaled = run.clock.scaled()
    values["trace.overhead_share"] = (sum(per_command(scaled, traced=True).values())
                                      / sum(per_command(scaled, traced=False).values()) - 1)
    lines.append(f"  per-layer values: counts of one traced pass, times the median "
                 f"of {len(passes)} traced passes; overhead from each command's median "
                 f"scaled time, traced and untraced")
    for cmd, ss in run.traced_passes[0]:
        eff = spans.parallel_efficiency(ss)
        if eff is not None:
            lines.append(f"  sampling.parallel_eff [{cmd.key}] {eff:.4f}")
    return values, lines, repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "votelab" / "__init__.py").is_file():
        print(f"error: no votelab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH / "golden.json").read_text())
    workload = workloads.WORKLOADS[args.workload]

    _, cli, tmp, commands = setup(workload, args.seed)
    try:
        run = Run(cli, commands, golden.get(workload.name, {}).get(str(args.seed), {}))
        # The fresh set-ups are spread over the passes a run is expected to make.
        per_pass = -(-SETUPS // max(MIN_PASSES, round(args.seconds / workload.nominal_pass_s)))
        probed = passes = 0
        elapsed = 0.0
        while passes == 0 or another_pass(passes, elapsed, args.seconds, bool(args.trace)):
            tracer = spans.Tracer() if args.trace and passes % 2 else None
            restore = spans.instrument(tracer) if tracer else None
            t0 = time.perf_counter()
            try:
                run.one_pass(tracer)
            finally:
                if restore:
                    restore()
            elapsed += time.perf_counter() - t0
            passes += 1
            if not args.trace:
                count = min(per_pass, SETUPS - probed)
                probe_setups(run.setup_clock, workload.name, args.seed, count)
                probed += count
        if not args.trace:
            probe_setups(run.setup_clock, workload.name, args.seed, SETUPS - probed)
    finally:
        remove_tmp(tmp)

    if args.trace:
        values, lines, correct = per_layer(run)
        notes = {}
        wanted = spec["per_layer"]
    else:
        values, notes, lines = end_to_end(run, passes)
        correct = True
        wanted = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        raise RuntimeError("computed metrics do not match BENCHMARK.json")
    correct = correct and run.failed == 0

    print(f"workload {workload.name}  seed {args.seed}  passes {passes}  "
          f"commands {run.attempted}  trace {'on' if args.trace else 'off'}")
    for m in wanted:
        print(f"{m['name']:<38} {values[m['name']]:<12.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
