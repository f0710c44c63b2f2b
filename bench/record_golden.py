"""Record the output digests that the benchmark checks commands against.

    python3 bench/record_golden.py

Run it from the root of a checkout whose outputs are the reference.  It
rewrites ``bench/golden.json`` with one digest per workload, seed and
command.  A command that must repeat an earlier command's output is given
that command's digest without being run again.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEEDS = range(11)


def main() -> int:
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        _, cli, tmp, _ = run.setup(workload, 0)
        try:
            for seed in SEEDS:
                digests = golden.setdefault(name, {}).setdefault(str(seed), {})
                for cmd in workload.commands(seed, tmp):
                    if cmd.same_as is not None:
                        digests[cmd.key] = digests[cmd.same_as]
                        continue
                    rc, out, err = run.run_command(cli, cmd.argv)
                    problems = workloads.check(cmd, rc, out, {})
                    if problems:
                        print(f"{name} seed {seed} {cmd.key}: {problems} {err}",
                              file=sys.stderr)
                        return 1
                    digests[cmd.key] = workloads.digest(cmd, out)
                print(f"{name} seed {seed}: {len(digests)} digests", file=sys.stderr)
        finally:
            run.remove_tmp(tmp)
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
