"""Regenerate ``bench/expected.json``, the digests every run is checked against.

    python3 -m bench.pin --workload checkpoint_2k

For each library variant it runs every pinned operation once and records the
digest of each output. Run it when the benchmark's inputs change (generator,
task streams, window sizes), never to absorb a change in the program's
outputs: those are what the digests exist to catch.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from .run import EXPECTED, SRC, WORK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from .library import CATEGORIES
    from .workloads import (
        CYCLES_PER_LIBRARY,
        SIM_SEEDS_PER_VARIANT,
        VARIANTS,
        WORKLOADS,
    )

    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for name in args.workload:
        cls = WORKLOADS[name]
        table = {}
        for variant in range(VARIANTS):
            work = WORK / f"pin-{name}-{variant}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                workload = cls(variant, work, None)
                workload.attempt(workload.setup)
                i = 0
                while True:
                    workload.attempt(workload.op, i)
                    i += 1
                    if name == "sim_default" and i >= SIM_SEEDS_PER_VARIANT:
                        break
                    if name == "checkpoint_2k" and i >= CYCLES_PER_LIBRARY:
                        break
                    if name == "retrieve_8k" and all(
                            f"answer/{c}" in workload.seen for c in CATEGORIES):
                        break
                for task in workload.side_tasks():
                    workload.attempt(*task)
                workload.attempt(workload.cli_evolve)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if workload.failed:
                print(f"{name} variant {variant}: {workload.errors}", file=sys.stderr)
                return 1
            table[str(variant)] = dict(sorted(workload.seen.items()))
            print(f"{name} variant {variant}: {len(workload.seen)} digests", flush=True)
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else expected
        expected[name] = table
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
