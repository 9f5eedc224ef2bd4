"""Run one benchmark workload and print its metrics as JSON.

    python3 -m bench.run --workload retrieve_8k --seed 3 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced pass
(see ``bench/README.md``). Scratch files go to ``bench/.work/``. The exit code
is 0 only if every operation succeeded and every output matched its pinned
digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
EXPECTED = ROOT / "bench" / "expected.json"
SETUP_REPEATS = 3


def pin_to_one_cpu() -> int:
    """Keep this process, and the CLI children it waits for, on one CPU.

    The speed probes then time the CPU the measured work runs on; a
    migration between two vCPUs of different speed would break the pairing.
    The client is single-threaded, so it loses nothing by the pin.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict:
    """Commit, interpreter and machine facts recorded with every result."""
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "skillnet").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_ops(workload, seconds: float, count: int | None = None,
            side: list[tuple] = ()) -> tuple[list[str], float]:
    """Repeat ``op`` until ``seconds`` have passed (or ``count`` ops ran).

    The ``side`` operations run between ops at evenly spaced points of the
    measured time; their own time is not counted in it.
    """
    side = list(side)
    due = [seconds * (k + 1) / (len(side) + 1) for k in range(len(side))]
    digests = []
    spent = 0.0
    i = 0
    while True:
        mark = workload.gauge.start()
        digests.append(workload.attempt(workload.op, i))
        spent += workload.gauge.stop(mark).raw
        i += 1
        while side and spent >= due[0]:
            due.pop(0)
            workload.attempt(*side.pop(0))
        if (count is not None and i >= count) or (count is None and spent >= seconds):
            break
    for task in side:
        workload.attempt(*task)
    return digests, spent


def measure(workload, seconds: float) -> tuple[dict, dict]:
    setups = []
    with workload.gauge.running():
        for _ in range(SETUP_REPEATS):
            mark = workload.gauge.start()
            workload.attempt(workload.setup)
            setups.append(workload.gauge.stop(mark))
        workload.reset_samples()
        run_ops(workload, seconds, side=workload.side_tasks())
    return workload.end_to_end(setups)


def measure_traced(workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from .tracing import Tracer
    from .workloads import CLI_STARTUP_CALLS

    workload.attempt(workload.setup)
    plain, plain_s = run_ops(workload, seconds / 2)
    workload.attempt(workload.setup)
    with Tracer() as tracer:
        traced, traced_s = run_ops(workload, 0, count=len(plain))
        workload.attempt(workload.trace_extras)
    workload.attempted += 1
    if traced != plain:
        workload.failed += 1
        workload.errors.append("traced outputs differ from untraced outputs")
    startup = [workload.attempt(workload.cli_startup) for _ in range(CLI_STARTUP_CALLS)]
    evolve_s = workload.attempt(workload.cli_evolve)
    extra = {
        "model.nodes": len(workload.published.nodes) if workload.published else 0,
        "model.edges": len(workload.published.edges()) if workload.published else 0,
        "persistence.snapshot_bytes": (workload.snapshot_path.stat().st_size
                                       if workload.snapshot_path.exists() else 0),
        "trace.overhead_pct": (traced_s - plain_s) / plain_s * 100,
    }
    if all(s is not None for s in startup):
        extra["cli.startup_ms"] = statistics.median(startup) * 1000
    if evolve_s is not None:
        extra["cli.evolve_s"] = evolve_s
    metrics, not_measured = tracer.metrics(extra)
    tracer.write(spans_path)
    return metrics, {"ops": len(plain), "untraced_s": plain_s, "traced_s": traced_s,
                     "spans": len(tracer.names), "spans_file": spans_path.name,
                     "not_measured": not_measured}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skillnet" / "__init__.py").is_file():
        print(f"error: no skillnet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from .workloads import VARIANTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not EXPECTED.is_file():
        print(f"error: missing {EXPECTED}", file=sys.stderr)
        return 2
    pinned = json.loads(EXPECTED.read_text())[args.workload]
    env = environment()
    env["pinned_cpu"] = pin_to_one_cpu()
    work = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir()
    try:
        workload = work(args.seed, run_dir, pinned.get(str(args.seed % VARIANTS), {}))
        try:
            if args.trace:
                metrics, details = measure_traced(
                    workload, args.seconds, WORK / f"spans-{args.workload}.jsonl")
            else:
                metrics, details = measure(workload, args.seconds)
        except Exception as exc:  # no metrics without samples; report and fail
            workload.attempted += 1
            workload.failed += 1
            workload.errors.append(f"{type(exc).__name__}: {exc}")
            metrics, details = {}, {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    ok = workload.failed == 0
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "details": details,
        "failed_ops_ratio": workload.failed / workload.attempted,
        "errors": workload.errors[:10]}))
    print(json.dumps({
        "correct": ok,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
