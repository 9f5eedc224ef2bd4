"""The benchmark's three workloads.

Each workload is a closed loop with one client in one process: the next
request goes out only after the previous one returned, because an agent waits
for its skill block before it rolls out. The inputs come from the seed alone:
``variant = seed % VARIANTS`` picks the library, the task streams and the
simulator seeds, and every output is checked against the digests pinned for
that variant in ``expected.json`` (written by ``bench/pin.py``).

A workload is driven by ``bench/run.py``: ``setup`` (timed as ``setup_s``),
then ``op`` repeated for the measured seconds, with the ``side_tasks`` (CLI
probes and other work a run does a fixed number of times) spread evenly
through that time, so that every metric samples the same stretch of the
machine's varying speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from typing import Any

import skillnet
from skillnet import (
    CurriculumState,
    EvolutionConfig,
    SkillGraph,
    TaskQuery,
    TrajectoryRecord,
    curriculum,
    default_sim_config,
    evolution,
    persistence,
    retrieval,
    simulate,
)
from skillnet.curriculum import smoothed_success

from .library import CATEGORIES, BenchProposer, answer, digest, generate_library
from .speed import SpeedGauge, Timed

VARIANTS = 16  # seed 15, variant 15, is held out for confirming claims (README)
SIM_SEEDS_PER_VARIANT = 32
SIM_SEED_42_CSV_SHA256 = "05c407704ec0dc79f24957532594867b47857f33a690c97c62c1ec839aaeecf3"
SIM_PROBE_TASKS = 60
WINDOW_TASKS = 100
CYCLES_PER_LIBRARY = 8
WARMUP_QUERIES = 5
CLI_RETRIEVE_CALLS = 11
PUBLISHES = 5
CLI_CATEGORIES = 5
CLI_STARTUP_CALLS = 3
CLI_TIMEOUT_S = 120

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# every workload gathers well over 200 retrieve samples a run, enough for
# ten beyond p95; a higher percentile only some runs reach would make the
# tail jump whenever the machine or the program gets faster
TAIL_HIGHEST = 95.0

SRC_DIR = Path(skillnet.__file__).resolve().parent.parent


def tail_percentile(samples: list[float],
                    highest: float = 100.0) -> tuple[float, float, int]:
    """Highest percentile, up to ``highest``, with at least ten samples beyond it.

    Uses the nearest-rank percentile. Returns (value, percentile, number of
    samples beyond it); with too few samples for any listed percentile it
    returns the maximum as percentile 100.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if pct > highest:
            continue
        rank = ceil(n * pct / 100)
        if n - rank >= MIN_BEYOND:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100.0, 0


def shuffled_rounds(rng: random.Random, items: tuple[str, ...]):
    """Endless stream of ``items`` in rounds, each round in a fresh order.

    Every item comes up equally often, so a run's latency samples do not
    depend on how often a random draw happened to pick a costly category.
    """
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class DigestMismatch(Exception):
    """An output differs from its pinned digest."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    """State, samples and output gate shared by the three workloads."""

    name = ""
    categories: tuple[str, ...] = CATEGORIES

    def __init__(self, seed: int, work: Path, pinned: dict[str, str] | None):
        self.seed = seed
        self.variant = seed % VARIANTS
        self.work = work
        # None: no pinned digests (pinning, or a non-standard size in tests);
        # each key is then checked against its own first value
        self.pinned = pinned
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.published: SkillGraph | None = None
        self.snapshot_path = work / "snapshot.json"
        self.gauge = SpeedGauge()
        self.reset_samples()

    def reset_samples(self) -> None:
        self.retrieve_times: list[Timed] = []
        self.checkpoint_times: list[Timed] = []
        self.cli_retrieve_times: list[Timed] = []
        self.loop_times: list[Timed] = []
        self.tasks = 0

    # -- correctness -----------------------------------------------------

    def check(self, key: str, value: str, expected: str | None = None) -> None:
        """Compare one output digest with its pinned (or first seen) value."""
        if expected is None:
            if self.pinned is not None:
                expected = self.pinned.get(key, "<not pinned>")
            else:
                expected = self.seen.setdefault(key, value)
        self.seen[key] = value
        if value != expected:
            raise DigestMismatch(f"{self.name} {key}: got {value}, expected {expected}")

    def attempt(self, fn, *args) -> Any:
        """Run one operation; an exception or a digest mismatch fails it."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted, none ends the run
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    # -- the shared loop pieces -------------------------------------------

    def window(self, graph: SkillGraph, task_types: tuple[str, ...], count: int,
               tag: str, path: Path) -> list[TrajectoryRecord]:
        """One retrieve per task, a seeded outcome, trajectories out and back in."""
        rng = random.Random(f"window/{tag}")
        types = shuffled_rounds(rng, task_types)
        records = []
        for t in range(count):
            task_type = next(types)
            task_id = f"{tag}/t{t:03d}"
            mark = self.gauge.start()
            result = retrieval.retrieve(graph, TaskQuery(task_id, task_type))
            self.retrieve_times.append(self.gauge.stop(mark))
            used = result.ordered_skills
            p = (sum(smoothed_success(graph.nodes[s]) for s in used) / len(used)
                 if used else 0.5)
            success = rng.random() < p
            records.append(TrajectoryRecord(
                task_id=task_id, task_type=task_type,
                retrieved_skill_ids=list(used),
                traversed_edges=[(s, d, k.value) for s, d, k in sorted(result.traversed_edges)],
                steps=[{"action": f"attempt {task_type}",
                        "observation": "solved" if success else "stalled"}],
                success=success))
        persistence.save_trajectories(records, path)
        ingested = persistence.ingest_trajectories(path, graph=graph)
        if ingested.errors or len(ingested.records) != count:
            raise RuntimeError(f"ingest returned {len(ingested.records)} of {count} "
                               f"records, errors {ingested.errors[:3]}")
        return ingested.records

    def checkpoint(self, writer: SkillGraph, records: list[TrajectoryRecord],
                   state: CurriculumState, proposer: BenchProposer) -> str:
        """Fold stats, evolve, unlock, publish a snapshot, save; digest of it all."""
        mark = self.gauge.start()
        writer.update_stats([(s, True, r.success)
                             for r in records for s in r.retrieved_skill_ids])
        report = evolution.evolve_step(
            writer, [r for r in records if r.success],
            [r for r in records if not r.success], proposer, EvolutionConfig())
        report.unlock_events = curriculum.maybe_unlock(writer, state)
        self.published = writer.snapshot()
        persistence.save_graph(writer, self.snapshot_path)
        self.checkpoint_times.append(self.gauge.stop(mark))
        return digest([report.to_dict(), file_sha(self.snapshot_path)])

    # -- CLI probes ---------------------------------------------------------

    def cli(self, *args: str) -> tuple[Timed, str]:
        """Run the ``skillnet`` command as a user would; its time and stdout."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
        with self.gauge.waiting():
            mark = self.gauge.start()
            proc = subprocess.run([sys.executable, "-m", "skillnet.cli", *args],
                                  capture_output=True, text=True, env=env,
                                  timeout=CLI_TIMEOUT_S)
            elapsed = self.gauge.stop(mark)
        if proc.returncode != 0:
            raise RuntimeError(f"skillnet {args[0]} exited "
                               f"{proc.returncode}: {proc.stderr.strip()[-300:]}")
        return elapsed, proc.stdout

    def cli_graph(self) -> Path:
        raise NotImplementedError

    def cli_retrieve(self, i: int) -> None:
        choices = self.categories[:CLI_CATEGORIES]
        task_type = choices[i % len(choices)]
        elapsed, out = self.cli("retrieve", "--graph", str(self.cli_graph()),
                                "--task-type", task_type)
        self.check(f"cli_retrieve/{task_type}", digest(json.loads(out)))
        self.cli_retrieve_times.append(elapsed)

    def cli_startup(self) -> float:
        elapsed, out = self.cli("--version")
        if out.strip() != skillnet.__version__:
            raise RuntimeError(f"--version printed {out.strip()!r}")
        return elapsed.raw

    def cli_evolve(self) -> float | None:
        """Wall time of one ``skillnet evolve``; None where a run has none."""
        return None

    def evolve_copy(self, graph: Path, window: Path) -> float:
        """``skillnet evolve --out`` on a copy of a snapshot; output is gated."""
        copy = self.work / "evolve_in.json"
        out = self.work / "evolve_out.json"
        shutil.copyfile(graph, copy)
        elapsed, stdout = self.cli("evolve", "--graph", str(copy), "--window", str(window),
                                   "--out", str(out))
        self.check("cli_evolve", digest([json.loads(stdout), file_sha(out)]))
        return elapsed.raw

    # -- workload-specific parts ----------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> str:
        """One measured operation; returns the digest of its outputs."""
        raise NotImplementedError

    def side_tasks(self) -> list[tuple]:
        """Fixed-count operations to interleave with the measured ops."""
        return [(self.cli_retrieve, i) for i in range(CLI_RETRIEVE_CALLS)]

    def trace_extras(self) -> None:
        """Calls the traced run adds so every layer boundary is crossed once."""
        loaded = persistence.load_graph(self.cli_graph())
        if not loaded.nodes:
            raise RuntimeError("loaded an empty graph")

    # -- results ------------------------------------------------------------

    def end_to_end(self, setups: list[Timed]) -> tuple[dict[str, tuple[float, str]], dict]:
        """Metrics at the reference speed, and the same figures as measured."""
        timed = {"retrieve": self.retrieve_times, "checkpoint": self.checkpoint_times,
                 "cli_retrieve": self.cli_retrieve_times, "loop": self.loop_times,
                 "setup": setups}

        def figures(seconds) -> dict[str, float]:
            s = {name: [seconds(t) for t in times] for name, times in timed.items()}
            retrieve_ms = [v * 1000 for v in s["retrieve"]]
            return {
                "loop_tasks_per_s": self.tasks / sum(s["loop"]),
                "retrieve_p50_ms": statistics.median(retrieve_ms),
                "retrieve_tail_ms": tail_percentile(retrieve_ms, TAIL_HIGHEST)[0],
                "retrieve_qps": len(retrieve_ms) * 1000 / sum(retrieve_ms),
                "checkpoint_p50_s": statistics.median(s["checkpoint"]),
                "cli_retrieve_s": statistics.median(s["cli_retrieve"]),
                "setup_s": statistics.median(s["setup"]),
            }

        units = {"loop_tasks_per_s": "1/s", "retrieve_p50_ms": "ms",
                 "retrieve_tail_ms": "ms", "retrieve_qps": "1/s",
                 "checkpoint_p50_s": "s", "cli_retrieve_s": "s", "setup_s": "s"}
        metrics = {name: (value, units[name])
                   for name, value in figures(self.gauge.value).items()}
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        _, pct, beyond = tail_percentile([t.raw for t in self.retrieve_times], TAIL_HIGHEST)
        factors = self.gauge.factors
        details = {
            "retrieve_tail_ms": {"percentile": pct, "samples_beyond": beyond,
                                 "samples": len(self.retrieve_times)},
            "checkpoint_samples": len(self.checkpoint_times),
            "tasks": self.tasks,
            "as_measured": figures(lambda t: t.raw),
            "slowdown": {"probes": len(factors), "median": statistics.median(factors),
                         "min": min(factors), "max": max(factors)},
        }
        return metrics, details


class SimDefault(Workload):
    """``run_loop(default_sim_config(), seed)`` over consecutive pinned seeds.

    After each loop, one probe cycle (a 60-task window and a checkpoint) runs
    on the loop's final library; it supplies the retrieve and checkpoint
    metrics on the small library the default run grows.
    """

    name = "sim_default"
    categories = tuple(t.name for t in default_sim_config().types)

    def setup(self) -> None:
        csv_sha, graph = self.loop(42, SIM_SEED_42_CSV_SHA256)
        persistence.save_graph(graph, self.work / "sim42.json")
        self.check("probe/42", self.probe(graph, 42))
        shutil.copyfile(self.work / "window.jsonl", self.work / "sim42_window.jsonl")

    def loop(self, seed: int, expected: str | None = None) -> tuple[str, SkillGraph]:
        mark = self.gauge.start()
        metrics, graph = simulate.run_loop(default_sim_config(), seed)
        self.loop_times.append(self.gauge.stop(mark))
        self.tasks += metrics.tasks
        csv_sha = hashlib.sha256(metrics.to_csv().encode("utf-8")).hexdigest()
        self.check(f"csv/{seed}", csv_sha, expected)
        return csv_sha, graph

    def probe(self, graph: SkillGraph, seed: int) -> str:
        state = CurriculumState(highest_active_level=graph.highest_active_level,
                                warmup_length=0, warmup_steps_remaining=0)
        records = self.window(graph, self.categories, SIM_PROBE_TASKS, f"sim/{seed}",
                              self.work / "window.jsonl")
        return self.checkpoint(graph, records, state, BenchProposer())

    def op(self, i: int) -> str:
        seed = SIM_SEEDS_PER_VARIANT * self.variant + i % SIM_SEEDS_PER_VARIANT
        csv_sha, graph = self.loop(seed)
        probe = self.probe(graph, seed)
        self.check(f"probe/{seed}", probe)
        return csv_sha + probe

    def cli_graph(self) -> Path:
        return self.work / "sim42.json"

    def cli_evolve(self) -> float:
        return self.evolve_copy(self.work / "sim42.json", self.work / "sim42_window.jsonl")


class Retrieve8k(Workload):
    """A read-only stream of ``retrieve`` over an 8k-skill library.

    Each round of queries asks every category once, in an order drawn from
    the seed. Five publish checkpoints are spread through the reads: each
    folds one round of usage into the statistics, takes the ``snapshot()``
    the reader switches to, and saves it. Evolution never runs.
    """

    name = "retrieve_8k"
    size = 8000

    def setup(self) -> None:
        self.graph = self.published = None
        self.graph = generate_library(self.size, self.variant)
        self.published = self.graph.snapshot()
        persistence.save_graph(self.graph, self.work / "library.json")
        self.usage = []
        for category in self.categories[:WARMUP_QUERIES]:
            result = retrieval.retrieve(self.published, TaskQuery("warm-up", category))
            self.check(f"answer/{category}", digest(answer(result)))
            self.usage += [(s, True, True) for s in result.ordered_skills]
        self.stream = shuffled_rounds(random.Random(f"retrieve_8k/{self.seed}"),
                                      self.categories)
        self.publishes = 0

    def op(self, i: int) -> str:
        category = next(self.stream)
        mark = self.gauge.start()
        result = retrieval.retrieve(self.published, TaskQuery(f"q{i}", category))
        elapsed = self.gauge.stop(mark)
        self.retrieve_times.append(elapsed)
        self.loop_times.append(elapsed)
        out = digest(answer(result))
        self.check(f"answer/{category}", out)
        self.tasks += 1
        return out

    def publish(self) -> None:
        mark = self.gauge.start()
        self.graph.update_stats(self.usage)
        self.published = self.graph.snapshot()
        persistence.save_graph(self.graph, self.snapshot_path)
        elapsed = self.gauge.stop(mark)
        self.checkpoint_times.append(elapsed)
        self.loop_times.append(elapsed)
        self.check(f"publish/{self.publishes}", file_sha(self.snapshot_path))
        self.publishes += 1

    def side_tasks(self) -> list[tuple]:
        cli = super().side_tasks()
        share = len(cli) / PUBLISHES
        tasks = []
        for k in range(PUBLISHES):
            tasks += [(self.publish,), *cli[round(k * share):round((k + 1) * share)]]
        return tasks

    def trace_extras(self) -> None:
        self.publish()
        super().trace_extras()

    def cli_graph(self) -> Path:
        return self.work / "library.json"


class Checkpoint2k(Workload):
    """Window and checkpoint cycles on a 2k-skill library with usage stats.

    A cycle reads the published snapshot (one ``retrieve`` per task, a seeded
    outcome, trajectories written as JSONL and ingested back), then runs a
    checkpoint on the writer graph: ``update_stats``, ``evolve_step`` with the
    benchmark teacher, ``maybe_unlock``, ``snapshot()`` and ``save_graph``.
    After ``CYCLES_PER_LIBRARY`` cycles the library is rebuilt (untimed) and
    the cycles replay, so every cycle output stays pinned.
    """

    name = "checkpoint_2k"
    size = 2000

    def fresh(self) -> None:
        self.writer = self.published = None
        self.writer = generate_library(self.size, self.variant, with_stats=True)
        self.published = self.writer.snapshot()
        self.state = CurriculumState(highest_active_level=self.writer.highest_active_level,
                                     warmup_length=0, warmup_steps_remaining=0)
        self.proposer = BenchProposer()

    def setup(self) -> None:
        self.fresh()
        persistence.save_graph(self.writer, self.work / "library.json")
        for category in self.categories[:WARMUP_QUERIES]:
            result = retrieval.retrieve(self.published, TaskQuery("warm-up", category))
            self.check(f"answer/{category}", digest(answer(result)))

    def op(self, i: int) -> str:
        cycle = i % CYCLES_PER_LIBRARY
        if cycle == 0 and i > 0:
            self.fresh()
        mark = self.gauge.start()
        records = self.window(self.published, self.categories, WINDOW_TASKS,
                              f"v{self.variant}/c{cycle}", self.work / "window.jsonl")
        out = self.checkpoint(self.writer, records, self.state, self.proposer)
        self.loop_times.append(self.gauge.stop(mark))
        self.tasks += WINDOW_TASKS
        self.check(f"cycle/{cycle}", out)
        if cycle == 0:
            shutil.copyfile(self.work / "window.jsonl", self.work / "window0.jsonl")
        return out

    def cli_graph(self) -> Path:
        return self.work / "library.json"

    def cli_evolve(self) -> float:
        return self.evolve_copy(self.work / "library.json", self.work / "window0.jsonl")


WORKLOADS = {w.name: w for w in (SimDefault, Retrieve8k, Checkpoint2k)}
