"""Spans at the package's call boundaries, installed from outside the package.

The tracer replaces module and class attributes with timing wrappers and puts
the originals back in ``restore``. It wraps the stage functions that
``run_loop``, ``evolve_step`` and ``retrieve`` look up in their modules,
``SkillGraph.compute_levels`` and ``snapshot``, the persistence calls, and
the proposers' ``propose``. A span is (name, start, end, parent span, request
id); the request id is the task id of the current query, or the checkpoint or
simulator seed being run. Spans stay in memory until ``write``.

A boundary whose attribute no longer exists is skipped, and the metrics that
depend on it are reported as not measured.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

from skillnet import curriculum, evolution, model, persistence, retrieval, simulate

from .library import BenchProposer

# (owner, attribute, span name); one span name may cover several bindings
BOUNDARIES = (
    (retrieval, "retrieve", "retrieval.retrieve"),
    (simulate, "retrieve", "retrieval.retrieve"),
    (retrieval, "select_seeds", "retrieval.select_seeds"),
    (retrieval, "_expand_backward", "retrieval.backward"),
    (retrieval, "_expand_forward", "retrieval.forward"),
    (retrieval, "topo_order", "retrieval.topo_order"),
    (model.SkillGraph, "compute_levels", "model.compute_levels"),
    (model.SkillGraph, "snapshot", "model.snapshot"),
    (evolution, "evolve_step", "evolution.evolve_step"),
    (simulate, "evolve_step", "evolution.evolve_step"),
    (evolution, "scan_insert_trigger", "evolution.insert"),
    (evolution, "merge_scan", "evolution.merge"),
    (evolution, "split_scan", "evolution.split"),
    (evolution, "deprecate_scan", "evolution.deprecate"),
    (evolution, "reinforce_paths", "evolution.reinforce"),
    (evolution, "discover_cooccur", "evolution.discover"),
    (evolution, "decay_and_prune", "evolution.decay_prune"),
    (BenchProposer, "propose", "proposer.propose"),
    (simulate.SimProposer, "propose", "proposer.propose"),
    (curriculum, "maybe_unlock", "curriculum.unlock"),
    (simulate, "maybe_unlock", "curriculum.unlock"),
    (persistence, "save_graph", "persistence.save"),
    (persistence, "load_graph", "persistence.load"),
    (persistence, "ingest_trajectories", "persistence.ingest"),
    (simulate, "run_loop", "simulate.run_loop"),
    (simulate, "rollout", "simulate.rollout"),
    (simulate, "group_advantages", "policy_math"),
    (simulate, "grpo_objective", "policy_math"),
)

# counted without a span: merge_scan calls it once per pair it compares
COUNTERS = ((evolution, "jaccard", "merge_pairs"),)

# per-layer metric -> (unit, spans or counters it needs)
PER_LAYER = {
    "retrieval.select_seeds_ms": ("ms", ("retrieval.select_seeds", "retrieval.retrieve")),
    "retrieval.backward_ms": ("ms", ("retrieval.backward", "retrieval.retrieve")),
    "retrieval.forward_ms": ("ms", ("retrieval.forward", "retrieval.retrieve")),
    "retrieval.topo_order_ms": ("ms", ("retrieval.topo_order", "retrieval.retrieve")),
    "retrieval.candidates": ("count", ("retrieval.topo_order", "retrieval.retrieve")),
    "retrieval.returned": ("count", ("retrieval.retrieve",)),
    "retrieval.useful_ratio": ("ratio", ("retrieval.topo_order", "retrieval.retrieve")),
    "retrieval.repeat_share": ("ratio", ("retrieval.retrieve", "evolution.evolve_step")),
    "model.compute_levels_ms": ("ms", ("model.compute_levels", "evolution.evolve_step")),
    "model.compute_levels_calls": ("count", ("model.compute_levels", "evolution.evolve_step")),
    "model.snapshot_ms": ("ms", ("model.snapshot",)),
    "model.nodes": ("count", ()),
    "model.edges": ("count", ()),
    "evolution.insert_ms": ("ms", ("evolution.insert", "evolution.evolve_step")),
    "evolution.merge_ms": ("ms", ("evolution.merge", "evolution.evolve_step")),
    "evolution.split_ms": ("ms", ("evolution.split", "evolution.evolve_step")),
    "evolution.deprecate_ms": ("ms", ("evolution.deprecate", "evolution.evolve_step")),
    "evolution.reinforce_ms": ("ms", ("evolution.reinforce", "evolution.evolve_step")),
    "evolution.discover_ms": ("ms", ("evolution.discover", "evolution.evolve_step")),
    "evolution.decay_prune_ms": ("ms", ("evolution.decay_prune", "evolution.evolve_step")),
    "evolution.merge_pairs_scanned": ("count", ("merge_pairs", "evolution.evolve_step")),
    "evolution.merge_accept_ratio": ("ratio", ("evolution.merge", "proposer.propose")),
    "proposer.calls_insert": ("count", ("proposer.propose", "evolution.evolve_step")),
    "proposer.calls_merge": ("count", ("proposer.propose", "evolution.evolve_step")),
    "proposer.calls_split": ("count", ("proposer.propose", "evolution.evolve_step")),
    "proposer.ms": ("ms", ("proposer.propose", "evolution.evolve_step")),
    "proposer.accept_ratio": ("ratio", ("proposer.propose", "evolution.insert",
                                        "evolution.merge", "evolution.split")),
    "curriculum.unlock_ms": ("ms", ("curriculum.unlock", "evolution.evolve_step")),
    "curriculum.unlocks": ("count", ("curriculum.unlock", "evolution.evolve_step")),
    "persistence.save_ms": ("ms", ("persistence.save",)),
    "persistence.load_ms": ("ms", ("persistence.load",)),
    "persistence.ingest_ms": ("ms", ("persistence.ingest",)),
    "persistence.snapshot_bytes": ("bytes", ()),
    "policy_math.ms": ("ms", ("policy_math", "simulate.run_loop")),
    "policy_math.calls": ("count", ("policy_math", "simulate.run_loop")),
    "simulate.rollout_ms": ("ms", ("simulate.rollout", "simulate.run_loop")),
    "simulate.self_ms": ("ms", ("simulate.run_loop",)),
    "cli.startup_ms": ("ms", ()),
    "cli.evolve_s": ("s", ()),
    "trace.overhead_pct": ("%", ()),
}


class Tracer:
    """Installs the boundary wrappers and turns their spans into layer metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[str | None] = []
        self.request: str | None = None
        self.counts: Counter[str] = Counter()
        self.missing: set[str] = set()
        self._tallies: dict[str, itertools.count] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._epoch = 0
        self._seen_queries: set[tuple[int, str]] = set()
        self._origin = time.perf_counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        hooks = self._hooks()
        for owner, attr, name in BOUNDARIES:
            before, after = hooks.get(name, (None, None))
            self._replace(owner, attr, name, lambda fn, n=name, b=before, a=after:
                          self._span_wrapper(fn, n, b, a))
        for owner, attr, name in COUNTERS:
            self._replace(owner, attr, name, lambda fn, n=name: self._count_wrapper(fn, n))
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _replace(self, owner: Any, attr: str, name: str,
                 make: Callable[[Callable], Callable]) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.missing.add(name)
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span_wrapper(self, fn: Callable, name: str, before: Callable | None,
                      after: Callable | None) -> Callable:
        # one list per field: floats and strings in a few lists are cheap to
        # keep and invisible to the cyclic garbage collector, unlike one
        # container per span
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        # a C-level counter keeps the cost per call far below a Counter update
        tally = self._tallies.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args):
            next(tally)
            return fn(*args)
        return wrapper

    def _hooks(self) -> dict[str, tuple[Callable | None, Callable | None]]:
        counts = self.counts

        def on_query(args):
            query = args[1]
            self.request = query.description
            key = (self._epoch, query.task_type)
            counts["repeats"] += key in self._seen_queries
            self._seen_queries.add(key)
            counts["queries"] += 1

        def on_checkpoint(args):
            self._epoch += 1
            self.request = f"checkpoint-{args[0].checkpoint_index}"
            counts["checkpoints"] += 1

        def on_loop(args):
            self._epoch += 1
            self.request = f"seed-{args[1]}"
            counts["seeds"] += 1

        def on_propose(args):
            counts[f"calls_{args[1].kind}"] += 1

        def add(key, size):
            return lambda result: counts.update({key: size(result)})

        return {
            "retrieval.retrieve": (on_query, add("returned", lambda r: len(r.ordered_skills))),
            "retrieval.topo_order": (lambda args: counts.update(candidates=len(args[1])), None),
            "evolution.evolve_step": (on_checkpoint, None),
            "simulate.run_loop": (on_loop, None),
            "evolution.insert": (None, add("accepted", len)),
            "evolution.merge": (None, lambda r: counts.update(accepted=len(r), merges=len(r))),
            "evolution.split": (None, add("accepted", lambda r: sum(len(c) for _, c in r))),
            "proposer.propose": (on_propose, add("proposed", len)),
            "curriculum.unlock": (None, add("unlocks", len)),
        }

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter[str]]:
        """Total self time (seconds) and call count per span name."""
        child = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, nested in zip(self.names, self.starts, self.ends, child):
            totals[name] += end - start - nested
        return totals, Counter(self.names)

    def metrics(self, extra: dict[str, float]) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Every per-layer metric, plus the names that could not be measured.

        Retrieval figures are per query, evolution, model, proposer and
        curriculum figures per checkpoint, simulator figures per ``run_loop``
        seed; snapshot, persistence and CLI times are per call.
        """
        totals, calls = self.self_times()
        c = self.counts
        for name, tally in self._tallies.items():
            c[name] = next(tally)
        self._tallies.clear()
        per_query = max(c["queries"], 1)
        per_ckpt = max(c["checkpoints"], 1)
        per_seed = max(c["seeds"], 1)

        def ms(name, per):
            return totals.get(name, 0.0) * 1000 / per

        def per_call_ms(name):
            return totals.get(name, 0.0) * 1000 / max(calls[name], 1)

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "retrieval.select_seeds_ms": ms("retrieval.select_seeds", per_query),
            "retrieval.backward_ms": ms("retrieval.backward", per_query),
            "retrieval.forward_ms": ms("retrieval.forward", per_query),
            "retrieval.topo_order_ms": ms("retrieval.topo_order", per_query),
            "retrieval.candidates": c["candidates"] / per_query,
            "retrieval.returned": c["returned"] / per_query,
            "retrieval.useful_ratio": ratio(c["returned"], c["candidates"]),
            "retrieval.repeat_share": ratio(c["repeats"], c["queries"]),
            "model.compute_levels_ms": ms("model.compute_levels", per_ckpt),
            "model.compute_levels_calls": calls["model.compute_levels"] / per_ckpt,
            "model.snapshot_ms": per_call_ms("model.snapshot"),
            "evolution.insert_ms": ms("evolution.insert", per_ckpt),
            "evolution.merge_ms": ms("evolution.merge", per_ckpt),
            "evolution.split_ms": ms("evolution.split", per_ckpt),
            "evolution.deprecate_ms": ms("evolution.deprecate", per_ckpt),
            "evolution.reinforce_ms": ms("evolution.reinforce", per_ckpt),
            "evolution.discover_ms": ms("evolution.discover", per_ckpt),
            "evolution.decay_prune_ms": ms("evolution.decay_prune", per_ckpt),
            "evolution.merge_pairs_scanned": c["merge_pairs"] / per_ckpt,
            "evolution.merge_accept_ratio": ratio(c["merges"], c["calls_merge"]),
            "proposer.calls_insert": c["calls_insert"] / per_ckpt,
            "proposer.calls_merge": c["calls_merge"] / per_ckpt,
            "proposer.calls_split": c["calls_split"] / per_ckpt,
            "proposer.ms": ms("proposer.propose", per_ckpt),
            "proposer.accept_ratio": ratio(c["accepted"], c["proposed"]),
            "curriculum.unlock_ms": ms("curriculum.unlock", per_ckpt),
            "curriculum.unlocks": c["unlocks"] / per_ckpt,
            "persistence.save_ms": per_call_ms("persistence.save"),
            "persistence.load_ms": per_call_ms("persistence.load"),
            "persistence.ingest_ms": per_call_ms("persistence.ingest"),
            "policy_math.ms": ms("policy_math", per_seed),
            "policy_math.calls": calls["policy_math"] / per_seed,
            "simulate.rollout_ms": ms("simulate.rollout", per_seed),
            "simulate.self_ms": ms("simulate.run_loop", per_seed),
        }
        values.update(extra)
        not_measured = sorted(
            metric for metric, (_, needs) in PER_LAYER.items()
            if metric not in values or any(n in self.missing for n in needs))
        result = {metric: (0.0 if metric in not_measured else values[metric], unit)
                  for metric, (unit, _) in PER_LAYER.items()}
        return result, not_measured

    def write(self, path: Path) -> None:
        """All spans as JSON lines; times in seconds from the tracer's start."""
        origin = self._origin
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(zip(self.names, self.starts, self.ends,
                                         self.parents, self.requests)):
                name, start, end, parent, request = span
                handle.write(json.dumps({
                    "id": i, "name": name, "start": round(start - origin, 7),
                    "end": round(end - origin, 7), "parent": parent,
                    "request": request}) + "\n")
