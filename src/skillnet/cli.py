"""Command-line front end.

Subcommands: init, retrieve, ingest, evolve, simulate, stats, export-dot.
Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 data error, 3 proposer/network error. Input files are never mutated;
outputs are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .config import load_app_config
from .curriculum import CurriculumState, maybe_unlock
from .errors import ConfigInvalid, ParseError, ProposerError, SkillNetError
from .evolution import evolve_step
from .model import EdgeKind, SkillGraph, SkillNode
from .persistence import (
    export_dot,
    ingest_trajectories,
    load_graph,
    save_graph,
    _atomic_write,
)
from .proposer import HttpProposer, ScriptedProposer
from .retrieval import TaskQuery, render_skill_block, retrieve
from .simulate import compare_retrievers, run_loop

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROPOSER = 3


def _build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand;
    # SUPPRESS keeps an unset late flag from clobbering an early one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", default=argparse.SUPPRESS,
                        help="path to a graph snapshot JSON")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a sectioned config JSON")
    common.add_argument("--strict", action="store_true",
                        default=argparse.SUPPRESS,
                        help="reject unknown fields instead of warning")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="rng seed for simulation commands (default 42)")

    parser = argparse.ArgumentParser(
        prog="skillnet", parents=[common],
        description="Skill dependency graph engine: retrieval, evolution, "
                    "curriculum, and a closed-loop simulator.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", parents=[common],
                            help="build a graph from a skills JSON")
    p_init.add_argument("--skills", required=True,
                        help="JSON list of skill records")
    p_init.add_argument("--out", required=True, help="output snapshot path")

    p_ret = sub.add_parser("retrieve", parents=[common],
                           help="retrieve a skill sequence")
    p_ret.add_argument("--task-type", required=True)
    p_ret.add_argument("--task-description", default="")
    p_ret.add_argument("--kmax", type=int, default=None)
    p_ret.add_argument("--depth", type=int, default=None)
    p_ret.add_argument("--beam", type=int, default=None)
    p_ret.add_argument("--render", action="store_true",
                       help="print the skill block instead of JSON")

    p_ing = sub.add_parser("ingest", parents=[common],
                           help="validate a trajectory JSONL file")
    p_ing.add_argument("--input", required=True)

    p_evo = sub.add_parser("evolve", parents=[common],
                           help="run one evolution checkpoint")
    p_evo.add_argument("--window", required=True,
                       help="trajectory JSONL for this window")
    p_evo.add_argument("--report", help="where to write the checkpoint report")
    p_evo.add_argument("--out", help="output snapshot (defaults to --graph)")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run the closed-loop simulator")
    p_sim.add_argument("--out", required=True, help="metrics CSV path")
    p_sim.add_argument("--graph-out", help="final graph snapshot path")
    p_sim.add_argument("--compare-flat", action="store_true",
                       help="also run the flat-retrieval arm and print a "
                            "paired comparison")

    sub.add_parser("stats", parents=[common],
                   help="print a summary of a graph snapshot")

    p_dot = sub.add_parser("export-dot", parents=[common],
                           help="write a DOT rendering")
    p_dot.add_argument("--out", help="output .dot path (default stdout)")
    p_dot.add_argument("--hide-deprecated", action="store_true")

    return parser


def _require_graph(args: argparse.Namespace) -> SkillGraph:
    if not args.graph:
        raise ConfigInvalid("this command needs --graph")
    return load_graph(args.graph, strict=args.strict)


def _cmd_init(args: argparse.Namespace) -> int:
    try:
        records = json.loads(Path(args.skills).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {args.skills}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {args.skills}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    if not isinstance(records, list):
        raise ParseError("skills file must be a JSON array of skill records")
    graph = SkillGraph()
    for i, obj in enumerate(records):
        if not isinstance(obj, dict) or not {"skill_id", "title"} <= set(obj):
            raise ParseError(f"skills entry {i} must be an object with "
                             f"skill_id and title")
        graph.add_skill(SkillNode(
            skill_id=str(obj["skill_id"]),
            title=str(obj["title"]),
            principle=str(obj.get("principle", "")),
            when_to_apply=str(obj.get("when_to_apply", "")),
            category=str(obj.get("category", "general")),
        ))
    added = graph.init_edges()
    graph.compute_levels()
    save_graph(graph, args.out)
    print(f"initialized graph with {len(graph.nodes)} skills and "
          f"{added} structural edges -> {args.out}")
    return EXIT_OK


def _cmd_retrieve(args: argparse.Namespace) -> int:
    app = load_app_config(args.config, strict=args.strict)
    graph = _require_graph(args)
    query = TaskQuery(description=args.task_description,
                      task_type=args.task_type)
    flags = {"k_max": args.kmax, "depth": args.depth, "beam_width": args.beam}
    params = dataclasses.replace(
        app.retrieval, **{k: v for k, v in flags.items() if v is not None})
    params.validate()
    result = retrieve(graph, query, depth=params.depth,
                      beam_width=params.beam_width, k_max=params.k_max)
    if args.render:
        print(render_skill_block(result, graph))
        return EXIT_OK
    print(json.dumps({
        "ordered_skills": result.ordered_skills,
        "scores": result.scores,
        "traversed_edges": [[s, d, k.value]
                            for s, d, k in sorted(result.traversed_edges)],
    }, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, strict=args.strict) if args.graph else None
    outcome = ingest_trajectories(args.input, graph=graph)
    for lineno, message in outcome.errors:
        print(f"line {lineno}: {message}", file=sys.stderr)
    print(f"{len(outcome.records)} valid record(s), "
          f"{len(outcome.errors)} malformed line(s)")
    return EXIT_OK if not outcome.errors else EXIT_DATA


def _cmd_evolve(args: argparse.Namespace) -> int:
    app = load_app_config(args.config, strict=args.strict)
    graph = _require_graph(args)
    outcome = ingest_trajectories(args.window, graph=graph)
    for lineno, message in outcome.errors:
        print(f"line {lineno}: {message}", file=sys.stderr)
    records = outcome.records
    known = [r for r in records
             if all(s in graph.nodes for s in r.retrieved_skill_ids)]
    batch = [(skill_id, True, record.success)
             for record in known for skill_id in record.retrieved_skill_ids]
    graph.update_stats(batch)

    if app.proposer.endpoint:
        proposer = HttpProposer(**dataclasses.asdict(app.proposer))
    else:
        logger.info("no proposer endpoint configured; node synthesis is off")
        proposer = ScriptedProposer()

    successes = [r for r in records if r.success]
    failures = [r for r in records if not r.success]
    # warmup is counted in checkpoints; gate on the index this window carries
    checkpoint_index = graph.checkpoint_index
    report = evolve_step(graph, successes, failures, proposer, app.evolution)
    state = CurriculumState(
        highest_active_level=graph.highest_active_level,
        warmup_length=app.curriculum.warmup_length,
        warmup_steps_remaining=max(
            0, app.curriculum.warmup_length - checkpoint_index),
        unlock_threshold=app.curriculum.unlock_threshold)
    report.unlock_events = maybe_unlock(graph, state)

    save_graph(graph, args.out or args.graph)
    if args.report:
        _atomic_write(args.report,
                      json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    sim_config = load_app_config(args.config, strict=args.strict).simulation
    metrics, graph = run_loop(sim_config, args.seed)
    _atomic_write(args.out, metrics.to_csv())
    print(f"{len(metrics.rows)} checkpoint(s) -> {args.out}")
    if args.graph_out:
        save_graph(graph, args.graph_out)
        print(f"final graph -> {args.graph_out}")
    if args.compare_flat:
        comparison = compare_retrievers(sim_config, args.seed)
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _require_graph(args)
    active = graph.active_ids()
    deprecated = [v for v, n in graph.nodes.items() if n.deprecated]
    by_kind = {kind.value: graph.edge_count(kind) for kind in EdgeKind}
    levels: dict[int, int] = {}
    for node in graph.nodes.values():
        levels[node.level] = levels.get(node.level, 0) + 1
    used = [n for n in graph.nodes.values() if not n.deprecated and n.n_use > 0]
    mean_success = (sum(n.success_rate() for n in used) / len(used)
                    if used else 0.0)
    print(f"nodes: {len(graph.nodes)} total, {len(active)} active, "
          f"{len(deprecated)} deprecated")
    print("edges: " + ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items())))
    print(f"highest active level: {graph.highest_active_level} "
          f"(levels 0..{graph.highest_active_level} unlocked)")
    print("level histogram: " +
          ", ".join(f"L{lvl}={count}" for lvl, count in sorted(levels.items())))
    print(f"mean node success rate: {mean_success:.4f}")
    print(f"checkpoint index: {graph.checkpoint_index}")
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    graph = _require_graph(args)
    text = export_dot(graph, hide_deprecated=args.hide_deprecated)
    if args.out:
        _atomic_write(args.out, text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


_COMMANDS = {
    "init": _cmd_init,
    "retrieve": _cmd_retrieve,
    "ingest": _cmd_ingest,
    "evolve": _cmd_evolve,
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "export-dot": _cmd_export_dot,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    args.graph = getattr(args, "graph", None)
    args.config = getattr(args, "config", None)
    args.strict = getattr(args, "strict", False)
    args.seed = getattr(args, "seed", 42)
    try:
        return _COMMANDS[args.command](args)
    except ProposerError as exc:
        print(f"proposer error: {exc}", file=sys.stderr)
        return EXIT_PROPOSER
    except (SkillNetError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
