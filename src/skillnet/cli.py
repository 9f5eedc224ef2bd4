"""Command-line front end.

Subcommands: init, retrieve, ingest, evolve, simulate, stats, export-dot.
Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 data error (a standard output that cannot be written included),
3 proposer/network error. Output paths are checked before any work, outputs
are written atomically, and input files are never mutated, with one
exception: ``evolve`` without ``--out`` rewrites its ``--graph`` snapshot in
place. ``main`` is the in-process entry point; the ``skillnet`` script and
``python -m skillnet.cli`` go through ``run``, which ends the process as
soon as the output is out.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__
from .errors import ConfigInvalid, ParseError, ProposerError, SkillNetError
from .model import GENERAL_CATEGORY, SKILL_TEXT_FIELDS, SkillGraph, SkillNode
from .persistence import (
    decode_json,
    export_dot,
    ingest_trajectories,
    load_graph,
    read_text,
    save_graph,
    _atomic_write,
    _checked,
    _Ignored,
)
from .retrieval import RetrievalParams, TaskQuery, render_skill_block, retrieve

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROPOSER = 3

# an ``init`` skills entry: every field a string, checked, never coerced
_SKILL_TYPES = dict.fromkeys(SKILL_TEXT_FIELDS, str)
_SKILL_REQUIRED = ("skill_id", "title")


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
                        help="reject unknown fields of a snapshot, trajectory "
                             "JSONL or skills list and unknown config sections "
                             "instead of warning (config section keys are "
                             "always checked; teacher replies never)")
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


def _app_config(args: argparse.Namespace):
    """The ``--config`` file, every section checked. Imported here, since
    the config sections pull in the simulator, evolution and the teacher."""
    from .config import load_app_config

    return load_app_config(args.config, strict=args.strict)


def _require_graph(args: argparse.Namespace) -> SkillGraph:
    if not args.graph:
        raise ConfigInvalid("this command needs --graph")
    return load_graph(args.graph, strict=args.strict)


def _check_writable(*paths: str | None) -> None:
    """Reject an output path whose directory cannot take the file; None
    stands for an output not asked for."""
    for path in filter(None, paths):
        target = Path(path)
        if target.is_dir():
            raise ConfigInvalid(f"cannot write {path}: it is a directory")
        if not target.parent.is_dir() or not os.access(target.parent, os.W_OK | os.X_OK):
            raise ConfigInvalid(
                f"cannot write {path}: {target.parent} is not a writable directory")


def _cmd_init(args: argparse.Namespace) -> int:
    _check_writable(args.out)
    records = decode_json(read_text(args.skills, ConfigInvalid), args.skills)
    if not isinstance(records, list):
        raise ParseError("skills file must be a JSON array of skill records")
    graph = SkillGraph()
    ignored = _Ignored()  # an unknown field is logged once, at its first entry
    for i, obj in enumerate(records):
        _checked(obj, _SKILL_TYPES, f"skills entry {i}", args.strict, _SKILL_REQUIRED,
                 ignored)
        graph.add_skill(SkillNode(
            skill_id=obj["skill_id"],
            title=obj["title"],
            principle=obj.get("principle", ""),
            when_to_apply=obj.get("when_to_apply", ""),
            category=obj.get("category", GENERAL_CATEGORY),
        ))
    added = graph.init_edges()
    save_graph(graph, args.out)
    print(f"initialized graph with {len(graph.nodes)} skills and "
          f"{added} structural edges -> {args.out}")
    return EXIT_OK


def _cmd_retrieve(args: argparse.Namespace) -> int:
    # one read, then the process ends: with the cyclic garbage collector
    # paused until _retrieve has returned and its graph is freed, no
    # collection scans what the load built; its prior state is restored
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _retrieve(args)
    finally:
        if collecting:
            gc.enable()


def _retrieve(args: argparse.Namespace) -> int:
    # without a file, the defaults are AppConfig().retrieval
    defaults = RetrievalParams() if args.config is None else _app_config(args).retrieval
    graph = _require_graph(args)
    query = TaskQuery(description=args.task_description,
                      task_type=args.task_type)
    flags = {"k_max": args.kmax, "depth": args.depth, "beam_width": args.beam}
    params = dataclasses.replace(
        defaults, **{k: v for k, v in flags.items() if v is not None})
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
    outcome = ingest_trajectories(args.input, graph=graph, strict=args.strict)
    for lineno, message in outcome.errors:
        print(f"line {lineno}: {message}", file=sys.stderr)
    print(f"{len(outcome.records)} valid record(s), "
          f"{len(outcome.errors)} malformed line(s)")
    return EXIT_OK if not outcome.errors else EXIT_DATA


def _cmd_evolve(args: argparse.Namespace) -> int:
    from .proposer import HttpProposer, ScriptedProposer
    from .simulate import checkpoint

    app = _app_config(args)
    graph = _require_graph(args)
    # a failed write must never leave the window evolved on disk: refuse a
    # bad output before evolving, and write the snapshot last
    _check_writable(args.out or args.graph, args.report)
    outcome = ingest_trajectories(args.window, graph=graph, strict=args.strict)
    for lineno, message in outcome.errors:
        print(f"line {lineno}: {message}", file=sys.stderr)
    if app.proposer.endpoint:
        proposer = HttpProposer(app.proposer)
    else:
        logger.info("no proposer endpoint configured; node synthesis is off")
        proposer = ScriptedProposer()
    report = checkpoint(graph, outcome.records, proposer, app.evolution,
                        app.curriculum)

    if args.report:
        _atomic_write(args.report,
                      json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    save_graph(graph, args.out or args.graph)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import ComparisonResult, run_loop

    sim_config = _app_config(args).simulation
    # the outputs are written after the whole run; refuse a bad path up front
    _check_writable(args.out, args.graph_out)
    metrics, graph = run_loop(sim_config, args.seed)
    _atomic_write(args.out, metrics.to_csv())
    print(f"{len(metrics.rows)} checkpoint(s) -> {args.out}")
    if args.graph_out:
        save_graph(graph, args.graph_out)
        print(f"final graph -> {args.graph_out}")
    if args.compare_flat:
        # the graph arm is the run just written; only the flat arm is new
        flat_metrics, _ = run_loop(sim_config, args.seed, retriever="flat")
        comparison = ComparisonResult(metrics, flat_metrics)
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _require_graph(args)
    health = graph.health()
    print(f"nodes: {health.nodes} total, {health.active} active, "
          f"{health.deprecated} deprecated")
    print("edges: " + ", ".join(f"{k}={v}" for k, v in sorted(health.edges.items())))
    print(f"highest active level: {graph.highest_active_level} "
          f"(levels 0..{graph.highest_active_level} unlocked)")
    print("level histogram: " +
          ", ".join(f"L{lvl}={count}" for lvl, count in sorted(health.levels.items())))
    print(f"mean node success rate: {health.mean_success:.4f}")
    print(f"checkpoint index: {graph.checkpoint_index}")
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _check_writable(args.out)
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
    except UnicodeEncodeError as exc:
        # a lone surrogate, which JSON can spell, printed; files name their
        # own path (persistence._atomic_write)
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> NoReturn:
    """Run ``main`` on the process's arguments, flush standard output and
    standard error, and end the process with ``main``'s exit code, skipping
    the interpreter's teardown (module clean-up and a final collection over
    everything the imports made), which no command needs.

    That relies on every output being done when ``main`` returns: files
    are written, closed and fsynced by ``_atomic_write``, the logging
    handler on stderr flushes each record, and standard output is flushed
    here. A standard output that cannot take what is buffered for it (its
    reader has gone) is one ``error:`` line on stderr and exit 2, in place of
    the interpreter's own report and exit 120.
    """
    code = main()
    try:
        try:
            if sys.stdout is not None:  # None: the process has no stdout
                sys.stdout.flush()
        except OSError as exc:
            code = EXIT_DATA
            print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # stderr cannot be written either; the exit code stands
    os._exit(code)


if __name__ == "__main__":
    run()
