"""Graph snapshot files, trajectory JSONL handling, and DOT export.

Snapshots are single JSON documents written atomically (temp file then
rename) with canonical ordering, so saving the same graph twice produces
byte-identical files. Trajectories are JSONL: streamable and appendable
across checkpoints.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from .errors import ParseError, VersionMismatch
from .model import EdgeKind, SkillGraph, SkillNode, edge_key, pair_key

logger = logging.getLogger(__name__)

SNAPSHOT_VERSION = 1

_TOP_LEVEL_FIELDS = {"version", "meta", "nodes", "edges", "co_counts"}
_META_FIELDS = {"checkpoint_index", "highest_active_level", "next_dynamic_id"}
# every SkillNode field is stored and required; success_rate is derived
_NODE_REQUIRED = frozenset(f.name for f in fields(SkillNode))
_NODE_FIELDS = _NODE_REQUIRED | {"success_rate"}
_EDGE_FIELDS = {"src", "dst", "kind", "weight"}


@dataclass
class TrajectoryRecord:
    """One episode: what was retrieved, what happened, how it ended."""

    task_id: str
    task_type: str
    retrieved_skill_ids: list[str]
    traversed_edges: list[tuple[str, str, str]] = field(default_factory=list)
    steps: list[dict[str, str]] = field(default_factory=list)
    success: bool = False
    checkpoint_index: int = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: Any) -> "TrajectoryRecord":
        if not isinstance(obj, dict):
            raise ParseError("trajectory record must be a JSON object")
        try:
            edges = [
                (str(src), str(dst), str(kind))
                for src, dst, kind in obj.get("traversed_edges", [])
            ]
            record = cls(
                task_id=str(obj["task_id"]),
                task_type=str(obj["task_type"]),
                retrieved_skill_ids=[str(s) for s in obj["retrieved_skill_ids"]],
                traversed_edges=edges,
                steps=[{"action": str(s.get("action", "")),
                        "observation": str(s.get("observation", ""))}
                       for s in obj.get("steps", [])],
                success=bool(obj["success"]),
                checkpoint_index=int(obj.get("checkpoint_index", 0)),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"bad trajectory record: {exc}") from exc
        return record


@dataclass
class IngestResult:
    """Parsed trajectory records plus per-line diagnostics for bad input."""

    records: list[TrajectoryRecord]
    errors: list[tuple[int, str]]


# ----------------------------------------------------------------------
# graph snapshots


def graph_to_dict(graph: SkillGraph) -> dict[str, Any]:
    """Canonical snapshot dict: nodes sorted by id, edges by key."""
    graph.ensure_levels()
    nodes = []
    for skill_id in sorted(graph.nodes):
        node = graph.nodes[skill_id]
        record = {name: getattr(node, name) for name in _NODE_REQUIRED}
        record["success_rate"] = node.success_rate()
        nodes.append(record)
    edges = [
        {"src": e.src, "dst": e.dst, "kind": e.kind.value, "weight": e.weight}
        for e in sorted(graph.edges(), key=lambda e: (e.src, e.dst, e.kind.value))
    ]
    co_counts = [
        [a, b, count] for (a, b), count in sorted(graph.co_counts.items())
    ]
    return {
        "version": SNAPSHOT_VERSION,
        "meta": {
            "checkpoint_index": graph.checkpoint_index,
            "highest_active_level": graph.highest_active_level,
            "next_dynamic_id": graph.next_dynamic_id,
        },
        "nodes": nodes,
        "edges": edges,
        "co_counts": co_counts,
    }


def _check_fields(obj: dict, known: set[str], where: str, strict: bool) -> None:
    unknown = set(obj) - known
    if not unknown:
        return
    message = f"unknown {where} field(s): {', '.join(sorted(unknown))}"
    if strict:
        raise ParseError(message)
    logger.warning("%s (ignored)", message)


def graph_from_dict(data: Any, strict: bool = False) -> SkillGraph:
    """Rebuild a graph from a snapshot dict, revalidating every invariant.

    Stored levels and success rates are informational; both are recomputed
    from raw counts and topology after loading.
    """
    if not isinstance(data, dict):
        raise ParseError("snapshot must be a JSON object")
    _check_fields(data, _TOP_LEVEL_FIELDS, "top-level", strict)
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise VersionMismatch(f"snapshot version {version!r}, expected {SNAPSHOT_VERSION}")

    for key in ("nodes", "edges", "co_counts"):
        if not isinstance(data.get(key, []), list):
            raise ParseError(f"{key} must be an array")

    graph = SkillGraph()
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    _check_fields(meta, _META_FIELDS, "meta", strict)
    try:
        graph.checkpoint_index = int(meta.get("checkpoint_index", 0))
        graph.highest_active_level = int(meta.get("highest_active_level", 0))
        graph.next_dynamic_id = int(meta.get("next_dynamic_id", 1))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad meta value: {exc}") from exc

    for obj in data.get("nodes", []):
        if not isinstance(obj, dict):
            raise ParseError("node entry must be an object")
        _check_fields(obj, _NODE_FIELDS, "node", strict)
        missing = _NODE_REQUIRED - obj.keys()
        if missing:
            raise ParseError(
                f"node entry missing field(s): {', '.join(sorted(missing))}")
        try:
            graph.add_skill(SkillNode(
                skill_id=str(obj["skill_id"]),
                title=str(obj["title"]),
                principle=str(obj["principle"]),
                when_to_apply=str(obj["when_to_apply"]),
                category=str(obj["category"]),
                level=int(obj["level"]),
                n_use=int(obj["n_use"]),
                n_succ=int(obj["n_succ"]),
                created_step=int(obj["created_step"]),
                deprecated=bool(obj["deprecated"]),
            ))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad node entry: {exc}") from exc
        except Exception as exc:
            raise ParseError(f"invalid node: {exc}") from exc

    for obj in data.get("edges", []):
        if not isinstance(obj, dict):
            raise ParseError("edge entry must be an object")
        _check_fields(obj, _EDGE_FIELDS, "edge", strict)
        try:
            graph.add_edge(str(obj["src"]), str(obj["dst"]),
                           EdgeKind(obj["kind"]), float(obj["weight"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad edge entry: {exc}") from exc
        except Exception as exc:
            raise ParseError(f"invalid edge: {exc}") from exc

    for entry in data.get("co_counts", []):
        try:
            a, b, count = entry
            graph.co_counts[pair_key(str(a), str(b))] = int(count)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad co_counts entry: {exc}") from exc

    try:
        graph.compute_levels()
    except Exception as exc:
        raise ParseError(f"snapshot violates graph invariants: {exc}") from exc
    return graph


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            # the rename must not reach the disk before the data it names
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_graph(graph: SkillGraph, path: str | Path) -> None:
    payload = json.dumps(graph_to_dict(graph), indent=2, sort_keys=True)
    _atomic_write(path, payload + "\n")


def load_graph(path: str | Path, strict: bool = False) -> SkillGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    return graph_from_dict(data, strict=strict)


# ----------------------------------------------------------------------
# trajectories


def ingest_trajectories(path: str | Path,
                        graph: SkillGraph | None = None) -> IngestResult:
    """Read a trajectory JSONL file, collecting per-line diagnostics.

    Malformed lines are reported with their line numbers and skipped; valid
    records come back in file order. Records naming skill ids absent from
    the supplied graph are accepted with a warning, since the graph may have
    evolved since the episode ran.
    """
    records: list[TrajectoryRecord] = []
    errors: list[tuple[int, str]] = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            record = TrajectoryRecord.from_dict(obj)
        except (json.JSONDecodeError, ParseError) as exc:
            errors.append((lineno, str(exc)))
            continue
        if graph is not None:
            stale = [s for s in record.retrieved_skill_ids if s not in graph.nodes]
            if stale:
                logger.warning("line %d: unknown skill id(s) %s (graph evolved?)",
                               lineno, ", ".join(stale))
        records.append(record)
    return IngestResult(records=records, errors=errors)


def save_trajectories(records: list[TrajectoryRecord], path: str | Path,
                      append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def normalize_edge_keys(record: TrajectoryRecord) -> list[tuple[str, str, EdgeKind]]:
    """Turn a record's stringly edge triples into canonical edge keys."""
    keys = []
    for src, dst, kind in record.traversed_edges:
        try:
            keys.append(edge_key(src, dst, EdgeKind(kind)))
        except ValueError:
            logger.warning("skipping edge with unknown kind %r", kind)
    return keys


# ----------------------------------------------------------------------
# DOT export

_EDGE_STYLE = {
    EdgeKind.PREREQ: "solid",
    EdgeKind.ENHANCE: "dashed",
    EdgeKind.CO_OCCUR: "dotted",
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: SkillGraph, hide_deprecated: bool = False) -> str:
    """Render the graph as a DOT digraph for human inspection.

    Node labels carry title, level, and success rate; edge style encodes the
    kind (prereq solid, enhance dashed, co_occur dotted) with line width
    proportional to weight. Deprecated nodes come out grey unless hidden.
    """
    graph.ensure_levels()
    lines = ["digraph skills {", "  rankdir=LR;",
             '  node [shape=box, fontname="Helvetica"];']
    shown: set[str] = set()
    for skill_id in sorted(graph.nodes):
        node = graph.nodes[skill_id]
        if node.deprecated and hide_deprecated:
            continue
        shown.add(skill_id)
        label = _dot_escape(
            f"{node.title}\\nL{node.level} p={node.success_rate():.2f}")
        attrs = [f'label="{label}"']
        if node.deprecated:
            attrs.append('color="grey"')
            attrs.append('fontcolor="grey"')
        lines.append(f'  "{_dot_escape(skill_id)}" [{", ".join(attrs)}];')
    for edge in sorted(graph.edges(), key=lambda e: (e.src, e.dst, e.kind.value)):
        if edge.src not in shown or edge.dst not in shown:
            continue
        attrs = [f"style={_EDGE_STYLE[edge.kind]}",
                 f"penwidth={0.5 + 3.0 * edge.weight:.2f}"]
        if edge.kind is EdgeKind.CO_OCCUR:
            attrs.append("dir=none")
        lines.append(f'  "{_dot_escape(edge.src)}" -> "{_dot_escape(edge.dst)}" '
                     f'[{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines)
