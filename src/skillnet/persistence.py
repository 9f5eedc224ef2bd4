"""Graph snapshot files, trajectory JSONL handling, and DOT export.

This module holds the one reader of outside JSON: every file the package
reads goes through ``read_text``, and every JSON document or line through
``decode_json``, where bad syntax, nesting too deep and an integer too long
all become a ParseError. Every object a snapshot, trajectory or skills file
holds is then checked by ``_checked``: exact JSON types, required fields,
and unknown fields refused under ``strict`` or ignored with a warning. The
node and edge records ``save_graph`` writes are checked column by column
instead (``_columns``), and fall back to it on any mismatch; the edges go
in as one ``add_edges`` batch, checked whole before any is stored.

Snapshots are single JSON documents written atomically (temp file then
rename) with canonical ordering, so saving the same graph twice produces
byte-identical files. Trajectories are JSONL: streamable and appendable
across checkpoints.
"""

from __future__ import annotations

import errno
import gc
import json
import logging
import os
import tempfile
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from operator import is_, itemgetter
from pathlib import Path
from typing import Any, get_type_hints
from weakref import WeakKeyDictionary

from .errors import (
    CycleDetected,
    DuplicateEdge,
    ParseError,
    SkillNetError,
    VersionMismatch,
)
from .model import EdgeKind, SkillGraph, SkillNode, node_values, pair_key

logger = logging.getLogger(__name__)

SNAPSHOT_VERSION = 1

# the JSON type of each field of each object a snapshot, trajectory or skills
# file holds, checked by _checked, never coerced. Every SkillNode field is
# stored and required; success_rate is derived. The version is any value
# here, and compared with SNAPSHOT_VERSION after.
_TOP_LEVEL_TYPES = {"version": object, "meta": dict, "nodes": list, "edges": list,
                    "co_counts": list}
_META_TYPES = dict.fromkeys(("checkpoint_index", "highest_active_level",
                             "next_dynamic_id"), int)
_NODE_TYPES = get_type_hints(SkillNode)
_NODE_RECORD_TYPES = {**_NODE_TYPES, "success_rate": float}
_EDGE_TYPES = {"src": str, "dst": str, "kind": str, "weight": float}
# a checked record's values in field order; a node as save_graph writes it
# also holds success_rate, a float, which is not a SkillNode field
_node_values = itemgetter(*_NODE_TYPES)
_edge_values = itemgetter(*_EDGE_TYPES)
# the largest counter a snapshot may hold (a signed 64-bit integer): the
# counters only grow, and past about 4300 digits save_graph cannot write them
MAX_STORED_INT = 2**63 - 1
_RECORD_REQUIRED = ("task_id", "task_type", "retrieved_skill_ids", "success")
_RECORD_TYPES = {"task_id": str, "task_type": str, "retrieved_skill_ids": list,
                 "traversed_edges": list, "steps": list, "success": bool,
                 "checkpoint_index": int}
_STEP_TYPES = {"action": str, "observation": str}
_EDGE_KIND_VALUES = {kind.value for kind in EdgeKind}
_JSON_NAMES = {str: "a string", int: "an integer", float: "a number",
               bool: "true or false", list: "an array", dict: "an object",
               type(None): "null"}


@dataclass
class _Ignored:
    """The unknown fields a reader not under ``strict`` skips: each field of
    each kind of object, known by its field table, is logged once, naming
    the first object that holds it (``where``), after ``at`` (such as
    ``"line 3: "``)."""

    at: str = ""
    seen: dict[tuple[str, ...], set[str]] = field(default_factory=dict)

    def log(self, types: dict[str, type], where: str, unknown: set[str]) -> None:
        seen = self.seen.setdefault(tuple(types), set())
        new = sorted(unknown - seen)
        if new:
            seen.update(new)
            logger.warning("%sunknown %s field(s): %s (ignored)",
                           self.at, where, ", ".join(new))


def _checked(obj: Any, types: dict[str, type], where: str, strict: bool,
             required: Iterable[str] = (), ignored: _Ignored | None = None) -> dict:
    """``obj``, a JSON object read from a file, once its fields are checked.

    A ParseError naming ``where``, first to last: ``obj`` is no object; it
    has a field ``types`` does not name, under ``strict`` (otherwise that is
    logged through ``ignored`` and skipped); a field has not exactly its
    type, so ``true`` is no count and ``"false"`` no flag (a float field
    also takes an integer, an ``object`` field any value); a ``required``
    field is missing.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be a JSON object")
    unknown = obj.keys() - types.keys()
    if unknown and strict:
        raise ParseError(f"unknown {where} field(s): {', '.join(sorted(unknown))}")
    if unknown:
        (ignored or _Ignored()).log(types, where, unknown)
    for name, kind in types.items():
        if name not in obj or kind is object:
            continue
        found = type(obj[name])
        if found is not kind and not (kind is float and found is int):
            raise ParseError(
                f"{where} field {name!r} must be {_JSON_NAMES[kind]}, "
                f"got {_JSON_NAMES.get(found, found.__name__)}")
    missing = [name for name in required if name not in obj]
    if missing:
        raise ParseError(f"{where} missing field(s): {', '.join(sorted(missing))}")
    return obj


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
    def from_dict(cls, obj: Any, strict: bool = False,
                  ignored: _Ignored | None = None) -> "TrajectoryRecord":
        obj = _checked(obj, _RECORD_TYPES, "trajectory record", strict, _RECORD_REQUIRED,
                       ignored)
        ids = obj["retrieved_skill_ids"]
        edges = obj.get("traversed_edges", [])
        steps = obj.get("steps", [])
        if not all(type(s) is str for s in ids):
            raise ParseError("retrieved_skill_ids must hold strings")
        if len(set(ids)) != len(ids):
            # a prompt holds each skill once; a repeat would count as two uses
            repeated = sorted({s for s in ids if ids.count(s) > 1})
            raise ParseError(f"retrieved_skill_ids repeats {', '.join(repeated)}")
        if not all(type(e) is list and len(e) == 3
                   and all(type(part) is str for part in e) for e in edges):
            raise ParseError("traversed_edges entries must be [src, dst, kind] strings")
        unknown = sorted({kind for _, _, kind in edges} - _EDGE_KIND_VALUES)
        if unknown:
            raise ParseError(f"traversed_edges has unknown kind {', '.join(unknown)}")
        for step in steps:
            _checked(step, _STEP_TYPES, "step", strict, (), ignored)
        return cls(
            task_id=obj["task_id"],
            task_type=obj["task_type"],
            retrieved_skill_ids=list(ids),
            traversed_edges=[tuple(e) for e in edges],
            steps=[{"action": s.get("action", ""),
                    "observation": s.get("observation", "")} for s in steps],
            success=obj["success"],
            checkpoint_index=obj.get("checkpoint_index", 0),
        )


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
    nodes = [dict(zip(_NODE_TYPES, node_values(node)), success_rate=node.success_rate())
             for node in map(graph.nodes.__getitem__, sorted(graph.nodes))]
    edges = [
        {"src": src, "dst": dst, "kind": kind.value, "weight": weight}
        for (src, dst, kind), weight in sorted(graph.edges().items())
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


def graph_from_dict(data: Any, strict: bool = False) -> SkillGraph:
    """Rebuild a graph from a snapshot dict, revalidating every invariant.

    One checked pass per section: the node and edge records are checked
    column by column (``_columns``) or, on any mismatch, record by record,
    and every edge goes in with one ``add_edges`` call, which checks every
    row before it stores any and names the first faulty row. Stored success
    rates are informational, derived from the raw counts. Stored levels are
    checked by ``add_edges``' leveling, which keeps each one that fits its
    parents and re-levels below the rest. The counters that grow (meta
    values, ``n_use`` and co_counts counts) must be at most
    ``MAX_STORED_INT``. Each unknown field is logged once per section.
    ``load_graph`` runs this with the cyclic garbage collector paused.
    """
    ignored = _Ignored()
    data = _checked(data, _TOP_LEVEL_TYPES, "snapshot", strict, (), ignored)
    version = data.get("version")
    if type(version) is not int or version != SNAPSHOT_VERSION:
        raise VersionMismatch(f"snapshot version {version!r}, expected {SNAPSHOT_VERSION}")

    graph = SkillGraph()
    meta = _checked(data.get("meta", {}), _META_TYPES, "meta", strict, (), ignored)
    for name, least in (("checkpoint_index", 0), ("highest_active_level", 0),
                        ("next_dynamic_id", 1)):
        value = meta.get(name, least)  # the least value is also the default
        if value < least:
            raise ParseError(f"meta {name} must be >= {least}, got {value}")
        if value > MAX_STORED_INT:
            raise ParseError(f"meta {name} must be <= {MAX_STORED_INT}")
        setattr(graph, name, value)

    node_objs = data.get("nodes", [])
    columns = _columns(node_objs, _NODE_RECORD_TYPES)
    # the checked path is lazy, so a record's fault and an earlier node's
    # insert error come in file order
    nodes = (map(SkillNode, *columns[:-1]) if columns is not None
             else (SkillNode(*_node_row(obj, strict, ignored)) for obj in node_objs))
    for node in nodes:
        if node.n_use > MAX_STORED_INT:
            raise ParseError(f"node {node.skill_id!r} n_use must be <= {MAX_STORED_INT}")
        try:
            graph.add_skill(node)
        except SkillNetError as exc:
            raise ParseError(f"invalid node: {exc}") from exc

    edge_objs = data.get("edges", [])
    columns = _columns(edge_objs, _EDGE_TYPES)
    rows = (zip(*columns) if columns is not None
            else [_edge_row(obj, strict, ignored) for obj in edge_objs])
    try:
        graph.add_edges(rows)  # also checks the levels
    except ValueError as exc:
        raise ParseError(f"bad edge entry: {exc}") from exc
    except DuplicateEdge as exc:
        raise ParseError(str(exc)) from exc
    except CycleDetected as exc:
        raise ParseError(f"snapshot violates graph invariants: {exc}") from exc
    except SkillNetError as exc:
        raise ParseError(f"invalid edge: {exc}") from exc

    for entry in data.get("co_counts", []):
        if type(entry) is not list or [type(v) for v in entry] != [str, str, int]:
            raise ParseError("co_counts entry must be [id, id, count]")
        a, b, count = entry
        if a == b or a not in graph.nodes or b not in graph.nodes or count < 1:
            raise ParseError(f"co_counts entry {json.dumps(entry)} must name two "
                             f"distinct skills of the graph and a count >= 1")
        if count > MAX_STORED_INT:
            raise ParseError(f"co_counts count for ({a}, {b}) must be <= {MAX_STORED_INT}")
        pair = pair_key(a, b)
        if pair in graph.co_counts:
            raise ParseError(f"duplicate co_counts entry for the pair {pair}")
        graph.co_counts[pair] = count
    return graph


def _columns(objs: list, types: dict[str, type]) -> list[list] | None:
    """Each field's values in record order, when every record is a dict of
    just the fields ``types`` names, each of exactly its type; otherwise
    None, for ``_checked`` to explain record by record. Each check is one
    pass over a column at C speed; a record that is no JSON object fails
    the first field read."""
    try:
        columns = [list(map(itemgetter(name), objs)) for name in types]
    except (KeyError, TypeError):
        return None
    if (set(map(len, objs)) <= {len(types)}
            and all(set(map(type, column)) <= {kind}
                    for column, kind in zip(columns, types.values()))):
        return columns
    return None


def _node_row(obj: Any, strict: bool, ignored: _Ignored | None = None) -> tuple:
    """A node entry's SkillNode field values, their JSON types checked."""
    return _node_values(_checked(obj, _NODE_RECORD_TYPES, "node", strict, _NODE_TYPES,
                                 ignored))


def _edge_row(obj: Any, strict: bool,
              ignored: _Ignored | None = None) -> tuple[str, str, str, float]:
    """An edge entry's (src, dst, kind, weight), its JSON types checked."""
    return _edge_values(_checked(obj, _EDGE_TYPES, "edge", strict, _EDGE_TYPES, ignored))


def _atomic_write(path: str | Path, *pieces: str) -> None:
    """Write the text ``pieces`` make up to ``path`` through a temporary file
    in its directory, piece by piece, so the text is never one string.

    A failed write leaves no temporary file behind and raises an OSError
    that names ``path``, not the temporary name. Text that does not encode
    as UTF-8 (a lone surrogate, which JSON can spell) is such a failure too,
    an OSError with ``errno.EILSEQ``.
    """
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                                   prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
            # the rename must not reach the disk before the data it names
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from exc
        if isinstance(exc, UnicodeEncodeError):
            raise OSError(errno.EILSEQ, f"cannot write {path}: {exc}") from exc
        raise


def _object_template(names: Iterable[str], indent: int) -> str:
    """One record as ``json.dumps(indent=2, sort_keys=True)`` lays it out
    at ``indent``, with a ``%s`` per value."""
    pad = " " * indent
    return (f"{pad}{{\n"
            + ",\n".join(f'{pad}  "{name}": %s' for name in sorted(names))
            + f"\n{pad}}}")


# save_graph writes json.dumps(graph_to_dict(graph), indent=2, sort_keys=True)
# + "\n", values encoded as json.dumps encodes them: one f-string per record,
# its keys in sorted order, strings through encode_basestring_ascii, ints and
# floats through repr. Nodes and edges are visited by sorting the ids and keys
# themselves, which gives the order of graph_to_dict (the keys are unique).
# A field added to SkillNode must be added to the node record too; the writer
# test against json.dumps fails until it is.
#
# A repeat save of the same graph reuses the text of its last one, kept in
# _LAST_SAVES. That holds each graph weakly, so a snapshot() clone or a loaded
# graph starts with nothing and a dropped graph frees its text. One rule
# serves both sections: text is kept while every value it was rendered from
# is the same object as then. Identity, not equality: True == 1 and
# 0.0 == -0.0, but they render differently.
# - A node's text is kept while its id maps to the very record it was
#   rendered from. No stored record is written in place (SkillGraph binds a
#   new one instead), so an insert, a merge or a split renders only the new
#   and the replaced records.
# - The edge section is kept while the edge map holds equal keys in the same
#   order, each with the very weight object it was rendered from.
# The document reaches the file in pieces of at most _CHUNK records, so it is
# never held as one string, nor as one encoded copy, next to the kept text.
_BOOL_TEXT = {False: "false", True: "true"}
_KIND_TEXT = {kind: encode_basestring_ascii(kind.value) for kind in EdgeKind}
# the literal text around the five sections, in key order
_SNAPSHOT = (_object_template(_TOP_LEVEL_TYPES, 0) + "\n").split("%s")
_META = _object_template(_META_TYPES, 2).lstrip()  # opens after its key
_CHUNK = 256
# per graph: its node records and their texts, each by id, its edge keys and
# weights in map order and its edge section, as last saved; no key list
# matches the None of a graph never saved
_LAST_SAVES: WeakKeyDictionary = WeakKeyDictionary()
_NOTHING_SAVED = ({}, {}, None, [], [])


def _past_bound(what: str) -> SkillNetError:
    return SkillNetError(f"cannot save: {what} must be <= {MAX_STORED_INT}")


def _node_text(n: SkillNode) -> str:
    if n.n_use > MAX_STORED_INT:
        raise _past_bound(f"node {n.skill_id!r} n_use")
    quote = encode_basestring_ascii
    return (f'    {{\n      "category": {quote(n.category)},\n'
            f'      "created_step": {n.created_step!r},\n'
            f'      "deprecated": {_BOOL_TEXT[n.deprecated]},\n'
            f'      "level": {n.level!r},\n'
            f'      "n_succ": {n.n_succ!r},\n'
            f'      "n_use": {n.n_use!r},\n'
            f'      "principle": {quote(n.principle)},\n'
            f'      "skill_id": {quote(n.skill_id)},\n'
            f'      "success_rate": {n.success_rate()!r},\n'
            f'      "title": {quote(n.title)},\n'
            f'      "when_to_apply": {quote(n.when_to_apply)}\n    }}')


def _edge_section(graph: SkillGraph) -> list[str]:
    ids = {v: encode_basestring_ascii(v) for v in graph.nodes}
    weights = graph.edges()
    return _section([
        f'    {{\n      "dst": {ids[key[1]]},\n'
        f'      "kind": {_KIND_TEXT[key[2]]},\n'
        f'      "src": {ids[key[0]]},\n'
        f'      "weight": {weights[key]!r}\n    }}'
        for key in sorted(weights)])


def _section(records: list[str]) -> list[str]:
    """A JSON array of records, in pieces of at most _CHUNK records."""
    if not records:
        return ["[]"]
    pieces = ["[\n"]
    for start in range(0, len(records), _CHUNK):
        pieces += (",\n".join(records[start:start + _CHUNK]), ",\n")
    pieces[-1] = "\n  ]"
    return pieces


def save_graph(graph: SkillGraph, path: str | Path) -> None:
    """Write the canonical snapshot: the bytes of ``graph_to_dict`` dumped
    with ``indent=2, sort_keys=True`` and a final newline.

    A repeat save of the same graph renders again only the node records
    that are new or were replaced, and the edge section only when an edge
    key or weight changed (see the comment above). A counter above
    ``MAX_STORED_INT``, which ``load_graph`` would refuse, is a SkillNetError
    before any file is touched.
    """
    graph.ensure_levels()
    meta = (graph.checkpoint_index, graph.highest_active_level, graph.next_dynamic_id)
    for name, value in zip(sorted(_META_TYPES), meta):
        if value > MAX_STORED_INT:
            raise _past_bound(f"meta {name}")
    counts = graph.co_counts
    if counts and max(counts.values()) > MAX_STORED_INT:
        a, b = min(pair for pair, n in counts.items() if n > MAX_STORED_INT)
        raise _past_bound(f"co_counts count for ({a}, {b})")
    quote = encode_basestring_ascii
    pair_records = [
        f'    [\n      {quote(pair[0])},\n      {quote(pair[1])},\n'
        f'      {counts[pair]!r}\n    ]'
        for pair in sorted(counts)]

    kept_nodes, kept_text, kept_keys, kept_weights, kept_edges = _LAST_SAVES.get(
        graph, _NOTHING_SAVED)
    nodes = graph.nodes
    order = sorted(nodes)
    node_records = [kept_text[v] if kept_nodes.get(v) is node else _node_text(node)
                    for v, node in zip(order, map(nodes.__getitem__, order))]
    keys, values = list(graph.edges()), list(graph.edges().values())
    same = keys == kept_keys and all(map(is_, values, kept_weights))
    edges = kept_edges if same else _edge_section(graph)

    sections = (_section(pair_records), edges, [_META % meta],
                _section(node_records), [str(SNAPSHOT_VERSION)])
    pieces = [_SNAPSHOT[0]]
    for section, after in zip(sections, _SNAPSHOT[1:]):
        pieces += section
        pieces.append(after)
    _atomic_write(path, *pieces)
    _LAST_SAVES[graph] = (dict(nodes), dict(zip(order, node_records)), keys, values,
                          edges)


def read_text(path: str | Path, unreadable: type[SkillNetError] = ParseError) -> str:
    """A file's UTF-8 text; a failed read or decode raises ``unreadable``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(f"cannot read {path}: {exc}") from exc


def decode_json(text: str, where: str | Path, one_line: bool = False) -> Any:
    """Decode one JSON document from outside; ``where`` names it in errors.

    A syntax error gives its line and column, or only the column when the
    text is ``one_line`` of a file, whose caller names the line. Nesting
    deeper than the interpreter's JSON decoder accepts and an integer of
    more digits than ``int`` converts are ParseErrors too, with no position.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {where}: {exc.msg}",
                         line=None if one_line else exc.lineno,
                         column=exc.colno) from exc
    except RecursionError:
        reason = "nested too deeply"
    except ValueError:
        reason = "integer too long"
    raise ParseError(f"invalid JSON in {where}: {reason}")


def load_graph(path: str | Path, strict: bool = False) -> SkillGraph:
    """The graph a snapshot file holds (see ``graph_from_dict``).

    The cyclic garbage collector is paused over the read, the decode and
    the build: they allocate tens of thousands of container objects that
    all stay reachable or go with the decoded document, which it would
    scan again and again and free nothing of. Its prior state, on or off,
    is restored however the load ends.
    """
    collecting = gc.isenabled()  # allocates nothing, so no collection starts here
    gc.disable()
    try:
        return graph_from_dict(decode_json(read_text(path), path), strict=strict)
    finally:
        if collecting:
            gc.enable()


# ----------------------------------------------------------------------
# trajectories


def ingest_trajectories(path: str | Path, graph: SkillGraph | None = None,
                        strict: bool = False) -> IngestResult:
    """Read a trajectory JSONL file, collecting per-line diagnostics.

    Malformed lines are reported with their line numbers and skipped; valid
    records come back in file order. An unknown field makes a line malformed
    under ``strict``, and is ignored with a warning naming the line
    otherwise. Records naming skill ids absent from the supplied graph are
    accepted with a warning, since the graph may have evolved since the
    episode ran.
    """
    records: list[TrajectoryRecord] = []
    errors: list[tuple[int, str]] = []
    # "\n" only: splitlines also breaks at U+2028, U+2029 and U+0085,
    # which JSON allows raw inside strings (read_text turns CRLF into "\n")
    lines = read_text(path).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = TrajectoryRecord.from_dict(decode_json(line, path, one_line=True),
                                               strict, _Ignored(f"line {lineno}: "))
        except ParseError as exc:
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
        # \n is DOT's line break, so it goes after the escaping
        label = (f"{_dot_escape(node.title)}\\nL{node.level} "
                 f"p={node.success_rate():.2f}")
        attrs = [f'label="{label}"']
        if node.deprecated:
            attrs.append('color="grey"')
            attrs.append('fontcolor="grey"')
        lines.append(f'  "{_dot_escape(skill_id)}" [{", ".join(attrs)}];')
    for (src, dst, kind), weight in sorted(graph.edges().items()):
        if src not in shown or dst not in shown:
            continue
        attrs = [f"style={_EDGE_STYLE[kind]}", f"penwidth={0.5 + 3.0 * weight:.2f}"]
        if kind is EdgeKind.CO_OCCUR:
            attrs.append("dir=none")
        lines.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" '
                     f'[{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines)
