"""Core skill graph: typed weighted edges, per-node statistics, topological levels.

The graph holds skill records connected by three edge kinds. ``prereq`` and
``enhance`` edges form the directed dependency subgraph, which is kept acyclic
at all times; ``co_occur`` edges are symmetric associations stored once under
canonical (min-id, max-id) endpoints and ignored by level computation.

Concurrency: single writer, many readers. Mutations happen in one owning
context; concurrent readers should work on a ``snapshot()`` copy, which is a
plain-data deep copy safe to hand to another thread.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AlreadyInitialized,
    CycleDetected,
    CycleWouldForm,
    DuplicateId,
    EmptyTitle,
    SuccessWithoutUse,
    UnknownEndpoint,
    UnknownSkill,
    WeightOutOfRange,
)

GENERAL_CATEGORY = "general"

# Structural priors used when edges are first laid down; co_occur discovery
# during evolution reuses the same co-occurrence weight.
COOCCUR_INIT_WEIGHT = 0.3
ENHANCE_INIT_WEIGHT = 0.2


class EdgeKind(str, Enum):
    PREREQ = "prereq"
    ENHANCE = "enhance"
    CO_OCCUR = "co_occur"


DEPENDENCY_KINDS = (EdgeKind.PREREQ, EdgeKind.ENHANCE)

# (src, dst, kind) with co_occur endpoints canonicalized
EdgeKey = tuple[str, str, EdgeKind]


@dataclass
class SkillNode:
    """One reusable skill plus its running usage statistics."""

    skill_id: str
    title: str
    principle: str
    when_to_apply: str
    category: str = GENERAL_CATEGORY
    level: int = 0
    n_use: int = 0
    n_succ: int = 0
    created_step: int = 0
    deprecated: bool = False

    def success_rate(self) -> float:
        """Raw success ratio. Defined as 0.0 when the skill was never used."""
        if self.n_use == 0:
            return 0.0
        return self.n_succ / self.n_use

    def is_general(self) -> bool:
        return self.category == GENERAL_CATEGORY


@dataclass
class SkillEdge:
    """Directed typed relation between two skills, weight in [0, 1]."""

    src: str
    dst: str
    kind: EdgeKind
    weight: float

    def key(self) -> EdgeKey:
        return (self.src, self.dst, self.kind)


def edge_key(src: str, dst: str, kind: EdgeKind | str) -> EdgeKey:
    """Canonical storage key: co_occur endpoints ordered (min-id, max-id)."""
    kind = EdgeKind(kind)
    if kind is EdgeKind.CO_OCCUR and dst < src:
        src, dst = dst, src
    return (src, dst, kind)


def is_blank(text: object) -> bool:
    """The one rule for skill text, shared by ``add_skill`` and proposals:
    anything but a string with more than whitespace is blank."""
    return not isinstance(text, str) or not text.strip()


def pair_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered pair of skill ids."""
    return (a, b) if a <= b else (b, a)


class SkillGraph:
    """Mutable skill graph with an active-level pointer and evolution counters.

    The active set {v : level(v) <= highest_active_level and not deprecated}
    is always derived, never stored.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, SkillNode] = {}
        self._edges: dict[EdgeKey, SkillEdge] = {}
        self._out: dict[str, set[EdgeKey]] = {}
        self._in: dict[str, set[EdgeKey]] = {}
        self.highest_active_level: int = 0
        self.checkpoint_index: int = 0
        self.next_dynamic_id: int = 1
        # cumulative co-appearance counts of unordered pairs in successful
        # episodes, persisted with the snapshot
        self.co_counts: dict[tuple[str, str], int] = {}
        self._levels_stale: bool = False

    # ------------------------------------------------------------------
    # nodes

    def add_skill(self, node: SkillNode) -> str:
        """Insert a skill node. Levels become stale until recomputed."""
        if node.skill_id in self.nodes:
            raise DuplicateId(node.skill_id)
        if is_blank(node.title):
            raise EmptyTitle(f"skill {node.skill_id!r} has an empty title")
        if node.n_succ > node.n_use:
            raise SuccessWithoutUse(
                f"skill {node.skill_id!r}: n_succ={node.n_succ} > n_use={node.n_use}")
        self.nodes[node.skill_id] = node
        self._out.setdefault(node.skill_id, set())
        self._in.setdefault(node.skill_id, set())
        self._levels_stale = True
        return node.skill_id

    def new_dynamic_id(self) -> str:
        """Allocate the next engine-owned id for an inserted skill."""
        while True:
            candidate = f"dyn_{self.next_dynamic_id:04d}"
            self.next_dynamic_id += 1
            if candidate not in self.nodes:
                return candidate

    def remove_node(self, skill_id: str) -> SkillNode:
        """Hard-delete a node and every incident edge (merge/split internals)."""
        if skill_id not in self.nodes:
            raise UnknownSkill(skill_id)
        for key in list(self._out[skill_id] | self._in[skill_id]):
            self.remove_edge(key)
        del self._out[skill_id]
        del self._in[skill_id]
        node = self.nodes.pop(skill_id)
        self.co_counts = {
            pair: n for pair, n in self.co_counts.items() if skill_id not in pair
        }
        self._levels_stale = True
        return node

    # ------------------------------------------------------------------
    # edges

    def add_edge(self, src: str, dst: str, kind: EdgeKind | str,
                 weight: float) -> SkillEdge:
        """Insert one typed edge; re-adding an existing edge is a no-op.

        Dependency edges are checked against the acyclicity invariant before
        insertion and rejected with CycleWouldForm.
        """
        kind = EdgeKind(kind)
        if src not in self.nodes:
            raise UnknownEndpoint(src)
        if dst not in self.nodes:
            raise UnknownEndpoint(dst)
        if src == dst:
            raise CycleWouldForm(f"self-loop on {src!r}")
        if not 0.0 <= weight <= 1.0:
            raise WeightOutOfRange(f"{weight} for ({src}, {dst}, {kind.value})")
        key = edge_key(src, dst, kind)
        existing = self._edges.get(key)
        if existing is not None:
            return existing
        if kind in DEPENDENCY_KINDS and self._reaches(dst, src):
            raise CycleWouldForm(f"({src} -> {dst}, {kind.value})")
        edge = SkillEdge(key[0], key[1], kind, weight)
        self._edges[key] = edge
        self._out[key[0]].add(key)
        self._in[key[1]].add(key)
        if kind in DEPENDENCY_KINDS:
            self._levels_stale = True
        return edge

    def remove_edge(self, key: EdgeKey) -> None:
        edge = self._edges.pop(key, None)
        if edge is None:
            return
        self._out[edge.src].discard(key)
        self._in[edge.dst].discard(key)
        if edge.kind in DEPENDENCY_KINDS:
            self._levels_stale = True

    def get_edge(self, src: str, dst: str, kind: EdgeKind | str) -> SkillEdge | None:
        return self._edges.get(edge_key(src, dst, kind))

    def edges(self) -> list[SkillEdge]:
        return list(self._edges.values())

    def edge_count(self, kind: EdgeKind | None = None) -> int:
        if kind is None:
            return len(self._edges)
        return sum(1 for e in self._edges.values() if e.kind is kind)

    def has_any_edge(self, a: str, b: str) -> bool:
        """True if any edge of any kind connects a and b in either direction."""
        for kind in EdgeKind:
            if edge_key(a, b, kind) in self._edges or edge_key(b, a, kind) in self._edges:
                return True
        return False

    def _reaches(self, start: str, target: str) -> bool:
        """DFS over dependency edges: is target reachable from start?"""
        stack = [start]
        seen = {start}
        while stack:
            v = stack.pop()
            if v == target:
                return True
            for key in self._out[v]:
                if key[2] in DEPENDENCY_KINDS and key[1] not in seen:
                    seen.add(key[1])
                    stack.append(key[1])
        return False

    # ------------------------------------------------------------------
    # adjacency views

    def dependency_children(self, skill_id: str) -> list[SkillEdge]:
        return [self._edges[k] for k in self._out.get(skill_id, ())
                if k[2] in DEPENDENCY_KINDS]

    def prereq_parents(self, skill_id: str) -> list[SkillEdge]:
        return [self._edges[k] for k in self._in.get(skill_id, ())
                if k[2] is EdgeKind.PREREQ]

    def incident_edges(self, skill_id: str) -> list[SkillEdge]:
        keys = self._out.get(skill_id, set()) | self._in.get(skill_id, set())
        return [self._edges[k] for k in keys]

    def forward_neighbors(self, skill_id: str) -> list[tuple[str, float, EdgeKey]]:
        """Neighbors reachable by one forward hop.

        Stored direction for prereq/enhance; both directions for co_occur.
        """
        out: list[tuple[str, float, EdgeKey]] = []
        for key in self._out.get(skill_id, ()):
            edge = self._edges[key]
            out.append((edge.dst, edge.weight, key))
        for key in self._in.get(skill_id, ()):
            edge = self._edges[key]
            if edge.kind is EdgeKind.CO_OCCUR:
                out.append((edge.src, edge.weight, key))
        return out

    def neighbors(self, skill_id: str) -> set[str]:
        """Adjacent non-deprecated skills over all kinds and both directions."""
        adjacent: set[str] = set()
        for edge in self.incident_edges(skill_id):
            other = edge.dst if edge.src == skill_id else edge.src
            node = self.nodes.get(other)
            if node is not None and not node.deprecated:
                adjacent.add(other)
        return adjacent

    # ------------------------------------------------------------------
    # levels and statistics

    def compute_levels(self) -> dict[str, int]:
        """Recompute topological levels over the dependency subgraph.

        level(v) = 0 for nodes without prereq/enhance parents, otherwise
        1 + max over dependency parents; co_occur edges are ignored.
        """
        indegree = {v: 0 for v in self.nodes}
        for edge in self._edges.values():
            if edge.kind in DEPENDENCY_KINDS:
                indegree[edge.dst] += 1
        levels = {v: 0 for v in self.nodes}
        ready = deque(sorted(v for v, d in indegree.items() if d == 0))
        processed = 0
        while ready:
            v = ready.popleft()
            processed += 1
            for edge in self.dependency_children(v):
                levels[edge.dst] = max(levels[edge.dst], levels[v] + 1)
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if processed != len(self.nodes):
            raise CycleDetected("dependency subgraph is cyclic")
        for v, lvl in levels.items():
            self.nodes[v].level = lvl
        self._levels_stale = False
        return levels

    def ensure_levels(self) -> None:
        if self._levels_stale:
            self.compute_levels()

    def update_stats(self, batch: list[tuple[str, bool, bool]]) -> dict[str, float]:
        """Fold a batch of (skill_id, used, succeeded) observations into counts.

        A skill gains one use when retrieved into a prompt and one success when
        the corresponding rollout succeeds. The whole batch is validated before
        any counter moves, so a bad entry leaves the graph untouched.
        """
        for skill_id, used, succeeded in batch:
            if skill_id not in self.nodes:
                raise UnknownSkill(skill_id)
            if succeeded and not used:
                raise SuccessWithoutUse(skill_id)
        touched: dict[str, float] = {}
        for skill_id, used, succeeded in batch:
            node = self.nodes[skill_id]
            node.n_use += 1 if used else 0
            node.n_succ += 1 if succeeded else 0
            touched[skill_id] = node.success_rate()
        return touched

    # ------------------------------------------------------------------
    # structural initialization and active set

    def init_edges(self) -> int:
        """Lay down structural prior edges over a freshly distilled node set.

        co_occur (w=0.3) between every pair of task-specific skills sharing a
        category, enhance (w=0.2) from each general skill to every
        task-specific skill, and no prereq edges at all. A node set with no
        qualifying pair is a valid no-op.
        """
        if self._edges:
            raise AlreadyInitialized("graph already has edges")
        generals = sorted(v for v, n in self.nodes.items() if n.is_general())
        specifics = sorted(v for v, n in self.nodes.items() if not n.is_general())
        added = 0
        for i, a in enumerate(specifics):
            for b in specifics[i + 1:]:
                if self.nodes[a].category == self.nodes[b].category:
                    self.add_edge(a, b, EdgeKind.CO_OCCUR, COOCCUR_INIT_WEIGHT)
                    added += 1
        for g in generals:
            for s in specifics:
                self.add_edge(g, s, EdgeKind.ENHANCE, ENHANCE_INIT_WEIGHT)
                added += 1
        return added

    def is_active(self, skill_id: str) -> bool:
        node = self.nodes.get(skill_id)
        return (node is not None and not node.deprecated
                and node.level <= self.highest_active_level)

    def active_ids(self) -> set[str]:
        self.ensure_levels()
        return {v for v in self.nodes if self.is_active(v)}

    def max_level(self) -> int:
        if not self.nodes:
            return 0
        return max(n.level for n in self.nodes.values())

    # ------------------------------------------------------------------

    def snapshot(self) -> "SkillGraph":
        """Deep copy for concurrent readers."""
        return copy.deepcopy(self)

    def __repr__(self) -> str:
        return (f"SkillGraph(nodes={len(self.nodes)}, edges={len(self._edges)}, "
                f"L={self.highest_active_level}, checkpoint={self.checkpoint_index})")
