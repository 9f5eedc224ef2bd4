"""Dependency-aware retrieval: seeds, backward BFS, forward beam, topo order.

Produces an ordered skill sequence for a task query and renders it as the
markdown skill block that gets prepended to an agent prompt. The sequence is
sorted by (level, score, id); it is topological because every dependency edge
climbs at least one level. The functions walk the graph's own adjacency
(see ``SkillGraph``) and write nothing into the graph, so any number of them
may run concurrently on one snapshot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import ConfigInvalid
from .model import (
    DEPENDENCY_KINDS,
    GENERAL_CATEGORY,
    EdgeKey,
    EdgeKind,
    SkillGraph,
)

DEFAULT_K_MAX = 8
DEFAULT_BFS_DEPTH = 2
DEFAULT_BEAM_WIDTH = 3

SKILL_BLOCK_HEADER = "### Skills (ordered by dependency)"
MISTAKES_HEADER = "### Mistakes to Avoid"


@dataclass
class RetrievalParams:
    """The ``retrieval`` config section. A negative ``k_max`` means no cap."""

    k_max: int = DEFAULT_K_MAX
    depth: int = DEFAULT_BFS_DEPTH
    beam_width: int = DEFAULT_BEAM_WIDTH

    def validate(self) -> None:
        if self.depth < 0 or self.beam_width < 0:
            raise ConfigInvalid("retrieval.depth and beam_width must be >= 0")


@dataclass
class TaskQuery:
    """A task description paired with its category string."""

    description: str
    task_type: str

    def __post_init__(self) -> None:
        if not self.task_type:
            raise ConfigInvalid("task_type must be non-empty")


@dataclass
class FailurePattern:
    """One known mistake and its corrective strategy, for the rendered block."""

    dont: str
    instead: str


@dataclass
class RetrievalResult:
    """Ordered skill sequence plus the bookkeeping evolution needs later."""

    ordered_skills: list[str]
    scores: dict[str, float]
    seed_count: int
    bfs_count: int
    beam_count: int
    capped: bool
    traversed_edges: set[EdgeKey] = field(default_factory=set)


def select_seeds(graph: SkillGraph, query: TaskQuery) -> set[str]:
    """Active skills whose category is general or matches the task type."""
    graph.ensure_levels()
    nodes, top = graph.nodes, graph.highest_active_level
    return {
        v for category in {GENERAL_CATEGORY, query.task_type}
        for v in graph.category_members(category)
        if not nodes[v].deprecated and nodes[v].level <= top
    }


def _expand_backward(graph: SkillGraph, seeds: set[str],
                     depth: int) -> tuple[set[str], set[EdgeKey]]:
    """BFS over incoming prereq edges up to `depth` hops from any seed.

    Recovers foundational skills the seeds depend on. Deprecated and locked
    nodes neither appear nor relay the traversal.
    """
    nodes, top = graph.nodes, graph.highest_active_level
    parents_of, enhance = graph.dependency_parents, EdgeKind.ENHANCE
    reached: set[str] = set()
    walked: set[EdgeKey] = set()
    frontier = sorted(seeds)
    visited = set(seeds)
    for _ in range(depth):
        next_frontier: list[str] = []
        for v in frontier:
            for key in parents_of(v):
                parent = key[0]
                if key[2] is enhance or parent in visited:
                    continue
                node = nodes[parent]
                if node.deprecated or node.level > top:
                    continue
                visited.add(parent)
                reached.add(parent)
                walked.add(key)
                next_frontier.append(parent)
        if not next_frontier:
            break
        frontier = sorted(next_frontier)
    return reached, walked


def _expand_forward(graph: SkillGraph, seeds: set[str], beam_width: int,
                    max_layers: int) -> tuple[dict[str, float], set[EdgeKey]]:
    """Layered beam search over outgoing edges, widest score first.

    Scores propagate multiplicatively, sigma(v) = max over parents of
    sigma(u) * w(u, v) with seeds at sigma = 1. Each layer ranks the newly
    reachable (or score-improved) children and keeps the top `beam_width`;
    improved nodes re-enter the frontier so better paths keep propagating.
    co_occur edges are walkable in both directions.
    """
    nodes, top, weights = graph.nodes, graph.highest_active_level, graph.edges()
    hops_from = graph.forward_neighbors
    kept: dict[str, float] = {}
    walked: set[EdgeKey] = set()
    sigma = {v: 1.0 for v in seeds}
    frontier = set(seeds)
    for _ in range(max_layers):
        best: dict[str, tuple[float, EdgeKey]] = {}
        for u in sorted(frontier):
            sigma_u = sigma[u]
            for key in hops_from(u):
                v = key[1] if key[0] == u else key[0]
                if v in seeds:
                    continue
                node = nodes[v]
                if node.deprecated or node.level > top:
                    continue
                score = sigma_u * weights[key]
                cur = best.get(v)
                if cur is None or score > cur[0] or (score == cur[0] and key < cur[1]):
                    best[v] = (score, key)
        candidates = [
            (v, score, key) for v, (score, key) in best.items()
            if v not in kept or score > kept[v]
        ]
        selected = heapq.nsmallest(beam_width, candidates,
                                   key=lambda item: (-item[1], item[0]))
        if not selected:
            break
        frontier = set()
        for v, score, key in selected:
            kept[v] = score
            sigma[v] = score
            walked.add(key)
            frontier.add(v)
    return kept, walked


def topo_order(graph: SkillGraph, skill_ids: set[str],
               scores: dict[str, float] | None = None,
               limit: int = -1) -> list[str]:
    """Deterministic topological order of the induced dependency subgraph.

    Skills sort by (level asc, score desc, skill_id asc). That order is
    topological because every dependency edge climbs at least one level, and
    an identical graph and query always yield an identical sequence. A
    ``limit`` >= 0 keeps only the first ``limit`` skills of that order,
    without sorting the rest: the keys are unique, so it is the same prefix.
    """
    graph.ensure_levels()
    scores = scores or {}
    nodes = graph.nodes

    def order_key(v: str) -> tuple[int, float, str]:
        return (nodes[v].level, -scores.get(v, 1.0), v)

    if limit >= 0:
        return heapq.nsmallest(limit, skill_ids, key=order_key)
    return sorted(skill_ids, key=order_key)


def retrieve(graph: SkillGraph, query: TaskQuery,
             depth: int = DEFAULT_BFS_DEPTH,
             beam_width: int = DEFAULT_BEAM_WIDTH,
             k_max: int = DEFAULT_K_MAX) -> RetrievalResult:
    """Full pipeline: seeds, both expansions, topo order, cap at k_max.

    The cap truncates the tail of the ordered sequence, so foundational
    skills are kept preferentially. traversed_edges holds the expansion edges
    whose endpoints both survived the cap, plus dependency edges between
    consecutive members of the final sequence; path reinforcement consumes it.
    """
    graph.ensure_levels()
    seeds = select_seeds(graph, query)
    bfs_nodes, bfs_walked = _expand_backward(graph, seeds, depth)
    beam_scores, beam_walked = _expand_forward(graph, seeds, beam_width, depth)

    # seeds and skills only the BFS reached score 1.0, topo_order's default
    candidates = seeds | bfs_nodes | beam_scores.keys()
    ordered = topo_order(graph, candidates, beam_scores, k_max)
    kept = set(ordered)

    traversed: set[EdgeKey] = {
        key for key in bfs_walked | beam_walked
        if key[0] in kept and key[1] in kept
    }
    for prev, nxt in zip(ordered, ordered[1:]):
        for kind in DEPENDENCY_KINDS:
            if graph.weight(prev, nxt, kind) is not None:
                traversed.add((prev, nxt, kind))

    return RetrievalResult(
        ordered_skills=ordered,
        scores={v: beam_scores.get(v, 1.0) for v in ordered},
        seed_count=len(seeds),
        bfs_count=len(bfs_nodes),
        beam_count=len(beam_scores),
        capped=len(candidates) > len(ordered),
        traversed_edges=traversed,
    )


def _sentence(text: str) -> str:
    return text.rstrip().rstrip(".") + "."


def render_skill_block(result: RetrievalResult, graph: SkillGraph,
                       mistakes: list[FailurePattern] | None = None) -> str:
    """Render the ordered sequence as the prompt-ready skill block.

    One bullet per skill in sequence order, each followed by an indented
    apply-when line. The mistakes section is emitted only when failure
    patterns are supplied and is never capped.
    """
    lines = [SKILL_BLOCK_HEADER]
    for skill_id in result.ordered_skills:
        node = graph.nodes[skill_id]
        lines.append(
            f"- **[{node.category}] {node.title}** [{node.skill_id}]: "
            f"{_sentence(node.principle)}"
        )
        lines.append(f"  _Apply when: {_sentence(node.when_to_apply)}_")
    if mistakes:
        lines.append("")
        lines.append(MISTAKES_HEADER)
        for pattern in mistakes:
            lines.append(f"- **Don't**: {_sentence(pattern.dont)}")
            lines.append(f"  **Instead**: {_sentence(pattern.instead)}")
    return "\n".join(lines)
