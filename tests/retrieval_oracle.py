"""An earlier retrieval pipeline, kept as a test oracle.

``select_seeds`` through ``retrieve`` are the earlier code verbatim, except
that the two adjacency reads are the functions below. They derive each
answer from the public edge view, ``graph.edges()``, on every call, so the
oracle never reads the adjacency the graph keeps for its own walks.
"""

from __future__ import annotations

from skillnet.model import DEPENDENCY_KINDS, GENERAL_CATEGORY, EdgeKey, EdgeKind, SkillGraph
from skillnet.retrieval import (
    DEFAULT_BEAM_WIDTH,
    DEFAULT_BFS_DEPTH,
    DEFAULT_K_MAX,
    RetrievalResult,
    TaskQuery,
)


def prereq_parents(graph: SkillGraph, skill_id: str) -> list[EdgeKey]:
    """Keys of the prereq edges into a skill, which sort by parent id."""
    return sorted(k for k in graph.edges()
                  if k[1] == skill_id and k[2] is EdgeKind.PREREQ)


def forward_neighbors(graph: SkillGraph, skill_id: str) -> list[tuple[str, float, EdgeKey]]:
    """Neighbors reachable by one forward hop.

    Stored direction for prereq/enhance; both directions for co_occur.
    """
    out: list[tuple[str, float, EdgeKey]] = []
    for key, weight in graph.edges().items():
        if key[0] == skill_id:
            out.append((key[1], weight, key))
        elif key[1] == skill_id and key[2] is EdgeKind.CO_OCCUR:
            out.append((key[0], weight, key))
    return out


def select_seeds(graph: SkillGraph, query: TaskQuery) -> set[str]:
    """Active skills whose category is general or matches the task type."""
    graph.ensure_levels()
    return {
        v for v in graph.nodes
        if graph.is_active(v)
        and graph.nodes[v].category in (GENERAL_CATEGORY, query.task_type)
    }


def _expand_backward(graph: SkillGraph, seeds: set[str],
                     depth: int) -> tuple[set[str], set[EdgeKey]]:
    """BFS over incoming prereq edges up to `depth` hops from any seed.

    Recovers foundational skills the seeds depend on. Deprecated and locked
    nodes neither appear nor relay the traversal.
    """
    reached: set[str] = set()
    walked: set[EdgeKey] = set()
    frontier = sorted(seeds)
    visited = set(seeds)
    for _ in range(depth):
        next_frontier: list[str] = []
        for v in frontier:
            for key in prereq_parents(graph, v):
                parent = key[0]
                if parent in visited or not graph.is_active(parent):
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
    kept: dict[str, float] = {}
    walked: set[EdgeKey] = set()
    sigma = {v: 1.0 for v in seeds}
    frontier = set(seeds)
    for _ in range(max_layers):
        best: dict[str, tuple[float, EdgeKey]] = {}
        for u in sorted(frontier):
            for v, weight, key in forward_neighbors(graph, u):
                if v in seeds or not graph.is_active(v):
                    continue
                score = sigma[u] * weight
                cur = best.get(v)
                if cur is None or score > cur[0] or (score == cur[0] and key < cur[1]):
                    best[v] = (score, key)
        candidates = [
            (v, score, key) for v, (score, key) in best.items()
            if v not in kept or score > kept[v]
        ]
        candidates.sort(key=lambda item: (-item[1], item[0]))
        selected = candidates[:beam_width]
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
               scores: dict[str, float] | None = None) -> list[str]:
    """Deterministic topological order of the induced dependency subgraph.

    Skills sort by (level asc, score desc, skill_id asc). That order is
    topological because every dependency edge climbs at least one level, and
    an identical graph and query always yield an identical sequence.
    """
    graph.ensure_levels()
    scores = scores or {}
    nodes = graph.nodes
    return sorted(set(skill_ids),
                  key=lambda v: (nodes[v].level, -scores.get(v, 1.0), v))


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

    scores = {v: 1.0 for v in seeds}
    scores.update({v: 1.0 for v in bfs_nodes})
    scores.update(beam_scores)

    candidates = seeds | bfs_nodes | set(beam_scores)
    full_order = topo_order(graph, candidates, scores)
    ordered = full_order[:k_max] if k_max >= 0 else full_order
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
        scores={v: scores[v] for v in ordered},
        seed_count=len(seeds),
        bfs_count=len(bfs_nodes),
        beam_count=len(beam_scores),
        capped=len(full_order) > len(ordered),
        traversed_edges=traversed,
    )
