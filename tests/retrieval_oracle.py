"""Two earlier retrieval pipelines, kept as test oracles.

``select_seeds`` through ``retrieve`` are the edge-at-a-time code verbatim,
except that the two adjacency reads are the functions below. They derive
each answer from the public edge view, ``graph.edges()``, on every call, so
the oracle never reads the adjacency the graph keeps for its own walks.

The ``layered_`` functions are the layer-at-a-time code verbatim, renamed:
a forward beam that heap-orders every hop of every layer, and a rank step
that reads the level of every candidate from its record. Only the names of
the functions they call changed, to these copies.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Iterable
from itertools import compress, repeat
from operator import attrgetter, itemgetter, neg

from skillnet.model import DEPENDENCY_KINDS, GENERAL_CATEGORY, EdgeKey, EdgeKind, SkillGraph
from skillnet.retrieval import (
    DEFAULT_BEAM_WIDTH,
    DEFAULT_BFS_DEPTH,
    DEFAULT_K_MAX,
    RetrievalResult,
    TaskQuery,
    select_seeds as layered_select_seeds,
)

# a node's level, and the skill id of a (level, -score, id) row
_level = attrgetter("level")
_row_id = itemgetter(2)


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


def layered_expand_backward(graph: SkillGraph, seeds: set[str],
                            depth: int) -> tuple[set[str], list[set[str]]]:
    """BFS over incoming prereq edges up to `depth` hops from any seed.

    Recovers foundational skills the seeds depend on. Deprecated and locked
    nodes neither appear nor relay the traversal. Each layer is grown as one
    set: the prereq parents of the layer below, less the skills already
    visited, less the inactive ones. Returns every reached skill and the
    layers in hop order, which ``_bfs_edge`` reads for a skill retrieval keeps.
    """
    nodes, top = graph.nodes, graph.highest_active_level
    parents_of, prereq = graph.dependency_parents, EdgeKind.PREREQ
    visited = set(seeds)
    frontier = seeds
    layers: list[set[str]] = []
    for _ in range(depth):
        frontier = {p for v in frontier for key in parents_of(v)
                    if key[2] is prereq and (p := key[0]) not in visited
                    and not (node := nodes[p]).deprecated and node.level <= top}
        if not frontier:
            break
        visited |= frontier
        layers.append(frontier)
    return visited - seeds, layers


def layered_bfs_edge(graph: SkillGraph, skill_id: str, below: set[str]) -> EdgeKey:
    """The edge that brought a BFS skill in: its prereq edge to the lowest-id
    child in ``below``, the layer it was found from. That is the edge a walk
    over the layer in id order reaches first."""
    prereq = EdgeKind.PREREQ
    return min(key for key in graph.forward_neighbors(skill_id)
               if key[2] is prereq and key[1] in below)


def layered_expand_forward(graph: SkillGraph, seeds: set[str], beam_width: int,
                           max_layers: int) -> tuple[dict[str, float], set[EdgeKey]]:
    """Layered beam search over outgoing edges, widest score first.

    Scores propagate multiplicatively, sigma(v) = max over parents of
    sigma(u) * w(u, v) with seeds at sigma = 1. Each layer ranks the newly
    reachable (or score-improved) children and keeps the top `beam_width`;
    improved nodes re-enter the frontier so better paths keep propagating.
    co_occur edges are walkable in both directions.

    A layer's hops form one heap of (-sigma, child, key) rows. The first row
    popped for a child carries its best score, and among equal scores the
    lowest key, so popping until `beam_width` children qualify selects them
    in (score desc, id asc) order, each by its best hop.
    """
    nodes, top, weights = graph.nodes, graph.highest_active_level, graph.edges()
    hops_from = graph.forward_neighbors
    kept: dict[str, float] = {}
    walked: set[EdgeKey] = set()
    sigma = {v: 1.0 for v in seeds}
    frontier = list(seeds)
    for _ in range(max_layers):
        hops: list[tuple[float, str, EdgeKey]] = []
        for u in frontier:
            sigma_u = sigma[u]
            for key in hops_from(u):
                v = key[1] if key[0] == u else key[0]
                if v in seeds:
                    continue
                node = nodes[v]
                if node.deprecated or node.level > top:
                    continue
                hops.append((-sigma_u * weights[key], v, key))
        heapq.heapify(hops)
        ranked: set[str] = set()
        frontier = []
        while hops and len(frontier) < beam_width:
            neg_score, v, key = heapq.heappop(hops)
            if v in ranked:
                continue
            ranked.add(v)
            if v in kept and -neg_score <= kept[v]:
                continue
            kept[v] = sigma[v] = -neg_score
            walked.add(key)
            frontier.append(v)
        if not frontier:
            break
    return kept, walked


def layered_topo_order(graph: SkillGraph, skill_ids: set[str],
                       scores: dict[str, float] | None = None,
                       limit: int = -1) -> list[str]:
    """Deterministic topological order of the induced dependency subgraph.

    Skills sort by (level asc, score desc, skill_id asc). That order is
    topological because every dependency edge climbs at least one level, and
    an identical graph and query always yield an identical sequence. A
    ``limit`` >= 0 keeps only the first ``limit`` skills of that order. With
    more skills than that, every skill above the ``limit``-th smallest level
    is dropped before the rest are ranked: none of them can be in the prefix.
    """
    graph.ensure_levels()
    scores = scores or {}
    # the rows zip passes over ``ids``, which iterate in one order while unchanged
    ids: Collection[str] = skill_ids
    levels: Iterable[int] = map(_level, map(graph.nodes.__getitem__, ids))
    if 0 < limit < len(ids):
        levels = list(levels)
        cut = heapq.nsmallest(limit, levels)[-1]
        below = list(map(cut.__ge__, levels))
        ids, levels = list(compress(ids, below)), list(compress(levels, below))
    rows = zip(levels, map(neg, map(scores.get, ids, repeat(1.0))), ids)
    ranked = heapq.nsmallest(limit, rows) if 0 <= limit < len(ids) else sorted(rows)
    return list(map(_row_id, ranked))


def layered_retrieve(graph: SkillGraph, query: TaskQuery,
                     depth: int = DEFAULT_BFS_DEPTH,
                     beam_width: int = DEFAULT_BEAM_WIDTH,
                     k_max: int = DEFAULT_K_MAX) -> RetrievalResult:
    """Full pipeline: seeds, both expansions, topo order, cap at k_max.

    The cap truncates the tail of the ordered sequence, so foundational
    skills are kept preferentially. traversed_edges holds the expansion edges
    whose endpoints both survived the cap, plus dependency edges between
    consecutive members of the final sequence; path reinforcement consumes it.
    A beam skill's expansion edges are the hops that selected it, one per
    layer it was selected in. A BFS skill's is the prereq edge to its
    lowest-id child in the layer it was found from (``_bfs_edge``), worked
    out only for the skills the cap keeps.
    """
    graph.ensure_levels()
    seeds = layered_select_seeds(graph, query)
    bfs_nodes, bfs_layers = layered_expand_backward(graph, seeds, depth)
    beam_scores, beam_walked = layered_expand_forward(graph, seeds, beam_width, depth)

    # seeds and skills only the BFS reached score 1.0, topo_order's default
    candidates = seeds | bfs_nodes | beam_scores.keys()
    ordered = layered_topo_order(graph, candidates, beam_scores, k_max)
    kept = set(ordered)

    traversed: set[EdgeKey] = {
        key for key in beam_walked if key[0] in kept and key[1] in kept
    }
    for below, layer in zip([seeds, *bfs_layers], bfs_layers):
        for v in kept.intersection(layer):
            key = layered_bfs_edge(graph, v, below)
            if key[1] in kept:
                traversed.add(key)
    edges = graph.edges()
    for prev, nxt in zip(ordered, ordered[1:]):
        for kind in DEPENDENCY_KINDS:
            if (prev, nxt, kind) in edges:
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
