"""Dependency-aware retrieval: seeds, backward BFS, forward beam, topo order.

Produces an ordered skill sequence for a task query and renders it as the
markdown skill block that gets prepended to an agent prompt. The sequence is
sorted by (level, score, id); it is topological because every dependency edge
climbs at least one level. The functions walk the graph's own adjacency
(see ``SkillGraph``) and write nothing into the graph, so any number of them
may run concurrently on one snapshot.

Both expansions work a layer at a time. The backward BFS grows each layer as
one dict of skill to level, and the rank step takes those levels instead of
reading the records again. The forward beam ranks a layer's hops in one heap,
except the first layer from many seeds: there one sort of the hop weights
orders its hops, and only those the walk down that order reaches are
resolved.
Per-skill bookkeeping waits until the cap has chosen the skills kept. The
expansion edges in ``traversed_edges`` are, for a beam skill, the hop that
selected it in each layer it was selected in: its best-scoring hop, the
lowest key among equal scores. For a BFS skill it is the prereq edge to its
lowest-id child in the layer it was found from. Both are the edges an
id-ordered, edge-at-a-time walk records first.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain, compress, groupby, islice, repeat
from operator import itemgetter, neg

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

# From this many seeds up, the beam ranks its first layer by one sort of the
# hop weights and resolves hops only until the layer is full; below it,
# building and heap-ordering a row per hop costs less. The seed count stands
# in for the hop count, which would cost a call per seed to work out. Timed
# on one CPU: the heap is 2-3x faster on the seed-42 simulation library (0-7
# seeds, 0-30 hops, mostly to other seeds); on seed sets of the 8k bench
# library, about 4 hops a seed, the two meet at about 4 seeds and the sort is
# 1.7x faster at 16. A query has some 140 seeds on the 2k bench library and
# 550 on the 8k.
SORTED_SEED_LAYER_SEEDS = 16

# the skill id of a (level, -score, id) row
_row_id = itemgetter(2)

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
                     depth: int) -> tuple[dict[str, int], list[dict[str, int]]]:
    """BFS over incoming prereq edges up to `depth` hops from any seed.

    Recovers foundational skills the seeds depend on. Deprecated and locked
    nodes neither appear nor relay the traversal. Each layer is grown as one
    dict: the prereq parents of the layer below, less the skills already
    visited, less the inactive ones, each mapped to the level its activity
    check read, so ranking reads no BFS skill's record again. Returns every
    reached skill with its level, and the layers in hop order, which
    ``_bfs_edge`` reads for a skill retrieval keeps.
    """
    nodes, top = graph.nodes, graph.highest_active_level
    parents_of, prereq = graph.dependency_parents, EdgeKind.PREREQ
    visited = set(seeds)
    reached: dict[str, int] = {}
    layers: list[dict[str, int]] = []
    frontier: Collection[str] = seeds
    for _ in range(depth):
        frontier = {p: level for v in frontier for key in parents_of(v)
                    if key[2] is prereq and (p := key[0]) not in visited
                    and not (node := nodes[p]).deprecated
                    and (level := node.level) <= top}
        if not frontier:
            break
        visited.update(frontier)
        reached.update(frontier)
        layers.append(frontier)
    return reached, layers


def _bfs_edge(graph: SkillGraph, skill_id: str, below: Collection[str]) -> EdgeKey:
    """The edge that brought a BFS skill in: its prereq edge to the lowest-id
    child in ``below``, the layer it was found from. That is the edge a walk
    over the layer in id order reaches first."""
    prereq = EdgeKind.PREREQ
    return min(key for key in graph.forward_neighbors(skill_id)
               if key[2] is prereq and key[1] in below)


def _seed_hops(graph: SkillGraph, seeds: set[str]) -> Iterator[tuple[str, EdgeKey]]:
    """The beam's first layer in rank order: each child of a seed once, with
    its best hop.

    Every hop out of the seeds leaves a skill at sigma = 1, so it scores its
    stored weight. One sort ranks the hops by weight, and the walk down that
    order resolves a hop's far endpoint, and drops it if that is a seed or
    inactive, only as it reaches it. Each group of equal weight goes out in
    (child, key) order, which is the order a heap of (-sigma, child, key)
    rows pops them in.
    """
    nodes, top, weights = graph.nodes, graph.highest_active_level, graph.edges()
    hops = list(chain.from_iterable(map(graph.forward_neighbors, seeds)))
    hops.sort(key=weights.__getitem__, reverse=True)
    taken: set[str] = set()
    for _, group in groupby(hops, weights.__getitem__):
        rows: list[tuple[str, EdgeKey]] = []
        for key in group:
            v = key[1] if key[0] in seeds else key[0]
            if v in seeds or v in taken:
                continue
            node = nodes[v]
            if node.deprecated or node.level > top:
                continue
            rows.append((v, key))
        rows.sort()
        for v, key in rows:
            if v not in taken:
                taken.add(v)
                yield v, key


def _expand_forward(graph: SkillGraph, seeds: set[str], beam_width: int,
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
    in (score desc, id asc) order, each by its best hop. From
    ``SORTED_SEED_LAYER_SEEDS`` seeds up, the first layer reads the same
    children off ``_seed_hops`` instead, so it resolves only the hops it may
    keep.
    """
    nodes, top, weights = graph.nodes, graph.highest_active_level, graph.edges()
    hops_from = graph.forward_neighbors
    kept: dict[str, float] = {}
    walked: set[EdgeKey] = set()
    frontier = list(seeds)
    first_heap_layer = 0
    if max_layers > 0 and beam_width > 0 and len(seeds) >= SORTED_SEED_LAYER_SEEDS:
        frontier = []
        for v, key in islice(_seed_hops(graph, seeds), beam_width):
            kept[v] = weights[key]
            walked.add(key)
            frontier.append(v)
        first_heap_layer = 1
    for _ in range(first_heap_layer, max_layers):
        if not frontier:
            break
        hops: list[tuple[float, str, EdgeKey]] = []
        for u in frontier:
            sigma_u = kept.get(u, 1.0)  # a seed's is 1, and no seed is kept
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
            kept[v] = -neg_score
            walked.add(key)
            frontier.append(v)
    return kept, walked


def topo_order(graph: SkillGraph, levels: Mapping[str, int],
               scores: Mapping[str, float] | None = None,
               limit: int = -1) -> list[str]:
    """Deterministic topological order of the induced dependency subgraph.

    ``levels`` maps each skill to order to its level, read from ``graph``
    once its levels are up to date (``ensure_levels``); the graph itself is
    not read again. It holds every candidate, so its size is the candidate
    count the benchmark's tracer reports. Skills sort by (level asc, score
    desc, skill_id asc). That order is topological because every dependency
    edge climbs at least one level, and an identical graph and query always
    yield an identical sequence. A
    ``limit`` >= 0 keeps only the first ``limit`` skills of that order. With
    more skills than that, every skill above the ``limit``-th smallest level
    is dropped before the rest are ranked: none of them can be in the prefix.
    """
    scores = scores or {}
    ids: Iterable[str] = levels.keys()
    ranks: Iterable[int] = levels.values()
    if 0 < limit < len(levels):
        cut = heapq.nsmallest(limit, ranks)[-1]
        below = list(map(cut.__ge__, levels.values()))
        ids, ranks = list(compress(ids, below)), list(compress(levels.values(), below))
    rows = zip(ranks, map(neg, map(scores.get, ids, repeat(1.0))), ids)
    ranked = heapq.nsmallest(limit, rows) if 0 <= limit < len(levels) else sorted(rows)
    return list(map(_row_id, ranked))


def retrieve(graph: SkillGraph, query: TaskQuery,
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
    seeds = select_seeds(graph, query)
    bfs_levels, bfs_layers = _expand_backward(graph, seeds, depth)
    beam_scores, beam_walked = _expand_forward(graph, seeds, beam_width, depth)

    # every candidate with its level; the BFS read its skills' levels already.
    # Seeds and skills only the BFS reached score 1.0, topo_order's default
    nodes = graph.nodes
    candidates = {v: nodes[v].level for v in chain(seeds, beam_scores)}
    candidates.update(bfs_levels)
    ordered = topo_order(graph, candidates, beam_scores, k_max)
    kept = set(ordered)

    traversed: set[EdgeKey] = {
        key for key in beam_walked if key[0] in kept and key[1] in kept
    }
    for below, layer in zip([seeds, *bfs_layers], bfs_layers):
        for v in kept.intersection(layer):
            key = _bfs_edge(graph, v, below)
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
        bfs_count=len(bfs_levels),
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
