"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive results by brute force (DFS cycle
checks, exhaustive longest-path search, path enumeration) so production code
is never checked against itself.
"""

from __future__ import annotations

import random

import pytest

from skillnet import EdgeKind, SkillGraph, SkillNode


def make_node(skill_id: str, category: str = "general", **kwargs) -> SkillNode:
    defaults = dict(
        title=f"Skill {skill_id}",
        principle=f"Principle of {skill_id}",
        when_to_apply=f"When {skill_id} applies",
        category=category,
    )
    defaults.update(kwargs)
    return SkillNode(skill_id=skill_id, **defaults)


def add_nodes(graph: SkillGraph, ids: list[str], category: str = "general") -> None:
    for skill_id in ids:
        graph.add_skill(make_node(skill_id, category=category))


# ----------------------------------------------------------------------
# independent oracles


def oracle_has_cycle(nodes: list[str], dep_edges: list[tuple[str, str]]) -> bool:
    """Plain three-color DFS cycle detection."""
    adjacency: dict[str, list[str]] = {v: [] for v in nodes}
    for src, dst in dep_edges:
        adjacency[src].append(dst)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in nodes}

    def visit(v: str) -> bool:
        color[v] = GREY
        for child in adjacency[v]:
            if color[child] == GREY:
                return True
            if color[child] == WHITE and visit(child):
                return True
        color[v] = BLACK
        return False

    return any(color[v] == WHITE and visit(v) for v in nodes)


def oracle_levels(nodes: list[str], dep_edges: list[tuple[str, str]]) -> dict[str, int]:
    """Longest dependency path per node via memoized recursion."""
    parents: dict[str, list[str]] = {v: [] for v in nodes}
    for src, dst in dep_edges:
        parents[dst].append(src)
    memo: dict[str, int] = {}

    def depth(v: str) -> int:
        if v not in memo:
            memo[v] = 0 if not parents[v] else 1 + max(depth(u) for u in parents[v])
        return memo[v]

    return {v: depth(v) for v in nodes}


def oracle_best_path_products(graph: SkillGraph, seeds: set[str],
                              max_edges: int) -> dict[str, float]:
    """Best seed-to-node product over simple paths of at most max_edges hops.

    Walks the same forward-neighbor relation retrieval uses (stored direction
    plus symmetric co_occur), rebuilt from the edge list rather than read
    from the graph's adjacency, but enumerates paths exhaustively. Deprecated
    and locked nodes cannot appear as interior or terminal hops. Products are
    multiplied left to right along the path, matching incremental
    propagation bit for bit.
    """
    best: dict[str, float] = {}
    hops_from: dict[str, list[tuple[str, float]]] = {v: [] for v in graph.nodes}
    for (src, dst, kind), weight in graph.edges().items():
        hops_from[src].append((dst, weight))
        if kind is EdgeKind.CO_OCCUR:
            hops_from[dst].append((src, weight))

    def walk(node: str, product: float, hops: int, visited: set[str]) -> None:
        if hops == max_edges:
            return
        for child, weight in hops_from[node]:
            if child in seeds or child in visited or not graph.is_active(child):
                continue
            score = product * weight
            if score > best.get(child, -1.0):
                best[child] = score
            walk(child, score, hops + 1, visited | {child})

    for seed in seeds:
        walk(seed, 1.0, 0, {seed})
    return best


def computed_levels(graph: SkillGraph) -> dict[str, int]:
    """Run ``compute_levels`` and read every skill's stored level back from
    its record, in node order."""
    graph.compute_levels()
    return {v: node.level for v, node in graph.nodes.items()}


def dependency_edges(graph: SkillGraph) -> list[tuple[str, str]]:
    return [(src, dst) for src, dst, kind in graph.edges()
            if kind in (EdgeKind.PREREQ, EdgeKind.ENHANCE)]


def random_graph(rng: random.Random, n: int | None = None,
                 deprecated_rate: float = 0.15) -> SkillGraph:
    """Arbitrary valid graph built through the public mutation API."""
    graph = SkillGraph()
    n = n or rng.randint(2, 30)
    categories = ["general", "clean", "heat", "cool"]
    for i in range(n):
        node = make_node(f"n{i:03d}", category=rng.choice(categories))
        node.n_use = rng.randint(0, 100)
        node.n_succ = rng.randint(0, node.n_use)
        node.created_step = rng.randint(0, 50)
        node.deprecated = rng.random() < deprecated_rate
        graph.add_skill(node)
    ids = sorted(graph.nodes)
    for _ in range(rng.randint(0, 4 * n)):
        src, dst = rng.sample(ids, 2)
        try:
            graph.add_edge(src, dst, rng.choice(list(EdgeKind)),
                           round(rng.random(), 6))
        except Exception:
            pass
    graph.checkpoint_index = rng.randint(0, 99)
    graph.highest_active_level = rng.randint(0, 4)
    graph.next_dynamic_id = rng.randint(1, 500)
    for _ in range(rng.randint(0, 10)):
        a, b = rng.sample(ids, 2)
        graph.co_counts[(min(a, b), max(a, b))] = rng.randint(1, 5)
    graph.compute_levels()
    return graph


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
