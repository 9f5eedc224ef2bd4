"""Seeded synthetic skill libraries, the benchmark teacher, and output digests.

The generator follows the library shape the roadmap fixes for benchmarking:
20 categories, 2% general skills, about two forward ``prereq`` edges and one
``co_occur`` edge per node. It adds one thing: 2% of the skills are planted
near-duplicates that copy the previous skill's whole neighbourhood, so that
``merge_scan`` finds candidate pairs and the merge path of a checkpoint runs.
Half of the duplicates change category, and the benchmark teacher declines
those pairs, so they are proposed again at every checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any

from skillnet import (
    GENERAL_CATEGORY,
    EdgeKind,
    Proposer,
    ProposerRequest,
    RetrievalResult,
    SkillGraph,
    SkillNode,
    SkillProposal,
)

CATEGORIES = tuple(f"c{i:02d}" for i in range(20))
# one general skill and one planted duplicate in every STRIDE skills (2% each)
STRIDE = 50
PREREQ_PER_NODE = 2

# Seeded usage statistics for libraries that evolve: most skills are good,
# a few sit in the split band and a few are deprecation candidates.
SPLIT_BAND_SHARE = 0.03
FAILING_SHARE = 0.02


def _category_rounds(rng: random.Random):
    """Categories in rounds that each hold all twenty in a fresh order."""
    while True:
        batch = list(CATEGORIES)
        rng.shuffle(batch)
        yield from batch


def generate_library(n: int, seed: int, with_stats: bool = False) -> SkillGraph:
    """Build an ``n``-skill library from ``seed``, with every level unlocked.

    Skill ``i`` only points ``prereq`` edges at skills ``j > i``, so the
    dependency subgraph is a DAG by construction. Edges are added in
    ascending source order, which keeps the acyclicity check of each new
    edge to the edges already laid down.

    The seed draws the edges, their weights and the order of categories,
    but not the library's proportions: general skills and duplicates sit
    at fixed strides and every category fills the same share of each stretch
    of indices. Where they fall decides how many ancestors every query
    collects (general skills are seeds of every query, and later skills have
    more parents), so leaving them to chance made one seed's queries up to a
    third costlier than another's.
    """
    rng = random.Random(f"library/{n}/{seed}")
    ids = [f"s{i:05d}" for i in range(n)]
    duplicate_of = {i: i - 1 for i in range(STRIDE // 2, n, STRIDE)}
    stream = _category_rounds(rng)
    categories = []
    for i in range(n):
        if i in duplicate_of and (i // STRIDE) % 2 == 0:
            categories.append(categories[duplicate_of[i]])
        elif i % STRIDE == 0:
            categories.append(GENERAL_CATEGORY)
        else:
            categories.append(next(stream))

    plain = [i for i in range(n) if i not in duplicate_of]
    prereq: set[tuple[int, int]] = set()
    cooccur: set[tuple[int, int]] = set()
    for i in plain:
        for _ in range(PREREQ_PER_NODE if i + 1 < n else 0):
            j = rng.randrange(i + 1, n)
            if j not in duplicate_of:
                prereq.add((i, j))
        j = rng.choice(plain)
        if j != i:
            cooccur.add((min(i, j), max(i, j)))
    cooccur -= prereq
    parents: dict[int, list[int]] = {}
    children: dict[int, list[int]] = {}
    partners: dict[int, list[int]] = {}
    for a, b in prereq:
        parents.setdefault(b, []).append(a)
        children.setdefault(a, []).append(b)
    for a, b in cooccur:
        partners.setdefault(a, []).append(b)
        partners.setdefault(b, []).append(a)
    for d, p in duplicate_of.items():
        # p's children are plain skills after p, hence after d as well
        prereq.update((a, d) for a in parents.get(p, ()))
        prereq.update((d, b) for b in children.get(p, ()))
        cooccur.update((min(d, o), max(d, o)) for o in partners.get(p, ()))

    stats_rng = random.Random(f"stats/{n}/{seed}")
    graph = SkillGraph()
    for i, skill_id in enumerate(ids):
        node = SkillNode(
            skill_id=skill_id,
            title=f"Skill {i} ({categories[i]})",
            principle=f"Principle {i} for {categories[i]} work",
            when_to_apply=f"Situation {i} arises",
            category=categories[i])
        if with_stats:
            draw = stats_rng.random()
            if draw < FAILING_SHARE:
                quality = stats_rng.uniform(0.0, 0.1)
            elif draw < FAILING_SHARE + SPLIT_BAND_SHARE:
                quality = stats_rng.uniform(0.2, 0.35)
            else:
                quality = stats_rng.uniform(0.75, 0.95)
            node.n_use = stats_rng.randint(10, 40)
            node.n_succ = sum(stats_rng.random() < quality for _ in range(node.n_use))
        graph.add_skill(node)
    for a, b in sorted(prereq):
        graph.add_edge(ids[a], ids[b], EdgeKind.PREREQ, round(rng.uniform(0.1, 1.0), 3))
    for a, b in sorted(cooccur):
        graph.add_edge(ids[a], ids[b], EdgeKind.CO_OCCUR, round(rng.uniform(0.1, 1.0), 3))
    graph.compute_levels()
    graph.highest_active_level = graph.max_level()
    return graph


class BenchProposer(Proposer):
    """Deterministic teacher: every answer is a pure function of the request.

    Inserts one skill per failure summary, merges pairs of one category and
    declines the rest, and splits a skill into two ordered steps.
    """

    def propose(self, request: ProposerRequest) -> list[SkillProposal]:
        if request.kind == "insert":
            return [SkillProposal(
                skill_id=f"proposal_{i}",
                title=f"Recover {summary.task_type} task {summary.task}"[:80],
                principle=f"Retry {summary.task} with the missing step first",
                when_to_apply=f"A {summary.task_type} task stalls",
                category=summary.task_type,
            ) for i, summary in enumerate(request.failure_summaries[:request.max_items])]
        if request.kind == "merge":
            first, second = request.skill_pair
            if first["category"] != second["category"]:
                return []
            return [SkillProposal(
                skill_id="proposal_0",
                title=first["title"],
                principle=f"{first['principle']}; also {second['principle']}"[:400],
                when_to_apply=first["when_to_apply"],
                category=first["category"],
            )]
        skill = request.skill
        return [SkillProposal(
            skill_id=f"proposal_{i}",
            title=f"{skill['title']} step {i}"[-80:],
            principle=f"Step {i} of: {skill['principle']}"[:400],
            when_to_apply=skill["when_to_apply"],
            category=skill["category"],
        ) for i in (1, 2)]


def digest(obj: Any) -> str:
    """Short stable hash of a JSON-serialisable value."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def answer(result: RetrievalResult) -> dict[str, Any]:
    """The observable output of one retrieval, in the CLI's JSON shape."""
    return {
        "ordered_skills": result.ordered_skills,
        "scores": result.scores,
        "traversed_edges": [[s, d, k.value] for s, d, k in sorted(result.traversed_edges)],
    }
