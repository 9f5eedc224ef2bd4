"""Checkpoint-time graph evolution.

Node operations (insert, merge, split, deprecate) reshape what skills exist;
edge operations (path reinforcement, co-occurrence discovery, decay and
pruning) reshape how they relate. ``evolve_step`` runs the whole pipeline in
a fixed order and recomputes levels afterwards. Proposer failures degrade the
affected sub-operation and never abort the checkpoint.

The caller owns exclusivity: evolution mutates the graph in place, so readers
should hold a snapshot taken before or after the step, never during.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Any

from .errors import ConfigInvalid, CycleWouldForm, ProposerError, SchemaViolation
from .model import EdgeKind, SkillEdge, SkillGraph, SkillNode, pair_key
from .persistence import TrajectoryRecord, normalize_edge_keys
from .proposer import (
    FailureSummary,
    Proposer,
    ProposerRequest,
    SkillProposal,
    MAX_FAILURES_PER_REQUEST,
)

logger = logging.getLogger(__name__)

# prereq links created when a split chains its sub-skills; same magnitude as
# the co-occurrence structural prior
SPLIT_CHAIN_WEIGHT = 0.3
COOCCUR_DISCOVERY_WEIGHT = 0.3


@dataclass
class EvolutionConfig:
    """Knobs for one evolution checkpoint; defaults are the standard run."""

    max_new_skills: int = 3          # m
    merge_jaccard: float = 0.85      # neighborhood overlap needed to merge
    split_band: tuple[float, float] = (0.15, 0.4)
    split_min_uses: int = 10
    deprecate_threshold: float = 0.15
    deprecate_min_uses: int = 20
    reinforce_step: float = 0.05     # alpha
    decay_factor: float = 0.99       # gamma
    prune_threshold: float = 0.05    # w_min
    cooccur_min_count: int = 2       # c_min

    def validate(self) -> None:
        """The ranges under which evolution keeps every weight in [0, 1]."""
        for name in ("merge_jaccard", "deprecate_threshold", "reinforce_step",
                     "decay_factor", "prune_threshold"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigInvalid(f"evolution.{name} must lie in [0, 1]")
        lo, hi = self.split_band
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigInvalid("evolution.split_band must satisfy 0 <= lo <= hi <= 1")
        for name in ("max_new_skills", "split_min_uses", "deprecate_min_uses",
                     "cooccur_min_count"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"evolution.{name} must be >= 0")


@dataclass
class EvolutionReport:
    """Audit record of everything one checkpoint changed."""

    inserted: list[str] = field(default_factory=list)
    merged: list[tuple[str, list[str]]] = field(default_factory=list)
    split: list[tuple[str, list[str]]] = field(default_factory=list)
    deprecated: list[str] = field(default_factory=list)
    edges_reinforced: int = 0
    edges_added: int = 0
    edges_pruned: int = 0
    stale_edge_skips: int = 0
    unlock_events: list[int] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def jaccard(a: set[str], b: set[str]) -> float:
    """Jaccard similarity with J(empty, empty) defined as 0."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def summarize_failures(failures: list[TrajectoryRecord]) -> list[FailureSummary]:
    return [
        FailureSummary(task=t.task_id, task_type=t.task_type, steps=list(t.steps))
        for t in failures[:MAX_FAILURES_PER_REQUEST]
    ]


def _node_view(node: SkillNode) -> dict[str, str]:
    return {
        "skill_id": node.skill_id,
        "title": node.title,
        "principle": node.principle,
        "when_to_apply": node.when_to_apply,
        "category": node.category,
    }


# ----------------------------------------------------------------------
# node-level operations


def scan_insert_trigger(failures: list[TrajectoryRecord], graph: SkillGraph,
                        proposer: Proposer, cfg: EvolutionConfig) -> list[str]:
    """Ask the teacher for new skills addressing a window's failures.

    No failures, no call. Accepted proposals get engine-assigned dyn ids and
    enter the graph as isolated level-0 nodes; proposals that fail schema
    validation or duplicate a live title are dropped individually.
    """
    if not failures:
        return []
    active_titles = [
        n.title for n in graph.nodes.values() if not n.deprecated
    ]
    seen_titles = {t.strip().lower() for t in active_titles}
    # ids are advisory in the prompt; actual assignment happens on insert
    preview_ids = [f"dyn_{graph.next_dynamic_id + i:04d}"
                   for i in range(cfg.max_new_skills)]
    request = ProposerRequest(
        kind="insert",
        failure_summaries=summarize_failures(failures),
        existing_titles=sorted(active_titles),
        dyn_ids=preview_ids,
        max_items=cfg.max_new_skills,
    )
    try:
        proposals = proposer.propose(request)
    except ProposerError as exc:
        logger.warning("insert skipped, proposer unavailable: %s", exc)
        return []
    inserted: list[str] = []
    for proposal in proposals[:cfg.max_new_skills]:
        try:
            proposal.validate()
        except SchemaViolation as exc:
            logger.warning("dropping invalid proposal: %s", exc)
            continue
        title_key = proposal.title.strip().lower()
        if title_key in seen_titles:
            logger.info("dropping duplicate-title proposal %r", proposal.title)
            continue
        seen_titles.add(title_key)
        skill_id = graph.new_dynamic_id()
        graph.add_skill(SkillNode(
            skill_id=skill_id,
            title=proposal.title,
            principle=proposal.principle,
            when_to_apply=proposal.when_to_apply,
            category=proposal.category or "general",
            created_step=graph.checkpoint_index,
        ))
        inserted.append(skill_id)
    if inserted:
        graph.compute_levels()
    return inserted


def _inherit_edge(graph: SkillGraph, edge: SkillEdge, old: str, new: str) -> bool:
    """Re-point one endpoint of an inherited edge, keeping the higher weight
    on collisions and dropping edges that would close a dependency cycle."""
    src = new if edge.src == old else edge.src
    dst = new if edge.dst == old else edge.dst
    if src == dst:
        return False
    existing = graph.get_edge(src, dst, edge.kind)
    if existing is not None:
        existing.weight = max(existing.weight, edge.weight)
        return False
    try:
        graph.add_edge(src, dst, edge.kind, edge.weight)
        return True
    except CycleWouldForm:
        logger.info("dropping inherited edge %s->%s (%s): would form a cycle",
                    src, dst, edge.kind.value)
        return False


def merge_scan(graph: SkillGraph, proposer: Proposer,
               cfg: EvolutionConfig) -> list[tuple[str, list[str]]]:
    """Fold together skill pairs whose graph neighborhoods nearly coincide.

    Candidate pairs are fixed up front from Jaccard over all-kind, both-way
    neighborhoods; a pair is skipped when either member was consumed earlier
    in the pass. The survivor keeps the lexicographically smaller id, takes
    the teacher's unified wording, inherits the union of both edge sets
    (higher weight wins on duplicates), and sums both statistics.
    """
    graph.ensure_levels()
    live = sorted(v for v, n in graph.nodes.items() if not n.deprecated)
    neighborhoods = {v: graph.neighbors(v) for v in live}
    candidates = [
        (a, b) for i, a in enumerate(live) for b in live[i + 1:]
        if jaccard(neighborhoods[a], neighborhoods[b]) >= cfg.merge_jaccard
    ]
    if not candidates:
        return []
    merges: list[tuple[str, list[str]]] = []
    consumed: set[str] = set()
    for a, b in candidates:
        if a in consumed or b in consumed:
            continue
        survivor_id, removed_id = (a, b) if a < b else (b, a)
        request = ProposerRequest(
            kind="merge",
            skill_pair=(_node_view(graph.nodes[a]), _node_view(graph.nodes[b])),
            existing_titles=[n.title for n in graph.nodes.values()],
            max_items=1,
        )
        try:
            proposals = proposer.propose(request)
        except ProposerError as exc:
            logger.warning("merge pass aborted, proposer unavailable: %s", exc)
            break
        if not proposals:
            continue
        try:
            proposals[0].validate()
        except SchemaViolation as exc:
            logger.warning("skipping merge of (%s, %s): %s", a, b, exc)
            continue
        unified = proposals[0]
        survivor = graph.nodes[survivor_id]
        removed = graph.nodes[removed_id]
        survivor.title = unified.title
        survivor.principle = unified.principle
        survivor.when_to_apply = unified.when_to_apply
        if unified.category:
            survivor.category = unified.category
        survivor.n_use += removed.n_use
        survivor.n_succ += removed.n_succ
        inherited = sorted(graph.incident_edges(removed_id),
                           key=lambda e: (-e.weight, e.src, e.dst, e.kind.value))
        # remap co-appearance counters before the node record disappears
        for (x, y), count in list(graph.co_counts.items()):
            if removed_id in (x, y):
                other = y if x == removed_id else x
                del graph.co_counts[(x, y)]
                if other != survivor_id:
                    new_pair = pair_key(survivor_id, other)
                    graph.co_counts[new_pair] = graph.co_counts.get(new_pair, 0) + count
        graph.remove_node(removed_id)
        for edge in inherited:
            _inherit_edge(graph, edge, removed_id, survivor_id)
        consumed.update((a, b))
        merges.append((survivor_id, [removed_id]))
    if merges:
        graph.compute_levels()
    return merges


def split_scan(graph: SkillGraph, proposer: Proposer,
               failure_contexts: list[str],
               cfg: EvolutionConfig) -> list[tuple[str, list[str]]]:
    """Decompose broad mid-performing skills into prereq-chained sub-skills.

    Triggers on raw success rate inside the split band with enough usage.
    Children arrive in teacher order, get dyn ids and zeroed statistics, and
    the parent's edges are redistributed per the teacher's neighbor
    assignments (round-robin for anything left unassigned). Fewer than two
    usable sub-skills means the skill stays as it is.
    """
    graph.ensure_levels()
    lo, hi = cfg.split_band
    targets = sorted(
        v for v, n in graph.nodes.items()
        if not n.deprecated and n.n_use >= cfg.split_min_uses
        and lo <= n.success_rate() <= hi
    )
    splits: list[tuple[str, list[str]]] = []
    for parent_id in targets:
        parent = graph.nodes[parent_id]
        request = ProposerRequest(
            kind="split",
            skill=_node_view(parent),
            failure_contexts=failure_contexts[:MAX_FAILURES_PER_REQUEST],
            max_items=3,
        )
        try:
            proposals = proposer.propose(request)
        except ProposerError as exc:
            logger.warning("split pass aborted, proposer unavailable: %s", exc)
            break
        usable: list[SkillProposal] = []
        for proposal in proposals[:3]:
            try:
                proposal.validate()
                usable.append(proposal)
            except SchemaViolation as exc:
                logger.warning("dropping invalid sub-skill for %s: %s",
                               parent_id, exc)
        if len(usable) < 2:
            logger.info("split of %s is a no-op (%d usable sub-skills)",
                        parent_id, len(usable))
            continue
        child_ids = []
        for proposal in usable:
            child_id = graph.new_dynamic_id()
            graph.add_skill(SkillNode(
                skill_id=child_id,
                title=proposal.title,
                principle=proposal.principle,
                when_to_apply=proposal.when_to_apply,
                category=proposal.category or parent.category,
                created_step=graph.checkpoint_index,
            ))
            child_ids.append(child_id)
        for first, second in zip(child_ids, child_ids[1:]):
            graph.add_edge(first, second, EdgeKind.PREREQ, SPLIT_CHAIN_WEIGHT)

        # neighbor -> child chosen by the teacher, round-robin otherwise
        assignment: dict[str, str] = {}
        for child_id, proposal in zip(child_ids, usable):
            for neighbor in proposal.neighbor_assignment or []:
                assignment.setdefault(neighbor, child_id)
        inherited = sorted(graph.incident_edges(parent_id),
                           key=lambda e: (-e.weight, e.src, e.dst, e.kind.value))
        unassigned = sorted({
            (e.dst if e.src == parent_id else e.src) for e in inherited
        } - set(assignment))
        for i, neighbor in enumerate(unassigned):
            assignment[neighbor] = child_ids[i % len(child_ids)]
        graph.remove_node(parent_id)
        for edge in inherited:
            neighbor = edge.dst if edge.src == parent_id else edge.src
            target = assignment.get(neighbor)
            if target is None or neighbor not in graph.nodes:
                continue
            _inherit_edge(graph, edge, parent_id, target)
        splits.append((parent_id, child_ids))
    if splits:
        graph.compute_levels()
    return splits


def deprecate_scan(graph: SkillGraph, cfg: EvolutionConfig) -> list[str]:
    """Flag skills that are used a lot and nearly always fail.

    Deprecated nodes stay in the stored graph for auditability but leave the
    active set and every traversal permanently; nothing resurrects them.
    """
    flagged = []
    for skill_id in sorted(graph.nodes):
        node = graph.nodes[skill_id]
        if node.deprecated:
            continue
        if node.n_use >= cfg.deprecate_min_uses and \
                node.success_rate() < cfg.deprecate_threshold:
            node.deprecated = True
            flagged.append(skill_id)
    return flagged


# ----------------------------------------------------------------------
# edge-level operations


def reinforce_paths(graph: SkillGraph, successes: list[TrajectoryRecord],
                    step: float) -> tuple[int, int]:
    """Additively strengthen every edge each successful episode traversed.

    Applied once per (edge, trajectory) pair and clamped at 1.0, so an edge
    shared by two winning episodes moves up twice. Returns (applications,
    stale skips); a stale edge is one that was pruned since retrieval.
    """
    applied = 0
    stale = 0
    for record in successes:
        for key in normalize_edge_keys(record):
            edge = graph.get_edge(*key)
            if edge is None:
                stale += 1
                continue
            edge.weight = min(edge.weight + step, 1.0)
            applied += 1
    return applied, stale


def discover_cooccur(graph: SkillGraph, successes: list[TrajectoryRecord],
                     min_count: int) -> int:
    """Connect skill pairs that keep showing up together in wins.

    Co-appearance counts accumulate across checkpoints; once a pair reaches
    the threshold and is still unconnected by any edge kind, it gains a
    co_occur edge at the structural prior weight.
    """
    for record in successes:
        # ids that vanished via merge or split never come back; don't count them
        ids = sorted(set(record.retrieved_skill_ids) & graph.nodes.keys())
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                pair = pair_key(a, b)
                graph.co_counts[pair] = graph.co_counts.get(pair, 0) + 1
    added = 0
    for (a, b), count in sorted(graph.co_counts.items()):
        if count < min_count:
            continue
        node_a, node_b = graph.nodes.get(a), graph.nodes.get(b)
        if node_a is None or node_b is None:
            continue
        if node_a.deprecated or node_b.deprecated:
            continue
        if graph.has_any_edge(a, b):
            continue
        graph.add_edge(a, b, EdgeKind.CO_OCCUR, COOCCUR_DISCOVERY_WEIGHT)
        added += 1
    return added


def decay_and_prune(graph: SkillGraph, decay: float, floor: float) -> int:
    """Multiplicatively decay every weight, then drop edges below the floor.

    Nodes are never removed here, only edges.
    """
    doomed = []
    for edge in graph.edges():
        edge.weight *= decay
        if edge.weight < floor:
            doomed.append(edge.key())
    for key in doomed:
        graph.remove_edge(key)
    return len(doomed)


# ----------------------------------------------------------------------
# the checkpoint pipeline


def evolve_step(graph: SkillGraph, successes: list[TrajectoryRecord],
                failures: list[TrajectoryRecord], proposer: Proposer,
                cfg: EvolutionConfig) -> EvolutionReport:
    """Run one full evolution checkpoint in fixed order.

    insert -> merge -> split -> deprecate -> reinforce -> discover ->
    decay and prune, then recompute levels and advance the checkpoint
    counter. Statistics for the window must already be folded in via
    ``update_stats``. Unlock events are appended by the curriculum caller.
    """
    report = EvolutionReport()
    failure_contexts = [
        f"{t.task_type}: {t.task_id}" for t in failures[:MAX_FAILURES_PER_REQUEST]
    ]
    report.inserted = scan_insert_trigger(failures, graph, proposer, cfg)
    report.merged = merge_scan(graph, proposer, cfg)
    report.split = split_scan(graph, proposer, failure_contexts, cfg)
    report.deprecated = deprecate_scan(graph, cfg)
    report.edges_reinforced, report.stale_edge_skips = reinforce_paths(
        graph, successes, cfg.reinforce_step)
    report.edges_added = discover_cooccur(graph, successes, cfg.cooccur_min_count)
    report.edges_pruned = decay_and_prune(graph, cfg.decay_factor,
                                          cfg.prune_threshold)
    graph.compute_levels()
    graph.checkpoint_index += 1
    return report
