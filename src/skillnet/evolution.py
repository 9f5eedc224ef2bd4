"""Checkpoint-time graph evolution.

Node operations (insert, merge, split, deprecate) reshape what skills exist;
edge operations (path reinforcement, co-occurrence discovery, decay and
pruning) reshape how they relate. ``evolve_step`` runs the whole pipeline in
a fixed order and brings levels up to date once, at the end, re-leveling
only the skills below an edge that moved (see ``SkillGraph.compute_levels``).

Evolution decides and the graph keeps its books. Insert, merge and split ask
the teacher through one call (``_ask``: proposer failures degrade the
sub-operation and never abort the checkpoint, invalid proposals are dropped
one by one), add proposed skills through one builder (``_add_proposed``) and
hand a removed skill's edges on through one path (``_rehome``).
``SkillGraph.remove_node`` carries its co-appearance counts over to an heir,
and no operation reads a level, so none recomputes them.

Merge candidates are the one result kept between checkpoints: each graph's
last scan is held weakly in ``_LAST_SCANS``, and a scan probes only the
skills whose adjacency tuples were rebound or whose deprecated flag flipped
since, with the neighbors of a flipped one, through their neighbors'
neighborhoods. There is no inverted index and no full-scan fallback: a
graph's first scan, or one at a new threshold, starts from an empty memo,
so it probes every live skill. That relies on the graph's copy-on-write
rule: every adjacency change binds a new tuple (see ``SkillGraph``).

The caller owns exclusivity: evolution mutates the graph in place, so readers
should hold a snapshot taken before or after the step, never during.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import chain, compress
from operator import is_not
from typing import Any, Callable, Collection, Iterator
from weakref import WeakKeyDictionary

from .errors import (
    ConfigInvalid, CycleWouldForm, ProposerError, ProposerParseError, SchemaViolation,
)
from .model import (
    GENERAL_CATEGORY, SKILL_TEXT_FIELDS, EdgeKey, EdgeKind, SkillGraph, SkillNode, edge_key,
)
from .persistence import TrajectoryRecord
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


def jaccard(a: set[str], b: Collection[str]) -> float:
    """Jaccard similarity of a set and a collection of distinct ids, with
    J(empty, empty) defined as 0. The quotient divides the same two integers
    as ``len(a & b) / len(a | b)``."""
    if not a and not b:
        return 0.0
    common = len(a.intersection(b))
    return common / (len(a) + len(b) - common)


def summarize_failures(failures: list[TrajectoryRecord]) -> list[FailureSummary]:
    return [
        FailureSummary(task=t.task_id, task_type=t.task_type, steps=list(t.steps))
        for t in failures[:MAX_FAILURES_PER_REQUEST]
    ]


def _node_view(node: SkillNode) -> dict[str, str]:
    return {name: getattr(node, name) for name in SKILL_TEXT_FIELDS}


def _ask(proposer: Proposer, request: ProposerRequest) -> list[SkillProposal] | None:
    """The valid proposals among the teacher's first ``request.max_items``,
    in its order, or None when the teacher is unreachable or unusable."""
    try:
        proposals = proposer.propose(request)
    except ProposerError as exc:
        cause = ("unusable teacher reply" if isinstance(exc, ProposerParseError)
                 else "proposer unavailable")
        logger.warning("%s degraded, %s: %s", request.kind, cause, exc)
        return None
    usable = []
    for proposal in proposals[:request.max_items]:
        try:
            proposal.validate()
            usable.append(proposal)
        except SchemaViolation as exc:
            logger.warning("dropping invalid %s proposal: %s", request.kind, exc)
    return usable


def _add_proposed(graph: SkillGraph, proposal: SkillProposal, category: str) -> str:
    """Add a proposed skill under the next dyn id, with zeroed statistics;
    ``category`` stands in when the proposal names none."""
    skill_id = graph.new_dynamic_id()
    graph.add_skill(SkillNode(
        skill_id=skill_id,
        title=proposal.title,
        principle=proposal.principle,
        when_to_apply=proposal.when_to_apply,
        category=proposal.category or category,
        created_step=graph.checkpoint_index,
    ))
    return skill_id


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
    inserted: list[str] = []
    for proposal in _ask(proposer, request) or []:
        title_key = proposal.title.strip().lower()
        if title_key in seen_titles:
            logger.info("dropping duplicate-title proposal %r", proposal.title)
            continue
        seen_titles.add(title_key)
        inserted.append(_add_proposed(graph, proposal, GENERAL_CATEGORY))
    return inserted


def _inherit_edge(graph: SkillGraph, key: EdgeKey, weight: float, old: str,
                  new: str) -> None:
    """Re-point one endpoint of an inherited edge, keeping the higher weight
    on collisions and dropping edges that would close a dependency cycle."""
    src, dst, kind = key
    src = new if src == old else src
    dst = new if dst == old else dst
    if src == dst:
        return
    existing = graph.weight(src, dst, kind)
    if existing is not None:
        graph.set_weight(edge_key(src, dst, kind), max(existing, weight))
        return
    try:
        graph.add_edge(src, dst, kind, weight)
    except CycleWouldForm:
        logger.info("dropping inherited edge %s->%s (%s): would form a cycle",
                    src, dst, kind.value)


def _rehome(graph: SkillGraph, old: str, target_of: Callable[[str], str],
            heir: str | None = None) -> None:
    """Remove ``old`` and hand each of its edges, heaviest first, to
    ``target_of(neighbor)`` through ``_inherit_edge``; ``heir`` takes over
    its co-appearance counts (see ``SkillGraph.remove_node``)."""
    edges = graph.edges()  # a live view: read the weights before remove_node
    weights = {key: edges[key] for key in graph.incident_edges(old)}
    graph.remove_node(old, heir=heir)
    for key in sorted(weights, key=lambda key: (-weights[key], key)):
        neighbor = key[1] if key[0] == old else key[0]
        _inherit_edge(graph, key, weights[key], old, target_of(neighbor))


def _rebound(now: dict, then: dict) -> Iterator[str]:
    """The keys of ``now`` whose value is not the very object ``then`` holds
    under them (None for a key it lacks)."""
    return compress(now, map(is_not, now.values(), map(then.get, now)))


# Each graph's last merge scan, kept in _LAST_SCANS. Per graph it holds the
# threshold; each skill's forward_neighbors and dependency_parents tuples, as
# they were read; each live skill's neighborhood, as a tuple (a fraction of a
# set's memory); and the candidate pairs found. Graphs are held weakly, so a
# snapshot() clone, a deep copy or a loaded graph starts from an empty memo,
# and a dropped graph frees its memo. Tuples are told apart by identity: no
# stored adjacency tuple is changed in place (a write binds a new one), so the
# very tuple read last time still holds the same keys. Deprecated flags are
# read afresh from the records at every scan, so a record written in place
# still shows its flip.
_LAST_SCANS: WeakKeyDictionary = WeakKeyDictionary()


def merge_candidates(graph: SkillGraph, threshold: float) -> list[tuple[str, str]]:
    """Live pairs (a < b) whose all-kind, both-way neighborhoods have
    ``jaccard >= threshold``, sorted.

    A threshold of 0 admits every pair, empty neighborhoods included, so it
    compares all pairs. A positive threshold starts from the graph's last
    scan at that threshold (see ``_LAST_SCANS``), or from an empty memo, and
    probes the dirty skills: those whose neighborhood can have changed. A
    neighborhood is a function of the skill's two adjacency tuples and the
    deprecated flags of the skills they name, so a skill is dirty where a
    tuple was rebound (an added skill counts), where it was live last time
    and is not now or the reverse, and where it neighbors such a flipped
    skill. A skill that was its neighbor before the flip and is not now lost
    that edge, which rebound its tuple too. With an empty memo every live
    skill is dirty. Pairs touching a dirty or a removed skill are dropped.

    Probing a dirty live skill ``d`` finds every pair (d, u) that reaches the
    threshold: J >= t needs ``|N(d) & N(u)| >= t|N(d)|``, so N(u) holds one
    of any ``|N(d)| - ceil(t|N(d)|) + 1`` ids of N(d), in any order; one more
    id covers float rounding. Neighborhoods are symmetric, so the partners
    are the neighbors of that many of d's neighbors, the smallest
    neighborhoods first, ties by id. A partner is compared only when its
    size passes the length filter ``min / max >= t`` (the rounded
    ``jaccard`` never exceeds the rounded size ratio, so it needs no
    margin), and a pair of two dirty skills only from its smaller id. The
    result is exactly that of comparing all pairs, in the same order.
    """
    live = {v for v, n in graph.nodes.items() if not n.deprecated}
    if not threshold > 0:
        ordered = sorted(live)
        neighborhoods = {v: graph.neighbors(v) for v in ordered}
        return [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]
                if jaccard(neighborhoods[a], neighborhoods[b]) >= threshold]
    outs, ins = map(dict, graph.adjacency())
    last = _LAST_SCANS.get(graph)
    if last is None or last[0] != threshold:
        last = (threshold, {}, {}, {}, ())
    _, last_outs, last_ins, last_neighborhoods, last_pairs = last
    gone = last_outs.keys() - outs.keys()
    flipped = (live ^ last_neighborhoods.keys()) - gone
    dirty = flipped.union(_rebound(outs, last_outs), _rebound(ins, last_ins))
    for v in flipped if last_neighborhoods else ():  # else every live skill flipped
        dirty.update(end for key in outs[v] + ins[v] for end in key[:2])
    touched = dirty | gone
    neighborhoods = {v: n for v, n in last_neighborhoods.items() if v not in touched}
    fresh = {d: graph.neighbors(d) for d in dirty & live}
    neighborhoods.update(zip(fresh, map(tuple, fresh.values())))
    size_of = dict(zip(neighborhoods, map(len, neighborhoods.values())))
    pairs = {pair for pair in last_pairs if touched.isdisjoint(pair)}
    for d, mine in fresh.items():
        size = size_of[d]
        # by (size, id): a stable sort by size of the ids in order, so the
        # prefix, and so the comparisons, do not follow the string hash seed
        prefix = sorted(sorted(mine), key=size_of.__getitem__)[
            :max(0, size - math.ceil(threshold * size) + 2)]
        for u in set(chain.from_iterable(map(neighborhoods.__getitem__, prefix))):
            other = size_of[u]
            if (u > d or u not in fresh) and \
                    (other / size if other < size else size / other) >= threshold \
                    and jaccard(mine, neighborhoods[u]) >= threshold:
                pairs.add((d, u) if d < u else (u, d))
    _LAST_SCANS[graph] = (threshold, outs, ins, neighborhoods, pairs)
    return sorted(pairs)


def merge_scan(graph: SkillGraph, proposer: Proposer,
               cfg: EvolutionConfig) -> list[tuple[str, list[str]]]:
    """Fold together skill pairs whose graph neighborhoods nearly coincide.

    Candidate pairs are fixed up front by ``merge_candidates``, exactly the
    pairs an all-pairs scan finds, in the same sorted order. It keeps the
    last scan's pairs among skills whose neighborhoods cannot have changed
    and probes the others through their neighbors' neighborhoods, with no
    inverted index and no full-scan fallback; a graph's first scan probes
    every live skill. A pair is skipped when either member was consumed
    earlier in the pass. The survivor keeps the lexicographically smaller
    id, takes the teacher's unified wording, inherits the union of both edge
    sets (higher weight wins on duplicates), and sums both statistics and
    both sets of co-appearance counts.
    """
    merges: list[tuple[str, list[str]]] = []
    consumed: set[str] = set()
    for a, b in merge_candidates(graph, cfg.merge_jaccard):
        if a in consumed or b in consumed:
            continue
        proposals = _ask(proposer, ProposerRequest(
            kind="merge",
            skill_pair=(_node_view(graph.nodes[a]), _node_view(graph.nodes[b])),
            max_items=1,
        ))
        if proposals is None:
            break
        if not proposals:
            continue
        unified = proposals[0]
        survivor, removed = graph.nodes[a], graph.nodes[b]
        category = {"category": unified.category} if unified.category else {}
        graph.replace_skill(a, title=unified.title, principle=unified.principle,
                            when_to_apply=unified.when_to_apply,
                            n_use=survivor.n_use + removed.n_use,
                            n_succ=survivor.n_succ + removed.n_succ, **category)
        _rehome(graph, b, lambda _: a, heir=a)
        consumed.update((a, b))
        merges.append((a, [b]))
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
    lo, hi = cfg.split_band
    targets = sorted(
        v for v, n in graph.nodes.items()
        if not n.deprecated and n.n_use >= cfg.split_min_uses
        and lo <= n.success_rate() <= hi
    )
    splits: list[tuple[str, list[str]]] = []
    for parent_id in targets:
        parent = graph.nodes[parent_id]
        usable = _ask(proposer, ProposerRequest(
            kind="split",
            skill=_node_view(parent),
            failure_contexts=failure_contexts[:MAX_FAILURES_PER_REQUEST],
            max_items=3,
        ))
        if usable is None:
            break
        if len(usable) < 2:
            logger.info("split of %s is a no-op (%d usable sub-skills)",
                        parent_id, len(usable))
            continue
        child_ids = [_add_proposed(graph, p, parent.category) for p in usable]
        for first, second in zip(child_ids, child_ids[1:]):
            graph.add_edge(first, second, EdgeKind.PREREQ, SPLIT_CHAIN_WEIGHT)

        # neighbor -> child chosen by the teacher, round-robin otherwise
        assignment: dict[str, str] = {}
        for child_id, proposal in zip(child_ids, usable):
            for neighbor in proposal.neighbor_assignment or []:
                assignment.setdefault(neighbor, child_id)
        neighbors = {dst if src == parent_id else src
                     for src, dst, _ in graph.incident_edges(parent_id)}
        for i, neighbor in enumerate(sorted(neighbors - set(assignment))):
            assignment[neighbor] = child_ids[i % len(child_ids)]
        _rehome(graph, parent_id, assignment.__getitem__)
        splits.append((parent_id, child_ids))
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
            graph.replace_skill(skill_id, deprecated=True)
            flagged.append(skill_id)
    return flagged


# ----------------------------------------------------------------------
# edge-level operations


def reinforce_paths(graph: SkillGraph, successes: list[TrajectoryRecord],
                    step: float) -> tuple[int, int]:
    """Additively strengthen every edge each successful episode traversed.

    Applied once per (edge, trajectory) pair and clamped at 1.0, so an edge
    shared by two winning episodes moves up twice. Returns (applications,
    stale skips); a stale edge is one that was pruned since retrieval. A
    ``step`` outside [0, 1] raises ConfigInvalid before any weight moves.
    """
    if not 0.0 <= step <= 1.0:
        raise ConfigInvalid(f"reinforce step must lie in [0, 1], got {step}")
    applied = 0
    stale = 0
    for record in successes:
        for src, dst, kind in record.traversed_edges:
            key = edge_key(src, dst, kind)
            weight = graph.weight(*key)
            if weight is None:
                stale += 1
                continue
            graph.set_weight(key, min(weight + step, 1.0))
            applied += 1
    return applied, stale


def discover_cooccur(graph: SkillGraph, successes: list[TrajectoryRecord],
                     min_count: int) -> int:
    """Connect skill pairs that keep showing up together in wins.

    Co-appearance counts accumulate across checkpoints and name only live
    skills (``remove_node`` and the snapshot load keep it so); once a pair
    reaches the threshold and is still unconnected by any edge kind, it gains
    a co_occur edge at the structural prior weight.

    A rollout group's records share one skill list, so the wins are first
    folded by list, and each distinct list is intersected with the live ids
    and sorted once. Lists that name the same live set (in another order,
    or with a merged-away id) fold again, in first-seen order, so each set
    is counted once, weighted by the wins that carry it, and the pairs enter
    ``co_counts`` in the order a pass over the records one by one would.
    Only the pairs at or above ``min_count`` are then walked, in sorted order.
    """
    wins_by_list: dict[tuple[str, ...], int] = {}
    for record in successes:
        ids = tuple(record.retrieved_skill_ids)
        wins_by_list[ids] = wins_by_list.get(ids, 0) + 1
    live = graph.nodes.keys()
    wins_by_ids: dict[tuple[str, ...], int] = {}
    for ids, wins in wins_by_list.items():
        # ids that vanished via merge or split never come back; don't count them
        ids = tuple(sorted(live & set(ids)))
        wins_by_ids[ids] = wins_by_ids.get(ids, 0) + wins
    co_counts = graph.co_counts
    for ids, wins in wins_by_ids.items():
        # sorted distinct ids, so (a, b) is already the canonical pair
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                co_counts[a, b] = co_counts.get((a, b), 0) + wins
    added = 0
    for a, b in sorted(pair for pair, count in co_counts.items() if count >= min_count):
        if graph.nodes[a].deprecated or graph.nodes[b].deprecated:
            continue
        if graph.has_any_edge(a, b):
            continue
        graph.add_edge(a, b, EdgeKind.CO_OCCUR, COOCCUR_DISCOVERY_WEIGHT)
        added += 1
    return added


def decay_and_prune(graph: SkillGraph, decay: float, floor: float) -> int:
    """Multiplicatively decay every weight, then drop edges below the floor.

    The decay is one ``SkillGraph.scale_weights`` write, the same floats a
    ``set_weight`` per edge stores; one scan then collects the edges below
    the floor, in edge order, for one ``remove_edges``. Nodes are never
    removed here, only edges. A ``decay`` or ``floor`` outside [0, 1] raises
    ConfigInvalid before any weight moves.
    """
    if not (0.0 <= decay <= 1.0 and 0.0 <= floor <= 1.0):
        raise ConfigInvalid(
            f"decay and floor must lie in [0, 1], got decay={decay}, floor={floor}")
    graph.scale_weights(decay)
    doomed = [key for key, weight in graph.edges().items() if weight < floor]
    graph.remove_edges(doomed)
    return len(doomed)


# ----------------------------------------------------------------------
# the checkpoint pipeline


def evolve_step(graph: SkillGraph, successes: list[TrajectoryRecord],
                failures: list[TrajectoryRecord], proposer: Proposer,
                cfg: EvolutionConfig) -> EvolutionReport:
    """Run one full evolution checkpoint in fixed order.

    insert -> merge -> split -> deprecate -> reinforce -> discover ->
    decay and prune, then advance the checkpoint counter. No stage reads a
    level, so levels are brought up to date once, at the end, and only below
    the skills whose dependency parents changed. Statistics for the window
    must already be folded in via ``update_stats``, and unlock events are
    appended afterwards: ``simulate.checkpoint`` does both.
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
    graph.ensure_levels()
    graph.checkpoint_index += 1
    return report
