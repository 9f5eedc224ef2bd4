"""Synthetic closed-loop driver standing in for a policy and environment.

Tasks carry a hidden ordered chain of latent concepts; skills cover concepts
via a concept map. A rollout succeeds with probability

    p = clamp(p0 + bonus * covered - penalty * order_inversions, 0, 1)

so both coverage and retrieval order matter. The loop feeds rollout
statistics and trajectories through the evolution and curriculum machinery
at every validation checkpoint and records the time series of graph health
metrics. Everything is a pure function of (config, seed): task streams,
rollout draws, and flat-arm shuffles each read dedicated rng streams derived
from the seed, so runs are reproducible and the two retriever arms of a
comparison see identical tasks and random draws.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any

from .curriculum import CurriculumParams, CurriculumState, maybe_unlock
from .errors import ConfigInvalid
from .evolution import EvolutionConfig, EvolutionReport, evolve_step
from .model import GENERAL_CATEGORY, SkillGraph, SkillNode
from .persistence import TrajectoryRecord
# never called here; bench/tracing.py still wraps these two names in this module
from .policy_math import group_advantages, grpo_objective  # noqa: F401
from .proposer import Proposer, ProposerRequest, SkillProposal
from .retrieval import RetrievalParams, RetrievalResult, TaskQuery, retrieve

MAX_CHAIN_LENGTH = 6

UNCOVERED_MARKER = "no skill guidance for "
INSERT_TITLE_PREFIX = "Handle "
SPLIT_TITLE_PREFIX = "Master "

CSV_COLUMNS = [
    "checkpoint", "nodes_total", "nodes_active", "inserted_cum",
    "deprecated_cum", "edges_prereq", "edges_enhance", "edges_cooccur",
    "mean_node_success", "mean_retrieved_len", "task_success",
]


@dataclass
class TaskTypeSpec:
    """One task category: its latent concept sequence and success model."""

    name: str
    canonical: list[str]
    base_success: float = 0.1
    per_hit_bonus: float = 0.15
    order_penalty: float = 0.1
    weight: float = 1.0
    chain_min: int = 1
    chain_max: int = 4

    def validate(self) -> None:
        if not self.name or self.name == GENERAL_CATEGORY:
            raise ConfigInvalid(f"bad task type name {self.name!r}")
        if not self.canonical:
            raise ConfigInvalid(f"type {self.name}: empty concept sequence")
        if not 1 <= self.chain_min <= self.chain_max <= MAX_CHAIN_LENGTH:
            raise ConfigInvalid(f"type {self.name}: chain bounds must satisfy "
                                f"1 <= min <= max <= {MAX_CHAIN_LENGTH}")
        if self.weight <= 0:
            raise ConfigInvalid(f"type {self.name}: weight must be positive")


@dataclass
class InitialSkillSpec:
    """A seed skill and the latent concepts it covers."""

    skill_id: str
    title: str
    category: str
    concepts: list[str] = field(default_factory=list)
    principle: str = ""
    when_to_apply: str = ""


@dataclass
class SyntheticTask:
    """One generated episode description."""

    task_id: str
    task_type: str
    required_chain: list[str]
    base_success: float
    per_hit_bonus: float
    order_penalty: float

    def __post_init__(self) -> None:
        if not 1 <= len(self.required_chain) <= MAX_CHAIN_LENGTH:
            raise ConfigInvalid(
                f"task {self.task_id}: chain length {len(self.required_chain)} "
                f"outside 1..{MAX_CHAIN_LENGTH}")


class ConceptMap:
    """Which skills cover which latent concepts."""

    def __init__(self) -> None:
        self._covering: dict[str, set[str]] = {}

    def bind(self, concept: str, skill_id: str) -> None:
        self._covering.setdefault(concept, set()).add(skill_id)

    def covering(self, concept: str) -> set[str]:
        return self._covering.get(concept, set())

    def concepts_of(self, skill_id: str) -> list[str]:
        return sorted(c for c, ids in self._covering.items() if skill_id in ids)


# Marks a setting owned by a top-level config section: the config file sets
# it there, and the simulation section cannot.
SHARED = {"shared": True}


@dataclass
class SimConfig:
    """The synthetic world and the loop, plus the sections the loop reads."""

    types: list[TaskTypeSpec]
    initial_skills: list[InitialSkillSpec]
    steps: int = 250
    tasks_per_step: int = 6
    group_size: int = 8
    validation_frequency: int = 5
    retrieval: RetrievalParams = field(default_factory=RetrievalParams,
                                       metadata=SHARED)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig,
                                       metadata=SHARED)
    curriculum: CurriculumParams = field(default_factory=CurriculumParams,
                                         metadata=SHARED)

    def validate(self) -> None:
        if not self.types:
            raise ConfigInvalid("simulation needs at least one task type")
        for spec in self.types:
            spec.validate()
            if spec.chain_max > len(spec.canonical):
                raise ConfigInvalid(
                    f"type {spec.name}: chain_max exceeds concept count")
        names = [t.name for t in self.types]
        if len(set(names)) != len(names):
            raise ConfigInvalid("duplicate task type names")
        ids = [s.skill_id for s in self.initial_skills]
        if len(set(ids)) != len(ids):
            raise ConfigInvalid("duplicate initial skill ids")
        known = set(names) | {GENERAL_CATEGORY}
        for skill in self.initial_skills:
            if skill.category not in known:
                raise ConfigInvalid(
                    f"skill {skill.skill_id}: unknown category {skill.category!r}")
        if self.steps < 0 or self.tasks_per_step < 1 or self.group_size < 1:
            raise ConfigInvalid("steps/tasks_per_step/group_size out of range")
        if self.validation_frequency < 1:
            raise ConfigInvalid("validation_frequency must be >= 1")


def default_sim_config() -> SimConfig:
    """The standard desk-scale run.

    Four task families exercise the whole loop, and the starter library has
    no general skills, so every starter stays at level 0 and is usable from
    the first step. "prep" and "assemble" heal to high success and anchor
    level-0 mastery; "inspect" has a low bonus ceiling that parks its skills
    in the split band, so its broad starter decomposes into a prereq chain
    whose deeper links wait on unlocking; "calibrate" has a ceiling below
    the deprecation bar, so its skills churn through insert and deprecate
    for the whole run.
    """
    types = [
        TaskTypeSpec(
            name="prep",
            canonical=["rinse_tools", "lay_out_parts", "stage_workspace"],
            base_success=0.25, per_hit_bonus=0.30, order_penalty=0.05,
            weight=4.0, chain_min=2, chain_max=3),
        TaskTypeSpec(
            name="assemble",
            canonical=["sort_fasteners", "align_frame", "attach_panels",
                       "wire_harness", "seal_joints"],
            base_success=0.10, per_hit_bonus=0.22, order_penalty=0.10,
            weight=3.0, chain_min=4, chain_max=5),
        TaskTypeSpec(
            name="inspect",
            canonical=["check_seams", "measure_gaps", "log_defects", "verify_fit"],
            base_success=0.12, per_hit_bonus=0.072, order_penalty=0.10,
            weight=2.0, chain_min=3, chain_max=4),
        TaskTypeSpec(
            name="calibrate",
            canonical=["zero_scale", "warm_sensor", "match_reference",
                       "record_drift"],
            base_success=0.05, per_hit_bonus=0.02, order_penalty=0.05,
            weight=1.0, chain_min=3, chain_max=4),
    ]
    skills = [
        InitialSkillSpec(
            skill_id="prep_rinse", title="Rinse tools first", category="prep",
            concepts=["rinse_tools"],
            principle="Clean residue off tools before staging",
            when_to_apply="Preparation work with used tools"),
        InitialSkillSpec(
            skill_id="prep_layout", title="Lay out parts", category="prep",
            concepts=["lay_out_parts"],
            principle="Arrange parts in work order on the bench",
            when_to_apply="Before assembly begins"),
        InitialSkillSpec(
            skill_id="asm_walkthrough", title="Start assembly carefully",
            category="assemble",
            concepts=["sort_fasteners", "align_frame"],
            principle="Sort fasteners and align the frame before building up",
            when_to_apply="Opening phase of an assembly task"),
        InitialSkillSpec(
            skill_id="asm_tidy", title="Keep workbench tidy",
            category="assemble",
            principle="Return tools to their place between steps",
            when_to_apply="Any assembly session"),
        InitialSkillSpec(
            skill_id="ins_routine", title="Basic inspection routine",
            category="inspect",
            concepts=["check_seams", "measure_gaps", "log_defects"],
            principle="Walk seams, measure gaps, and log every defect found",
            when_to_apply="Inspecting an assembled unit"),
        InitialSkillSpec(
            skill_id="ins_notes", title="Keep inspection notes",
            category="inspect",
            principle="Write down anything that looks off",
            when_to_apply="Any inspection pass"),
        InitialSkillSpec(
            skill_id="cal_zero", title="Legacy zeroing ritual",
            category="calibrate",
            concepts=["zero_scale"],
            principle="Zero the scale using the long-form procedure",
            when_to_apply="Calibration session start"),
        InitialSkillSpec(
            skill_id="cal_warm", title="Old warmup checklist",
            category="calibrate",
            concepts=["warm_sensor"],
            principle="Run the warmup checklist top to bottom",
            when_to_apply="Cold calibration hardware"),
    ]
    return SimConfig(types=types, initial_skills=skills)


# ----------------------------------------------------------------------
# simulated teacher


class SimProposer(Proposer):
    """Closed-loop teacher stand-in.

    Inserts bind new skills to concepts that recent failures flagged as
    uncovered; splits decompose a multi-concept skill into per-concept
    sub-skills in canonical order; merges produce a combined wording.
    Deterministic given the request and the current concept map.
    """

    def __init__(self, concept_map: ConceptMap,
                 canonical_by_type: dict[str, list[str]]):
        self.concept_map = concept_map
        self.canonical_by_type = canonical_by_type

    def propose(self, request: ProposerRequest) -> list[SkillProposal]:
        if request.kind == "insert":
            return self._propose_insert(request)
        if request.kind == "merge":
            return self._propose_merge(request)
        return self._propose_split(request)

    def _propose_insert(self, request: ProposerRequest) -> list[SkillProposal]:
        existing = {t.strip().lower() for t in request.existing_titles}
        picks: list[tuple[str, str]] = []
        seen: set[str] = set()
        for summary in request.failure_summaries:
            for step in summary.steps:
                observation = step.get("observation", "")
                if not observation.startswith(UNCOVERED_MARKER):
                    continue
                concept = observation[len(UNCOVERED_MARKER):]
                title = f"{INSERT_TITLE_PREFIX}{concept}"
                if concept in seen or title.lower() in existing:
                    continue
                seen.add(concept)
                picks.append((concept, summary.task_type))
        proposals = []
        for i, (concept, task_type) in enumerate(picks[:request.max_items]):
            proposals.append(SkillProposal(
                skill_id=f"proposal_{i}",
                title=f"{INSERT_TITLE_PREFIX}{concept}",
                principle=f"Apply the {concept.replace('_', ' ')} procedure "
                          f"deliberately before moving on",
                when_to_apply=f"The task calls for {concept.replace('_', ' ')}",
                category=task_type,
            ))
        return proposals

    def _propose_merge(self, request: ProposerRequest) -> list[SkillProposal]:
        first, second = request.skill_pair
        # the neighborhood trigger is structural; the teacher is the semantic
        # judge and declines pairs that are not actually redundant
        if first.get("category") != second.get("category"):
            return []
        if (self.concept_map.concepts_of(first["skill_id"])
                != self.concept_map.concepts_of(second["skill_id"])):
            return []
        title = f"{first['title']} & {second['title']}"[:80]
        return [SkillProposal(
            skill_id="proposal_0",
            title=title,
            principle=f"{first['principle']}; also {second['principle']}"[:400],
            when_to_apply=first["when_to_apply"] or second["when_to_apply"],
            category=first.get("category") or second.get("category"),
        )]

    def _propose_split(self, request: ProposerRequest) -> list[SkillProposal]:
        skill = request.skill
        concepts = self.concept_map.concepts_of(skill["skill_id"])
        canonical = self.canonical_by_type.get(skill.get("category", ""), [])
        ordered = [c for c in canonical if c in concepts]
        ordered += [c for c in concepts if c not in canonical]
        if len(ordered) < 2:
            return []
        proposals = []
        for i, concept in enumerate(ordered[:3]):
            proposals.append(SkillProposal(
                skill_id=f"proposal_{i}",
                title=f"{SPLIT_TITLE_PREFIX}{concept}",
                principle=f"Concentrate on {concept.replace('_', ' ')} as its "
                          f"own step",
                when_to_apply=f"The {concept.replace('_', ' ')} stage is next",
                category=skill.get("category"),
            ))
        return proposals

    def bind_from_report(self, graph: SkillGraph, report: EvolutionReport) -> None:
        """Attach concept coverage to the nodes a checkpoint created."""
        for skill_id in report.inserted:
            self._bind_by_title(graph, skill_id, INSERT_TITLE_PREFIX)
        for _, children in report.split:
            for child in children:
                self._bind_by_title(graph, child, SPLIT_TITLE_PREFIX)
        for kept, removed in report.merged:
            for gone in removed:
                for concept in self.concept_map.concepts_of(gone):
                    self.concept_map.bind(concept, kept)

    def _bind_by_title(self, graph: SkillGraph, skill_id: str, prefix: str) -> None:
        node = graph.nodes.get(skill_id)
        if node is not None and node.title.startswith(prefix):
            self.concept_map.bind(node.title[len(prefix):], skill_id)


# ----------------------------------------------------------------------
# rollouts


def rollout(task: SyntheticTask, result: RetrievalResult,
            concept_map: ConceptMap, rng: random.Random) -> TrajectoryRecord:
    """Simulate one episode against the retrieved skill sequence.

    Coverage counts chain positions some retrieved skill covers; ordering
    violations are inverted pairs of covered positions, judged by the first
    covering skill's position in the sequence. One uniform draw decides
    success, so paired runs consuming the same rng stay aligned.
    """
    retrieved = result.ordered_skills
    position_of = {sid: i for i, sid in enumerate(retrieved)}
    cover_index: list[int | None] = []
    for concept in task.required_chain:
        indices = [position_of[s] for s in concept_map.covering(concept)
                   if s in position_of]
        cover_index.append(min(indices) if indices else None)
    covered = [i for i, idx in enumerate(cover_index) if idx is not None]
    inversions = sum(
        1
        for a in range(len(covered))
        for b in range(a + 1, len(covered))
        if cover_index[covered[a]] > cover_index[covered[b]]
    )
    p = task.base_success + task.per_hit_bonus * len(covered) \
        - task.order_penalty * inversions
    p = min(1.0, max(0.0, p))
    success = rng.random() < p

    steps = []
    for i, concept in enumerate(task.required_chain):
        if cover_index[i] is not None:
            observation = "followed skill guidance"
        else:
            observation = f"{UNCOVERED_MARKER}{concept}"
        steps.append({"action": f"attempt {concept}", "observation": observation})

    return TrajectoryRecord(
        task_id=task.task_id,
        task_type=task.task_type,
        retrieved_skill_ids=list(retrieved),
        traversed_edges=[(src, dst, kind.value)
                         for src, dst, kind in sorted(result.traversed_edges)],
        steps=steps,
        success=success,
    )


def flat_retrieve(graph: SkillGraph, task_type: str, k_max: int,
                  shuffle_rng: random.Random) -> RetrievalResult:
    """Order-agnostic baseline retriever.

    Ranks the library by closeness of category match (exact type, then
    general, then everything else), fills up to k_max like a dense top-K
    retriever would, and presents the result in random order since flat
    retrieval carries no dependency information. Ignores levels; skips
    deprecated skills.
    """
    def tier(node: SkillNode) -> int:
        if node.category == task_type:
            return 0
        if node.is_general():
            return 1
        return 2

    ranked = sorted(
        (v for v, n in graph.nodes.items() if not n.deprecated),
        key=lambda v: (tier(graph.nodes[v]), v),
    )
    selected = ranked[:k_max] if k_max >= 0 else ranked
    shuffle_rng.shuffle(selected)
    return RetrievalResult(
        ordered_skills=selected,
        scores={},
        seed_count=len(selected),
        bfs_count=0,
        beam_count=0,
        capped=len(ranked) > len(selected),
        traversed_edges=set(),
    )


# ----------------------------------------------------------------------
# the loop


@dataclass
class MetricsRow:
    checkpoint: int
    nodes_total: int
    nodes_active: int
    inserted_cum: int
    deprecated_cum: int
    edges_prereq: int
    edges_enhance: int
    edges_cooccur: int
    mean_node_success: float
    mean_retrieved_len: float
    task_success: float

    def to_csv_line(self) -> str:
        return (f"{self.checkpoint},{self.nodes_total},{self.nodes_active},"
                f"{self.inserted_cum},{self.deprecated_cum},{self.edges_prereq},"
                f"{self.edges_enhance},{self.edges_cooccur},"
                f"{self.mean_node_success:.6f},{self.mean_retrieved_len:.6f},"
                f"{self.task_success:.6f}")


@dataclass
class SimMetrics:
    rows: list[MetricsRow] = field(default_factory=list)
    reports: list[EvolutionReport] = field(default_factory=list)
    initial_nodes: int = 0
    tasks: int = 0
    rollouts: int = 0
    successes: int = 0
    long_chain_rollouts: int = 0       # tasks with chain length >= 3
    long_chain_successes: int = 0
    retrieved_len_sum: int = 0

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines += [row.to_csv_line() for row in self.rows]
        return "\n".join(lines) + "\n"

    @property
    def task_success_rate(self) -> float:
        return self.successes / self.rollouts if self.rollouts else 0.0

    @property
    def long_chain_success_rate(self) -> float:
        if not self.long_chain_rollouts:
            return 0.0
        return self.long_chain_successes / self.long_chain_rollouts

    @property
    def mean_retrieved_len(self) -> float:
        return self.retrieved_len_sum / self.tasks if self.tasks else 0.0


def build_initial_graph(config: SimConfig) -> tuple[SkillGraph, ConceptMap]:
    graph = SkillGraph()
    concept_map = ConceptMap()
    for spec in config.initial_skills:
        graph.add_skill(SkillNode(
            skill_id=spec.skill_id,
            title=spec.title,
            principle=spec.principle or f"Use the {spec.title} approach",
            when_to_apply=spec.when_to_apply or "When the situation matches",
            category=spec.category,
        ))
        for concept in spec.concepts:
            concept_map.bind(concept, spec.skill_id)
    graph.init_edges()
    graph.compute_levels()
    return graph, concept_map


def _sample_task(config: SimConfig, rng: random.Random, index: int) -> SyntheticTask:
    spec = rng.choices(config.types, weights=[t.weight for t in config.types])[0]
    length = rng.randint(spec.chain_min, min(spec.chain_max, len(spec.canonical)))
    positions = sorted(rng.sample(range(len(spec.canonical)), length))
    return SyntheticTask(
        task_id=f"t{index:06d}",
        task_type=spec.name,
        required_chain=[spec.canonical[p] for p in positions],
        base_success=spec.base_success,
        per_hit_bonus=spec.per_hit_bonus,
        order_penalty=spec.order_penalty,
    )


def run_loop(config: SimConfig, seed: int,
             retriever: str = "graph") -> tuple[SimMetrics, SkillGraph]:
    """Run the full closed loop and return the metric series and final graph.

    retriever selects the arm: "graph" uses dependency-aware retrieval,
    "flat" the order-agnostic baseline. Evolution and curriculum run in both
    arms; only retrieval differs.
    """
    if retriever not in ("graph", "flat"):
        raise ConfigInvalid(f"unknown retriever {retriever!r}")
    config.validate()
    graph, concept_map = build_initial_graph(config)
    proposer = SimProposer(concept_map,
                           {t.name: list(t.canonical) for t in config.types})
    params = config.retrieval
    curriculum = CurriculumState(
        warmup_length=config.curriculum.warmup_length,
        warmup_steps_remaining=config.curriculum.warmup_length,
        unlock_threshold=config.curriculum.unlock_threshold,
    )
    metrics = SimMetrics(initial_nodes=len(graph.nodes))
    task_rng = random.Random(f"{seed}/tasks")

    window: list[TrajectoryRecord] = []
    window_lens: list[int] = []
    stats_batch: list[tuple[str, bool, bool]] = []
    inserted_cum = 0
    deprecated_cum = 0
    task_index = 0

    for step in range(1, config.steps + 1):
        for _ in range(config.tasks_per_step):
            task = _sample_task(config, task_rng, task_index)
            if retriever == "graph":
                result = retrieve(graph, TaskQuery(task.task_id, task.task_type),
                                  depth=params.depth,
                                  beam_width=params.beam_width,
                                  k_max=params.k_max)
            else:
                result = flat_retrieve(graph, task.task_type, params.k_max,
                                       random.Random(f"{seed}/flat/{task_index}"))
            roll_rng = random.Random(f"{seed}/roll/{task_index}")
            for _ in range(config.group_size):
                record = rollout(task, result, concept_map, roll_rng)
                record.checkpoint_index = len(metrics.rows)
                window.append(record)
                for skill_id in result.ordered_skills:
                    stats_batch.append((skill_id, True, record.success))
                metrics.rollouts += 1
                metrics.successes += int(record.success)
                if len(task.required_chain) >= 3:
                    metrics.long_chain_rollouts += 1
                    metrics.long_chain_successes += int(record.success)
            window_lens.append(len(result.ordered_skills))
            metrics.tasks += 1
            metrics.retrieved_len_sum += len(result.ordered_skills)
            task_index += 1

        if step % config.validation_frequency != 0:
            continue

        graph.update_stats(stats_batch)
        stats_batch = []
        successes = [r for r in window if r.success]
        failures = [r for r in window if not r.success]
        report = evolve_step(graph, successes, failures, proposer,
                             config.evolution)
        proposer.bind_from_report(graph, report)
        report.unlock_events = maybe_unlock(graph, curriculum)
        metrics.reports.append(report)

        inserted_cum += len(report.inserted)
        deprecated_cum += len(report.deprecated)
        live = [n for n in graph.nodes.values()
                if not n.deprecated and n.n_use > 0]
        mean_success = (sum(n.success_rate() for n in live) / len(live)
                        if live else 0.0)
        edge_counts = {kind: 0 for kind in ("prereq", "enhance", "co_occur")}
        for edge in graph.edges():
            edge_counts[edge.kind.value] += 1
        metrics.rows.append(MetricsRow(
            checkpoint=graph.checkpoint_index,
            nodes_total=len(graph.nodes),
            nodes_active=len(graph.active_ids()),
            inserted_cum=inserted_cum,
            deprecated_cum=deprecated_cum,
            edges_prereq=edge_counts["prereq"],
            edges_enhance=edge_counts["enhance"],
            edges_cooccur=edge_counts["co_occur"],
            mean_node_success=mean_success,
            mean_retrieved_len=(sum(window_lens) / len(window_lens)
                                if window_lens else 0.0),
            task_success=(sum(1 for r in window if r.success) / len(window)
                          if window else 0.0),
        ))
        window = []
        window_lens = []

    return metrics, graph


@dataclass
class ArmStats:
    task_success: float
    long_chain_success: float
    mean_retrieved_len: float
    tasks: int
    rollouts: int
    long_chain_rollouts: int


@dataclass
class ComparisonResult:
    graph_arm: ArmStats
    flat_arm: ArmStats

    def to_dict(self) -> dict[str, Any]:
        return {"graph": asdict(self.graph_arm), "flat": asdict(self.flat_arm)}


def _arm_stats(metrics: SimMetrics) -> ArmStats:
    return ArmStats(
        task_success=metrics.task_success_rate,
        long_chain_success=metrics.long_chain_success_rate,
        mean_retrieved_len=metrics.mean_retrieved_len,
        tasks=metrics.tasks,
        rollouts=metrics.rollouts,
        long_chain_rollouts=metrics.long_chain_rollouts,
    )


def compare_retrievers(config: SimConfig, seed: int) -> ComparisonResult:
    """Run both retriever arms on an identical task stream and rng.

    Each arm evolves its own graph; tasks, rollout draws, and shuffles come
    from per-purpose rng streams derived from the seed, so the comparison is
    paired sample by sample.
    """
    graph_metrics, _ = run_loop(config, seed, retriever="graph")
    flat_metrics, _ = run_loop(config, seed, retriever="flat")
    return ComparisonResult(_arm_stats(graph_metrics), _arm_stats(flat_metrics))
