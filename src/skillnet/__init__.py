"""Skill dependency graph engine.

Skills live as nodes in a typed, weighted directed graph. Retrieval walks
the graph to produce dependency-ordered skill sequences; trajectory feedback
evolves nodes and edges at every checkpoint; a curriculum gate unlocks
deeper levels as shallower ones are mastered. A seeded closed-loop simulator
drives all of it end to end without a language model.
"""

from .curriculum import CurriculumState, level_mean, maybe_unlock, smoothed_success
from .errors import SkillNetError
from .evolution import (
    EvolutionConfig,
    EvolutionReport,
    decay_and_prune,
    deprecate_scan,
    discover_cooccur,
    evolve_step,
    jaccard,
    merge_scan,
    reinforce_paths,
    scan_insert_trigger,
    split_scan,
)
from .model import (
    GENERAL_CATEGORY,
    EdgeKind,
    SkillEdge,
    SkillGraph,
    SkillNode,
)
from .persistence import (
    IngestResult,
    TrajectoryRecord,
    export_dot,
    graph_from_dict,
    graph_to_dict,
    ingest_trajectories,
    load_graph,
    save_graph,
    save_trajectories,
)
from .policy_math import group_advantages, grpo_objective
from .proposer import (
    FailureSummary,
    HttpProposer,
    Proposer,
    ProposerRequest,
    ScriptedProposer,
    SkillProposal,
    render_insert_prompt,
)
from .retrieval import (
    FailurePattern,
    RetrievalResult,
    TaskQuery,
    render_skill_block,
    retrieve,
    select_seeds,
    topo_order,
)
from .simulate import (
    ComparisonResult,
    ConceptMap,
    SimConfig,
    SimMetrics,
    SimProposer,
    SyntheticTask,
    TaskTypeSpec,
    compare_retrievers,
    default_sim_config,
    flat_retrieve,
    rollout,
    run_loop,
)

__version__ = "0.1.0"

__all__ = [
    "CurriculumState", "level_mean", "maybe_unlock", "smoothed_success",
    "SkillNetError",
    "EvolutionConfig", "EvolutionReport", "decay_and_prune", "deprecate_scan",
    "discover_cooccur", "evolve_step", "jaccard", "merge_scan",
    "reinforce_paths", "scan_insert_trigger", "split_scan",
    "GENERAL_CATEGORY", "EdgeKind", "SkillEdge", "SkillGraph", "SkillNode",
    "IngestResult", "TrajectoryRecord", "export_dot", "graph_from_dict",
    "graph_to_dict", "ingest_trajectories", "load_graph", "save_graph",
    "save_trajectories",
    "group_advantages", "grpo_objective",
    "FailureSummary", "HttpProposer", "Proposer", "ProposerRequest",
    "ScriptedProposer", "SkillProposal", "render_insert_prompt",
    "FailurePattern", "RetrievalResult", "TaskQuery", "render_skill_block",
    "retrieve", "select_seeds", "topo_order",
    "ComparisonResult", "ConceptMap", "SimConfig", "SimMetrics", "SimProposer",
    "SyntheticTask", "TaskTypeSpec", "compare_retrievers",
    "default_sim_config", "flat_retrieve", "rollout", "run_loop",
    "__version__",
]
