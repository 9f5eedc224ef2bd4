"""Skill dependency graph engine.

Skills live as nodes in a typed, weighted directed graph. Retrieval walks
the graph to produce dependency-ordered skill sequences; trajectory feedback
evolves nodes and edges at every checkpoint; a curriculum gate unlocks
deeper levels as shallower ones are mastered. A seeded closed-loop simulator
drives all of it end to end without a language model.

The exports below resolve on first use (PEP 562), so a command imports only
the modules it runs: ``retrieve`` never loads the simulator or the teacher.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "curriculum": ("CurriculumState", "level_mean", "maybe_unlock", "smoothed_success"),
    "errors": ("SkillNetError",),
    "evolution": ("EvolutionConfig", "EvolutionReport", "decay_and_prune",
                  "deprecate_scan", "discover_cooccur", "evolve_step", "jaccard",
                  "merge_scan", "reinforce_paths", "scan_insert_trigger",
                  "split_scan"),
    "model": ("GENERAL_CATEGORY", "EdgeKind", "SkillGraph", "SkillNode"),
    "persistence": ("IngestResult", "TrajectoryRecord", "export_dot",
                    "graph_from_dict", "graph_to_dict", "ingest_trajectories",
                    "load_graph", "save_graph", "save_trajectories"),
    "policy_math": ("group_advantages", "grpo_objective"),
    "proposer": ("FailureSummary", "HttpProposer", "Proposer", "ProposerRequest",
                 "ScriptedProposer", "SkillProposal", "render_insert_prompt"),
    "retrieval": ("FailurePattern", "RetrievalResult", "TaskQuery",
                  "render_skill_block", "retrieve", "select_seeds", "topo_order"),
    "simulate": ("ComparisonResult", "ConceptMap", "SimConfig", "SimMetrics",
                 "SimProposer", "SyntheticTask", "TaskTypeSpec",
                 "compare_retrievers", "default_sim_config", "flat_retrieve",
                 "rollout", "run_loop"),
}
# each exported name to the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
