"""Progressive unlocking of skill levels gated on smoothed success rates.

Starts from level 0 only. After a warmup number of checkpoints, each call to
``maybe_unlock`` raises the highest active level while the current top level
has mastered its skills, so several levels can open in one checkpoint. The
active-level pointer never decreases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigInvalid
from .model import SkillGraph, SkillNode

DEFAULT_WARMUP_LENGTH = 5
DEFAULT_UNLOCK_THRESHOLD = 0.6


@dataclass
class CurriculumParams:
    """The ``curriculum`` config section; each checkpoint builds a
    ``CurriculumState`` from it and the graph's checkpoint index."""

    warmup_length: int = DEFAULT_WARMUP_LENGTH
    unlock_threshold: float = DEFAULT_UNLOCK_THRESHOLD

    def validate(self) -> None:
        if self.warmup_length < 0:
            raise ConfigInvalid("curriculum.warmup_length must be >= 0")
        if not 0.0 <= self.unlock_threshold <= 1.0:
            raise ConfigInvalid("curriculum.unlock_threshold must lie in [0, 1]")


@dataclass
class CurriculumState:
    highest_active_level: int = 0
    warmup_length: int = DEFAULT_WARMUP_LENGTH
    warmup_steps_remaining: int = DEFAULT_WARMUP_LENGTH
    unlock_threshold: float = DEFAULT_UNLOCK_THRESHOLD


def smoothed_success(node: SkillNode) -> float:
    """Success rate under a Beta(1,1) prior: (n_succ + 1) / (n_use + 2).

    An unused skill sits at the prior mean 0.5 instead of an undefined ratio,
    which keeps freshly unlocked levels from cascading further on no evidence.
    """
    return (node.n_succ + 1) / (node.n_use + 2)


def level_mean(graph: SkillGraph, level: int) -> float | None:
    """Mean smoothed success of non-deprecated skills at a level.

    Returns None when the level holds no live skill; an empty level passes
    the unlock gate vacuously so the curriculum cannot deadlock on it.
    """
    values = [
        smoothed_success(node) for node in graph.nodes.values()
        if node.level == level and not node.deprecated
    ]
    if not values:
        return None
    return sum(values) / len(values)


def maybe_unlock(graph: SkillGraph, state: CurriculumState) -> list[int]:
    """Advance the active level while the current top level passes the gate.

    Each call counts as one checkpoint tick of warmup; no unlock can happen
    until ``warmup_length`` ticks have elapsed. Returns the newly unlocked
    level indices (possibly several, possibly none).
    """
    if state.warmup_steps_remaining > 0:
        state.warmup_steps_remaining -= 1
        return []
    graph.ensure_levels()
    state.highest_active_level = max(state.highest_active_level,
                                     graph.highest_active_level)
    unlocked: list[int] = []
    top = graph.max_level()
    while state.highest_active_level < top:
        current = state.highest_active_level
        mean = level_mean(graph, current)
        if mean is not None and mean < state.unlock_threshold:
            break
        state.highest_active_level = current + 1
        unlocked.append(current + 1)
    graph.highest_active_level = state.highest_active_level
    return unlocked
