"""Closed-loop simulator: rollout arithmetic, determinism, loop dynamics."""

from __future__ import annotations

import random

import pytest

from skillnet import (
    ConceptMap,
    RetrievalResult,
    SimConfig,
    SyntheticTask,
    TaskTypeSpec,
    compare_retrievers,
    default_sim_config,
    flat_retrieve,
    rollout,
    run_loop,
)
from skillnet.config import load_section
from skillnet.errors import ConfigInvalid
from skillnet.retrieval import RetrievalParams
from skillnet.simulate import InitialSkillSpec, build_initial_graph


def task(chain: list[str], p0: float = 0.1, bonus: float = 0.2,
         penalty: float = 0.15) -> SyntheticTask:
    return SyntheticTask(
        task_id="t0", task_type="clean", required_chain=chain,
        base_success=p0, per_hit_bonus=bonus, order_penalty=penalty)


def retrieval(ordered: list[str]) -> RetrievalResult:
    return RetrievalResult(ordered_skills=ordered, scores={},
                           seed_count=len(ordered), bfs_count=0,
                           beam_count=0, capped=False)


def bound_map(pairs: dict[str, str]) -> ConceptMap:
    concept_map = ConceptMap()
    for concept, skill in pairs.items():
        concept_map.bind(concept, skill)
    return concept_map


class ProbabilityProbe(random.Random):
    """rng whose first uniform draw is fixed, to read the success threshold."""

    def __init__(self, value: float):
        super().__init__(0)
        self.value = value

    def random(self):
        return self.value


def success_probability(t: SyntheticTask, result: RetrievalResult,
                        concept_map: ConceptMap) -> float:
    """Recover p by bisecting the Bernoulli threshold."""
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2
        record = rollout(t, result, concept_map, ProbabilityProbe(mid))
        if record.success:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestRolloutArithmetic:
    def test_full_coverage_correct_order(self):
        chain = ["c1", "c2", "c3", "c4"]
        concept_map = bound_map({c: f"s_{c}" for c in chain})
        result = retrieval([f"s_{c}" for c in chain])
        p = success_probability(task(chain, p0=0.1, bonus=0.2), result,
                                concept_map)
        assert p == pytest.approx(0.9, abs=1e-6)

    def test_empty_retrieval_base_rate(self):
        chain = ["c1", "c2"]
        p = success_probability(task(chain, p0=0.1), retrieval([]),
                                ConceptMap())
        assert p == pytest.approx(0.1, abs=1e-6)

    def test_reversed_order_penalized(self):
        chain = ["c1", "c2", "c3"]
        concept_map = bound_map({c: f"s_{c}" for c in chain})
        result = retrieval([f"s_{c}" for c in reversed(chain)])
        # p0 + 3 hits * 0.2 = 0.9 minus 3 inversions * 0.15 = 0.45
        p = success_probability(
            task(chain, p0=0.3, bonus=0.2, penalty=0.15), result, concept_map)
        assert p == pytest.approx(0.45, abs=1e-6)

    def test_one_skill_covering_everything_has_no_inversions(self):
        chain = ["c1", "c2", "c3"]
        concept_map = ConceptMap()
        for c in chain:
            concept_map.bind(c, "mega")
        p = success_probability(
            task(chain, p0=0.1, bonus=0.2, penalty=0.15),
            retrieval(["mega"]), concept_map)
        assert p == pytest.approx(0.7, abs=1e-6)

    def test_probability_clamped(self):
        chain = ["c1"] * 0 or ["c1"]
        concept_map = bound_map({"c1": "s"})
        p = success_probability(task(chain, p0=0.95, bonus=0.5),
                                retrieval(["s"]), concept_map)
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_uncovered_steps_flagged_for_teacher(self):
        chain = ["c1", "c2"]
        concept_map = bound_map({"c1": "s"})
        record = rollout(task(chain), retrieval(["s"]), concept_map,
                         random.Random(0))
        observations = [s["observation"] for s in record.steps]
        assert observations[0] == "followed skill guidance"
        assert observations[1] == "no skill guidance for c2"

    def test_chain_length_bounds_enforced(self):
        with pytest.raises(ConfigInvalid):
            SyntheticTask("t", "clean", [], 0.1, 0.1, 0.1)
        with pytest.raises(ConfigInvalid):
            SyntheticTask("t", "clean", [f"c{i}" for i in range(7)],
                          0.1, 0.1, 0.1)


class TestFlatRetrieve:
    def test_rank_tiers_then_fill(self):
        config = default_sim_config()
        graph, _ = build_initial_graph(config)
        result = flat_retrieve(graph, "inspect", 8, random.Random(1))
        assert len(result.ordered_skills) == 8
        picked = set(result.ordered_skills)
        # both inspect skills precede the padding
        assert {"ins_routine", "ins_notes"} <= picked

    def test_order_is_shuffled_not_informative(self):
        config = default_sim_config()
        graph, _ = build_initial_graph(config)
        orders = {tuple(flat_retrieve(graph, "inspect", 8,
                                      random.Random(seed)).ordered_skills)
                  for seed in range(20)}
        assert len(orders) > 1

    def test_k_max_zero(self):
        config = default_sim_config()
        graph, _ = build_initial_graph(config)
        result = flat_retrieve(graph, "inspect", 0, random.Random(1))
        assert result.ordered_skills == []

    def test_deprecated_excluded(self):
        config = default_sim_config()
        graph, _ = build_initial_graph(config)
        graph.nodes["ins_routine"].deprecated = True
        result = flat_retrieve(graph, "inspect", 20, random.Random(1))
        assert "ins_routine" not in result.ordered_skills


def tiny_config(**overrides) -> SimConfig:
    config = default_sim_config()
    config.steps = overrides.pop("steps", 25)
    config.tasks_per_step = overrides.pop("tasks_per_step", 4)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestRunLoop:
    def test_zero_checkpoints(self):
        config = tiny_config(steps=3, validation_frequency=5)
        metrics, graph = run_loop(config, 1)
        assert metrics.rows == []
        assert len(graph.nodes) == len(config.initial_skills)
        assert graph.checkpoint_index == 0

    def test_metrics_csv_deterministic(self):
        config = tiny_config()
        first, _ = run_loop(config, 9)
        second, _ = run_loop(tiny_config(), 9)
        assert first.to_csv() == second.to_csv()

    def test_different_seeds_differ(self):
        first, _ = run_loop(tiny_config(), 1)
        second, _ = run_loop(tiny_config(), 2)
        assert first.to_csv() != second.to_csv()

    def test_node_accounting_reconciles(self):
        config = tiny_config(steps=50)
        metrics, _ = run_loop(config, 5)
        expected = metrics.initial_nodes
        for row, report in zip(metrics.rows, metrics.reports):
            expected += len(report.inserted)
            expected += sum(len(children) - 1 for _, children in report.split)
            expected -= sum(len(gone) for _, gone in report.merged)
            assert row.nodes_total == expected

    def test_cumulative_columns_monotone(self):
        metrics, _ = run_loop(tiny_config(steps=50), 5)
        for field in ("inserted_cum", "deprecated_cum"):
            series = [getattr(r, field) for r in metrics.rows]
            assert all(b >= a for a, b in zip(series, series[1:]))

    def test_no_locked_skill_retrieved_before_first_unlock(self, monkeypatch):
        """Curriculum effect: until the first unlock, every retrieved skill
        sits at level 0, and retrieval always respects the active level."""
        import skillnet.simulate as simulate_mod
        real_retrieve = simulate_mod.retrieve
        seen: list[tuple[int, int]] = []

        def spying_retrieve(graph, query, **kwargs):
            result = real_retrieve(graph, query, **kwargs)
            for skill_id in result.ordered_skills:
                seen.append((graph.highest_active_level,
                             graph.nodes[skill_id].level))
            return result

        monkeypatch.setattr(simulate_mod, "retrieve", spying_retrieve)
        config = tiny_config(steps=80)
        metrics, _ = run_loop(config, 11)
        assert seen
        for active_level, node_level in seen:
            assert node_level <= active_level
            if active_level == 0:
                assert node_level == 0
        unlock_ckpt = next((i for i, r in enumerate(metrics.reports)
                            if r.unlock_events), None)
        if unlock_ckpt is not None:
            assert unlock_ckpt >= config.curriculum.warmup_length

    def test_unknown_retriever_rejected(self):
        with pytest.raises(ConfigInvalid):
            run_loop(tiny_config(), 1, retriever="embedding")

    def test_config_validation(self):
        config = tiny_config()
        config.types = []
        with pytest.raises(ConfigInvalid):
            run_loop(config, 1)

    def test_from_dict_round_trip_defaults(self):
        def load(obj):
            return load_section(obj, SimConfig, "simulation", default_sim_config())

        assert load({}).steps == default_sim_config().steps
        custom = load({"steps": 7, "group_size": 2})
        assert custom.steps == 7 and custom.group_size == 2
        with pytest.raises(ConfigInvalid):
            load({"stepz": 7})


class TestCrossProcessDeterminism:
    def test_cli_simulate_byte_identical_across_processes(self, tmp_path):
        import json
        import subprocess
        import sys

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "simulation": {"steps": 25, "tasks_per_step": 3}}))
        outputs = []
        for run in range(2):
            out = tmp_path / f"metrics_{run}.csv"
            result = subprocess.run(
                [sys.executable, "-m", "skillnet.cli", "simulate",
                 "--config", str(config), "--seed", "13",
                 "--out", str(out)],
                capture_output=True, timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestCompareRetrievers:
    def test_single_concept_tasks_equalize_arms(self):
        """With chain length 1, no order term and identical coverage: the
        paired draws make both arms identical."""
        types = [
            TaskTypeSpec(name="alpha", canonical=["a1", "a2"],
                         base_success=0.2, per_hit_bonus=0.3,
                         order_penalty=0.2, weight=1.0,
                         chain_min=1, chain_max=1),
            TaskTypeSpec(name="beta", canonical=["b1", "b2"],
                         base_success=0.2, per_hit_bonus=0.3,
                         order_penalty=0.2, weight=1.0,
                         chain_min=1, chain_max=1),
        ]
        skills = [
            InitialSkillSpec(skill_id=f"{t}_{c}", title=f"Cover {c}",
                             category=t, concepts=[c])
            for t, cs in (("alpha", ["a1", "a2"]), ("beta", ["b1", "b2"]))
            for c in cs
        ]
        config = SimConfig(types=types, initial_skills=skills, steps=40,
                           tasks_per_step=4, group_size=4)
        outcome = compare_retrievers(config, 3)
        assert outcome.graph_arm.task_success == \
            pytest.approx(outcome.flat_arm.task_success, abs=1e-12)

    def test_k_max_zero_reduces_both_arms_to_base_rate(self):
        config = tiny_config(steps=40, retrieval=RetrievalParams(k_max=0))
        outcome = compare_retrievers(config, 3)
        # base rates weighted by the type mix sit well under 0.2
        assert outcome.graph_arm.task_success == \
            pytest.approx(outcome.flat_arm.task_success, abs=1e-12)
        assert outcome.graph_arm.task_success < 0.25
        assert outcome.graph_arm.mean_retrieved_len == 0.0

    def test_paired_arms_share_task_stream(self):
        outcome = compare_retrievers(tiny_config(), 4)
        assert outcome.graph_arm.tasks == outcome.flat_arm.tasks
        assert outcome.graph_arm.long_chain_rollouts == \
            outcome.flat_arm.long_chain_rollouts
