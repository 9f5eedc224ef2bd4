"""Closed-loop simulator: rollout arithmetic, determinism, loop dynamics."""

from __future__ import annotations

import copy
import dataclasses
import random
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skillnet.simulate as simulate_mod
from skillnet import (
    ConceptMap,
    EdgeKind,
    EvolutionConfig,
    EvolutionReport,
    RetrievalResult,
    ScriptedProposer,
    SimConfig,
    SkillGraph,
    SyntheticTask,
    TaskTypeSpec,
    TrajectoryRecord,
    compare_retrievers,
    default_sim_config,
    flat_retrieve,
    graph_to_dict,
    rollout,
    run_loop,
    save_graph,
)
from skillnet.config import load_section
from skillnet.curriculum import CurriculumParams
from skillnet.errors import ConfigInvalid
from skillnet.retrieval import RetrievalParams
from skillnet.simulate import (
    MAX_CHAIN_LENGTH, UNCOVERED_MARKER, InitialSkillSpec, build_initial_graph, checkpoint,
)

from conftest import make_node, random_graph


# the default run at seed 42: its metrics CSV and its final snapshot file
SEED_42_CSV_SHA256 = "05c407704ec0dc79f24957532594867b47857f33a690c97c62c1ec839aaeecf3"
SEED_42_SNAPSHOT_SHA256 = "21750d61b02dfc3680d7392297dbe984ed812fdb8067c5b93dc8ba46ffa78d02"
# metrics CSVs of the default config on both arms, and of other group sizes
# at seed 42, as the one-rollout-per-call loop wrote them
ARM_CSV_SHA256 = {
    ("graph", 0): "3481f2b299330690d064f011e9ca02337bfcb2fee5529ecedb8f29adfbf3ae22",
    ("graph", 1): "2bcb46d5348a17f81aea16991c56254c25050c8b1e720e6115b4916c95ec86ee",
    ("graph", 2): "e148e6a514d4a669dfdce20565470c14b5e68d455eb9dba8b9ebc6d529b0c575",
    ("graph", 3): "c6f80c6457ab8c868e355364fc2e09ea85fea99054b88e96a94f5dfe09e4bd73",
    ("flat", 0): "b2401cb1e3bac789aea88a9e3c5a5da587f07631143458c441efb0b409a925c8",
    ("flat", 1): "590d1512c19bf8c96a8c7f1c38da9baeda5153fc886025f8743f76d61ae99887",
    ("flat", 2): "d1da5ccd125a0acc44ae12d3b2acd90edbfe27e2c965d73578b4997d436a4f46",
    ("flat", 3): "7a57a2962ab4252753d062de5f6071cee045455ce445e8832dcfa860855705be",
}
GROUP_SIZE_CSV_SHA256 = {
    1: "c31a15165e60ff766dcbf23ff5e8a0d6db364051e5ffb182b5950727de0f8fd1",
    3: "41c09c4d0d4c92ab153075b4e500bf7db14804a3c9762e49dbafb7c6523b9dcb",
}
# metrics CSVs at seed 42 with ``merge_jaccard`` lowered so that merge_scan
# merges (the default run never does), as the scan before its length filter
# wrote them: (threshold, arm) -> (merges over the run, sha256). 0.5 and 0.2
# take the filtered index, 0.0 the all-pairs path.
MERGE_CSV_SHA256 = {
    (0.5, "graph"): (1, "e84ed43207bc19f97616e5dbcca7bcc19ad1166cdf2a4680ac90da1fce8f35aa"),
    (0.2, "graph"): (12, "6b8ff7c3fd25fff3ecb344a38afe82b4376ce15cd6597612b5a36623e67c3cfc"),
    (0.0, "graph"): (76, "d66c067819ecb839f0d3169f23cfbbfc435c2a5b2420cea698df69f1ac82aa15"),
    (0.0, "flat"): (58, "21e5797a3a547eafa8e994e11bb56ba22a1712bb6600239dfb134ffe744a688d"),
}
# the JSON `skillnet simulate --seed 42 --compare-flat` prints for the default
# config, as the per-member-copy loop with its separate arm record printed it
COMPARE_FLAT_SEED_42_SHA256 = \
    "78da107935847d5f470fcde5f85a1b896cca55845ebcfdabc02c6c9a4c936a28"


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
        [record] = rollout(t, result, concept_map, ProbabilityProbe(mid), 1)
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
        [record] = rollout(task(chain), retrieval(["s"]), concept_map,
                           random.Random(0), 1)
        observations = [s["observation"] for s in record.steps]
        assert observations[0] == "followed skill guidance"
        assert observations[1] == "no skill guidance for c2"

    def test_chain_length_bounds_enforced(self):
        with pytest.raises(ConfigInvalid):
            SyntheticTask("t", "clean", [], 0.1, 0.1, 0.1)
        with pytest.raises(ConfigInvalid):
            SyntheticTask("t", "clean", [f"c{i}" for i in range(7)],
                          0.1, 0.1, 0.1)


def oracle_rollout(task: SyntheticTask, result: RetrievalResult,
                   concept_map: ConceptMap, rng: random.Random) -> TrajectoryRecord:
    """The oracle: one group member, as ``rollout`` simulated it before a
    group shared its episode (the whole episode redone per member)."""
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


CONCEPTS = [f"c{i}" for i in range(7)]
SKILLS = [f"s{i}" for i in range(6)]
unit = st.floats(0.0, 1.0)


@st.composite
def episodes(draw) -> tuple[SyntheticTask, RetrievalResult, ConceptMap]:
    """A chain, a concept map that may leave concepts uncovered or let one
    skill cover several, and a retrieved order (possibly empty)."""
    chain = draw(st.lists(st.sampled_from(CONCEPTS), min_size=1,
                          max_size=MAX_CHAIN_LENGTH))
    concept_map = ConceptMap()
    for concept, skill in draw(st.lists(st.tuples(st.sampled_from(CONCEPTS),
                                                  st.sampled_from(SKILLS)),
                                        max_size=12)):
        concept_map.bind(concept, skill)
    ordered = draw(st.lists(st.sampled_from(SKILLS), unique=True))
    edges = draw(st.sets(st.tuples(st.sampled_from(SKILLS), st.sampled_from(SKILLS),
                                   st.sampled_from(list(EdgeKind))), max_size=6))
    t = task(chain, p0=draw(unit), bonus=draw(unit), penalty=draw(unit))
    result = retrieval(ordered)
    result.traversed_edges = edges
    return t, result, concept_map


class TestGroupedRolloutOracle:
    @settings(max_examples=300, deadline=None)
    @given(episode=episodes(), group_size=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_group_equals_one_oracle_call_per_member(self, episode, group_size, seed):
        t, result, concept_map = episode
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        records = rollout(t, result, concept_map, rng, group_size)
        expected = [oracle_rollout(t, result, concept_map, oracle_rng)
                    for _ in range(group_size)]
        assert len(records) == group_size
        for record, reference in zip(records, expected):
            assert vars(record) == vars(reference)
        assert rng.getstate() == oracle_rng.getstate()
        # the members share one episode: one id list, one edge list and one
        # step list, and the id list is not the retrieval result's own
        first = records[0]
        for record in records:
            assert record.retrieved_skill_ids is first.retrieved_skill_ids
            assert record.traversed_edges is first.traversed_edges
            assert record.steps is first.steps
        assert first.retrieved_skill_ids is not result.ordered_skills


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

    def test_default_run_at_seed_42_is_byte_identical(self, tmp_path):
        metrics, graph = run_loop(default_sim_config(), 42)
        save_graph(graph, tmp_path / "final.json")
        assert sha256(metrics.to_csv().encode("utf-8")).hexdigest() == SEED_42_CSV_SHA256
        assert sha256((tmp_path / "final.json").read_bytes()).hexdigest() == \
            SEED_42_SNAPSHOT_SHA256

    @pytest.mark.parametrize("arm, seed", sorted(ARM_CSV_SHA256))
    def test_default_runs_on_both_arms_are_byte_identical(self, arm, seed):
        metrics, _ = run_loop(default_sim_config(), seed, retriever=arm)
        assert sha256(metrics.to_csv().encode("utf-8")).hexdigest() == \
            ARM_CSV_SHA256[arm, seed]

    @pytest.mark.parametrize("group_size", sorted(GROUP_SIZE_CSV_SHA256))
    def test_other_group_sizes_at_seed_42_are_byte_identical(self, group_size):
        config = default_sim_config()
        config.group_size = group_size
        metrics, _ = run_loop(config, 42)
        assert sha256(metrics.to_csv().encode("utf-8")).hexdigest() == \
            GROUP_SIZE_CSV_SHA256[group_size]

    @pytest.mark.parametrize("threshold, arm", sorted(MERGE_CSV_SHA256))
    def test_runs_that_merge_are_byte_identical(self, threshold, arm):
        config = default_sim_config()
        config = dataclasses.replace(config, evolution=dataclasses.replace(
            config.evolution, merge_jaccard=threshold))
        metrics, _ = run_loop(config, 42, retriever=arm)
        merges, digest = MERGE_CSV_SHA256[threshold, arm]
        assert sum(len(report.merged) for report in metrics.reports) == merges
        assert sha256(metrics.to_csv().encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("arm", ["graph", "flat"])
    def test_one_rollout_call_per_task_with_the_group_size(self, arm, monkeypatch):
        """The loop reaches ``rollout`` through the module binding, once per
        task, so a wrapper on ``simulate.rollout`` times every rollout."""
        import skillnet.simulate as simulate_mod
        real_rollout = simulate_mod.rollout
        sizes: list[int] = []

        def spying_rollout(task, result, concept_map, rng, group_size):
            sizes.append(group_size)
            return real_rollout(task, result, concept_map, rng, group_size)

        monkeypatch.setattr(simulate_mod, "rollout", spying_rollout)
        config = tiny_config(steps=12, tasks_per_step=3, group_size=5)
        metrics, _ = run_loop(config, 7, retriever=arm)
        assert sizes == [config.group_size] * (config.steps * config.tasks_per_step)
        assert metrics.rollouts == len(sizes) * config.group_size

    def test_unknown_retriever_rejected(self):
        with pytest.raises(ConfigInvalid):
            run_loop(tiny_config(), 1, retriever="embedding")

    def test_config_validation(self):
        config = tiny_config()
        config.types = []
        with pytest.raises(ConfigInvalid):
            run_loop(config, 1)

    @pytest.mark.parametrize("section, value", [
        ("retrieval", RetrievalParams(depth=-3)),
        ("retrieval", RetrievalParams(beam_width=-1)),
        ("evolution", EvolutionConfig(reinforce_step=2.0)),
        ("curriculum", CurriculumParams(unlock_threshold=1.5)),
    ])
    def test_shared_sections_refused_before_any_graph_work(self, section, value,
                                                           monkeypatch):
        def no_graph_work(config):
            raise AssertionError("graph built from an invalid config")

        monkeypatch.setattr(simulate_mod, "build_initial_graph", no_graph_work)
        config = tiny_config(**{section: value})
        with pytest.raises(ConfigInvalid, match=section):
            config.validate()
        with pytest.raises(ConfigInvalid, match=section):
            run_loop(config, 1)

    def test_from_dict_round_trip_defaults(self):
        def load(obj):
            return load_section(obj, SimConfig, "simulation", default_sim_config())

        assert load({}).steps == default_sim_config().steps
        custom = load({"steps": 7, "group_size": 2})
        assert custom.steps == 7 and custom.group_size == 2
        with pytest.raises(ConfigInvalid):
            load({"stepz": 7})


class TestWindowReuse:
    """The graph changes only at checkpoints, so the graph arm retrieves once
    per task type per window and every task of that type shares the result."""

    def test_graph_arm_retrieves_once_per_window_and_task_type(self, monkeypatch):
        real_retrieve = simulate_mod.retrieve
        asked: list[tuple[int, str]] = []

        def spying_retrieve(graph, query, **kwargs):
            asked.append((graph.checkpoint_index, query.task_type))
            return real_retrieve(graph, query, **kwargs)

        monkeypatch.setattr(simulate_mod, "retrieve", spying_retrieve)
        monkeypatch.setattr(simulate_mod, "flat_retrieve", None)
        config = tiny_config(steps=23, tasks_per_step=5, validation_frequency=4)
        metrics, _ = run_loop(config, 3)
        assert len(asked) == len(set(asked))
        # each window (the trailing one without a checkpoint too) asks for
        # every type it sampled, and that takes fewer calls than tasks
        assert {window for window, _ in asked} == set(range(len(metrics.rows) + 1))
        assert len(asked) < metrics.tasks

    def test_flat_arm_still_shuffles_once_per_task(self, monkeypatch):
        real_flat = simulate_mod.flat_retrieve
        calls: list[str] = []

        def spying_flat(graph, task_type, k_max, shuffle_rng):
            calls.append(task_type)
            return real_flat(graph, task_type, k_max, shuffle_rng)

        monkeypatch.setattr(simulate_mod, "flat_retrieve", spying_flat)
        monkeypatch.setattr(simulate_mod, "retrieve", None)
        config = tiny_config(steps=12, tasks_per_step=3)
        metrics, _ = run_loop(config, 3, retriever="flat")
        assert len(calls) == metrics.tasks == config.steps * config.tasks_per_step

    def test_shared_result_unchanged_by_the_window_rollouts(self, monkeypatch):
        real_retrieve = simulate_mod.retrieve
        real_checkpoint = simulate_mod.checkpoint
        issued: list[tuple[RetrievalResult, RetrievalResult]] = []
        checked: list[int] = []

        def spying_retrieve(graph, query, **kwargs):
            result = real_retrieve(graph, query, **kwargs)
            issued.append((result, copy.deepcopy(result)))
            return result

        def checking_checkpoint(graph, records, *args):
            # every record came from a result of this window, now fully used
            for result, pristine in issued:
                assert result == pristine
            checked.append(len(issued))
            issued.clear()
            return real_checkpoint(graph, records, *args)

        monkeypatch.setattr(simulate_mod, "retrieve", spying_retrieve)
        monkeypatch.setattr(simulate_mod, "checkpoint", checking_checkpoint)
        run_loop(tiny_config(steps=30), 8)
        assert len(checked) == 6 and all(checked)


class TestRecordsAreOnlyRead:
    """A group's records share their lists, so nothing may write to one."""

    @pytest.mark.parametrize("arm", ["graph", "flat"])
    def test_checkpoint_leaves_the_window_records_unchanged(self, arm, monkeypatch):
        real_checkpoint = simulate_mod.checkpoint
        reports: list[EvolutionReport] = []

        def checking_checkpoint(graph, records, *args):
            before = copy.deepcopy(records)
            report = real_checkpoint(graph, records, *args)
            assert records == before
            reports.append(report)
            return report

        monkeypatch.setattr(simulate_mod, "checkpoint", checking_checkpoint)
        config = tiny_config(steps=60, tasks_per_step=6)
        config.evolution.merge_jaccard = 0.0  # lets the teacher merge too
        run_loop(config, 42, retriever=arm)
        assert len(reports) == 12
        for change in ("inserted", "merged", "split"):
            assert any(getattr(report, change) for report in reports), change


def two_level_graph() -> SkillGraph:
    graph = SkillGraph()
    graph.add_skill(make_node("base", category="clean"))
    graph.add_skill(make_node("deep", category="clean"))
    graph.add_edge("base", "deep", EdgeKind.PREREQ, 0.9)
    graph.compute_levels()
    return graph


class TestCheckpoint:
    @pytest.mark.parametrize("index, unlocked", [(0, []), (2, []), (3, [1]), (7, [1])])
    def test_warmup_counts_the_checkpoints_the_graph_has_banked(self, index, unlocked):
        graph = two_level_graph()
        graph.checkpoint_index = index
        report = checkpoint(graph, [], ScriptedProposer(), EvolutionConfig(),
                            CurriculumParams(warmup_length=3, unlock_threshold=0.0))
        assert report.unlock_events == unlocked
        assert graph.checkpoint_index == index + 1
        assert graph.highest_active_level == (1 if unlocked else 0)

    def test_usage_only_from_records_naming_known_skills(self):
        graph = two_level_graph()
        records = [
            TrajectoryRecord(task_id="t0", task_type="clean",
                             retrieved_skill_ids=["base"], success=True),
            TrajectoryRecord(task_id="t1", task_type="clean",
                             retrieved_skill_ids=["base", "merged_away"],
                             success=False),
        ]
        checkpoint(graph, records, ScriptedProposer(), EvolutionConfig(),
                   CurriculumParams())
        assert (graph.nodes["base"].n_use, graph.nodes["base"].n_succ) == (1, 1)
        assert graph.nodes["deep"].n_use == 0

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_usage_fold_matches_the_per_record_batch(self, seed, data):
        graph = random_graph(random.Random(seed), n=12)
        ids = st.sampled_from(sorted(graph.nodes) + ["gone_a", "gone_b"])
        # groups repeat one id list; ids may be stale, lists empty
        groups = data.draw(st.lists(st.tuples(
            st.lists(ids, max_size=5), st.lists(st.booleans(), min_size=1, max_size=4)),
            max_size=8))
        records = [TrajectoryRecord(task_id=f"t{g}", task_type="clean",
                                    retrieved_skill_ids=list(skill_ids), success=won)
                   for g, (skill_ids, outcomes) in enumerate(groups)
                   for won in outcomes]
        records = data.draw(st.permutations(records))
        expected = graph.snapshot()
        args = (ScriptedProposer(), EvolutionConfig(), CurriculumParams())
        report = checkpoint(graph, records, *args)
        expected_report = oracle_checkpoint(expected, records, *args)
        assert {v: (n.n_use, n.n_succ) for v, n in graph.nodes.items()} == \
            {v: (n.n_use, n.n_succ) for v, n in expected.nodes.items()}
        assert report.to_dict() == expected_report.to_dict()
        assert graph_to_dict(graph) == graph_to_dict(expected)


def oracle_usage_batch(graph: SkillGraph,
                       records: list[TrajectoryRecord]) -> list[tuple[str, bool, bool]]:
    """One (skill, True, success) entry per record per retrieved id, from the
    records whose ids are all in the graph."""
    return [(skill_id, True, record.success) for record in records
            if all(s in graph.nodes for s in record.retrieved_skill_ids)
            for skill_id in record.retrieved_skill_ids]


def oracle_checkpoint(graph: SkillGraph, records: list[TrajectoryRecord],
                      *args) -> EvolutionReport:
    """``checkpoint`` with its usage fold replaced by the per-record batch."""
    batch = oracle_usage_batch(graph, records)
    fold = graph.update_stats
    graph.update_stats = lambda _: fold(batch)  # shadows the method once
    try:
        return checkpoint(graph, records, *args)
    finally:
        del graph.update_stats


class TestCrossProcessDeterminism:
    def test_cli_simulate_byte_identical_across_processes(self, tmp_path):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import skillnet

        # the child imports the package from the same tree as this process
        env = {**os.environ,
               "PYTHONPATH": str(Path(skillnet.__file__).parents[1])}
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
                capture_output=True, timeout=120, env=env)
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

    def test_compare_flat_json_at_seed_42_is_byte_identical(self, tmp_path, capsys):
        from skillnet.cli import main

        assert main(["simulate", "--seed", "42", "--out", str(tmp_path / "m.csv"),
                     "--compare-flat"]) == 0
        out = capsys.readouterr().out
        assert sha256(out[out.index("{"):].encode("utf-8")).hexdigest() == \
            COMPARE_FLAT_SEED_42_SHA256

    def test_paired_arms_share_task_stream(self):
        outcome = compare_retrievers(tiny_config(), 4)
        assert outcome.graph_arm.tasks == outcome.flat_arm.tasks
        assert outcome.graph_arm.long_chain_rollouts == \
            outcome.flat_arm.long_chain_rollouts
