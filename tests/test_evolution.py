"""Evolution operations: pinned-constant arithmetic, node ops, edge ops."""

from __future__ import annotations

import pytest

from skillnet import (
    EdgeKind,
    EvolutionConfig,
    ScriptedProposer,
    SkillGraph,
    SkillProposal,
    TrajectoryRecord,
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
from skillnet import load_graph, save_graph
from skillnet.errors import ProposerUnavailable
from skillnet.proposer import Proposer

from conftest import add_nodes, make_node


def proposal(i: int, title: str | None = None, **kwargs) -> SkillProposal:
    return SkillProposal(
        skill_id=f"p{i}",
        title=title or f"Proposed skill {i}",
        principle=f"Do the thing {i}",
        when_to_apply=f"When {i} fits",
        **kwargs,
    )


def failure(task_id: str = "t1", task_type: str = "clean",
            steps: int = 3) -> TrajectoryRecord:
    return TrajectoryRecord(
        task_id=task_id, task_type=task_type, retrieved_skill_ids=[],
        steps=[{"action": f"a{i}", "observation": f"o{i}"} for i in range(steps)],
        success=False)


def success_record(ids: list[str],
                   edges: list[tuple[str, str, str]] = ()) -> TrajectoryRecord:
    return TrajectoryRecord(
        task_id="win", task_type="clean", retrieved_skill_ids=ids,
        traversed_edges=list(edges), success=True)


class FailingProposer(Proposer):
    def propose(self, request):
        raise ProposerUnavailable("offline")


class CountingProposer(Proposer):
    def __init__(self, proposals):
        self.proposals = proposals
        self.calls = 0

    def propose(self, request):
        self.calls += 1
        return list(self.proposals)


class TestConfigDefaults:
    def test_standard_constants(self):
        cfg = EvolutionConfig()
        assert cfg.max_new_skills == 3
        assert cfg.merge_jaccard == 0.85
        assert cfg.split_band == (0.15, 0.4)
        assert cfg.split_min_uses == 10
        assert cfg.deprecate_threshold == 0.15
        assert cfg.deprecate_min_uses == 20
        assert cfg.reinforce_step == 0.05
        assert cfg.decay_factor == 0.99
        assert cfg.prune_threshold == 0.05
        assert cfg.cooccur_min_count == 2


class TestInsert:
    def test_no_failures_no_proposer_call(self):
        graph = SkillGraph()
        proposer = CountingProposer([proposal(1)])
        assert scan_insert_trigger([], graph, proposer, EvolutionConfig()) == []
        assert proposer.calls == 0

    def test_caps_at_max_new_skills(self):
        graph = SkillGraph()
        proposer = CountingProposer([proposal(i) for i in range(5)])
        inserted = scan_insert_trigger([failure()], graph, proposer,
                                       EvolutionConfig())
        assert len(inserted) == 3

    def test_engine_reassigns_dynamic_ids(self):
        graph = SkillGraph()
        proposer = CountingProposer([proposal(1)])
        inserted = scan_insert_trigger([failure()], graph, proposer,
                                       EvolutionConfig())
        assert inserted == ["dyn_0001"]
        assert graph.nodes["dyn_0001"].title == "Proposed skill 1"

    def test_duplicate_title_dropped_others_kept(self):
        graph = SkillGraph()
        graph.add_skill(make_node("old", title="Proposed skill 1"))
        proposer = CountingProposer([proposal(1), proposal(2)])
        inserted = scan_insert_trigger([failure()], graph, proposer,
                                       EvolutionConfig())
        assert len(inserted) == 1
        assert graph.nodes[inserted[0]].title == "Proposed skill 2"

    def test_deprecated_title_can_be_reused(self):
        graph = SkillGraph()
        graph.add_skill(make_node("old", title="Proposed skill 1",
                                  deprecated=True))
        proposer = CountingProposer([proposal(1)])
        assert len(scan_insert_trigger([failure()], graph, proposer,
                                       EvolutionConfig())) == 1

    def test_inserted_nodes_isolated_level_zero(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        proposer = CountingProposer([proposal(1)])
        inserted = scan_insert_trigger([failure()], graph, proposer,
                                       EvolutionConfig())
        node = graph.nodes[inserted[0]]
        assert node.level == 0
        assert graph.incident_edges(inserted[0]) == []

    def test_proposer_unavailable_degrades(self):
        graph = SkillGraph()
        assert scan_insert_trigger([failure()], graph, FailingProposer(),
                                   EvolutionConfig()) == []

    def test_blank_title_dropped_others_kept(self, tmp_path):
        graph = SkillGraph()
        proposer = ScriptedProposer({"insert": [proposal(1, title="  "),
                                                proposal(2)]})
        report = evolve_step(graph, [], [failure()], proposer, EvolutionConfig())
        assert [graph.nodes[v].title for v in report.inserted] == \
            ["Proposed skill 2"]
        save_graph(graph, tmp_path / "g.json")
        assert set(load_graph(tmp_path / "g.json").nodes) == set(graph.nodes)


class TestJaccardAndMerge:
    def test_jaccard_hand_values(self):
        assert jaccard({"a", "b", "c"}, {"a", "b", "c", "d"}) == pytest.approx(0.75)
        assert jaccard({"a"}, {"a"}) == 1.0
        assert jaccard(set(), set()) == 0.0

    def build_pair(self, shared: int = 3) -> SkillGraph:
        # s1 and s2 share x0..x{n}; each x gets a private differentiator so
        # only the (s1, s2) pair can cross the threshold
        graph = SkillGraph()
        add_nodes(graph, ["s1", "s2"], category="clean")
        for i in range(shared):
            add_nodes(graph, [f"x{i}", f"y{i}"], category="clean")
            graph.add_edge("s1", f"x{i}", EdgeKind.CO_OCCUR, 0.4)
            graph.add_edge("s2", f"x{i}", EdgeKind.CO_OCCUR, 0.4)
            graph.add_edge(f"x{i}", f"y{i}", EdgeKind.CO_OCCUR, 0.4)
        graph.compute_levels()
        return graph

    def test_below_threshold_no_merge(self):
        # N(s1) = {x0,x1,x2}, N(s2) = {x0,x1,x2,x3}: J = 3/4 = 0.75 < 0.85
        graph = self.build_pair()
        add_nodes(graph, ["x3", "y3"], category="clean")
        graph.add_edge("s2", "x3", EdgeKind.CO_OCCUR, 0.4)
        graph.add_edge("x3", "y3", EdgeKind.CO_OCCUR, 0.4)
        merges = merge_scan(graph, CountingProposer([proposal(1)]),
                            EvolutionConfig())
        assert merges == []

    def test_identical_neighborhoods_merge(self):
        graph = self.build_pair()
        merges = merge_scan(graph, CountingProposer([proposal(9, title="Unified")]),
                            EvolutionConfig())
        assert merges == [("s1", ["s2"])]
        assert "s2" not in graph.nodes
        assert graph.nodes["s1"].title == "Unified"
        assert graph.neighbors("s1") == {"x0", "x1", "x2"}

    def test_duplicate_edges_keep_higher_weight(self):
        graph = self.build_pair(shared=3)
        graph.get_edge("s1", "x0", EdgeKind.CO_OCCUR).weight = 0.4
        graph.get_edge("s2", "x0", EdgeKind.CO_OCCUR).weight = 0.7
        merge_scan(graph, CountingProposer([proposal(9)]), EvolutionConfig())
        assert graph.get_edge("s1", "x0", EdgeKind.CO_OCCUR).weight == \
            pytest.approx(0.7)

    def test_statistics_summed(self):
        graph = self.build_pair()
        graph.nodes["s1"].n_use, graph.nodes["s1"].n_succ = 10, 4
        graph.nodes["s2"].n_use, graph.nodes["s2"].n_succ = 6, 5
        before_use = sum(n.n_use for n in graph.nodes.values())
        before_succ = sum(n.n_succ for n in graph.nodes.values())
        merge_scan(graph, CountingProposer([proposal(9)]), EvolutionConfig())
        assert graph.nodes["s1"].n_use == 16
        assert graph.nodes["s1"].n_succ == 9
        assert sum(n.n_use for n in graph.nodes.values()) == before_use
        assert sum(n.n_succ for n in graph.nodes.values()) == before_succ

    def test_merge_conservation_random_fixtures(self, rng):
        for _ in range(25):
            graph = SkillGraph()
            ids = [f"n{i}" for i in range(rng.randint(4, 12))]
            for skill_id in ids:
                graph.add_skill(make_node(
                    skill_id, category="clean",
                    n_use=rng.randint(0, 50)))
                graph.nodes[skill_id].n_succ = rng.randint(
                    0, graph.nodes[skill_id].n_use)
            for _ in range(3 * len(ids)):
                src, dst = rng.sample(ids, 2)
                try:
                    graph.add_edge(src, dst, rng.choice(list(EdgeKind)),
                                   rng.random())
                except Exception:
                    pass
            graph.compute_levels()
            total_use = sum(n.n_use for n in graph.nodes.values())
            total_succ = sum(n.n_succ for n in graph.nodes.values())
            merge_scan(graph, CountingProposer([proposal(7)]), EvolutionConfig())
            assert sum(n.n_use for n in graph.nodes.values()) == total_use
            assert sum(n.n_succ for n in graph.nodes.values()) == total_succ

    def test_consumed_pair_skipped(self):
        # three mutually-similar nodes: after s1+s2 merge, s3 is skipped
        graph = SkillGraph()
        add_nodes(graph, ["s1", "s2", "s3"], category="clean")
        add_nodes(graph, ["hub1", "hub2", "solo"], category="clean")
        for s in ("s1", "s2", "s3"):
            graph.add_edge(s, "hub1", EdgeKind.CO_OCCUR, 0.4)
            graph.add_edge(s, "hub2", EdgeKind.CO_OCCUR, 0.4)
        # keep the hubs themselves below the threshold: J = 3/4
        graph.add_edge("hub2", "solo", EdgeKind.CO_OCCUR, 0.4)
        graph.compute_levels()
        merges = merge_scan(graph, CountingProposer([proposal(9)]),
                            EvolutionConfig())
        assert merges == [("s1", ["s2"])]
        assert "s3" in graph.nodes

    def test_blank_title_skips_the_merge(self, tmp_path):
        graph = self.build_pair()
        proposer = CountingProposer([proposal(9, title="\t ")])
        report = evolve_step(graph, [], [], proposer, EvolutionConfig())
        assert report.merged == [] and proposer.calls == 1
        assert graph.nodes["s1"].title == "Skill s1"
        save_graph(graph, tmp_path / "g.json")
        assert set(load_graph(tmp_path / "g.json").nodes) == set(graph.nodes)

    def test_proposer_unavailable_skips_merges(self):
        graph = self.build_pair()
        assert merge_scan(graph, FailingProposer(), EvolutionConfig()) == []
        assert "s2" in graph.nodes

    def test_isolated_pair_never_merges(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.compute_levels()
        assert merge_scan(graph, CountingProposer([proposal(1)]),
                          EvolutionConfig()) == []


class TestSplit:
    def banded_graph(self, p_num: int = 3, p_den: int = 10) -> SkillGraph:
        graph = SkillGraph()
        graph.add_skill(make_node("broad", category="clean",
                                  n_use=p_den * 4, n_succ=p_num * 4))
        return graph

    def test_above_band_not_split(self):
        graph = SkillGraph()
        graph.add_skill(make_node("fine", category="clean", n_use=20, n_succ=10))
        proposer = CountingProposer([proposal(1), proposal(2)])
        assert split_scan(graph, proposer, [], EvolutionConfig()) == []
        assert proposer.calls == 0

    def test_usage_floor(self):
        graph = SkillGraph()
        graph.add_skill(make_node("rare", category="clean", n_use=9, n_succ=2))
        proposer = CountingProposer([proposal(1), proposal(2)])
        assert split_scan(graph, proposer, [], EvolutionConfig()) == []

    def test_chain_construction(self):
        graph = self.banded_graph()
        proposer = CountingProposer([proposal(1), proposal(2), proposal(3)])
        splits = split_scan(graph, proposer, [], EvolutionConfig())
        assert splits == [("broad", ["dyn_0001", "dyn_0002", "dyn_0003"])]
        assert "broad" not in graph.nodes
        assert graph.get_edge("dyn_0001", "dyn_0002", EdgeKind.PREREQ) is not None
        assert graph.get_edge("dyn_0002", "dyn_0003", EdgeKind.PREREQ) is not None
        levels = graph.compute_levels()
        assert [levels[f"dyn_000{i}"] for i in (1, 2, 3)] == [0, 1, 2]

    def test_children_statistics_reset(self):
        graph = self.banded_graph()
        proposer = CountingProposer([proposal(1), proposal(2)])
        split_scan(graph, proposer, [], EvolutionConfig())
        for node in graph.nodes.values():
            assert node.n_use == 0 and node.n_succ == 0

    def test_blank_sub_skill_dropped(self, tmp_path):
        graph = self.banded_graph()
        proposer = CountingProposer([proposal(1), proposal(2, title=" "),
                                     proposal(3)])
        report = evolve_step(graph, [], [], proposer, EvolutionConfig())
        (parent, children), = report.split
        assert [graph.nodes[c].title for c in children] == \
            ["Proposed skill 1", "Proposed skill 3"]
        save_graph(graph, tmp_path / "g.json")
        assert set(load_graph(tmp_path / "g.json").nodes) == set(graph.nodes)

    def test_single_proposal_is_noop(self):
        graph = self.banded_graph()
        proposer = CountingProposer([proposal(1)])
        assert split_scan(graph, proposer, [], EvolutionConfig()) == []
        assert "broad" in graph.nodes

    def test_edges_redistributed_round_robin(self):
        graph = self.banded_graph()
        add_nodes(graph, ["n1", "n2", "n3"], category="clean")
        graph.add_edge("broad", "n1", EdgeKind.CO_OCCUR, 0.4)
        graph.add_edge("n2", "broad", EdgeKind.CO_OCCUR, 0.5)
        graph.add_edge("broad", "n3", EdgeKind.ENHANCE, 0.6)
        graph.compute_levels()
        proposer = CountingProposer([proposal(1), proposal(2)])
        split_scan(graph, proposer, [], EvolutionConfig())
        # neighbors sorted (n1, n2, n3) -> children (c1, c2, c1)
        assert graph.get_edge("dyn_0001", "n1", EdgeKind.CO_OCCUR) is not None
        assert graph.get_edge("n2", "dyn_0002", EdgeKind.CO_OCCUR) is not None
        assert graph.get_edge("dyn_0001", "n3", EdgeKind.ENHANCE) is not None

    def test_proposer_assignment_respected(self):
        graph = self.banded_graph()
        add_nodes(graph, ["n1", "n2"], category="clean")
        graph.add_edge("broad", "n1", EdgeKind.CO_OCCUR, 0.4)
        graph.add_edge("broad", "n2", EdgeKind.CO_OCCUR, 0.4)
        graph.compute_levels()
        proposer = CountingProposer([
            proposal(1, neighbor_assignment=["n2"]),
            proposal(2, neighbor_assignment=["n1"]),
        ])
        split_scan(graph, proposer, [], EvolutionConfig())
        assert graph.get_edge("dyn_0001", "n2", EdgeKind.CO_OCCUR) is not None
        assert graph.get_edge("dyn_0002", "n1", EdgeKind.CO_OCCUR) is not None


class TestDeprecate:
    def test_low_success_high_usage_deprecated(self):
        graph = SkillGraph()
        graph.add_skill(make_node("bad", n_use=25, n_succ=3))  # 0.12
        assert deprecate_scan(graph, EvolutionConfig()) == ["bad"]
        assert graph.nodes["bad"].deprecated

    def test_usage_floor_protects(self):
        graph = SkillGraph()
        graph.add_skill(make_node("young", n_use=19, n_succ=0))
        assert deprecate_scan(graph, EvolutionConfig()) == []

    def test_boundary_rate_kept(self):
        graph = SkillGraph()
        graph.add_skill(make_node("edge", n_use=20, n_succ=3))  # exactly 0.15
        assert deprecate_scan(graph, EvolutionConfig()) == []

    def test_edges_retained_but_traversals_blind(self):
        graph = SkillGraph()
        graph.add_skill(make_node("bad", category="clean", n_use=25, n_succ=1))
        graph.add_skill(make_node("ok", category="clean"))
        graph.add_edge("bad", "ok", EdgeKind.CO_OCCUR, 0.3)
        deprecate_scan(graph, EvolutionConfig())
        assert graph.edge_count() == 1
        assert graph.neighbors("ok") == set()

    def test_permanence(self):
        graph = SkillGraph()
        graph.add_skill(make_node("bad", n_use=25, n_succ=3))
        deprecate_scan(graph, EvolutionConfig())
        graph.update_stats([("bad", True, True)] * 50)
        assert deprecate_scan(graph, EvolutionConfig()) == []
        assert graph.nodes["bad"].deprecated


class TestReinforce:
    def linked(self, weight: float) -> SkillGraph:
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, weight)
        return graph

    def test_standard_step(self):
        graph = self.linked(0.30)
        applied, stale = reinforce_paths(
            graph, [success_record(["a", "b"], [("a", "b", "prereq")])], 0.05)
        assert (applied, stale) == (1, 0)
        assert graph.get_edge("a", "b", EdgeKind.PREREQ).weight == \
            pytest.approx(0.35)

    def test_clamped_at_one(self):
        graph = self.linked(0.98)
        reinforce_paths(graph,
                        [success_record(["a", "b"], [("a", "b", "prereq")])], 0.05)
        assert graph.get_edge("a", "b", EdgeKind.PREREQ).weight == 1.0

    def test_two_trajectories_two_increments(self):
        graph = self.linked(0.30)
        records = [success_record(["a", "b"], [("a", "b", "prereq")])
                   for _ in range(2)]
        applied, _ = reinforce_paths(graph, records, 0.05)
        assert applied == 2
        assert graph.get_edge("a", "b", EdgeKind.PREREQ).weight == \
            pytest.approx(0.40)

    def test_stale_edge_counted_not_fatal(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        applied, stale = reinforce_paths(
            graph, [success_record(["a", "b"], [("a", "b", "prereq")])], 0.05)
        assert (applied, stale) == (0, 1)

    def test_cooccur_key_normalized(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.3)
        applied, _ = reinforce_paths(
            graph, [success_record(["a", "b"], [("b", "a", "co_occur")])], 0.05)
        assert applied == 1


class TestDiscover:
    def test_single_coappearance_insufficient(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        added = discover_cooccur(graph, [success_record(["a", "b"])], 2)
        assert added == 0 and graph.edge_count() == 0

    def test_threshold_crossing_adds_edge(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        discover_cooccur(graph, [success_record(["a", "b"])], 2)
        added = discover_cooccur(graph, [success_record(["a", "b"])], 2)
        assert added == 1
        edge = graph.get_edge("a", "b", EdgeKind.CO_OCCUR)
        assert edge is not None and edge.weight == pytest.approx(0.3)

    def test_existing_connection_blocks(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.ENHANCE, 0.2)
        added = discover_cooccur(
            graph, [success_record(["a", "b"]), success_record(["a", "b"])], 2)
        assert added == 0

    def test_counts_persist_across_calls(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        discover_cooccur(graph, [success_record(["a", "b"])], 3)
        discover_cooccur(graph, [success_record(["a", "b"])], 3)
        added = discover_cooccur(graph, [success_record(["a", "b"])], 3)
        assert added == 1


class TestDecayPrune:
    def test_boundary_prune(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.05)
        assert decay_and_prune(graph, 0.99, 0.05) == 1
        assert graph.edge_count() == 0
        assert "a" in graph.nodes and "b" in graph.nodes

    def test_full_weight_survives(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 1.0)
        assert decay_and_prune(graph, 0.99, 0.05) == 0
        assert graph.get_edge("a", "b", EdgeKind.PREREQ).weight == \
            pytest.approx(0.99)

    def test_reinforce_then_decay_composition(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.30)
        reinforce_paths(graph,
                        [success_record(["a", "b"], [("a", "b", "prereq")])], 0.05)
        decay_and_prune(graph, 0.99, 0.05)
        assert graph.get_edge("a", "b", EdgeKind.PREREQ).weight == \
            pytest.approx(0.3465)

    def test_unreinforced_weight_follows_geometric_decay(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.9)
        for _ in range(7):
            decay_and_prune(graph, 0.99, 0.05)
        assert graph.get_edge("a", "b", EdgeKind.PREREQ).weight == \
            pytest.approx(0.9 * 0.99 ** 7)


class TestEvolveStep:
    def test_empty_window_only_decay(self):
        graph = SkillGraph()
        add_nodes(graph, ["g"], category="general")
        add_nodes(graph, ["t1", "t2"], category="clean")
        graph.init_edges()
        weights_before = {e.key(): e.weight for e in graph.edges()}
        report = evolve_step(graph, [], [], ScriptedProposer(),
                             EvolutionConfig())
        assert report.inserted == [] and report.merged == []
        assert report.split == [] and report.deprecated == []
        assert report.edges_reinforced == 0 and report.edges_added == 0
        for edge in graph.edges():
            assert edge.weight == pytest.approx(0.99 * weights_before[edge.key()])
        assert graph.checkpoint_index == 1

    def test_scripted_pipeline_golden(self):
        """Two failures and one success through a scripted proposer produce
        the hand-written outcome for every sub-operation."""
        graph = SkillGraph()
        add_nodes(graph, ["g"], category="general")
        add_nodes(graph, ["clean_a", "clean_b"], category="clean")
        graph.init_edges()
        graph.nodes["clean_a"].n_use, graph.nodes["clean_a"].n_succ = 25, 3
        graph.compute_levels()
        proposer = ScriptedProposer({"insert": [proposal(5, title="New trick")]})
        success = success_record(["g", "clean_b"],
                                 [("g", "clean_b", "enhance")])
        report = evolve_step(graph, [success], [failure(), failure("t2")],
                             proposer, EvolutionConfig())
        assert report.inserted == ["dyn_0001"]
        assert report.merged == [] and report.split == []
        assert report.deprecated == ["clean_a"]           # 3/25 = 0.12
        assert report.edges_reinforced == 1
        assert report.edges_added == 0                    # single co-appearance
        assert report.edges_pruned == 0
        # enhance edge: (0.2 + 0.05) * 0.99
        assert graph.get_edge("g", "clean_b", EdgeKind.ENHANCE).weight == \
            pytest.approx(0.25 * 0.99)
        assert graph.nodes["dyn_0001"].level == 0
        assert graph.checkpoint_index == 1

    def test_order_invariance_disjoint_reinforce_discover(self, rng):
        """Reinforcing and discovering commute when they touch disjoint
        edge sets."""
        for _ in range(20):
            def fresh() -> SkillGraph:
                g = SkillGraph()
                add_nodes(g, ["a", "b", "c", "d"], category="clean")
                g.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
                return g

            reinforce_recs = [success_record(["a", "b"], [("a", "b", "prereq")])]
            # discovery target (c, d) is disjoint from the reinforced edge
            discover_recs = [success_record(["c", "d"]),
                             success_record(["c", "d"])]

            g1 = fresh()
            reinforce_paths(g1, reinforce_recs, 0.05)
            discover_cooccur(g1, discover_recs, 2)

            g2 = fresh()
            discover_cooccur(g2, discover_recs, 2)
            reinforce_paths(g2, reinforce_recs, 0.05)

            state1 = sorted((e.src, e.dst, e.kind.value, e.weight)
                            for e in g1.edges())
            state2 = sorted((e.src, e.dst, e.kind.value, e.weight)
                            for e in g2.edges())
            assert state1 == state2

    def test_discovered_edge_decays_within_same_checkpoint(self):
        # discovery runs before decay in the fixed pipeline order
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        wins = [success_record(["a", "b"]), success_record(["a", "b"])]
        report = evolve_step(graph, wins, [], ScriptedProposer(),
                             EvolutionConfig())
        assert report.edges_added == 1
        assert graph.get_edge("a", "b", EdgeKind.CO_OCCUR).weight == \
            pytest.approx(0.3 * 0.99)

    def test_proposer_failure_never_aborts_checkpoint(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.3)
        report = evolve_step(graph, [], [failure()], FailingProposer(),
                             EvolutionConfig())
        assert report.inserted == []
        assert graph.checkpoint_index == 1
