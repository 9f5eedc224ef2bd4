"""Retrieval pipeline: seeds, expansions, ordering, capping, rendering."""

from __future__ import annotations

import pytest

from skillnet import (
    EdgeKind,
    FailurePattern,
    SkillGraph,
    TaskQuery,
    render_skill_block,
    retrieve,
    select_seeds,
    topo_order,
)
from skillnet.errors import ConfigInvalid
from skillnet.retrieval import DEFAULT_BFS_DEPTH, _expand_backward, _expand_forward

from conftest import add_nodes, make_node, oracle_best_path_products


def chain_graph() -> SkillGraph:
    graph = SkillGraph()
    add_nodes(graph, ["p2", "p1", "seed"], category="clean")
    graph.add_edge("p2", "p1", EdgeKind.PREREQ, 0.5)
    graph.add_edge("p1", "seed", EdgeKind.PREREQ, 0.5)
    graph.compute_levels()
    graph.highest_active_level = 10
    return graph


class TestSelectSeeds:
    def test_general_plus_matching_type(self):
        graph = SkillGraph()
        graph.add_skill(make_node("g1", category="general"))
        graph.add_skill(make_node("s1", category="clean"))
        graph.add_skill(make_node("s2", category="heat"))
        graph.compute_levels()
        seeds = select_seeds(graph, TaskQuery("wipe the desk", "clean"))
        assert seeds == {"g1", "s1"}

    def test_unmatched_type_returns_generals_only(self):
        graph = SkillGraph()
        graph.add_skill(make_node("g1", category="general"))
        graph.add_skill(make_node("s1", category="clean"))
        graph.compute_levels()
        assert select_seeds(graph, TaskQuery("", "cook")) == {"g1"}

    def test_all_locked_returns_empty(self):
        graph = SkillGraph()
        add_nodes(graph, ["g", "s"], category="general")
        graph.add_edge("g", "s", EdgeKind.ENHANCE, 0.2)
        graph.compute_levels()
        graph.highest_active_level = 0
        # s sits at level 1, g is general at level 0
        assert select_seeds(graph, TaskQuery("", "clean")) == {"g"}
        graph.nodes["g"].deprecated = True
        assert select_seeds(graph, TaskQuery("", "clean")) == set()

    def test_empty_task_type_rejected(self):
        with pytest.raises(ConfigInvalid):
            TaskQuery("description", "")


class TestBackwardBfs:
    def test_depth_zero_empty(self):
        graph = chain_graph()
        assert _expand_backward(graph, {"seed"}, 0)[0] == set()

    def test_depth_limits(self):
        graph = chain_graph()
        assert _expand_backward(graph, {"seed"}, 1)[0] == {"p1"}
        assert _expand_backward(graph, {"seed"}, 2)[0] == {"p1", "p2"}

    def test_enhance_parents_not_followed(self):
        graph = SkillGraph()
        add_nodes(graph, ["e", "seed"], category="clean")
        graph.add_edge("e", "seed", EdgeKind.ENHANCE, 0.2)
        graph.compute_levels()
        graph.highest_active_level = 10
        assert _expand_backward(graph, {"seed"}, 2)[0] == set()

    def test_deprecated_parent_excluded_and_blocks(self):
        graph = chain_graph()
        graph.nodes["p1"].deprecated = True
        assert _expand_backward(graph, {"seed"}, 3)[0] == set()


class TestForwardBeam:
    def build(self) -> SkillGraph:
        graph = SkillGraph()
        add_nodes(graph, ["seed", "a", "b"], category="clean")
        graph.add_edge("seed", "a", EdgeKind.PREREQ, 0.8)
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.compute_levels()
        graph.highest_active_level = 10
        return graph

    def test_score_propagates_multiplicatively(self):
        graph = self.build()
        scores, _ = _expand_forward(graph, {"seed"}, 1, DEFAULT_BFS_DEPTH)
        assert set(scores) == {"a", "b"}
        assert scores["a"] == pytest.approx(0.8)
        assert scores["b"] == pytest.approx(0.8 * 0.5)

    def test_top_b_selection(self):
        graph = SkillGraph()
        add_nodes(graph, ["seed", "x", "y", "z"], category="clean")
        graph.add_edge("seed", "x", EdgeKind.PREREQ, 0.9)
        graph.add_edge("seed", "y", EdgeKind.PREREQ, 0.7)
        graph.add_edge("seed", "z", EdgeKind.PREREQ, 0.3)
        graph.compute_levels()
        graph.highest_active_level = 10
        scores, _ = _expand_forward(graph, {"seed"}, 2, DEFAULT_BFS_DEPTH)
        assert set(scores) == {"x", "y"}
        assert scores == {"x": pytest.approx(0.9), "y": pytest.approx(0.7)}

    def test_max_over_parents(self):
        graph = SkillGraph()
        add_nodes(graph, ["s1", "s2", "v"], category="clean")
        graph.add_edge("s1", "v", EdgeKind.PREREQ, 0.3)
        graph.add_edge("s2", "v", EdgeKind.PREREQ, 0.6)
        graph.compute_levels()
        graph.highest_active_level = 10
        scores, _ = _expand_forward(graph, {"s1", "s2"}, 3, DEFAULT_BFS_DEPTH)
        assert scores["v"] == pytest.approx(0.6)

    def test_cooccur_traversed_both_directions(self):
        graph = SkillGraph()
        add_nodes(graph, ["seed", "other"], category="clean")
        # stored canonically as (other, seed) yet reachable from seed
        graph.add_edge("other", "seed", EdgeKind.CO_OCCUR, 0.4)
        graph.compute_levels()
        graph.highest_active_level = 10
        scores, _ = _expand_forward(graph, {"seed"}, 2, DEFAULT_BFS_DEPTH)
        assert set(scores) == {"other"}
        assert scores["other"] == pytest.approx(0.4)

    def test_locked_and_deprecated_excluded(self):
        graph = self.build()
        graph.highest_active_level = 0  # a and b sit at levels 1 and 2
        kept = set(_expand_forward(graph, {"seed"}, 3, DEFAULT_BFS_DEPTH)[0])
        assert kept == set()
        graph.highest_active_level = 10
        graph.nodes["a"].deprecated = True
        kept = set(_expand_forward(graph, {"seed"}, 3, DEFAULT_BFS_DEPTH)[0])
        assert kept == set()  # deprecated nodes do not relay either

    def test_sigma_matches_bounded_path_oracle_without_truncation(self, rng):
        for _ in range(40):
            graph = SkillGraph()
            n = rng.randint(3, 18)
            ids = [f"n{i}" for i in range(n)]
            add_nodes(graph, ids, category="clean")
            for _ in range(rng.randint(n, 4 * n)):
                src, dst = rng.sample(ids, 2)
                try:
                    graph.add_edge(src, dst, rng.choice(list(EdgeKind)),
                                   rng.random())
                except Exception:
                    pass
            graph.compute_levels()
            graph.highest_active_level = 99
            seeds = set(rng.sample(ids, rng.randint(1, min(3, n))))
            layers = rng.randint(1, 4)
            scores, _ = _expand_forward(graph, seeds, len(ids), layers)
            oracle = oracle_best_path_products(graph, seeds, layers)
            assert scores == oracle

    def test_kept_is_subset_of_untruncated_run(self, rng):
        # width-B results never contain a node the exhaustive run missed
        for _ in range(25):
            graph = SkillGraph()
            ids = [f"n{i}" for i in range(rng.randint(4, 14))]
            add_nodes(graph, ids, category="clean")
            for _ in range(3 * len(ids)):
                src, dst = rng.sample(ids, 2)
                try:
                    graph.add_edge(src, dst, rng.choice(list(EdgeKind)),
                                   rng.random())
                except Exception:
                    pass
            graph.compute_levels()
            graph.highest_active_level = 99
            seeds = {ids[0]}
            full = set(_expand_forward(graph, seeds, len(ids), DEFAULT_BFS_DEPTH)[0])
            for width in (1, 2, 3):
                kept = set(_expand_forward(graph, seeds, width, DEFAULT_BFS_DEPTH)[0])
                assert kept <= full

    def test_layer_width_bound(self):
        graph = SkillGraph()
        add_nodes(graph, [f"n{i}" for i in range(10)], category="clean")
        for i in range(1, 10):
            graph.add_edge("n0", f"n{i}", EdgeKind.PREREQ, 0.1 * i)
        graph.compute_levels()
        graph.highest_active_level = 99
        kept, walked = _expand_forward(graph, {"n0"}, 3, 1)
        assert len(kept) == 3


class TestTopoOrder:
    def test_chain(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.add_edge("b", "c", EdgeKind.PREREQ, 0.5)
        graph.compute_levels()
        assert topo_order(graph, {"c", "a", "b"}) == ["a", "b", "c"]

    def test_equal_level_ties_break_by_id(self):
        graph = SkillGraph()
        add_nodes(graph, ["beta", "alpha"])
        graph.compute_levels()
        assert topo_order(graph, {"beta", "alpha"}) == ["alpha", "beta"]

    def test_diamond_tie_break(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c", "d"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.add_edge("a", "c", EdgeKind.PREREQ, 0.5)
        graph.add_edge("b", "d", EdgeKind.PREREQ, 0.5)
        graph.add_edge("c", "d", EdgeKind.PREREQ, 0.5)
        graph.compute_levels()
        order = topo_order(graph, {"a", "b", "c", "d"})
        assert order[0] == "a" and order[-1] == "d"
        assert order.index("b") < order.index("c")
        # membership in the set of valid topological orders
        position = {v: i for i, v in enumerate(order)}
        for src, dst in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
            assert position[src] < position[dst]

    def test_sigma_breaks_ties_before_id(self):
        graph = SkillGraph()
        add_nodes(graph, ["aa", "zz"])
        graph.compute_levels()
        assert topo_order(graph, {"aa", "zz"}, {"aa": 0.2, "zz": 0.9}) == ["zz", "aa"]


class TestRetrieve:
    def build_layered(self, levels: int = 4, per_level: int = 3) -> SkillGraph:
        graph = SkillGraph()
        for lvl in range(levels):
            for i in range(per_level):
                graph.add_skill(make_node(f"l{lvl}_{i}", category="clean"))
        for lvl in range(1, levels):
            for i in range(per_level):
                graph.add_edge(f"l{lvl - 1}_{i}", f"l{lvl}_{i}",
                               EdgeKind.PREREQ, 0.9)
        graph.compute_levels()
        graph.highest_active_level = levels
        return graph

    def test_cap_respected_with_defaults(self):
        graph = self.build_layered()
        result = retrieve(graph, TaskQuery("", "clean"))
        assert len(result.ordered_skills) <= 8
        assert result.capped

    def test_empty_active_set(self):
        graph = SkillGraph()
        result = retrieve(graph, TaskQuery("", "clean"))
        assert result.ordered_skills == []
        assert not result.capped

    def test_cap_keeps_lowest_levels(self):
        graph = self.build_layered(levels=4, per_level=3)  # 12 candidates
        result = retrieve(graph, TaskQuery("", "clean"), k_max=8)
        assert len(result.ordered_skills) == 8
        kept_levels = [graph.nodes[s].level for s in result.ordered_skills]
        assert kept_levels == sorted(kept_levels)
        # the first eight in level-ascending order are levels 0,0,0,1,1,1,2,2
        assert kept_levels == [0, 0, 0, 1, 1, 1, 2, 2]

    def test_dependency_order_holds_in_output(self):
        graph = self.build_layered()
        result = retrieve(graph, TaskQuery("", "clean"))
        position = {v: i for i, v in enumerate(result.ordered_skills)}
        for edge in graph.edges():
            if edge.kind is EdgeKind.CO_OCCUR:
                continue
            if edge.src in position and edge.dst in position:
                assert position[edge.src] < position[edge.dst]

    def test_deterministic_byte_for_byte(self):
        graph = self.build_layered()
        query = TaskQuery("same", "clean")
        first = retrieve(graph, query)
        second = retrieve(graph, query)
        assert first == second

    def test_traversed_edges_have_endpoints_in_output(self):
        graph = self.build_layered()
        result = retrieve(graph, TaskQuery("", "clean"))
        kept = set(result.ordered_skills)
        for src, dst, _ in result.traversed_edges:
            assert src in kept and dst in kept

    def test_k_max_zero(self):
        graph = self.build_layered()
        result = retrieve(graph, TaskQuery("", "clean"), k_max=0)
        assert result.ordered_skills == []


class TestRenderSkillBlock:
    def test_empty_result_header_only(self):
        graph = SkillGraph()
        result = retrieve(graph, TaskQuery("", "clean"))
        assert render_skill_block(result, graph) == \
            "### Skills (ordered by dependency)"

    def test_single_skill_block(self):
        graph = SkillGraph()
        graph.add_skill(make_node(
            "wipe", category="clean", title="Wipe surfaces",
            principle="Wipe from top to bottom",
            when_to_apply="Cleaning any surface"))
        graph.compute_levels()
        result = retrieve(graph, TaskQuery("", "clean"))
        text = render_skill_block(result, graph)
        lines = text.splitlines()
        assert lines[0] == "### Skills (ordered by dependency)"
        assert lines[1] == "- **[clean] Wipe surfaces** [wipe]: Wipe from top to bottom."
        assert lines[2] == "  _Apply when: Cleaning any surface._"
        assert len(lines) == 3

    def test_bullet_order_matches_sequence(self):
        graph = SkillGraph()
        add_nodes(graph, ["b", "a", "c"], category="clean")
        graph.compute_levels()
        result = retrieve(graph, TaskQuery("", "clean"))
        text = render_skill_block(result, graph)
        bullet_ids = [line.split("[")[2].split("]")[0]
                      for line in text.splitlines() if line.startswith("- ")]
        assert bullet_ids == result.ordered_skills

    def test_mistakes_section_only_when_supplied(self):
        graph = SkillGraph()
        add_nodes(graph, ["a"], category="clean")
        graph.compute_levels()
        result = retrieve(graph, TaskQuery("", "clean"))
        plain = render_skill_block(result, graph)
        assert "Mistakes to Avoid" not in plain
        with_mistakes = render_skill_block(result, graph, mistakes=[
            FailurePattern(dont="Heat before locating the item",
                           instead="Locate and pick up first")])
        assert "### Mistakes to Avoid" in with_mistakes
        assert "- **Don't**: Heat before locating the item." in with_mistakes
        assert "  **Instead**: Locate and pick up first." in with_mistakes


class TestConcurrentReads:
    def test_snapshot_serves_threads_while_writer_mutates(self):
        import threading

        graph = SkillGraph()
        add_nodes(graph, [f"s{i}" for i in range(12)], category="clean")
        for i in range(11):
            graph.add_edge(f"s{i}", f"s{i + 1}", EdgeKind.PREREQ, 0.9)
        graph.compute_levels()
        graph.highest_active_level = 20
        frozen = graph.snapshot()
        expected = retrieve(frozen, TaskQuery("", "clean"))

        results = []
        errors = []

        def reader():
            try:
                for _ in range(50):
                    results.append(retrieve(frozen, TaskQuery("", "clean")))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        # writer keeps mutating the original while readers run
        for i in range(40):
            graph.add_skill(make_node(f"new{i}", category="clean"))
            graph.update_stats([(f"s{i % 12}", True, True)])
        for t in threads:
            t.join()
        assert not errors
        assert all(r == expected for r in results)


class TestActiveSetRespect:
    def test_no_deprecated_or_locked_in_output(self, rng):
        for _ in range(30):
            graph = SkillGraph()
            ids = [f"n{i}" for i in range(rng.randint(3, 20))]
            for skill_id in ids:
                graph.add_skill(make_node(
                    skill_id,
                    category=rng.choice(["general", "clean", "heat"]),
                    deprecated=rng.random() < 0.2))
            for _ in range(2 * len(ids)):
                src, dst = rng.sample(ids, 2)
                try:
                    graph.add_edge(src, dst, rng.choice(list(EdgeKind)),
                                   rng.random())
                except Exception:
                    pass
            graph.compute_levels()
            graph.highest_active_level = rng.randint(0, 2)
            result = retrieve(graph, TaskQuery("", "clean"))
            for skill_id in result.ordered_skills:
                node = graph.nodes[skill_id]
                assert not node.deprecated
                assert node.level <= graph.highest_active_level
