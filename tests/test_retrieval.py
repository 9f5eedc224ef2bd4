"""Retrieval pipeline: seeds, expansions, ordering, capping, rendering."""

from __future__ import annotations

import heapq
import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skillnet import (
    EdgeKind,
    FailurePattern,
    SkillGraph,
    TaskQuery,
    render_skill_block,
    retrieval,
    retrieve,
    select_seeds,
    topo_order,
)
from skillnet.errors import ConfigInvalid, CycleWouldForm
from skillnet.model import DEPENDENCY_KINDS
from skillnet.retrieval import (
    DEFAULT_BFS_DEPTH,
    RetrievalResult,
    _expand_backward,
    _expand_forward,
)

from bench.library import CATEGORIES, answer, digest, generate_library
from conftest import add_nodes, make_node, oracle_best_path_products, random_graph
from retrieval_oracle import retrieve as oracle_retrieve


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


def kahn_topo_order(graph: SkillGraph, skill_ids: set[str],
                    scores: dict[str, float] | None = None) -> list[str]:
    """Oracle: Kahn's pass over the induced dependency subgraph, always
    popping the ready skill of lowest (level, -score, id)."""
    scores = scores or {}
    members = set(skill_ids)
    indegree = {v: 0 for v in members}
    children: dict[str, list[str]] = {v: [] for v in members}
    for src, dst, kind in graph.edges():
        if kind in DEPENDENCY_KINDS and src in members and dst in members:
            indegree[dst] += 1
            children[src].append(dst)

    def rank(v: str) -> tuple[int, float, str]:
        return (graph.nodes[v].level, -scores.get(v, 1.0), v)

    ready = [rank(v) for v, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    ordered: list[str] = []
    while ready:
        _, _, v = heapq.heappop(ready)
        ordered.append(v)
        for child in children[v]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, rank(child))
    return ordered


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

    def test_stale_levels_are_brought_up_to_date(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.compute_levels()
        graph.add_edge("b", "a", EdgeKind.PREREQ, 0.5)
        # a still reads level 0, which would rank it before its parent b
        assert graph.nodes["a"].level == 0
        assert topo_order(graph, {"a", "b"}) == ["b", "a"]
        assert graph.nodes["a"].level == 1

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_equals_kahn_pass(self, seed, data):
        graph = random_graph(random.Random(seed), deprecated_rate=0.3)
        ids = sorted(graph.nodes)
        members = data.draw(st.sets(st.sampled_from(ids)))
        scores = data.draw(st.dictionaries(
            st.sampled_from(ids), st.sampled_from([0.0, 0.09, 0.3, 0.5, 1.0])))
        assert topo_order(graph, members, scores) == kahn_topo_order(graph, members, scores)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_limit_keeps_the_prefix_of_the_full_order(self, seed, data):
        graph = random_graph(random.Random(seed), deprecated_rate=0.3)
        ids = sorted(graph.nodes)
        members = data.draw(st.sets(st.sampled_from(ids)))
        scores = data.draw(st.dictionaries(
            st.sampled_from(ids), st.sampled_from([0.0, 0.09, 0.3, 0.5, 1.0])))
        full = sorted(members, key=lambda v: (graph.nodes[v].level, -scores.get(v, 1.0), v))
        assert topo_order(graph, members, scores, -1) == full
        for limit in (0, 1, 2, len(members) + 1):
            assert topo_order(graph, members, scores, limit) == full[:limit], limit


class TestStageContract:
    """``retrieve`` looks its four stages up as module globals and hands
    ``topo_order`` the whole candidate set as its second positional argument:
    the benchmark's tracer wraps exactly those names and counts that set as
    ``retrieval.candidates``."""

    STAGES = ("select_seeds", "_expand_backward", "_expand_forward", "topo_order")

    @pytest.mark.parametrize("k_max", [-1, 0, 3, 8])
    def test_one_retrieve_crosses_each_stage_once(self, monkeypatch, k_max):
        calls: dict[str, list[tuple]] = {name: [] for name in self.STAGES}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name].append((args, kwargs, result))
                return result
            return wrapper

        for name in self.STAGES:
            monkeypatch.setattr(retrieval, name, counted(name, getattr(retrieval, name)))
        # 4 seeds, 2 prereq ancestors and 3 beam picks: 9 candidates
        graph = SkillGraph()
        add_nodes(graph, [f"c{i}" for i in range(4)], category="clean")
        add_nodes(graph, [f"h{i}" for i in range(8)], category="heat")
        graph.add_edge("h0", "c0", EdgeKind.PREREQ, 0.5)
        graph.add_edge("h1", "h0", EdgeKind.PREREQ, 0.5)
        for i in range(2, 8):
            graph.add_edge(f"c{i % 4}", f"h{i}", EdgeKind.CO_OCCUR, 0.1 * i)
        graph.highest_active_level = 5
        result = retrieval.retrieve(graph, TaskQuery("t", "clean"), k_max=k_max)

        assert {name: len(seen) for name, seen in calls.items()} == dict.fromkeys(self.STAGES, 1)
        seeds = calls["select_seeds"][0][2]
        bfs_nodes = calls["_expand_backward"][0][2][0]
        beam_scores = calls["_expand_forward"][0][2][0]
        args, kwargs, ordered = calls["topo_order"][0]
        assert args[1] == seeds | bfs_nodes | set(beam_scores)
        assert (len(seeds), len(bfs_nodes), len(beam_scores)) == (4, 2, 3)
        assert ordered == result.ordered_skills
        assert result.capped == (len(args[1]) > len(ordered))


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
        for src, dst, kind in graph.edges():
            if kind is EdgeKind.CO_OCCUR:
                continue
            if src in position and dst in position:
                assert position[src] < position[dst]

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

    @given(seed=st.integers(0, 2**32 - 1), description=st.text(max_size=12),
           task_type=st.sampled_from(["clean", "heat", "general", "cook"]),
           depth=st.integers(0, 3), beam_width=st.integers(0, 4),
           k_max=st.integers(-1, 10))
    def test_result_does_not_depend_on_the_description(
            self, seed, description, task_type, depth, beam_width, k_max):
        """``run_loop`` shares one result among a window's tasks of one type,
        which holds only while ``task_type`` is the one query field read here.
        If this fails, retrieval reads the description, and the reuse key in
        ``run_loop`` must grow to include it."""
        graph = random_graph(random.Random(seed), deprecated_rate=0.3)
        params = dict(depth=depth, beam_width=beam_width, k_max=k_max)
        reference = retrieve(graph, TaskQuery("", task_type), **params)
        result = retrieve(graph, TaskQuery(description, task_type), **params)
        assert result == reference


ORACLE_K_MAX = (-1, 0, 1, 8)
PREREQ, ENHANCE, CO_OCCUR = EdgeKind.PREREQ, EdgeKind.ENHANCE, EdgeKind.CO_OCCUR


def tie_graph(skills: dict[str, str], edges: list[tuple[str, str, EdgeKind, float]],
              top: int = 10) -> SkillGraph:
    """Skills given as id -> category, edges added in the order listed."""
    graph = SkillGraph()
    for skill_id, category in skills.items():
        graph.add_skill(make_node(skill_id, category=category))
    for src, dst, kind, weight in edges:
        graph.add_edge(src, dst, kind, weight)
    graph.compute_levels()
    graph.highest_active_level = top
    return graph


def matches_oracle(graph: SkillGraph, beam_width: int = 3) -> RetrievalResult:
    """Retrieve for "clean" at every k_max in ORACLE_K_MAX, check each whole
    result against the edge-at-a-time oracle, and return the uncapped one."""
    query = TaskQuery("", "clean")
    for k_max in ORACLE_K_MAX:
        result = retrieve(graph, query, beam_width=beam_width, k_max=k_max)
        assert result == oracle_retrieve(graph, query, beam_width=beam_width,
                                         k_max=k_max), k_max
    return retrieve(graph, query, beam_width=beam_width, k_max=-1)


class TestTieRules:
    """Where several walks reach one skill, the expansion edge recorded is the
    one the oracle's id-ordered, edge-at-a-time walk takes first. Level-0
    filler seeds keep the edge under test from joining two consecutive skills
    of the answer, whose dependency edges are traversed anyway."""

    def test_bfs_parent_of_two_children_walks_the_lower_id_child(self):
        graph = tie_graph(
            {"x1": "clean", "x2": "clean", "y": "clean", "p": "heat",
             "q1": "heat", "q2": "heat", "g": "heat", "h": "clean"},
            [("p", "x2", PREREQ, 0.5), ("p", "x1", PREREQ, 0.5),
             ("q2", "y", PREREQ, 0.5), ("q1", "y", PREREQ, 0.5),
             ("g", "q2", PREREQ, 0.5), ("g", "q1", PREREQ, 0.5)])
        result = matches_oracle(graph)
        # layer 1 from the seeds, layer 2 from q1 and q2
        assert {("p", "x1", PREREQ), ("g", "q1", PREREQ)} <= result.traversed_edges
        assert not {("p", "x2", PREREQ), ("g", "q2", PREREQ)} & result.traversed_edges

    def test_enhance_edge_into_a_seed_is_never_walked(self):
        graph = tie_graph(
            {"a": "heat", "b": "clean", "e": "heat", "s": "clean"},
            [("a", "s", ENHANCE, 0.9), ("a", "s", PREREQ, 0.5), ("e", "s", ENHANCE, 0.9)])
        result = matches_oracle(graph)
        assert result.bfs_count == 1 and "e" not in result.ordered_skills
        assert ("a", "s", PREREQ) in result.traversed_edges
        assert ("a", "s", ENHANCE) not in result.traversed_edges

    def test_equal_hops_from_two_seeds_keep_the_lower_key(self):
        graph = tie_graph(
            {"s1": "clean", "s2": "clean", "s3": "clean", "v": "heat"},
            [("s2", "v", PREREQ, 0.5), ("s1", "v", PREREQ, 0.5)])
        result = matches_oracle(graph)
        assert result.scores["v"] == 0.5
        assert ("s1", "v", PREREQ) in result.traversed_edges
        assert ("s2", "v", PREREQ) not in result.traversed_edges

    def test_equal_scores_in_a_layer_select_the_lower_id_first(self):
        children = ["x_d", "x_b", "x_c", "x_a"]
        graph = tie_graph({"s": "clean", **dict.fromkeys(children, "heat")},
                          [("s", v, CO_OCCUR, 0.5) for v in children])
        for beam_width in range(5):
            result = matches_oracle(graph, beam_width)
            assert sorted(result.ordered_skills) == ["s", *sorted(children)[:beam_width]]

    def test_beam_skill_selected_again_with_a_higher_score(self):
        graph = tie_graph(
            {"s": "clean", "b": "heat", "v": "heat"},
            [("s", "b", CO_OCCUR, 0.9), ("b", "v", CO_OCCUR, 0.9), ("s", "v", CO_OCCUR, 0.4)])
        result = matches_oracle(graph, beam_width=2)
        assert result.scores["v"] == pytest.approx(0.81)
        # both hops that selected v count, the layer-1 one and the better one
        assert result.traversed_edges == {
            ("b", "s", CO_OCCUR), ("s", "v", CO_OCCUR), ("b", "v", CO_OCCUR)}

    def test_deprecated_and_locked_skills_neither_appear_nor_relay(self):
        graph = tie_graph(
            {"s": "clean", "d": "heat", "dd": "heat", "lock": "heat", "past": "heat",
             "dep": "heat", "beyond": "heat"},
            [("dd", "d", PREREQ, 0.5), ("d", "s", PREREQ, 0.5),
             ("s", "lock", PREREQ, 0.9), ("lock", "past", CO_OCCUR, 0.9),
             ("s", "dep", CO_OCCUR, 0.9), ("dep", "beyond", CO_OCCUR, 0.9)],
            top=2)
        graph.nodes["d"].deprecated = graph.nodes["dep"].deprecated = True
        # a locked skill sits above every active one, so only the beam meets it
        assert (graph.nodes["s"].level, graph.nodes["lock"].level) == (2, 3)
        result = matches_oracle(graph)
        assert result.ordered_skills == ["s"]
        assert (result.bfs_count, result.beam_count) == (0, 0)

    @given(data=st.data(), n=st.integers(1, 10), depth=st.integers(0, 3),
           beam_width=st.integers(0, 4), k_max=st.sampled_from([-1, 0, 1, 2, 8]),
           top=st.integers(0, 3))
    def test_whole_result_equals_the_oracle_when_ties_are_the_rule(
            self, data, n, depth, beam_width, k_max, top):
        graph = SkillGraph()
        ids = [f"n{i}" for i in range(n)]
        for skill_id in ids:
            graph.add_skill(make_node(
                skill_id, category=data.draw(st.sampled_from(["general", "clean", "heat"])),
                deprecated=data.draw(st.booleans())))
        edges = data.draw(st.lists(st.tuples(
            st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(list(EdgeKind)),
            st.sampled_from([0.0, 0.5, 1.0])), max_size=3 * n))
        for src, dst, kind, weight in edges:
            try:  # a self-loop or a cycle is refused; a repeat is a no-op
                graph.add_edge(src, dst, kind, weight)
            except CycleWouldForm:
                pass
        graph.compute_levels()
        graph.highest_active_level = top
        params = dict(depth=depth, beam_width=beam_width, k_max=k_max)
        for task_type in ("clean", "heat"):
            query = TaskQuery("", task_type)
            assert retrieve(graph, query, **params) == oracle_retrieve(graph, query, **params)


EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())


class TestBenchScaleAnswers:
    """The answers pinned in ``bench/expected.json`` for the benchmark's own
    libraries: the first five categories on every 2k variant with usage
    statistics, and all twenty on the 8k library of held-out variant 15."""

    @pytest.mark.parametrize("variant", range(16))
    def test_checkpoint_2k_answers(self, variant):
        graph = generate_library(2000, variant, with_stats=True).snapshot()
        pins = EXPECTED["checkpoint_2k"][str(variant)]
        for category in CATEGORIES[:5]:
            result = retrieve(graph, TaskQuery("warm-up", category))
            assert digest(answer(result)) == pins[f"answer/{category}"], category

    def test_retrieve_8k_answers(self):
        graph = generate_library(8000, 15).snapshot()
        pins = EXPECTED["retrieve_8k"]["15"]
        for category in CATEGORIES:
            result = retrieve(graph, TaskQuery("q", category))
            assert digest(answer(result)) == pins[f"answer/{category}"], category


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
