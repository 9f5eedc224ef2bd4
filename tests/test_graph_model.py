"""Core graph model: nodes, typed edges, levels, statistics, init priors."""

from __future__ import annotations

import ast
import copy
import math
import random
import time
from collections import deque
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skillnet
from skillnet import (
    EdgeKind, SkillGraph, TaskQuery, graph_to_dict, load_graph, retrieve, save_graph,
)
from skillnet.evolution import EvolutionConfig, deprecate_scan, merge_scan, split_scan
from skillnet.model import DEPENDENCY_KINDS, SkillNode, edge_key, pair_key
from skillnet.proposer import Proposer, SkillProposal
from skillnet.errors import (
    AlreadyInitialized,
    CycleDetected,
    CycleWouldForm,
    DuplicateEdge,
    DuplicateId,
    EmptyTitle,
    SuccessWithoutUse,
    UnknownEndpoint,
    UnknownSkill,
    WeightOutOfRange,
)

from bench.library import generate_library
from conftest import (
    add_nodes,
    computed_levels,
    dependency_edges,
    make_node,
    oracle_has_cycle,
    oracle_levels,
    random_graph,
)


class TestAddSkill:
    def test_first_insertion_accepted(self):
        graph = SkillGraph()
        skill_id = graph.add_skill(make_node("verify", title="Verify sub-goals"))
        assert skill_id == "verify"
        assert computed_levels(graph)["verify"] == 0

    def test_duplicate_id_rejected(self):
        graph = SkillGraph()
        graph.add_skill(make_node("a"))
        with pytest.raises(DuplicateId):
            graph.add_skill(make_node("a"))

    def test_empty_title_rejected(self):
        graph = SkillGraph()
        with pytest.raises(EmptyTitle):
            graph.add_skill(make_node("a", title="   "))

    def test_twenty_distilled_skills_all_level_zero(self):
        graph = SkillGraph()
        add_nodes(graph, [f"s{i}" for i in range(20)], category="clean")
        levels = computed_levels(graph)
        assert set(levels.values()) == {0}

    def test_a_node_takes_only_its_declared_fields(self):
        # a misspelt field would otherwise be set silently and never saved
        node = make_node("a")
        with pytest.raises(AttributeError):
            node.n_uses = 3
        node.n_use = 3
        assert not hasattr(node, "__dict__")


class TestAddEdge:
    def test_two_cycle_rejected(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        with pytest.raises(CycleWouldForm):
            graph.add_edge("b", "a", EdgeKind.PREREQ, 0.5)

    def test_cooccur_symmetric_insertion_idempotent(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.3)
        graph.add_edge("b", "a", EdgeKind.CO_OCCUR, 0.3)
        assert len(graph.edges()) == 1
        assert graph.weight("b", "a", EdgeKind.CO_OCCUR) == 0.3

    def test_three_node_enhance_chain_cycle_rejected(self):
        graph = SkillGraph()
        add_nodes(graph, ["g", "s1", "s2"])
        graph.add_edge("g", "s1", EdgeKind.ENHANCE, 0.2)
        graph.add_edge("s1", "s2", EdgeKind.ENHANCE, 0.2)
        with pytest.raises(CycleWouldForm):
            graph.add_edge("s2", "g", EdgeKind.ENHANCE, 0.2)
        # the oracle agrees the graph would have been cyclic
        assert not oracle_has_cycle(["g", "s1", "s2"], dependency_edges(graph))
        assert oracle_has_cycle(
            ["g", "s1", "s2"], dependency_edges(graph) + [("s2", "g")])

    def test_unknown_endpoint(self):
        graph = SkillGraph()
        add_nodes(graph, ["a"])
        with pytest.raises(UnknownEndpoint):
            graph.add_edge("a", "ghost", EdgeKind.PREREQ, 0.5)

    def test_weight_out_of_range(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        for bad in (-0.1, 1.1):
            with pytest.raises(WeightOutOfRange):
                graph.add_edge("a", "b", EdgeKind.PREREQ, bad)

    def test_self_loop_rejected(self):
        graph = SkillGraph()
        add_nodes(graph, ["a"])
        with pytest.raises(CycleWouldForm):
            graph.add_edge("a", "a", EdgeKind.CO_OCCUR, 0.3)

    def test_mixed_kind_cycle_rejected(self):
        # prereq and enhance share one acyclicity constraint
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        with pytest.raises(CycleWouldForm):
            graph.add_edge("b", "a", EdgeKind.ENHANCE, 0.5)

    def test_readd_existing_edge_is_noop(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        key = graph.add_edge("a", "b", EdgeKind.PREREQ, 0.9)
        assert graph.edges()[key] == 0.5
        assert len(graph.edges()) == 1

    def test_returns_the_canonical_key(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        assert graph.add_edge("b", "a", EdgeKind.CO_OCCUR, 0.3) == \
            ("a", "b", EdgeKind.CO_OCCUR)
        assert graph.add_edge("b", "a", EdgeKind.PREREQ, 0.3) == \
            ("b", "a", EdgeKind.PREREQ)


class TestEdgeWeights:
    def test_set_weight_rejects_out_of_range(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        key = graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(WeightOutOfRange):
                graph.set_weight(key, bad)
            assert graph.weight("a", "b", EdgeKind.PREREQ) == 0.5

    def test_set_weight_rejects_an_unknown_key(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.3)
        with pytest.raises(KeyError):
            graph.set_weight(("b", "a", EdgeKind.CO_OCCUR), 0.5)  # not canonical
        with pytest.raises(KeyError):
            graph.set_weight(("a", "b", EdgeKind.PREREQ), 0.5)
        assert dict(graph.edges()) == {("a", "b", EdgeKind.CO_OCCUR): 0.3}

    def test_set_weight_stores_a_float(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        key = graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.set_weight(key, 1)
        assert type(graph.edges()[key]) is float and graph.edges()[key] == 1.0

    def test_edges_is_a_read_only_live_view(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"])
        view = graph.edges()
        key = graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        with pytest.raises(TypeError):
            view[key] = 0.9
        with pytest.raises(TypeError):
            view[("b", "c", EdgeKind.PREREQ)] = 0.9
        assert dict(view) == {key: 0.5}
        graph.set_weight(key, 0.7)
        assert view[key] == 0.7


class TestScaleWeights:
    @pytest.mark.parametrize("factor", [0, 0.0, 1, 1.0, 0.99])
    def test_stores_what_one_set_weight_per_edge_stores(self, rng, factor):
        for _ in range(20):
            graph = random_graph(rng)
            for key in list(graph.edges())[:2]:
                graph.set_weight(key, rng.choice([0.0, 1.0]))
            by_edge = copy.deepcopy(graph)
            for key, weight in list(by_edge.edges().items()):
                by_edge.set_weight(key, weight * factor)
            view = graph.edges()
            graph.scale_weights(factor)
            assert [(key, repr(w)) for key, w in view.items()] == \
                [(key, repr(w)) for key, w in by_edge.edges().items()]
            assert all(type(w) is float for w in view.values())
            assert graph._out == by_edge._out and graph._in == by_edge._in

    @pytest.mark.parametrize("factor", [math.nan, -0.1, 1.1])
    def test_refuses_a_factor_outside_the_unit_range_before_any_write(self, rng, factor):
        graph = random_graph(rng, n=12)
        before = list(graph.edges().items())
        with pytest.raises(WeightOutOfRange):
            graph.scale_weights(factor)
        assert list(graph.edges().items()) == before


class TestHasAnyEdge:
    def test_matches_a_lookup_of_every_kind_both_ways(self, rng):
        for _ in range(10):
            graph = random_graph(rng)
            ids = sorted(graph.nodes) + ["missing"]
            for a in ids:
                for b in ids:
                    expected = any(edge_key(a, b, kind) in graph.edges()
                                   or edge_key(b, a, kind) in graph.edges()
                                   for kind in EdgeKind)
                    assert graph.has_any_edge(a, b) == expected, (a, b)


class TestNeighbors:
    def test_matches_a_scan_of_every_edge(self, rng):
        for _ in range(30):
            graph = random_graph(rng, deprecated_rate=0.3)
            for v in graph.nodes:  # deprecated nodes included
                expected = {b if a == v else a for a, b, _ in graph.edges()
                            if v in (a, b)}
                expected = {u for u in expected if not graph.nodes[u].deprecated}
                assert graph.neighbors(v) == expected, v
        assert graph.neighbors("missing") == set()


class TestInitEdges:
    def test_structural_priors(self):
        graph = SkillGraph()
        add_nodes(graph, ["g1", "g2"], category="general")
        add_nodes(graph, ["t1", "t2", "t3"], category="clean")
        added = graph.init_edges()
        cooccur = [w for k, w in graph.edges().items() if k[2] is EdgeKind.CO_OCCUR]
        enhance = [w for k, w in graph.edges().items() if k[2] is EdgeKind.ENHANCE]
        prereq = [w for k, w in graph.edges().items() if k[2] is EdgeKind.PREREQ]
        assert added == 9
        assert len(cooccur) == 3 and all(w == 0.3 for w in cooccur)
        assert len(enhance) == 6 and all(w == 0.2 for w in enhance)
        assert prereq == []

    def test_only_general_skills_no_edges(self):
        graph = SkillGraph()
        add_nodes(graph, ["g1", "g2"], category="general")
        assert graph.init_edges() == 0

    def test_single_specific_no_general_no_edges(self):
        graph = SkillGraph()
        add_nodes(graph, ["t1"], category="clean")
        assert graph.init_edges() == 0

    def test_already_initialized(self):
        graph = SkillGraph()
        add_nodes(graph, ["g"], category="general")
        add_nodes(graph, ["t"], category="clean")
        graph.init_edges()
        with pytest.raises(AlreadyInitialized):
            graph.init_edges()

    def test_cross_category_specifics_not_linked(self):
        graph = SkillGraph()
        add_nodes(graph, ["t1"], category="clean")
        add_nodes(graph, ["t2"], category="heat")
        assert graph.init_edges() == 0

    def test_one_batch_matches_edge_by_edge(self):
        """The batch lays the edges, and each node's adjacency tuple, in the
        order one ``add_edge`` per pair did, and brings levels up to date."""
        graph, by_edge = SkillGraph(), SkillGraph()
        for g in (graph, by_edge):
            add_nodes(g, ["g2", "g1"], category="general")
            add_nodes(g, ["t3", "t1", "u1"], category="clean")
            add_nodes(g, ["t2", "u2"], category="heat")
        assert graph.init_edges() == 14
        specifics = ["t1", "t2", "t3", "u1", "u2"]
        for i, a in enumerate(specifics):
            for b in specifics[i + 1:]:
                if by_edge.nodes[a].category == by_edge.nodes[b].category:
                    by_edge.add_edge(a, b, EdgeKind.CO_OCCUR, 0.3)
        for g in ("g1", "g2"):
            for t in specifics:
                by_edge.add_edge(g, t, EdgeKind.ENHANCE, 0.2)
        assert list(graph.edges().items()) == list(by_edge.edges().items())
        assert graph._out == by_edge._out and graph._in == by_edge._in
        assert graph._unleveled == set()
        by_edge.ensure_levels()
        assert {v: n.level for v, n in graph.nodes.items()} == \
            {v: n.level for v, n in by_edge.nodes.items()}


class TestAdjacencyTuples:
    """Each node's adjacency is a tuple of keys in insertion order, replaced
    on every write; the batch writers give what single-edge writes give."""

    def test_remove_edges_matches_one_remove_edge_per_key(self, rng):
        for _ in range(30):
            graph = random_graph(rng)
            keys = list(graph.edges())
            doomed = rng.sample(keys, len(keys) // 2) + keys[:2]   # repeats
            doomed.append(("n000", "zz", EdgeKind.PREREQ))           # not stored
            one_by_one = copy.deepcopy(graph)
            for key in doomed:
                one_by_one.remove_edges([key])
            graph.remove_edges(doomed)
            assert list(graph.edges().items()) == list(one_by_one.edges().items())
            assert graph._out == one_by_one._out and graph._in == one_by_one._in
            assert graph._unleveled == one_by_one._unleveled
            assert all(type(keys) is tuple
                       for table in (graph._out, graph._in) for keys in table.values())

    def test_a_high_degree_node_is_built_and_removed_in_one_pass(self):
        """A 50,000-edge star loads and loses its hub well inside a second
        each; rebuilding the hub's tuple once per key takes several (a
        20,000-edge star is too small: one tuple append per key builds it in
        about 0.8 s on a 2-vCPU machine)."""
        graph = SkillGraph()
        leaves = [f"leaf{i:05d}" for i in range(50_000)]
        add_nodes(graph, ["hub", *leaves])
        rows = [("hub", leaf, "co_occur" if i % 2 else "prereq", 0.5)
                for i, leaf in enumerate(leaves)]
        start = time.perf_counter()
        graph.add_edges(rows)
        loaded = time.perf_counter()
        assert len(graph.forward_neighbors("hub")) == 50_000
        graph.remove_node("hub")
        removed = time.perf_counter()
        assert len(graph.edges()) == 0
        assert all(graph._out[v] == graph._in[v] == () for v in leaves)
        assert loaded - start < 1.0 and removed - loaded < 1.0, \
            (loaded - start, removed - loaded)


class TestComputeLevels:
    def test_isolated_node(self):
        graph = SkillGraph()
        add_nodes(graph, ["a"])
        assert computed_levels(graph) == {"a": 0}

    def test_prereq_chain(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.add_edge("b", "c", EdgeKind.PREREQ, 0.5)
        assert computed_levels(graph) == {"a": 0, "b": 1, "c": 2}

    def test_diamond_with_cooccur_ignored(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c", "d"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.add_edge("a", "c", EdgeKind.PREREQ, 0.5)
        graph.add_edge("b", "d", EdgeKind.PREREQ, 0.5)
        graph.add_edge("c", "d", EdgeKind.ENHANCE, 0.5)
        graph.add_edge("b", "c", EdgeKind.CO_OCCUR, 0.3)
        levels = computed_levels(graph)
        assert levels == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_matches_longest_path_oracle_on_random_dags(self, rng):
        for _ in range(50):
            graph = SkillGraph()
            n = rng.randint(2, 25)
            ids = [f"n{i}" for i in range(n)]
            add_nodes(graph, ids)
            for _ in range(rng.randint(0, 3 * n)):
                src, dst = rng.sample(ids, 2)
                kind = rng.choice(list(EdgeKind))
                try:
                    graph.add_edge(src, dst, kind, rng.random())
                except CycleWouldForm:
                    pass
            assert computed_levels(graph) == oracle_levels(
                ids, dependency_edges(graph))

    def test_a_cycle_closed_inside_the_region_is_refused_before_any_write(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c", "d", "e", "f"])
        for src, dst in [("a", "b"), ("b", "c"), ("c", "d"), ("e", "f")]:
            graph.add_edge(src, dst, EdgeKind.PREREQ, 0.5)
        graph.compute_levels()
        rogue = ("d", "b", EdgeKind.PREREQ)  # b -> c -> d -> b; a, e, f stay out
        graph._edges[rogue] = 0.5
        graph._out["d"] += (rogue,)
        graph._in["b"] += (rogue,)
        graph._unleveled.add("b")  # as _store names the child
        records = dict(graph.nodes)
        with pytest.raises(CycleDetected):
            graph.compute_levels()
        assert all(graph.nodes[v] is records[v] for v in records)
        assert graph._unleveled == {"b"}
        graph.remove_edges([rogue])
        assert computed_levels(graph) == {"a": 0, "b": 1, "c": 2, "d": 3, "e": 0, "f": 1}

    def test_one_new_prereq_edge_replaces_records_only_inside_its_closure(self):
        graph = generate_library(2000, 15)
        graph.ensure_levels()
        below = next(v for v in sorted(graph.nodes)
                     if 1 < len(dependency_closure(graph, v)) < 40)
        region = dependency_closure(graph, below)
        # the deepest skill outside the closure: the new edge raises ``below``
        top = max((v for v in graph.nodes if v not in region
                   and not graph.has_any_edge(v, below)),
                  key=lambda v: (graph.nodes[v].level, v))
        assert graph.nodes[top].level >= graph.nodes[below].level
        records = dict(graph.nodes)
        graph.add_edge(top, below, EdgeKind.PREREQ, 0.3)
        levels = computed_levels(graph)
        replaced = {v for v in graph.nodes if graph.nodes[v] is not records[v]}
        assert below in replaced and replaced <= region
        assert levels == full_kahn_levels(graph)
        assert levels[below] == graph.nodes[top].level + 1

    def test_a_new_edge_that_leaves_its_child_level_walks_nothing_below_it(self):
        """The child of the new edge is named, but its level still fits, so
        the leveling neither walks its closure nor replaces a record."""
        graph = generate_library(2000, 15)
        graph.ensure_levels()
        below = max((v for v, n in graph.nodes.items() if n.level >= 1),
                    key=lambda v: (len(dependency_closure(graph, v)), v))
        region = dependency_closure(graph, below)
        top = min(v for v, n in graph.nodes.items() if n.level == 0
                  and v not in region and not graph.has_any_edge(v, below))
        assert len(region) > 100
        graph.add_edge(top, below, EdgeKind.PREREQ, 0.3)
        assert graph._unleveled == {below}
        reads = []

        class CountingOut(dict):
            def __getitem__(self, v):
                reads.append(v)
                return super().__getitem__(v)

        graph._out = CountingOut(graph._out)
        records = dict(graph.nodes)
        graph.compute_levels()
        assert reads == []
        assert all(graph.nodes[v] is records[v] for v in records)
        assert graph._unleveled == set()


def dependency_closure(graph: SkillGraph, start: str) -> set[str]:
    """``start`` and every skill it reaches over dependency edges."""
    reached, stack = {start}, [start]
    while stack:
        for _, dst, kind in graph.forward_neighbors(stack.pop()):
            if kind in DEPENDENCY_KINDS and dst not in reached:
                reached.add(dst)
                stack.append(dst)
    return reached


def full_kahn_levels(graph: SkillGraph) -> dict[str, int]:
    """The oracle: the Kahn pass over every skill that ``compute_levels`` ran
    before it re-leveled only below what moved, verbatim but for its record
    writes, which it leaves out."""
    # edge keys carry (src, dst, kind), so the pass never reads an edge
    indegree = dict.fromkeys(graph.nodes, 0)
    for _, dst, kind in graph._edges:
        if kind in DEPENDENCY_KINDS:
            indegree[dst] += 1
    levels = dict.fromkeys(graph.nodes, 0)
    ready = deque(sorted(v for v, d in indegree.items() if d == 0))
    processed = 0
    while ready:
        v = ready.popleft()
        processed += 1
        child_level = levels[v] + 1
        for _, dst, kind in graph._out[v]:
            if kind in DEPENDENCY_KINDS:
                if levels[dst] < child_level:
                    levels[dst] = child_level
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
    if processed != len(graph.nodes):
        raise CycleDetected("dependency subgraph is cyclic")
    return levels


class PairTeacher(Proposer):
    """Merges one chosen pair, or splits one chosen skill in two, and
    declines every other request."""

    def __init__(self, kind: str, target: tuple[str, ...]) -> None:
        self.kind, self.target = kind, target

    def propose(self, request):
        if request.kind != self.kind:
            return []
        sides = request.skill_pair if self.kind == "merge" else [request.skill]
        if tuple(side["skill_id"] for side in sides) != self.target:
            return []
        parts = 2 if self.kind == "split" else 1
        return [SkillProposal(skill_id="", title=f"Part {i}", principle="Do it.",
                              when_to_apply="Always.") for i in range(parts)]


LEVEL_WRITES = ("add_skill", "add_edge", "add_edges", "remove_edges", "remove_node",
                "merge", "split", "rebind", "rogue", "snapshot")


def level_write(graph: SkillGraph, data, write: str) -> SkillGraph:
    """One write of ``LEVEL_WRITES`` to ``graph``; returns the graph to go on
    with, a snapshot for "snapshot"."""
    ids = sorted(graph.nodes)
    pick = lambda label: data.draw(st.sampled_from(ids), label=label)  # noqa: E731
    live = sorted(v for v, n in graph.nodes.items() if not n.deprecated)
    if write == "add_skill":
        # a small id pool, so removed ids come back with a stored level
        free = sorted({f"s{i}" for i in range(8)} - graph.nodes.keys())
        if free:
            node = make_node(data.draw(st.sampled_from(free), label="id"))
            node.level = data.draw(st.integers(0, 5) | st.just(True), label="level")
            graph.add_skill(node)
    elif write in ("add_edge", "add_edges") and len(ids) >= 2:
        rows = data.draw(st.lists(st.tuples(
            st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(list(EdgeKind))),
            min_size=1, max_size=1 if write == "add_edge" else 3), label="rows")
        if write == "add_edge":
            try:
                graph.add_edge(*rows[0], 0.5)
            except CycleWouldForm:
                pass
        else:
            try:
                graph.add_edges([(src, dst, kind.value, 0.5) for src, dst, kind in rows])
            except (CycleDetected, CycleWouldForm, DuplicateEdge):
                pass
    elif write == "remove_edges" and graph.edges():
        graph.remove_edges(data.draw(st.lists(st.sampled_from(sorted(graph.edges())),
                                              max_size=3), label="doomed"))
    elif write == "remove_node" and ids:
        victim = pick("victim")
        heirs = [v for v in ids if v != victim]
        heir = None
        if heirs:
            heir = data.draw(st.none() | st.sampled_from(heirs), label="heir")
        graph.remove_node(victim, heir=heir)
    elif write == "merge" and len(live) >= 2:
        pair = tuple(sorted(data.draw(st.lists(st.sampled_from(live), min_size=2,
                                               max_size=2, unique=True), label="pair")))
        assert merge_scan(graph, PairTeacher("merge", pair),
                          EvolutionConfig(merge_jaccard=0.0)) == [(pair[0], [pair[1]])]
    elif write == "split" and live:
        parent = data.draw(st.sampled_from(live), label="parent")
        cfg = EvolutionConfig(split_band=(0.0, 1.0), split_min_uses=0)
        splits = split_scan(graph, PairTeacher("split", (parent,)), [], cfg)
        assert [p for p, _ in splits] == [parent]
    elif write == "rebind" and ids:
        v = pick("rebound")
        graph._in[v] = tuple(list(graph._in[v]))  # equal keys, a new tuple
    elif write == "rogue" and len(ids) >= 2:
        # as test_defensive_cycle_detection: past the cycle guard, maybe closing one
        src, dst = pick("src"), pick("dst")
        rogue = (src, dst, EdgeKind.PREREQ)
        if src != dst and rogue not in graph.edges():
            graph._edges[rogue] = 0.5
            graph._out[src] += (rogue,)
            graph._in[dst] += (rogue,)
            graph._unleveled.add(dst)  # as _store names the child
            if not assert_levels_match_the_full_pass(graph):
                graph.remove_edges([rogue])
    elif write == "snapshot":
        return graph.snapshot()
    return graph


def assert_levels_match_the_full_pass(graph: SkillGraph) -> bool:
    """``compute_levels`` returns what the full pass gives and stores it as
    exact ints, or, where the full pass finds a cycle, raises CycleDetected
    before it replaces a record (False)."""
    try:
        expected = full_kahn_levels(graph)
    except CycleDetected:
        records, named = dict(graph.nodes), set(graph._unleveled)
        with pytest.raises(CycleDetected):
            graph.compute_levels()
        assert all(graph.nodes[v] is records[v] for v in graph.nodes)
        assert graph._unleveled == named
        return False
    levels = computed_levels(graph)
    assert graph._unleveled == set()
    assert list(levels.items()) == [(v, expected[v]) for v in graph.nodes]
    assert all(type(n.level) is int and n.level == expected[v]
               for v, n in graph.nodes.items())
    return True


@settings(max_examples=300, deadline=None)
@given(data=st.data(), writes=st.lists(st.sampled_from(LEVEL_WRITES), max_size=30))
def test_releveling_below_what_moved_equals_the_full_pass(data, writes):
    """Random write sequences, leveled at random points: every leveling gives
    what the full Kahn pass gives."""
    graph = SkillGraph()
    add_nodes(graph, ["s0", "s1", "s2"])
    for write in writes:
        graph = level_write(graph, data, write)
        if data.draw(st.booleans(), label="level now"):
            assert_levels_match_the_full_pass(graph)
    assert_levels_match_the_full_pass(graph)


class TestUpdateStats:
    def test_accumulation(self):
        graph = SkillGraph()
        graph.add_skill(make_node("a", n_use=10, n_succ=4))
        batch = [("a", True, True)] * 3 + [("a", True, False)] * 2
        graph.update_stats(batch)
        assert graph.nodes["a"].success_rate() == pytest.approx(7 / 15)

    def test_empty_batch_identity(self):
        graph = SkillGraph()
        graph.add_skill(make_node("a", n_use=3, n_succ=1))
        graph.update_stats([])
        assert (graph.nodes["a"].n_use, graph.nodes["a"].n_succ) == (3, 1)

    def test_single_use_single_success(self):
        graph = SkillGraph()
        add_nodes(graph, ["a"])
        graph.update_stats([("a", True, True)])
        assert graph.nodes["a"].success_rate() == 1.0

    def test_unknown_skill(self):
        graph = SkillGraph()
        with pytest.raises(UnknownSkill):
            graph.update_stats([("ghost", True, False)])

    def test_success_without_use(self):
        graph = SkillGraph()
        add_nodes(graph, ["a"])
        with pytest.raises(SuccessWithoutUse):
            graph.update_stats([("a", False, True)])

    def test_bad_batch_leaves_counts_untouched(self):
        graph = SkillGraph()
        add_nodes(graph, ["a"])
        with pytest.raises(UnknownSkill):
            graph.update_stats([("a", True, True), ("ghost", True, False)])
        assert graph.nodes["a"].n_use == 0

    @pytest.mark.parametrize("n_use, n_succ", [(3, -1), (-5, -6)])
    def test_negative_counts_rejected(self, n_use, n_succ):
        with pytest.raises(SuccessWithoutUse):
            SkillGraph().add_skill(make_node("a", n_use=n_use, n_succ=n_succ))

    @pytest.mark.parametrize("field, value", [
        ("n_use", True), ("n_succ", True), ("created_step", True), ("n_use", 2.0),
        ("created_step", "3"), ("deprecated", 0), ("deprecated", "false")])
    def test_counters_and_flag_of_the_wrong_type_rejected(self, field, value):
        # a bool counter used to be saved as Python's True, which no JSON
        # reader takes back
        node = make_node("a", n_use=1, n_succ=1)
        setattr(node, field, value)
        graph = SkillGraph()
        with pytest.raises(SuccessWithoutUse, match=field):
            graph.add_skill(node)
        assert not graph.nodes

    def test_repeated_ids_fold_into_final_rates(self):
        graph = SkillGraph()
        graph.add_skill(make_node("a", n_use=2, n_succ=1))
        add_nodes(graph, ["b", "c", "d"])
        batch = [("b", True, True), ("a", True, False), ("b", True, False),
                 ("c", True, True), ("a", True, True), ("b", True, True)]
        graph.update_stats(batch)
        assert {v: node.success_rate() for v, node in graph.nodes.items()} == {
            "a": 2 / 4, "b": 2 / 3, "c": 1.0, "d": 0.0}
        assert graph.nodes["d"].n_use == 0

    @given(entries=st.lists(st.tuples(st.sampled_from("abcd"), st.booleans()),
                            max_size=30))
    def test_n_bool_entries_fold_like_one_count_entry(self, entries):
        one_by_one, counted = SkillGraph(), SkillGraph()
        for graph in (one_by_one, counted):
            graph.add_skill(make_node("a", n_use=4, n_succ=3))
            add_nodes(graph, ["b", "c", "d"])
        totals: dict[str, list[int]] = {}
        for skill_id, won in entries:
            uses_wins = totals.setdefault(skill_id, [0, 0])
            uses_wins[0] += 1
            uses_wins[1] += won
        one_by_one.update_stats([(v, True, won) for v, won in entries])
        counted.update_stats([(v, n, w) for v, (n, w) in totals.items()])
        assert ([node.success_rate() for node in one_by_one.nodes.values()]
                == [node.success_rate() for node in counted.nodes.values()])
        assert graph_to_dict(one_by_one) == graph_to_dict(counted)
        assert all(type(node.n_use) is int and type(node.n_succ) is int
                   for node in counted.nodes.values())

    @pytest.mark.parametrize("uses, successes", [
        (-1, 0), (2, -1), (0.5, 0), (2, 0.5), ("1", 0), (1, "1"), (2, 3), (False, True), (True, 2),
    ])
    def test_bad_counts_leave_every_counter_untouched(self, uses, successes):
        graph = SkillGraph()
        graph.add_skill(make_node("a", n_use=5, n_succ=2))
        add_nodes(graph, ["b"])
        with pytest.raises(SuccessWithoutUse):
            graph.update_stats([("a", 3, 1), ("b", True, True), ("a", uses, successes)])
        assert [(n.n_use, n.n_succ) for n in graph.nodes.values()] == [(5, 2), (0, 0)]

    def test_zero_use_rate_convention(self):
        assert make_node("a").success_rate() == 0.0


def record_graph() -> SkillGraph:
    """a -> b (prereq) in alpha; c in beta, used 30 times with 1 win; d general."""
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"], category="alpha")
    add_nodes(graph, ["c"], category="beta")
    add_nodes(graph, ["d"])
    graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
    graph.update_stats([("c", 30, 1)])
    graph.compute_levels()
    return graph


# each writer of node records, and the ids whose records it replaces or removes
RECORD_WRITES = {
    "update_stats": (lambda g: g.update_stats([("a", 2, 1), ("a", True, False)]), {"a"}),
    "compute_levels": (lambda g: (g.add_edge("c", "a", EdgeKind.PREREQ, 0.5),
                                  g.compute_levels()), {"a", "b"}),
    "replace_skill_category": (lambda g: g.replace_skill("d", category="beta"), {"d"}),
    "merge_scan": (lambda g: merge_scan(g, PairTeacher("merge", ("a", "b")),
                                        EvolutionConfig(merge_jaccard=0.0)), {"a", "b"}),
    "deprecate_scan": (lambda g: deprecate_scan(g, EvolutionConfig()), {"c"}),
    "remove_node": (lambda g: g.remove_node("d"), {"d"}),
    "replace_skill": (lambda g: g.replace_skill("b", title="Renamed"), {"b"}),
}


class TestGraphInvariants:
    def test_random_mutation_sequences_keep_invariants(self, rng):
        """DAG, level law, weight bounds, and counter monotonicity hold
        after arbitrary accepted mutation sequences."""
        for _ in range(30):
            graph = SkillGraph()
            categories = ["general", "clean", "heat"]
            ids: list[str] = []
            prev_counts: dict[str, tuple[int, int]] = {}
            for op in range(rng.randint(5, 60)):
                action = rng.random()
                if action < 0.3 or len(ids) < 2:
                    skill_id = f"s{len(ids)}"
                    graph.add_skill(make_node(skill_id, category=rng.choice(categories)))
                    ids.append(skill_id)
                    prev_counts[skill_id] = (0, 0)
                elif action < 0.7:
                    src, dst = rng.sample(ids, 2)
                    try:
                        graph.add_edge(src, dst, rng.choice(list(EdgeKind)),
                                       rng.random())
                    except CycleWouldForm:
                        pass
                else:
                    skill_id = rng.choice(ids)
                    used = rng.random() < 0.9
                    graph.update_stats(
                        [(skill_id, used, used and rng.random() < 0.5)])
            assert not oracle_has_cycle(ids, dependency_edges(graph))
            assert computed_levels(graph) == oracle_levels(
                ids, dependency_edges(graph))
            for weight in graph.edges().values():
                assert 0.0 <= weight <= 1.0
            for skill_id in ids:
                node = graph.nodes[skill_id]
                assert node.n_succ <= node.n_use
                pu, ps = prev_counts[skill_id]
                assert node.n_use >= pu and node.n_succ >= ps

    def test_dynamic_id_skips_existing_nodes(self):
        graph = SkillGraph()
        graph.add_skill(make_node("dyn_0001"))
        assert graph.new_dynamic_id() == "dyn_0002"
        assert graph.next_dynamic_id == 3

    def test_defensive_cycle_detection(self):
        # bypass the add_edge guard to confirm compute_levels still refuses
        from skillnet.errors import CycleDetected

        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        rogue = ("b", "a", EdgeKind.PREREQ)
        graph._edges[rogue] = 0.5
        graph._out["b"] += (rogue,)
        graph._in["a"] += (rogue,)
        graph._unleveled.add("a")  # as _store names the child
        with pytest.raises(CycleDetected):
            graph.compute_levels()

    def test_snapshot_isolated_from_later_mutations(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        snapshot = graph.snapshot()
        graph.add_skill(make_node("c"))
        graph.set_weight(edge_key("a", "b", EdgeKind.PREREQ), 0.9)
        graph.update_stats([("a", True, True)])
        assert "c" not in snapshot.nodes
        assert snapshot.weight("a", "b", EdgeKind.PREREQ) == 0.5
        assert snapshot.nodes["a"].n_use == 0

    def test_snapshot_matches_a_deep_copy(self, rng):
        # copy.deepcopy is what snapshot() did before it copied structurally
        for i in range(20):
            graph = random_graph(rng)
            if i % 2:
                graph.add_skill(make_node("zz_late"))  # leaves levels stale
            snapshot = graph.snapshot()
            for name in ("_unleveled", "checkpoint_index",
                         "highest_active_level", "next_dynamic_id"):
                assert getattr(snapshot, name) == getattr(graph, name), name
            assert graph_to_dict(snapshot) == graph_to_dict(copy.deepcopy(graph))

    def test_snapshot_publishes_fresh_levels(self, monkeypatch):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.highest_active_level = 1
        assert graph._unleveled == {"a", "b"}
        snapshot = graph.snapshot()

        def refuse(self):
            raise AssertionError("a reader recomputed levels")

        monkeypatch.setattr(SkillGraph, "compute_levels", refuse)
        result = retrieve(snapshot, TaskQuery("wipe the desk", "clean"))
        assert result.ordered_skills == ["a", "b"]
        assert [snapshot.nodes[v].level for v in ("a", "b")] == [0, 1]

    def test_snapshot_copies_every_container(self, rng):
        """Every mutable container is fresh; a node's record and its
        adjacency tuples, which no write changes, are shared."""
        graph = random_graph(rng, n=12)
        snapshot = graph.snapshot()
        assert vars(snapshot).keys() == vars(graph).keys()
        for name, value in vars(graph).items():
            if isinstance(value, (dict, set, list)):
                assert getattr(snapshot, name) is not value, name
        assert snapshot.nodes is not graph.nodes
        for v in graph.nodes:
            assert snapshot.nodes[v] is graph.nodes[v]
            assert type(graph._out[v]) is type(graph._in[v]) is tuple
            assert snapshot._out[v] is graph._out[v]
            assert snapshot._in[v] is graph._in[v]

    def test_mutating_the_snapshot_leaves_the_original(self, rng):
        graph = random_graph(rng, n=12)
        graph.co_counts[("n000", "n001")] = 3
        before = graph_to_dict(graph)
        out_before, in_before = dict(graph._out), dict(graph._in)
        snapshot = graph.snapshot()
        for v in snapshot.nodes:
            snapshot.update_stats([(v, 1, 0)])
            snapshot.replace_skill(v, category="moved")
            snapshot.replace_skill(v, title="changed", deprecated=True)
        for key in list(snapshot.edges()):
            snapshot.set_weight(key, 1.0)
        snapshot.co_counts[("n000", "n001")] = 99
        snapshot.add_skill(make_node("zz_new"))
        snapshot.add_edge("zz_new", "n000", EdgeKind.CO_OCCUR, 0.5)
        snapshot.remove_node("n001")
        snapshot.checkpoint_index += 1
        assert graph_to_dict(graph) == before
        assert graph._out == out_before and graph._in == in_before

    @pytest.mark.parametrize("side", ["graph", "snapshot"])
    @pytest.mark.parametrize("write", RECORD_WRITES)
    def test_a_record_write_reaches_one_side_and_shares_the_rest(self, write, side):
        """Each writer of records, on either side of a snapshot, leaves the
        other side as it was and keeps every record it did not replace or
        remove shared between the two."""
        graph = record_graph()
        snapshot = graph.snapshot()
        written, other = (graph, snapshot) if side == "graph" else (snapshot, graph)
        before = graph_to_dict(other)
        change, touched = RECORD_WRITES[write]
        change(written)
        written.ensure_levels()
        assert graph_to_dict(other) == before
        assert graph_to_dict(written) != before
        shared = {v for v, node in written.nodes.items() if other.nodes.get(v) is node}
        assert shared == set(other.nodes) - touched

    def test_level_law_every_dependency_edge_descends(self, rng):
        graph = SkillGraph()
        ids = [f"n{i}" for i in range(15)]
        add_nodes(graph, ids)
        for _ in range(40):
            src, dst = rng.sample(ids, 2)
            try:
                graph.add_edge(src, dst, rng.choice([EdgeKind.PREREQ, EdgeKind.ENHANCE]),
                               0.5)
            except CycleWouldForm:
                pass
        levels = computed_levels(graph)
        for src, dst in dependency_edges(graph):
            assert levels[src] < levels[dst]


def remap_then_remove(graph: SkillGraph, removed: str, heir: str) -> None:
    """The oracle: the co_counts remap merges did before ``remove_node``
    learned about heirs, then a plain removal."""
    for (x, y), count in list(graph.co_counts.items()):
        if removed in (x, y):
            other = y if x == removed else x
            del graph.co_counts[(x, y)]
            if other != heir:
                new_pair = pair_key(heir, other)
                graph.co_counts[new_pair] = graph.co_counts.get(new_pair, 0) + count
    graph.remove_node(removed)


class TestRemoveNodeHeir:
    def test_heir_takes_over_counts_as_the_old_remap_did(self, rng):
        for _ in range(200):
            ids = [f"n{i}" for i in range(rng.randint(2, 9))]
            graph = SkillGraph()
            add_nodes(graph, ids)
            removed, heir = rng.sample(ids, 2)
            # overlapping pairs: both members with the same partners, and
            # the pair of the two members itself
            for other in rng.sample(ids, rng.randint(0, len(ids))):
                for member in (removed, heir):
                    if other != member and rng.random() < 0.7:
                        graph.co_counts[pair_key(member, other)] = rng.randint(1, 9)
            oracle = copy.deepcopy(graph)
            graph.remove_node(removed, heir=heir)
            remap_then_remove(oracle, removed, heir)
            assert list(graph.co_counts.items()) == list(oracle.co_counts.items())
            assert all(removed not in pair for pair in graph.co_counts)

    def test_without_heir_counts_go(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"])
        graph.co_counts = {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 4}
        graph.remove_node("a")
        assert graph.co_counts == {("b", "c"): 4}


    @pytest.mark.parametrize("heir", ["ghost", "b"])
    def test_bad_heir_is_refused_before_anything_changes(self, heir, tmp_path):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.co_counts = {("a", "b"): 2, ("b", "c"): 1}
        before = graph_to_dict(graph)
        with pytest.raises(UnknownSkill):
            graph.remove_node("b", heir=heir)
        assert graph_to_dict(graph) == before
        # what save_graph writes, load_graph reads back
        save_graph(graph, tmp_path / "g.json")
        assert graph_to_dict(load_graph(tmp_path / "g.json")) == before


def refuse_recompute(self):
    raise AssertionError("levels recomputed after a removal that cannot move them")


class TestRemoveNodeLevels:
    """Removing a node moves other levels only through its dependency edges,
    whose removal names the children as unleveled."""

    @pytest.mark.parametrize("edges", [[], [("d", "a"), ("b", "d")]],
                             ids=["isolated", "co_occur_only"])
    def test_removal_without_dependency_edges_keeps_levels(self, edges, monkeypatch):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c", "d"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        for src, dst in edges:
            graph.add_edge(src, dst, EdgeKind.CO_OCCUR, 0.3)
        graph.compute_levels()
        graph.remove_node("d")
        assert graph._unleveled == set()
        monkeypatch.setattr(SkillGraph, "compute_levels", refuse_recompute)
        graph.ensure_levels()
        assert {v: n.level for v, n in graph.nodes.items()} == {"a": 0, "b": 1, "c": 0}

    def test_removing_a_prereq_parent_lowers_its_child(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.add_edge("b", "c", EdgeKind.PREREQ, 0.5)
        graph.compute_levels()
        graph.remove_node("a")
        assert graph._unleveled == {"b"}
        graph.ensure_levels()
        assert {v: n.level for v, n in graph.nodes.items()} == {"b": 0, "c": 1}

    def test_removing_a_prereq_child_replaces_no_record(self):
        """``remove_node`` names the removed child; the leveling that follows
        finds it gone, replaces no record and returns no level map."""
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.compute_levels()
        graph.remove_node("b")
        assert graph._unleveled == {"b"}
        records = dict(graph.nodes)
        assert graph.compute_levels() is None
        assert all(graph.nodes[v] is records[v] for v in records)
        assert graph._unleveled == set()

    @pytest.mark.parametrize("parent", ["a", None])
    def test_a_removed_id_added_back_gets_the_full_pass_level(self, parent):
        """An id that comes back after a leveling is named by ``add_skill``,
        so its stored level is repaired whether or not it has parents."""
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.compute_levels()
        graph.remove_node("c")
        graph.add_skill(make_node("c", level=7))
        if parent is not None:
            graph.add_edge(parent, "c", EdgeKind.PREREQ, 0.5)
        graph.ensure_levels()
        assert graph._unleveled == set()
        assert {v: n.level for v, n in graph.nodes.items()} == full_kahn_levels(graph)
        assert graph.nodes["c"].level == (0 if parent is None else 1)


class TestHealth:
    def test_counts_match_a_hand_count(self):
        graph = SkillGraph()
        add_nodes(graph, ["g"])
        add_nodes(graph, ["a", "b", "c", "d"], category="clean")
        graph.add_edge("g", "a", EdgeKind.ENHANCE, 0.2)
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.add_edge("b", "c", EdgeKind.PREREQ, 0.5)
        graph.add_edge("d", "a", EdgeKind.CO_OCCUR, 0.3)
        for skill_id, n_use, n_succ in (("g", 1, 1), ("a", 4, 3), ("b", 2, 0),
                                        ("c", 10, 10)):
            graph.nodes[skill_id].n_use = n_use
            graph.nodes[skill_id].n_succ = n_succ
        graph.nodes["c"].deprecated = True   # used, but deprecated: not counted
        graph.highest_active_level = 1       # "d" is live and never used
        # levels were never computed: g 0, a 1, b 2, c 3, d 0
        health = graph.health()
        assert (health.nodes, health.active, health.deprecated) == (5, 3, 1)
        assert health.edges == {"prereq": 2, "enhance": 1, "co_occur": 1}
        assert health.levels == {0: 2, 1: 1, 2: 1, 3: 1}
        assert health.mean_success == (1.0 + 0.75 + 0.0) / 3

    def test_empty_graph_lists_every_edge_kind(self):
        health = SkillGraph().health()
        assert health.edges == {"prereq": 0, "enhance": 0, "co_occur": 0}
        assert (health.nodes, health.active, health.levels,
                health.mean_success) == (0, 0, {}, 0.0)


@pytest.mark.parametrize("write, error, message", [
    (lambda g: g.add_skill(make_node("a")), DuplicateId, "duplicate skill id 'a'"),
    (lambda g: g.update_stats([("zz", 1, 0)]), UnknownSkill, "unknown skill id 'zz'"),
    (lambda g: g.remove_node("zz"), UnknownSkill, "unknown skill id 'zz'"),
    (lambda g: g.remove_node("a", heir="a"), UnknownSkill,
     "heir 'a' is not another skill of the graph"),
    (lambda g: g.add_edge("a", "zz", "prereq", 0.5), UnknownEndpoint,
     "unknown endpoint 'zz' of a -> zz"),
    (lambda g: g.add_edges([("zz", "a", "prereq", 0.5)]), UnknownEndpoint,
     "unknown endpoint 'zz' of zz -> a"),
    (lambda g: g.add_edge("a", "b", "co_occur", 1.5), WeightOutOfRange,
     "weight 1.5 outside [0, 1] for a -> b (co_occur)"),
    (lambda g: g.set_weight(("a", "b", EdgeKind.PREREQ), -0.5), WeightOutOfRange,
     "weight -0.5 outside [0, 1] for a -> b (prereq)"),
    (lambda g: g.replace_skill("zz", title="T"), UnknownSkill, "unknown skill id 'zz'"),
    (lambda g: g.replace_skill("a", skill_id="b"), TypeError,
     "SkillGraph.replace_skill() got multiple values for argument 'skill_id'"),
], ids=["add_skill", "update_stats", "remove_node", "remove_node-heir", "add_edge",
        "add_edges", "add_edge-weight", "set_weight", "replace_skill",
        "replace_skill-id"])
def test_refusals_name_the_fault(write, error, message):
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"])
    graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
    with pytest.raises(error) as caught:
        write(graph)
    assert str(caught.value) == message


# a dict's mutating methods, and ``add``, the one a set has beyond them
MAP_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__",
                "__delitem__", "add", "difference_update"}


def map_writes(attrs: set[str]) -> list[tuple[str, str, str]]:
    """Every (module, function, kind) in ``src/skillnet`` that writes a map or
    set held in one of the attributes ``attrs``: a bind of the attribute, an item
    assignment or deletion, a mutating method call, or an item written into
    one of its elements. A write counts whether it goes through the attribute
    or a local name bound to it."""

    def is_map(node: ast.AST, aliases: set[str]) -> bool:
        return ((isinstance(node, ast.Attribute) and node.attr in attrs)
                or (isinstance(node, ast.Name) and node.id in aliases))

    def writes(func: ast.FunctionDef) -> list[str]:
        aliases = {target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                   and is_map(node.value, set())
                   for target in node.targets if isinstance(target, ast.Name)}
        found = []
        for node in ast.walk(func):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = [t for target in node.targets for t in
                           (target.elts if isinstance(target, ast.Tuple) else [target])]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in attrs:
                    found.append("bind")
                elif isinstance(target, ast.Subscript) and is_map(target.value, aliases):
                    found.append("del" if isinstance(node, ast.Delete) else "item")
                elif (isinstance(target, ast.Subscript)
                      and isinstance(target.value, ast.Subscript)
                      and is_map(target.value.value, aliases)):
                    found.append("element")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MAP_MUTATORS and is_map(node.func.value, aliases)):
                found.append(node.func.attr)
        return found

    found = []
    for path in sorted(Path(skillnet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found += [(path.stem, func.name, kind) for kind in writes(func)]
    return sorted(found)


def test_edges_are_written_only_by_the_writers_that_keep_the_adjacency():
    """Only _store, add_edges, remove_edges, set_weight and scale_weights
    write SkillGraph._edges, so ``_out``, ``_in`` and the unleveled skills
    follow every edge change; the last two write values only, over stored
    keys, so the adjacency has nothing to follow. __init__ and snapshot()
    bind a fresh graph's map."""
    assert map_writes({"_edges"}) == [
        ("model", "__init__", "bind"), ("model", "_store", "item"),
        ("model", "add_edges", "update"), ("model", "remove_edges", "pop"),
        ("model", "scale_weights", "update"),
        ("model", "set_weight", "item"), ("model", "snapshot", "bind")]


def test_every_writer_of_a_parent_tuple_names_the_skill():
    """Only the writers of ``_in`` tuples add to ``_unleveled``, and only
    ``compute_levels`` empties it; a rejected ``add_edges`` takes back just
    the names it gave. Every function that assigns an ``_in`` tuple also
    writes ``_unleveled``: no skill's parents change without the skill being
    named for the next leveling."""
    assert map_writes({"_unleveled"}) == [
        ("model", "__init__", "bind"), ("model", "_store", "add"),
        ("model", "add_edges", "difference_update"), ("model", "add_edges", "update"),
        ("model", "add_skill", "add"), ("model", "compute_levels", "bind"),
        ("model", "remove_edges", "update")]
    tuple_writers = {(module, func) for module, func, kind in map_writes({"_in"})
                     if kind == "item"}
    assert tuple_writers == {("model", "_store"), ("model", "add_edges"),
                             ("model", "add_skill"), ("model", "remove_edges")}
    assert tuple_writers <= {(module, func)
                             for module, func, _ in map_writes({"_unleveled"})}


def test_adjacency_is_written_only_by_its_writers_and_never_in_place():
    """Only these bind or assign ``_out[...]`` and ``_in[...]``: each write
    binds a new tuple, which is what lets ``snapshot()`` share them and
    ``evolution.merge_candidates`` tell a skill whose adjacency changed since
    its last scan by identity. No code calls a mutating method on an element
    of either map."""
    assert map_writes({"_out", "_in"}) == [
        ("model", "__init__", "bind"), ("model", "__init__", "bind"),
        ("model", "_store", "item"), ("model", "_store", "item"),
        ("model", "_store", "item"),
        ("model", "add_edges", "item"), ("model", "add_edges", "item"),
        ("model", "add_skill", "item"), ("model", "add_skill", "item"),
        ("model", "remove_edges", "item"), ("model", "remove_edges", "item"),
        ("model", "remove_node", "del"), ("model", "remove_node", "del"),
        ("model", "snapshot", "bind"), ("model", "snapshot", "bind")]
    mutators = MAP_MUTATORS | {"append", "extend", "insert", "remove", "add", "discard",
                               "sort", "reverse", "difference_update",
                               "intersection_update", "symmetric_difference_update"}
    calls = []
    for path in sorted(Path(skillnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators
                    and isinstance(node.func.value, ast.Subscript)
                    and isinstance(node.func.value.value, ast.Attribute)
                    and node.func.value.value.attr in {"_out", "_in"}):
                calls.append((path.stem, node.lineno, node.func.attr))
    assert calls == []


NODE_FIELDS = {f.name for f in fields(SkillNode)}


def test_skill_records_are_replaced_and_never_written_in_place():
    """No function in ``src/skillnet`` assigns or augments an attribute named
    after a ``SkillNode`` field, nor sets one through ``setattr`` by name:
    a stored record changes only by ``replace_skill`` binding a new one,
    which is what lets ``snapshot()`` share every record and ``save_graph``
    tell an unchanged record by identity. ``evolution.merge_candidates``
    reads each record's ``deprecated`` flag afresh at every scan, so it sees
    a flip even without this rule. The one such name written is the
    ``deprecated`` list of an EvolutionReport. Only these bind
    ``nodes[...]``; ``__init__`` and ``snapshot()`` bind a fresh graph's map."""
    writes = []
    for path in sorted(Path(skillnet.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = [t for target in node.targets for t in
                               (target.elts if isinstance(target, ast.Tuple) else [target])]
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "setattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)
                      and node.args[1].value in NODE_FIELDS):
                    writes.append((path.stem, func.name, ast.unparse(node)))
                writes += [(path.stem, func.name, ast.unparse(target)) for target in targets
                           if isinstance(target, ast.Attribute) and target.attr in NODE_FIELDS]
    assert writes == [("evolution", "evolve_step", "report.deprecated")]
    assert map_writes({"nodes"}) == [
        ("model", "__init__", "bind"), ("model", "add_skill", "item"),
        ("model", "remove_node", "pop"), ("model", "replace_skill", "item"),
        ("model", "snapshot", "bind")]
