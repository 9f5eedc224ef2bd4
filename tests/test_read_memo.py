"""The graph's read memo: retrieval through it equals the pre-memo pipeline.

A Hypothesis state machine interleaves every structural writer with the live
writes the memo must not cache (weights, deprecation, the active level), a
merge that moves a skill to another category, and snapshots. After every
step, ``retrieve`` on the live graph and on the last snapshot must equal the
earlier pipeline kept in ``retrieval_oracle``, which never reads the memo.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from skillnet import EdgeKind, EvolutionConfig, SkillGraph, TaskQuery, retrieve
from skillnet.errors import CycleDetected, CycleWouldForm
from skillnet.evolution import merge_scan
from skillnet.model import DEPENDENCY_KINDS
from skillnet.proposer import Proposer, SkillProposal

from conftest import add_nodes, dependency_edges, make_node, oracle_has_cycle, random_graph
from retrieval_oracle import retrieve as oracle_retrieve

CATEGORIES = ("general", "alpha", "beta")
QUERIES = ("general", "alpha", "beta", "unknown")
K_MAX = (-1, 0, 3, 8)
# few distinct weights, so equal scores and their tie-breaks come up often
WEIGHTS = st.sampled_from((0.0, 0.2, 0.3, 0.5, 1.0))


def answer(graph: SkillGraph, query: str, k_max: int, read=retrieve) -> tuple:
    r = read(graph, TaskQuery("task", query), k_max=k_max)
    return (r.ordered_skills, r.scores, r.seed_count, r.bfs_count, r.beam_count,
            r.capped, r.traversed_edges)


def assert_matches_oracle(graph: SkillGraph) -> None:
    for query in QUERIES:
        for k_max in K_MAX:
            assert answer(graph, query, k_max) == \
                answer(graph, query, k_max, oracle_retrieve), (query, k_max)


class OneMergeTeacher(Proposer):
    """Unifies one chosen pair into a given category and declines the rest."""

    def __init__(self, pair: tuple[str, str], category: str) -> None:
        self.pair, self.category = pair, category

    def propose(self, request):
        if tuple(side["skill_id"] for side in request.skill_pair) != self.pair:
            return []
        return [SkillProposal(skill_id="", title="Unified", principle="Both at once.",
                              when_to_apply="Either applies.", category=self.category)]


class ReadMemoMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.graph = SkillGraph()
        self.snap: SkillGraph | None = None
        self.added = 0

    @initialize(categories=st.lists(st.sampled_from(CATEGORIES), min_size=2, max_size=5),
                level=st.integers(0, 3))
    def start(self, categories, level):
        for category in categories:
            self.add_skill(category)
        self.graph.highest_active_level = level

    def pick(self, data, label: str, live_only: bool = False) -> str:
        ids = sorted(v for v, n in self.graph.nodes.items()
                     if not (live_only and n.deprecated))
        return data.draw(st.sampled_from(ids), label=label)

    def would_cycle(self, src: str, dst: str, kind: EdgeKind) -> bool:
        return kind in DEPENDENCY_KINDS and oracle_has_cycle(
            sorted(self.graph.nodes), dependency_edges(self.graph) + [(src, dst)])

    # -- structural writers ----------------------------------------------

    @rule(category=st.sampled_from(CATEGORIES))
    def add_skill(self, category):
        self.graph.add_skill(make_node(f"s{self.added:02d}", category))
        self.added += 1

    @precondition(lambda self: len(self.graph.nodes) >= 2)
    @rule(data=st.data(), kind=st.sampled_from(EdgeKind), weight=WEIGHTS)
    def add_edge(self, data, kind, weight):
        src, dst = self.pick(data, "src"), self.pick(data, "dst")
        if src == dst or self.would_cycle(src, dst, kind):
            with pytest.raises(CycleWouldForm):
                self.graph.add_edge(src, dst, kind, weight)
        else:
            self.graph.add_edge(src, dst, kind, weight)

    @precondition(lambda self: len(self.graph.nodes) >= 2)
    @rule(data=st.data(), kind=st.sampled_from(EdgeKind), weight=WEIGHTS)
    def add_edges(self, data, kind, weight):
        src, dst = self.pick(data, "src"), self.pick(data, "dst")
        if src == dst or self.graph.weight(src, dst, kind) is not None:
            return
        if self.would_cycle(src, dst, kind):
            with pytest.raises(CycleDetected):
                self.graph.add_edges([(src, dst, kind.value, weight)])
        else:
            self.graph.add_edges([(src, dst, kind.value, weight)])

    @precondition(lambda self: self.graph.edge_count() > 0)
    @rule(data=st.data())
    def remove_edge(self, data):
        self.graph.remove_edge(data.draw(st.sampled_from(sorted(self.graph.edges()))))

    @precondition(lambda self: self.graph.nodes)
    @rule(data=st.data(), with_heir=st.booleans())
    def remove_node(self, data, with_heir):
        victim = self.pick(data, "victim")
        heir = None
        if with_heir and len(self.graph.nodes) >= 2:
            heir = data.draw(st.sampled_from(sorted(set(self.graph.nodes) - {victim})))
        self.graph.remove_node(victim, heir=heir)

    @precondition(lambda self: self.graph.nodes)
    @rule(data=st.data(), category=st.sampled_from(CATEGORIES))
    def set_category(self, data, category):
        self.graph.set_category(self.pick(data, "skill"), category)

    @precondition(lambda self: sum(not n.deprecated for n in self.graph.nodes.values()) >= 2)
    @rule(data=st.data(), category=st.sampled_from(CATEGORIES))
    def merge(self, data, category):
        a = self.pick(data, "a", live_only=True)
        b = self.pick(data, "b", live_only=True)
        if a == b:
            return
        a, b = sorted((a, b))
        merged = merge_scan(self.graph, OneMergeTeacher((a, b), category),
                            EvolutionConfig(merge_jaccard=0.0))
        assert merged == [(a, [b])]
        assert self.graph.nodes[a].category == category

    # -- live writes: the memo must not cache what these change ------------

    @precondition(lambda self: self.graph.edge_count() > 0)
    @rule(data=st.data(), weight=WEIGHTS)
    def set_weight(self, data, weight):
        self.graph.set_weight(data.draw(st.sampled_from(sorted(self.graph.edges()))), weight)

    @precondition(lambda self: self.graph.nodes)
    @rule(data=st.data(), deprecated=st.booleans())
    def set_deprecated(self, data, deprecated):
        self.graph.nodes[self.pick(data, "skill")].deprecated = deprecated

    @rule(level=st.integers(0, 3))
    def set_active_level(self, level):
        self.graph.highest_active_level = level

    @rule()
    def snapshot(self):
        self.snap = self.graph.snapshot()

    @invariant()
    def retrieve_matches_the_oracle(self):
        assert_matches_oracle(self.graph)
        if self.snap is not None:
            assert_matches_oracle(self.snap)


TestReadMemoMachine = ReadMemoMachine.TestCase
TestReadMemoMachine.settings = settings(max_examples=40, stateful_step_count=25,
                                        deadline=None)


def memo_graph() -> SkillGraph:
    """A small graph whose read memo one retrieve per query has filled."""
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"], category="alpha")
    add_nodes(graph, ["c"], category="beta")
    graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
    graph.add_edge("b", "c", EdgeKind.CO_OCCUR, 0.3)
    graph.highest_active_level = 5
    for query in QUERIES:
        retrieve(graph, TaskQuery("task", query))
    return graph


def memo_filled(graph: SkillGraph) -> bool:
    return (graph._memo_categories is not None and bool(graph._memo_parents)
            and bool(graph._memo_forward))


def memo_empty(graph: SkillGraph) -> bool:
    return (graph._memo_categories is None and not graph._memo_parents
            and not graph._memo_forward)


class TestMemoUpkeep:
    @pytest.mark.parametrize("write", [
        lambda g: g.add_skill(make_node("d", "alpha")),
        lambda g: g.remove_node("c"),
        lambda g: g.remove_node("b", heir="a"),
        lambda g: g.add_edge("a", "c", EdgeKind.ENHANCE, 0.2),
        lambda g: g.add_edges([("c", "a", "co_occur", 0.4)]),
        lambda g: g.remove_edge(("a", "b", EdgeKind.PREREQ)),
        lambda g: g.set_category("a", "beta"),
    ], ids=["add_skill", "remove_node", "remove_node_heir", "add_edge", "add_edges",
            "remove_edge", "set_category"])
    def test_structural_writes_drop_the_memo(self, write):
        graph = memo_graph()
        assert memo_filled(graph)
        write(graph)
        assert memo_empty(graph)
        assert_matches_oracle(graph)

    @pytest.mark.parametrize("write", [
        lambda g: g.add_edge("a", "b", EdgeKind.PREREQ, 0.9),   # already there
        lambda g: g.add_edges([]),
        lambda g: g.remove_edge(("a", "c", EdgeKind.PREREQ)),   # not there
        lambda g: g.set_weight(("a", "b", EdgeKind.PREREQ), 1.0),
        lambda g: setattr(g.nodes["b"], "deprecated", True),
        lambda g: setattr(g, "highest_active_level", 0),
        lambda g: g.compute_levels(),
        lambda g: g.update_stats([("a", True, True)]),
    ], ids=["add_existing_edge", "add_no_edges", "remove_missing_edge", "set_weight",
            "deprecate", "lock", "compute_levels", "update_stats"])
    def test_other_writes_keep_the_memo_and_are_read_live(self, write):
        graph = memo_graph()
        write(graph)
        assert memo_filled(graph)
        assert_matches_oracle(graph)

    def test_snapshot_starts_with_an_empty_memo(self):
        graph = memo_graph()
        snapshot = graph.snapshot()
        assert memo_empty(snapshot)
        assert memo_filled(graph)
        assert_matches_oracle(snapshot)

    def test_memo_entries_are_tuples_of_stored_keys(self):
        graph = memo_graph()
        assert graph.category_members("alpha") == ("a", "b")
        assert graph.category_members("unknown") == ()
        assert graph.prereq_parents("b") == (("a", "b", EdgeKind.PREREQ),)
        assert set(graph.forward_neighbors("c")) == {("b", "c", EdgeKind.CO_OCCUR)}
        assert set(graph.forward_neighbors("b")) == {("b", "c", EdgeKind.CO_OCCUR)}
        assert all(key in graph.edges() for v in graph.nodes
                   for key in graph.forward_neighbors(v) + graph.prereq_parents(v))


class TestConcurrentFill:
    def test_readers_racing_on_an_empty_memo_agree_with_the_oracle(self):
        graph = random_graph(random.Random(7), n=30, deprecated_rate=0.1)
        graph.highest_active_level = 4
        queries = [(query, k_max) for query in ("general", "clean", "heat", "unknown")
                   for k_max in K_MAX]
        expected = {q: answer(graph, *q, oracle_retrieve) for q in queries}
        mismatches: list[tuple] = []
        errors: list[Exception] = []

        def reader(frozen: SkillGraph) -> None:
            try:
                for q in queries:
                    if answer(frozen, *q) != expected[q]:
                        mismatches.append(q)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(20):
                frozen = graph.snapshot()
                threads = [threading.Thread(target=reader, args=(frozen,)) for _ in range(6)]
                for t in threads:
                    t.start()
                # the writer keeps changing the original while readers fill the copy's memo
                graph.add_skill(make_node(f"new{i}", category="clean"))
                graph.remove_node(f"new{i}")
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not mismatches
