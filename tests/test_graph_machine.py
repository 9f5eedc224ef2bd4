"""Retrieval and the adjacency it walks, under every writer of the graph.

A Hypothesis state machine interleaves every structural writer with the live
writes retrieval reads as they are (weights, deprecation, the active level,
usage counts), co-appearance counting, a merge that moves a skill to another
category, a whole ``simulate.checkpoint`` against a hostile teacher, snapshots,
writes to the last snapshot, a repeat save of the same graph and a save→load
round trip. After every step:

- the adjacency, in order, and the category index equal what ``edges()``
  and ``nodes`` derive;
- the last snapshot's dict and adjacency are as recorded when it was taken
  (or last written), and a write to the snapshot leaves the writer graph as
  it was;
- the graph invariants hold: an acyclic dependency subgraph, weights in
  [0, 1], levels equal to the longest dependency path, ``co_counts`` naming
  two distinct live skills;
- ``retrieve`` on the live graph and on the last snapshot equals the earlier
  pipeline kept in ``retrieval_oracle``, which reads only ``edges()``.

A repeat ``save_graph`` reuses the text of the graph's last save where nothing
changed; every saved text must equal the general encoder's, whatever was
written in between.
"""

from __future__ import annotations

import copy
import gc
import random
import sys
import tempfile
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from skillnet import (
    EdgeKind, EvolutionConfig, SkillGraph, TaskQuery, TrajectoryRecord, graph_to_dict,
    load_graph, persistence, retrieve, save_graph,
)
from skillnet.curriculum import CurriculumParams
from skillnet.errors import (
    CycleDetected, CycleWouldForm, ProposerParseError, ProposerUnavailable, UnknownSkill,
)
from skillnet.evolution import discover_cooccur, merge_scan, split_scan
from skillnet.model import DEPENDENCY_KINDS
from skillnet.proposer import (
    MAX_TITLE_LENGTH, Proposer, ScriptedProposer, SkillProposal,
)
from skillnet.simulate import checkpoint

from conftest import (
    add_nodes, dependency_edges, make_node, oracle_has_cycle, oracle_levels, random_graph,
)
from retrieval_oracle import retrieve as oracle_retrieve
from test_snapshot_io import oracle_text

CATEGORIES = ("general", "alpha", "beta")
# "gamma" exists only once a hostile teacher names it
QUERIES = ("general", "alpha", "beta", "gamma", "unknown")
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


def index_of(graph: SkillGraph) -> tuple[dict, dict, dict]:
    """The graph's adjacency, as tuples, and its category index, as sets."""
    return ({v: tuple(keys) for v, keys in graph._out.items()},
            {v: tuple(keys) for v, keys in graph._in.items()},
            {c: set(ids) for c, ids in graph._categories.items()})


def derived_index(graph: SkillGraph) -> tuple[dict, dict, dict]:
    """What the index must hold, derived from ``edges()`` and ``nodes``: a
    dependency key in ``_out`` of its source and ``_in`` of its target, a
    co_occur key in ``_out`` of both endpoints, each node's keys in the
    order of ``edges()``, which is insertion order."""
    out: dict[str, list] = {v: [] for v in graph.nodes}
    into: dict[str, list] = {v: [] for v in graph.nodes}
    for key in graph.edges():
        src, dst, kind = key
        out[src].append(key)
        (out if kind is EdgeKind.CO_OCCUR else into)[dst].append(key)
    out = {v: tuple(keys) for v, keys in out.items()}
    into = {v: tuple(keys) for v, keys in into.items()}
    categories: dict[str, set] = {}
    for v, node in graph.nodes.items():
        categories.setdefault(node.category, set()).add(v)
    return out, into, categories


def contents(graph: SkillGraph) -> tuple:
    """A graph's dict and its adjacency maps (their tuples never change)."""
    return graph_to_dict(graph), dict(graph._out), dict(graph._in)


def assert_saves_as_the_oracle(graph: SkillGraph, path: Path) -> None:
    save_graph(graph, path)
    assert path.read_text(encoding="utf-8") == oracle_text(graph)


def assert_invariants(graph: SkillGraph) -> None:
    """The adjacency upkeep and the four graph invariants."""
    assert index_of(graph) == derived_index(graph)
    ids = sorted(graph.nodes)
    assert not oracle_has_cycle(ids, dependency_edges(graph))
    assert all(0.0 <= w <= 1.0 for w in graph.edges().values())
    graph.ensure_levels()
    assert {v: n.level for v, n in graph.nodes.items()} == \
        oracle_levels(ids, dependency_edges(graph))
    for a, b in graph.co_counts:
        assert a < b and a in graph.nodes and b in graph.nodes, (a, b)


class OneMergeTeacher(Proposer):
    """Unifies one chosen pair into a given category and declines the rest."""

    def __init__(self, pair: tuple[str, str], category: str) -> None:
        self.pair, self.category = pair, category

    def propose(self, request):
        if tuple(side["skill_id"] for side in request.skill_pair) != self.pair:
            return []
        return [SkillProposal(skill_id="", title="Unified", principle="Both at once.",
                              when_to_apply="Either applies.", category=self.category)]


# proposals with blank or 81-character titles, categories the graph lacks and
# neighbour lists naming missing ids, or a teacher that fails outright
PROPOSALS = st.lists(st.builds(
    SkillProposal, skill_id=st.just("p"),
    title=st.sampled_from(["Wipe first", "Stage the parts", "Check twice",
                           "Sort the bolts", "  ", "x" * (MAX_TITLE_LENGTH + 1)]),
    principle=st.just("Do it carefully."), when_to_apply=st.just("Always."),
    category=st.sampled_from([None, "alpha", "gamma"]),
    neighbor_assignment=st.none() | st.lists(st.sampled_from(["s00", "s01", "dyn_0001"]),
                                             max_size=2).map(lambda ids: [*ids, "ghost"])),
    min_size=2, max_size=3)
FAILURES = st.sampled_from([None, None, None, ProposerUnavailable, ProposerParseError])
# loose triggers, so a small window reaches every teacher call
HOSTILE_EVOLUTION = EvolutionConfig(merge_jaccard=0.2, split_band=(0.0, 1.0),
                                    split_min_uses=1, deprecate_min_uses=2,
                                    deprecate_threshold=0.4, cooccur_min_count=1)


class HostileTeacher(Proposer):
    def __init__(self, data) -> None:
        self.data = data

    def propose(self, request):
        failure = self.data.draw(FAILURES, label=f"{request.kind} failure")
        if failure is not None:
            raise failure("the teacher failed")
        return self.data.draw(PROPOSALS, label=request.kind)


class GraphMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.graph = SkillGraph()
        self.snap: SkillGraph | None = None
        self.snap_record: tuple | None = None
        self.added = 0
        self.tmp = tempfile.TemporaryDirectory()

    def teardown(self) -> None:
        self.tmp.cleanup()

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

    @precondition(lambda self: self.graph.edges())
    @rule(data=st.data())
    def remove_edge(self, data):
        self.graph.remove_edges([data.draw(st.sampled_from(sorted(self.graph.edges())))])

    @precondition(lambda self: self.graph.nodes)
    @rule(data=st.data(), with_heir=st.booleans())
    def remove_node(self, data, with_heir):
        victim = self.pick(data, "victim")
        heir = None
        if with_heir:
            # the victim itself and a missing id are refused before any write
            heir = data.draw(st.sampled_from(sorted(self.graph.nodes) + ["ghost"]))
            if heir in (victim, "ghost"):
                with pytest.raises(UnknownSkill):
                    self.graph.remove_node(victim, heir=heir)
                return
        self.graph.remove_node(victim, heir=heir)

    @precondition(lambda self: self.graph.nodes)
    @rule(data=st.data(), category=st.sampled_from(CATEGORIES))
    def move_category(self, data, category):
        self.graph.replace_skill(self.pick(data, "skill"), category=category)

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

    # -- live writes: retrieval reads what these change as it is -----------

    @precondition(lambda self: self.graph.edges())
    @rule(data=st.data(), weight=WEIGHTS)
    def set_weight(self, data, weight):
        self.graph.set_weight(data.draw(st.sampled_from(sorted(self.graph.edges()))), weight)

    @precondition(lambda self: self.graph.nodes)
    @rule(data=st.data(), deprecated=st.booleans())
    def set_deprecated(self, data, deprecated):
        self.graph.replace_skill(self.pick(data, "skill"), deprecated=deprecated)

    @rule(level=st.integers(0, 3))
    def set_active_level(self, level):
        self.graph.highest_active_level = level

    @precondition(lambda self: self.graph.nodes)
    @rule(data=st.data(), size=st.integers(1, 6))
    def update_stats(self, data, size):
        batch = []
        for _ in range(size):
            used = data.draw(st.booleans(), label="used")
            batch.append((self.pick(data, "skill"), used,
                          used and data.draw(st.booleans(), label="succeeded")))
        self.graph.update_stats(batch)

    @precondition(lambda self: self.graph.nodes)
    @rule(data=st.data(), min_count=st.integers(1, 3))
    def discover(self, data, min_count):
        """Count a win's co-appearances; pairs at ``min_count`` gain co_occur."""
        retrieved = data.draw(st.lists(st.sampled_from(sorted(self.graph.nodes)),
                                       min_size=2, max_size=4), label="retrieved")
        win = TrajectoryRecord(task_id="t", task_type="alpha",
                               retrieved_skill_ids=retrieved, success=True)
        discover_cooccur(self.graph, [win], min_count)

    @precondition(lambda self: self.graph.nodes)
    @rule(data=st.data(), size=st.integers(1, 6), warmup=st.integers(0, 2),
          threshold=st.sampled_from([0.0, 0.6]))
    def checkpoint(self, data, size, warmup, threshold):
        """Fold a window, evolve and unlock; records may name a missing id."""
        ids = sorted(self.graph.nodes) + ["ghost"]
        edges = [(src, dst, kind.value) for src, dst, kind in sorted(self.graph.edges())]
        records = [TrajectoryRecord(
            task_id=f"t{i}", task_type=data.draw(st.sampled_from(CATEGORIES)),
            retrieved_skill_ids=data.draw(st.lists(st.sampled_from(ids), unique=True,
                                                   max_size=4), label="retrieved"),
            traversed_edges=data.draw(st.lists(st.sampled_from(edges), max_size=2)
                                      if edges else st.just([]), label="traversed"),
            steps=[{"action": "try", "observation": "stuck"}],
            success=data.draw(st.booleans(), label="success")) for i in range(size)]
        checkpoint(self.graph, records, HostileTeacher(data), HOSTILE_EVOLUTION,
                   CurriculumParams(warmup_length=warmup, unlock_threshold=threshold))
        assert all(n.title.strip() and len(n.title) <= MAX_TITLE_LENGTH
                   for n in self.graph.nodes.values())

    # -- copies ------------------------------------------------------------

    @rule()
    def snapshot(self):
        self.snap = self.graph.snapshot()
        self.snap_record = contents(self.snap)

    @precondition(lambda self: self.snap is not None and self.snap.nodes)
    @rule(data=st.data(), write=st.sampled_from(
              ["add_edge", "remove_edge", "remove_node", "set_weight", "update_stats",
               "replace_skill"]),
          kind=st.sampled_from(EdgeKind), weight=WEIGHTS)
    def write_snapshot(self, data, write, kind, weight):
        """A write to the snapshot leaves the writer graph as it was."""
        snap, before = self.snap, contents(self.graph)
        ids, edges = sorted(snap.nodes), sorted(snap.edges())
        if write == "add_edge":
            src, dst = (data.draw(st.sampled_from(ids), label=end) for end in ("src", "dst"))
            try:
                snap.add_edge(src, dst, kind, weight)
            except CycleWouldForm:
                pass
        elif write == "remove_node":
            snap.remove_node(data.draw(st.sampled_from(ids), label="victim"))
        elif write == "update_stats":
            snap.update_stats([(data.draw(st.sampled_from(ids), label="skill"), 1, 1)])
        elif write == "replace_skill":
            snap.replace_skill(data.draw(st.sampled_from(ids), label="skill"),
                               title="Renamed", deprecated=True)
        elif edges:
            key = data.draw(st.sampled_from(edges), label="key")
            if write == "remove_edge":
                snap.remove_edges([key])
            else:
                snap.set_weight(key, weight)
        assert contents(self.graph) == before
        self.snap_record = contents(snap)

    @rule()
    def save_again(self):
        """Save the graph kept across steps; its last save's text is reused."""
        assert_saves_as_the_oracle(self.graph, Path(self.tmp.name) / "again.json")

    @rule()
    def save_and_load(self):
        path = Path(self.tmp.name) / "graph.json"
        save_graph(self.graph, path)
        loaded = load_graph(path)
        assert graph_to_dict(loaded) == graph_to_dict(self.graph)
        self.graph = loaded

    @invariant()
    def snapshot_is_unchanged(self):
        """No write to the writer graph, the hostile checkpoint included,
        reaches the last snapshot."""
        if self.snap is not None:
            assert contents(self.snap) == self.snap_record

    @invariant()
    def invariants_hold(self):
        assert_invariants(self.graph)
        if self.snap is not None:
            assert_invariants(self.snap)

    @invariant()
    def retrieve_matches_the_oracle(self):
        assert_matches_oracle(self.graph)
        if self.snap is not None:
            assert_matches_oracle(self.snap)


TestGraphMachine = GraphMachine.TestCase
TestGraphMachine.settings = settings(max_examples=40, stateful_step_count=25,
                                     deadline=None)


def small_graph() -> SkillGraph:
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"], category="alpha")
    add_nodes(graph, ["c"], category="beta")
    graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
    graph.add_edge("b", "c", EdgeKind.CO_OCCUR, 0.3)
    graph.highest_active_level = 5
    return graph


class TestIndexUpkeep:
    @pytest.mark.parametrize("write", [
        lambda g: g.add_skill(make_node("d", "alpha")),
        lambda g: g.remove_node("c"),
        lambda g: g.remove_node("b", heir="a"),
        lambda g: g.add_edge("a", "c", EdgeKind.ENHANCE, 0.2),
        lambda g: g.add_edges([("c", "a", "co_occur", 0.4)]),
        lambda g: g.remove_edges([("a", "b", EdgeKind.PREREQ)]),
        lambda g: g.replace_skill("c", category="alpha", title="Moved"),
    ], ids=["add_skill", "remove_node", "remove_node_heir", "add_edge", "add_edges",
            "remove_edge", "replace_skill_category"])
    def test_structural_writes_keep_the_index(self, write):
        graph = small_graph()
        before = index_of(graph)
        write(graph)
        assert index_of(graph) != before
        assert index_of(graph) == derived_index(graph)
        assert_matches_oracle(graph)

    @pytest.mark.parametrize("write", [
        lambda g: g.add_edge("a", "b", EdgeKind.PREREQ, 0.9),   # already there
        lambda g: g.add_edges([]),
        lambda g: g.remove_edges([("a", "c", EdgeKind.PREREQ)]),   # not there
        lambda g: g.set_weight(("a", "b", EdgeKind.PREREQ), 1.0),
        lambda g: g.replace_skill("b", deprecated=True),
        lambda g: setattr(g, "highest_active_level", 0),
        lambda g: g.compute_levels(),
        lambda g: g.update_stats([("a", True, True)]),
    ], ids=["add_existing_edge", "add_no_edges", "remove_missing_edge", "set_weight",
            "deprecate", "lock", "compute_levels", "update_stats"])
    def test_other_writes_leave_the_index_and_are_read_live(self, write):
        graph = small_graph()
        before = index_of(graph)
        write(graph)
        assert index_of(graph) == before
        assert_matches_oracle(graph)

    def test_snapshot_copies_the_index(self):
        """The maps and the category id maps are fresh; each node's adjacency
        tuple is shared, since no write changes a tuple."""
        graph = small_graph()
        snapshot = graph.snapshot()
        assert index_of(snapshot) == index_of(graph)
        for name in ("_out", "_in", "_categories"):
            assert getattr(snapshot, name) is not getattr(graph, name), name
        for k, inner in graph._categories.items():
            assert snapshot._categories[k] is not inner, k
        for name in ("_out", "_in"):
            for k, inner in getattr(graph, name).items():
                assert type(inner) is tuple and getattr(snapshot, name)[k] is inner, (name, k)
        assert_matches_oracle(snapshot)

    def test_views_are_read_only_views_of_stored_keys(self):
        graph = small_graph()
        assert set(graph.category_members("alpha")) == {"a", "b"}
        assert not graph.category_members("unknown")
        assert set(graph.dependency_parents("b")) == {("a", "b", EdgeKind.PREREQ)}
        assert set(graph.forward_neighbors("c")) == {("b", "c", EdgeKind.CO_OCCUR)}
        assert set(graph.forward_neighbors("b")) == {("b", "c", EdgeKind.CO_OCCUR)}
        for v in graph.nodes:
            for view in (graph.forward_neighbors(v), graph.dependency_parents(v)):
                assert not hasattr(view, "add") and not hasattr(view, "__setitem__")
                assert all(key in graph.edges() for key in view)


class TestReadOnly:
    def test_retrieve_writes_nothing_into_a_snapshot(self, rng):
        for _ in range(10):
            graph = random_graph(rng, n=rng.randint(5, 30))
            snapshot = graph.snapshot()
            before = copy.deepcopy(vars(snapshot))
            for query in QUERIES + ("clean", "heat", "cool"):
                for k_max in K_MAX:
                    retrieve(snapshot, TaskQuery("task", query), k_max=k_max)
            assert vars(snapshot) == before

    def test_readers_sharing_a_snapshot_agree_with_the_oracle(self):
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
                # the writer keeps changing the original while readers walk the copy
                graph.add_skill(make_node(f"new{i}", category="clean"))
                graph.remove_node(f"new{i}")
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not mismatches


# ----------------------------------------------------------------------
# repeat saves: the writes that a kept record or edge section must notice


def _stats(graph, data):
    # 300 uses push n_use past 256, beyond the interpreter's cached ints
    uses = data.draw(st.sampled_from([1, 300]), label="uses")
    skill = data.draw(st.sampled_from(sorted(graph.nodes)), label="skill")
    graph.update_stats([(skill, uses, data.draw(st.integers(0, uses), label="wins"))])


def _weight(graph, data):
    if not graph.edges():
        return
    key = data.draw(st.sampled_from(sorted(graph.edges())), label="key")
    value = data.draw(st.sampled_from(["same", "equal", 0.0, -0.0, 0.25]), label="weight")
    if value == "same":
        value = graph.edges()[key]
    elif value == "equal":  # a new float object of the same value
        value = float(repr(graph.edges()[key]))
    graph.set_weight(key, value)


def _add_edge(graph, data):
    src, dst = data.draw(st.lists(st.sampled_from(sorted(graph.nodes)), min_size=2,
                                  max_size=2, unique=True), label="ends")
    try:
        graph.add_edge(src, dst, data.draw(st.sampled_from(EdgeKind), label="kind"), 0.5)
    except CycleWouldForm:
        pass


def _remove_edge(graph, data):
    if graph.edges():
        graph.remove_edges([data.draw(st.sampled_from(sorted(graph.edges())), label="key")])


def _remove_node(graph, data):
    if len(graph.nodes) > 2:
        victim, heir = data.draw(st.lists(st.sampled_from(sorted(graph.nodes)), min_size=2,
                                          max_size=2, unique=True), label="victim, heir")
        graph.remove_node(victim, heir=heir)


def _move_category(graph, data):
    graph.replace_skill(data.draw(st.sampled_from(sorted(graph.nodes)), label="skill"),
                        category=data.draw(st.sampled_from(CATEGORIES), label="category"))


def _title(graph, data):
    skill = data.draw(st.sampled_from(sorted(graph.nodes)), label="skill")
    # an equal title as a new string object, or another title
    title = graph.nodes[skill].title
    graph.replace_skill(skill, title=data.draw(st.sampled_from([title.encode().decode(),
                                                                "Renamed"])))


def _created_step(graph, data):
    # equal but not the same: 3.0 == 3, and it is written as 3.0
    skill = data.draw(st.sampled_from(sorted(graph.nodes)), label="skill")
    step = graph.nodes[skill].created_step
    graph.replace_skill(skill, created_step=data.draw(st.sampled_from([float(step),
                                                                       int(step)])))


def _deprecated(graph, data):
    skill = data.draw(st.sampled_from(sorted(graph.nodes)), label="skill")
    graph.replace_skill(skill, deprecated=data.draw(st.booleans(), label="deprecated"))


WRITES = [_stats, _weight, _add_edge, _remove_edge, _remove_node, _move_category,
          _title, _created_step, _deprecated, "snapshot"]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_repeat_saves_of_one_graph_match_the_general_encoder(data, seed):
    graph = random_graph(random.Random(seed), n=8)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "g.json"
        assert_saves_as_the_oracle(graph, path)
        for write in data.draw(st.lists(st.sampled_from(WRITES), max_size=10), label="writes"):
            if write == "snapshot":
                # a clone renders from nothing and leaves the graph's text alone
                clone = graph.snapshot()
                assert_saves_as_the_oracle(clone, Path(directory) / "clone.json")
                _stats(clone, data)
                assert_saves_as_the_oracle(clone, Path(directory) / "clone.json")
            else:
                write(graph, data)
            assert_saves_as_the_oracle(graph, path)


def test_repeat_saves_follow_levels_above_256(tmp_path):
    graph = SkillGraph()
    ids = [f"s{i:03d}" for i in range(260)]
    add_nodes(graph, ids)
    graph.add_edges([(a, b, "prereq", 0.5) for a, b in zip(ids, ids[1:])])
    path = tmp_path / "g.json"
    assert_saves_as_the_oracle(graph, path)
    assert graph.nodes["s259"].level == 259
    graph.update_stats([("s259", 300, 299)])
    assert_saves_as_the_oracle(graph, path)
    # a new root lifts every level by one; the large ones are new int objects
    add_nodes(graph, ["root"])
    graph.add_edge("root", "s000", EdgeKind.PREREQ, 0.5)
    assert_saves_as_the_oracle(graph, path)
    graph.compute_levels()  # the same levels again, as new objects above 256
    assert_saves_as_the_oracle(graph, path)
    assert graph.nodes["s259"].level == 260


def test_a_repeat_save_renders_only_new_and_replaced_records(tmp_path, monkeypatch):
    """After an insert, a merge or a split, a repeat save renders the text of
    the records that are new or were replaced, and reuses the rest."""
    graph = random_graph(random.Random(11), n=20, deprecated_rate=0.0)
    path = tmp_path / "g.json"
    save_graph(graph, path)
    rendered: list[str] = []
    render = persistence._node_text
    monkeypatch.setattr(persistence, "_node_text",
                        lambda node: rendered.append(node.skill_id) or render(node))

    def save_after(write) -> set[str]:
        before = dict(graph.nodes)
        write()
        graph.ensure_levels()
        rendered.clear()
        assert_saves_as_the_oracle(graph, path)
        return {v for v, node in graph.nodes.items() if before.get(v) is not node}

    assert save_after(lambda: graph.add_skill(make_node("zz_new", "alpha"))) == {"zz_new"}
    assert rendered == ["zz_new"]
    a, b = sorted(graph.nodes)[:2]
    replaced = save_after(lambda: merge_scan(graph, OneMergeTeacher((a, b), "beta"),
                                             EvolutionConfig(merge_jaccard=0.0)))
    assert a in replaced and b not in graph.nodes and len(replaced) < len(graph.nodes)
    assert rendered == sorted(replaced)
    parent = sorted(graph.nodes)[2]
    assert save_after(lambda: graph.update_stats([(parent, 10**6, 0)])) == {parent}
    assert rendered == [parent]
    halves = [SkillProposal(skill_id="p", title=f"Half {i}", principle="Do it.",
                            when_to_apply="Always.") for i in range(2)]
    replaced = save_after(lambda: split_scan(
        graph, ScriptedProposer({"split": halves}), [],
        EvolutionConfig(split_band=(0.0, 1.0), split_min_uses=10**6)))
    assert parent not in graph.nodes and len(replaced) < len(graph.nodes)
    assert rendered == sorted(replaced)


def test_a_weight_stored_past_set_weight_shows_in_the_next_save(tmp_path):
    """The writer keeps its edge section from the weights it rendered, not
    from any count the graph keeps, so even a weight stored straight into
    the edge map is saved as it now is: a new value, and then -0.0 for 0.0,
    equal but written differently."""
    graph = random_graph(random.Random(7), n=10)
    key = min(graph.edges())
    path = tmp_path / "g.json"
    assert_saves_as_the_oracle(graph, path)
    for weight in (0.125, 0.0, -0.0):
        graph._edges[key] = weight
        assert_saves_as_the_oracle(graph, path)
    assert '"weight": -0.0' in path.read_text(encoding="utf-8")


def test_a_saved_graph_that_is_dropped_is_collected(tmp_path):
    graph = random_graph(random.Random(5), n=10)
    save_graph(graph, tmp_path / "g.json")
    save_graph(graph, tmp_path / "g.json")
    dropped = weakref.ref(graph)
    del graph
    gc.collect()
    assert dropped() is None
