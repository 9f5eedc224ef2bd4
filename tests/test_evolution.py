"""Evolution operations: pinned-constant arithmetic, node ops, edge ops."""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from skillnet import evolution, graph_to_dict, load_graph, save_graph
from skillnet.errors import (
    ConfigInvalid, CycleDetected, CycleWouldForm, DuplicateEdge, ProposerUnavailable,
)
from skillnet.evolution import merge_candidates
from skillnet.model import edge_key, pair_key
from skillnet.proposer import Proposer

from bench.library import generate_library
from conftest import add_nodes, computed_levels, make_node, random_graph

ROOT = Path(__file__).resolve().parent.parent


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
        assert graph.incident_edges(inserted[0]) == set()

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

    @settings(max_examples=200, deadline=None)
    @given(a=st.sets(st.sampled_from("abcdefgh")), b=st.sets(st.sampled_from("abcdefgh")))
    def test_jaccard_of_a_tuple_is_that_of_the_set(self, a, b):
        expected = len(a & b) / len(a | b) if a or b else 0.0
        assert jaccard(a, tuple(b)) == jaccard(a, b) == expected

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

    def test_merge_request_carries_no_titles(self):
        requests = []

        class Recording(CountingProposer):
            def propose(self, request):
                requests.append(request)
                return super().propose(request)

        merge_scan(self.build_pair(), Recording([proposal(9)]), EvolutionConfig())
        assert [r.kind for r in requests] == ["merge"]
        assert requests[0].existing_titles == []

    def test_duplicate_edges_keep_higher_weight(self):
        graph = self.build_pair(shared=3)
        graph.set_weight(edge_key("s1", "x0", EdgeKind.CO_OCCUR), 0.4)
        graph.set_weight(edge_key("s2", "x0", EdgeKind.CO_OCCUR), 0.7)
        merge_scan(graph, CountingProposer([proposal(9)]), EvolutionConfig())
        assert graph.weight("s1", "x0", EdgeKind.CO_OCCUR) == \
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


def reference_candidates(graph: SkillGraph, threshold: float) -> list[tuple[str, str]]:
    """The oracle: Jaccard over every live pair, in (a, b) order."""
    live = sorted(v for v, n in graph.nodes.items() if not n.deprecated)
    neighborhoods = {v: graph.neighbors(v) for v in live}
    return [
        (a, b) for i, a in enumerate(live) for b in live[i + 1:]
        if jaccard(neighborhoods[a], neighborhoods[b]) >= threshold
    ]


@st.composite
def neighborhood_graphs(draw) -> SkillGraph:
    """Small graphs with empty neighborhoods, deprecated nodes, adjacent
    candidates and, sometimes, one hub adjacent to every node."""
    n = draw(st.integers(0, 14))
    ids = [f"n{i:02d}" for i in range(n)]
    graph = SkillGraph()
    for skill_id in ids:
        graph.add_skill(make_node(
            skill_id, deprecated=draw(st.sampled_from([False, False, False, True]))))
    if n >= 2:
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                        st.sampled_from(list(EdgeKind))),
                              max_size=3 * n))
        for i, j, kind in edges:
            if i != j:  # lower index first keeps the dependency edges acyclic
                graph.add_edge(ids[min(i, j)], ids[max(i, j)], kind, 0.5)
    if draw(st.booleans()):
        graph.add_skill(make_node("hub", deprecated=draw(st.booleans())))
        for skill_id in ids:
            graph.add_edge("hub", skill_id, EdgeKind.CO_OCCUR, 0.5)
    return graph


def _around(t: float) -> st.SearchStrategy:
    return st.sampled_from([t, math.nextafter(t, 0.0), math.nextafter(t, 1.0)])


thresholds = st.one_of(
    st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 0.85, 1.0]),
    # k/m times a neighborhood size that is a multiple of m is an integer
    st.tuples(st.integers(1, 14), st.integers(1, 14))
    .filter(lambda km: km[0] <= km[1]).map(lambda km: km[0] / km[1]).flatmap(_around),
    st.floats(0.0, 1.0))


class MergeTeacher(Proposer):
    """Accepts merges within one category, declines the rest."""

    def propose(self, request):
        if request.kind != "merge":
            return [proposal(i) for i in range(request.max_items)]
        a, b = request.skill_pair
        if a["category"] != b["category"]:
            return []
        return [proposal(0, title=f"Unified {a['skill_id']} {b['skill_id']}")]


def planted_library(rng: random.Random, n: int = 300) -> SkillGraph:
    """Random library in which every 15th skill copies the neighborhood of
    the skill before it, sometimes with one extra neighbor."""
    graph = SkillGraph()
    ids = [f"s{i:03d}" for i in range(n)]
    for skill_id in ids:
        uses = rng.randint(0, 40)
        graph.add_skill(make_node(skill_id, category=rng.choice(["clean", "heat", "cool"]),
                                  n_use=uses, n_succ=rng.randint(0, uses)))
    twins = {ids[i]: ids[i - 1] for i in range(15, n, 15)}
    plain = [v for v in ids if v not in twins]
    for i, src in enumerate(plain[:-1]):
        for dst in rng.sample(plain[i + 1:], min(2, len(plain) - i - 1)):
            graph.add_edge(src, dst, EdgeKind.PREREQ, round(rng.uniform(0.1, 1), 6))
        graph.add_edge(src, rng.choice(plain[i + 1:]), EdgeKind.CO_OCCUR, 0.3)
    for twin, original in twins.items():
        for neighbor in graph.neighbors(original):
            graph.add_edge(twin, neighbor, EdgeKind.CO_OCCUR, 0.3)
        if rng.random() < 0.5:
            graph.add_edge(twin, rng.choice(plain), EdgeKind.CO_OCCUR, 0.3)
    graph.compute_levels()
    return graph


def random_write(graph: SkillGraph, rng: random.Random, threshold: float) -> None:
    """One write of a kind ``rng`` picks, through the public API: an edge
    insert or a batch of them, an edge removal, a skill added or removed
    (with or without an heir), a deprecated flag flipped either way, a
    category moved, or a merge scan at ``threshold``."""
    ids = sorted(graph.nodes)
    write = rng.choice(["add_edge", "add_edges", "remove_edges", "add_skill", "remove_node",
                        "flip", "move", "merge_scan"])
    if write == "add_skill" or len(ids) < 2:
        graph.add_skill(make_node(graph.new_dynamic_id(), rng.choice(["clean", "heat"]),
                                  deprecated=rng.random() < 0.25))
    elif write == "add_edge":
        try:
            graph.add_edge(*rng.sample(ids, 2), rng.choice(list(EdgeKind)), 0.5)
        except CycleWouldForm:
            pass
    elif write == "add_edges":
        try:
            graph.add_edges([(*rng.sample(ids, 2), rng.choice(list(EdgeKind)).value, 0.5)
                             for _ in range(rng.randint(1, 4))])
        except (DuplicateEdge, CycleDetected):
            pass  # the batch is refused whole
    elif write == "remove_edges":
        keys = sorted(graph.edges())
        graph.remove_edges(rng.sample(keys, min(len(keys), rng.randint(1, 3))))
    elif write == "remove_node":
        gone = rng.choice(ids)
        graph.remove_node(gone, heir=rng.choice([None] + [v for v in ids if v != gone]))
    elif write == "flip":
        skill_id = rng.choice(ids)
        graph.replace_skill(skill_id, deprecated=not graph.nodes[skill_id].deprecated)
    elif write == "move":
        graph.replace_skill(rng.choice(ids), category=rng.choice(["general", "clean"]))
    else:
        merge_scan(graph, MergeTeacher(), EvolutionConfig(merge_jaccard=threshold))


class TestMergeCandidatesOracle:
    @settings(max_examples=200, deadline=None)
    @given(graph=neighborhood_graphs(), threshold=thresholds, rng=st.randoms(),
           batches=st.lists(st.tuples(st.integers(1, 5), st.none() | thresholds),
                            min_size=1, max_size=6))
    def test_repeat_scans_of_one_graph_equal_the_all_pairs_scan(self, graph, threshold,
                                                                 rng, batches):
        merge_candidates(graph, threshold)
        for writes, new_threshold in batches:
            for _ in range(writes):
                random_write(graph, rng, threshold)
            threshold = threshold if new_threshold is None else new_threshold
            assert merge_candidates(graph, threshold) == \
                reference_candidates(graph, threshold)

    # counts evolution.jaccard calls in a cold 0.85 scan of the 2k bench library
    COUNT_COMPARISONS = """
import json
from bench.library import generate_library
from skillnet import evolution
calls = []
jaccard = evolution.jaccard
evolution.jaccard = lambda a, b: calls.append(1) or jaccard(a, b)
pairs = evolution.merge_candidates(generate_library(2000, 15), 0.85)
print(json.dumps([len(calls), pairs]))
"""

    def test_comparison_count_does_not_follow_the_hash_seed(self):
        """The probe prefix is ordered by (size, id), so two processes with
        different string hash seeds make the same comparisons on a cold scan
        and find the all-pairs scan's pairs."""
        runs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
            proc = subprocess.run([sys.executable, "-c", self.COUNT_COMPARISONS],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=120, check=True)
            runs.append(json.loads(proc.stdout))
        (calls, pairs), (other_calls, other_pairs) = runs
        assert calls == other_calls > 0
        expected = reference_candidates(generate_library(2000, 15), 0.85)
        assert [tuple(pair) for pair in pairs] == \
            [tuple(pair) for pair in other_pairs] == expected != []

    def test_a_dropped_graph_frees_its_memo(self, monkeypatch):
        memo = weakref.WeakKeyDictionary()
        monkeypatch.setattr(evolution, "_LAST_SCANS", memo)
        graph = planted_library(random.Random(3), n=60)
        merge_candidates(graph, 0.85)
        assert list(memo) == [graph]
        alive = weakref.ref(graph)
        del graph
        gc.collect()
        assert alive() is None
        assert len(memo) == 0

    @pytest.mark.parametrize("clone", [SkillGraph.snapshot, copy.deepcopy],
                             ids=["snapshot", "deepcopy"])
    def test_a_copy_starts_cold_while_the_original_evolves(self, clone):
        rng = random.Random(11)
        graph = planted_library(rng, n=90)
        merge_candidates(graph, 0.85)
        for _ in range(10):
            random_write(graph, rng, 0.85)
        copied = clone(graph)
        assert copied not in evolution._LAST_SCANS
        # both share every adjacency tuple, so only the graph tells them apart
        assert all(copied.forward_neighbors(v) is graph.forward_neighbors(v)
                   for v in graph.nodes)
        for _ in range(4):
            for _ in range(10):
                random_write(graph, rng, 0.85)
            for g in (copied, graph):
                assert merge_candidates(g, 0.85) == reference_candidates(g, 0.85)
            for _ in range(5):
                random_write(copied, rng, 0.85)

    @settings(max_examples=300, deadline=None)
    @given(graph=neighborhood_graphs(), threshold=thresholds)
    def test_candidates_equal_the_all_pairs_scan(self, graph, threshold):
        assert merge_candidates(graph, threshold) == \
            reference_candidates(graph, threshold)

    @settings(max_examples=100, deadline=None)
    @given(graph=neighborhood_graphs())
    def test_an_ids_frequency_is_its_neighborhood_size(self, graph):
        # the symmetry the merge probe relies on to find a skill's partners
        # among its neighbors' neighbors: u in N(w) exactly when w in N(u),
        # and every neighborhood names live ids only
        live = sorted(v for v, n in graph.nodes.items() if not n.deprecated)
        neighborhoods = {v: graph.neighbors(v) for v in live}
        frequency = Counter(w for v in live for w in neighborhoods[v])
        assert set(frequency) <= set(live)
        assert all(frequency[w] == len(neighborhoods[w]) for w in live)
        assert all(w in neighborhoods[u] for w in live for u in neighborhoods[w])

    @pytest.mark.parametrize("threshold, kept", [
        (6 / 7, True), (math.nextafter(6 / 7, 1.0), False), (0.85, True)])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_length_filter_boundary(self, threshold, kept, repeat):
        # N(a) = n0..n5 inside N(b) = n0..n6: J(a, b) is the size ratio 6/7;
        # a first scan probes every skill, a repeat scan only b and n6, the
        # ends of the last edge
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"] + [f"n{i}" for i in range(7)])
        for i in range(6):
            graph.add_edge("a", f"n{i}", EdgeKind.CO_OCCUR, 0.5)
            graph.add_edge("b", f"n{i}", EdgeKind.CO_OCCUR, 0.5)
        if repeat:
            merge_candidates(graph, threshold)
        graph.add_edge("b", "n6", EdgeKind.CO_OCCUR, 0.5)
        candidates = merge_candidates(graph, threshold)
        assert (("a", "b") in candidates) is kept
        assert candidates == reference_candidates(graph, threshold)

    def test_sizes_alone_exclude_a_pair_sharing_its_rarest_neighbor(self, monkeypatch):
        # N(lean) = {a_rare, x}, N(wide) = {a_rare, y0..y9}; the filler makes
        # x and every y as frequent as a_rare, which wins the tie by id; the
        # probe of lean walks a_rare's neighborhood and meets wide there
        graph = SkillGraph()
        ys = [f"y{i}" for i in range(10)]
        add_nodes(graph, ["lean", "wide", "a_rare", "x", "filler"] + ys)
        for src, dst in ([("lean", "a_rare"), ("lean", "x"), ("wide", "a_rare"),
                          ("filler", "x")] + [("wide", y) for y in ys]
                         + [("filler", y) for y in ys]):
            graph.add_edge(src, dst, EdgeKind.CO_OCCUR, 0.5)
        live = sorted(graph.nodes)
        neighborhoods = {v: graph.neighbors(v) for v in live}
        frequency = Counter(w for v in live for w in neighborhoods[v])
        for v in ("lean", "wide"):
            assert min(neighborhoods[v], key=lambda w: (frequency[w], w)) == "a_rare"
        # every y has the same neighborhood, so a compared side is told apart
        # by identity: the set read for a skill or the tuple kept for it
        read = {}
        real_neighbors = graph.neighbors

        def reading(v):
            read[v] = real_neighbors(v)
            return read[v]

        compared = []
        real_jaccard = evolution.jaccard

        def spy(a, b):
            compared.append((a, b))
            return real_jaccard(a, b)

        monkeypatch.setattr(graph, "neighbors", reading)
        monkeypatch.setattr(evolution, "jaccard", spy)
        candidates = merge_candidates(graph, 0.85)  # 2 / 11 < 0.85
        skill_of = {id(n): v for v, n in read.items()}
        skill_of.update((id(n), v) for v, n in evolution._LAST_SCANS[graph][3].items())
        pairs = Counter(frozenset(skill_of[id(side)] for side in ab) for ab in compared)
        assert frozenset(("lean", "wide")) not in pairs
        assert pairs and max(pairs.values()) == 1  # no pair is compared twice
        assert all(len(pair) == 2 for pair in pairs)
        monkeypatch.undo()
        assert candidates == reference_candidates(graph, 0.85)

    def test_zero_threshold_admits_every_pair(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"])
        assert merge_candidates(graph, 0.0) == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_checkpoint_equals_a_run_on_the_reference_candidates(self, monkeypatch):
        # consecutive checkpoints on one graph, so every scan after the first
        # starts from the last one; before each, a new twin of a live skill
        # gives that scan a merge to find
        def run(graph: SkillGraph, scan) -> tuple[list[dict], list]:
            scans = []

            def recorded(graph, threshold):
                scans.append(scan(graph, threshold))
                return scans[-1]

            monkeypatch.setattr(evolution, "merge_candidates", recorded)
            reports = []
            for step in range(4):
                ids = sorted(graph.nodes)
                if step:
                    original = next(v for v in ids[40 * step:] if not graph.nodes[v].deprecated)
                    twin = graph.new_dynamic_id()
                    graph.add_skill(make_node(twin, graph.nodes[original].category))
                    for neighbor in sorted(graph.neighbors(original)):
                        graph.add_edge(twin, neighbor, EdgeKind.CO_OCCUR, 0.3)
                wins = [success_record(ids[i:i + 4]) for i in range(10 * step, 40 + 10 * step, 4)]
                losses = [failure(f"t{step}.{i}") for i in range(3)]
                reports.append(evolve_step(graph, wins, losses, MergeTeacher(),
                                           EvolutionConfig()).to_dict())
            return reports, scans

        graph = planted_library(random.Random(20260418))
        reference = copy.deepcopy(graph)
        live, reads = [], []
        real_neighbors = SkillGraph.neighbors

        def counted(graph, skill_id):
            reads[-1] += 1
            return real_neighbors(graph, skill_id)

        def counting_scan(graph, threshold):
            live.append(sum(not n.deprecated for n in graph.nodes.values()))
            reads.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(SkillGraph, "neighbors", counted)
                return merge_candidates(graph, threshold)

        reports, scans = run(graph, counting_scan)
        assert (reports, scans) == run(reference, reference_candidates)
        assert graph_to_dict(graph) == graph_to_dict(reference)
        assert len(reports[0]["merged"]) >= 5
        assert all(report["merged"] for report in reports[1:])
        # the first scan reads every live skill, each later one fewer
        assert reads[0] == live[0]
        assert all(r < n for r, n in zip(reads[1:], live[1:]))


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
        assert graph.weight("dyn_0001", "dyn_0002", EdgeKind.PREREQ) is not None
        assert graph.weight("dyn_0002", "dyn_0003", EdgeKind.PREREQ) is not None
        levels = computed_levels(graph)
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
        assert graph.weight("dyn_0001", "n1", EdgeKind.CO_OCCUR) is not None
        assert graph.weight("n2", "dyn_0002", EdgeKind.CO_OCCUR) is not None
        assert graph.weight("dyn_0001", "n3", EdgeKind.ENHANCE) is not None

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
        assert graph.weight("dyn_0001", "n2", EdgeKind.CO_OCCUR) is not None
        assert graph.weight("dyn_0002", "n1", EdgeKind.CO_OCCUR) is not None


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
        assert len(graph.edges()) == 1
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
        assert graph.weight("a", "b", EdgeKind.PREREQ) == \
            pytest.approx(0.35)

    def test_clamped_at_one(self):
        graph = self.linked(0.98)
        reinforce_paths(graph,
                        [success_record(["a", "b"], [("a", "b", "prereq")])], 0.05)
        assert graph.weight("a", "b", EdgeKind.PREREQ) == 1.0

    def test_two_trajectories_two_increments(self):
        graph = self.linked(0.30)
        records = [success_record(["a", "b"], [("a", "b", "prereq")])
                   for _ in range(2)]
        applied, _ = reinforce_paths(graph, records, 0.05)
        assert applied == 2
        assert graph.weight("a", "b", EdgeKind.PREREQ) == \
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

    def test_unknown_kind_built_in_code_is_refused(self):
        # a parsed record never holds one: TrajectoryRecord.from_dict refuses it
        graph = self.linked(0.30)
        with pytest.raises(ValueError, match="bogus"):
            reinforce_paths(graph, [success_record(["a", "b"], [("a", "b", "bogus")])],
                            0.05)
        assert graph.weight("a", "b", EdgeKind.PREREQ) == 0.30


class TestDiscover:
    def test_single_coappearance_insufficient(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        added = discover_cooccur(graph, [success_record(["a", "b"])], 2)
        assert added == 0 and len(graph.edges()) == 0

    def test_threshold_crossing_adds_edge(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        discover_cooccur(graph, [success_record(["a", "b"])], 2)
        added = discover_cooccur(graph, [success_record(["a", "b"])], 2)
        assert added == 1
        assert graph.weight("a", "b", EdgeKind.CO_OCCUR) == pytest.approx(0.3)

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


def reference_discover(graph: SkillGraph, successes: list[TrajectoryRecord],
                       min_count: int) -> int:
    """The oracle: ``discover_cooccur`` as it counted before a rollout
    group's repeated skill set was counted once, record by record."""
    for record in successes:
        ids = sorted(set(record.retrieved_skill_ids) & graph.nodes.keys())
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                pair = pair_key(a, b)
                graph.co_counts[pair] = graph.co_counts.get(pair, 0) + 1
    added = 0
    for (a, b), count in sorted(graph.co_counts.items()):
        if count < min_count:
            continue
        if graph.nodes[a].deprecated or graph.nodes[b].deprecated:
            continue
        if graph.has_any_edge(a, b):
            continue
        graph.add_edge(a, b, EdgeKind.CO_OCCUR, evolution.COOCCUR_DISCOVERY_WEIGHT)
        added += 1
    return added


@st.composite
def discover_cases(draw) -> tuple[SkillGraph, list[list[TrajectoryRecord]], int]:
    """A small graph with deprecated skills, some pairs already connected and
    some counts already banked, plus windows of wins drawn from a few skill
    sets, so sets repeat, each win listing its set in some order, and naming
    ids the graph never had or lost to a merge."""
    ids = [f"s{i}" for i in range(draw(st.integers(2, 7)))]
    graph = SkillGraph()
    for skill_id in ids:
        graph.add_skill(make_node(skill_id, category="clean",
                                  deprecated=draw(st.booleans())))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
        lambda pair: pair[0] < pair[1])
    for a, b in draw(st.lists(pairs, max_size=4)):
        graph.add_edge(a, b, draw(st.sampled_from(list(EdgeKind))), 0.5)
    for pair in draw(st.lists(pairs, max_size=4)):
        graph.co_counts[pair] = draw(st.integers(1, 3))
    if len(ids) > 2 and draw(st.booleans()):
        graph.remove_node(ids[-1], heir=ids[0])  # merged away, still listed below
    skill_sets = draw(st.lists(
        st.lists(st.sampled_from(ids + ["gone_a", "gone_b"]), max_size=6),
        min_size=1, max_size=4))
    # a rollout group's wins share one list object; others list a set anew
    shared = [success_record(ids) for ids in skill_sets]
    wins = st.sampled_from(shared) | st.sampled_from(skill_sets).flatmap(
        st.permutations).map(success_record)
    windows = draw(st.lists(st.lists(wins, max_size=12), min_size=1, max_size=3))
    return graph, windows, draw(st.integers(0, 4))


class TestDiscoverOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=discover_cases())
    def test_counts_once_per_distinct_set_as_record_by_record(self, case):
        graph, windows, min_count = case
        reference = copy.deepcopy(graph)
        for window in windows:
            added = discover_cooccur(graph, window, min_count)
            expected = reference_discover(reference, window, min_count)
            assert added == expected
            assert list(graph.co_counts.items()) == list(reference.co_counts.items())
            assert graph_to_dict(graph) == graph_to_dict(reference)

    def test_lists_in_another_order_or_with_a_merged_away_id_count_as_one_set(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c", "d"], category="clean")
        graph.remove_node("d", heir="a")
        group = success_record(["c", "a", "b"])
        wins = [group] * 3 + [success_record(["b", "c", "a"]),
                              success_record(["a", "d", "c", "b"]),
                              success_record(["b", "a"])]
        reference = copy.deepcopy(graph)
        assert discover_cooccur(graph, wins, 5) == 3
        assert reference_discover(reference, wins, 5) == 3
        assert list(graph.co_counts.items()) == list(reference.co_counts.items()) == \
            [(("a", "b"), 6), (("a", "c"), 5), (("b", "c"), 5)]
        assert list(graph.edges()) == list(reference.edges())

    def test_repeated_set_crosses_the_threshold_in_one_window(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"], category="clean")
        wins = [success_record(["b", "a", "ghost"])] * 3 + [success_record(["c", "a"])]
        assert discover_cooccur(graph, wins, 3) == 1
        assert list(graph.co_counts.items()) == [(("a", "b"), 3), (("a", "c"), 1)]
        assert graph.weight("a", "b", EdgeKind.CO_OCCUR) == pytest.approx(0.3)


class TestEdgeOpsCheckTheirArguments:
    """Out-of-range knobs raise before any weight moves, not at the first
    weight ``set_weight`` refuses."""

    def three_nodes(self) -> SkillGraph:
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.add_edge("b", "c", EdgeKind.PREREQ, 0.9)
        return graph

    @pytest.mark.parametrize("decay, floor", [
        (1.5, 0.05), (-0.1, 0.05), (math.nan, 0.05), (0.99, 1.5), (0.99, -0.1),
    ])
    def test_decay_and_prune_leaves_the_graph_untouched(self, decay, floor):
        graph = self.three_nodes()
        before = graph_to_dict(graph)
        with pytest.raises(ConfigInvalid):
            decay_and_prune(graph, decay, floor)
        assert graph_to_dict(graph) == before

    @pytest.mark.parametrize("step", [1.5, -0.6, math.nan])
    def test_reinforce_paths_leaves_the_graph_untouched(self, step):
        graph = self.three_nodes()
        before = graph_to_dict(graph)
        wins = [success_record(["a", "b", "c"], [("b", "c", "prereq"), ("a", "b", "prereq")])]
        with pytest.raises(ConfigInvalid):
            reinforce_paths(graph, wins, step)
        assert graph_to_dict(graph) == before


class TestDecayPrune:
    def test_boundary_prune(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.05)
        assert decay_and_prune(graph, 0.99, 0.05) == 1
        assert len(graph.edges()) == 0
        assert "a" in graph.nodes and "b" in graph.nodes

    def test_full_weight_survives(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 1.0)
        assert decay_and_prune(graph, 0.99, 0.05) == 0
        assert graph.weight("a", "b", EdgeKind.PREREQ) == \
            pytest.approx(0.99)

    def test_reinforce_then_decay_composition(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.30)
        reinforce_paths(graph,
                        [success_record(["a", "b"], [("a", "b", "prereq")])], 0.05)
        decay_and_prune(graph, 0.99, 0.05)
        assert graph.weight("a", "b", EdgeKind.PREREQ) == \
            pytest.approx(0.3465)

    def test_unreinforced_weight_follows_geometric_decay(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.9)
        for _ in range(7):
            decay_and_prune(graph, 0.99, 0.05)
        assert graph.weight("a", "b", EdgeKind.PREREQ) == \
            pytest.approx(0.9 * 0.99 ** 7)


class TestEvolveStep:
    def test_empty_window_only_decay(self):
        graph = SkillGraph()
        add_nodes(graph, ["g"], category="general")
        add_nodes(graph, ["t1", "t2"], category="clean")
        graph.init_edges()
        weights_before = dict(graph.edges())
        report = evolve_step(graph, [], [], ScriptedProposer(),
                             EvolutionConfig())
        assert report.inserted == [] and report.merged == []
        assert report.split == [] and report.deprecated == []
        assert report.edges_reinforced == 0 and report.edges_added == 0
        for key, weight in graph.edges().items():
            assert weight == pytest.approx(0.99 * weights_before[key])
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
        assert graph.weight("g", "clean_b", EdgeKind.ENHANCE) == \
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

            state1 = sorted((src, dst, kind.value, weight)
                            for (src, dst, kind), weight in g1.edges().items())
            state2 = sorted((src, dst, kind.value, weight)
                            for (src, dst, kind), weight in g2.edges().items())
            assert state1 == state2

    def test_discovered_edge_decays_within_same_checkpoint(self):
        # discovery runs before decay in the fixed pipeline order
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        wins = [success_record(["a", "b"]), success_record(["a", "b"])]
        report = evolve_step(graph, wins, [], ScriptedProposer(),
                             EvolutionConfig())
        assert report.edges_added == 1
        assert graph.weight("a", "b", EdgeKind.CO_OCCUR) == \
            pytest.approx(0.3 * 0.99)

    def test_proposer_failure_never_aborts_checkpoint(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.3)
        report = evolve_step(graph, [], [failure()], FailingProposer(),
                             EvolutionConfig())
        assert report.inserted == []
        assert graph.checkpoint_index == 1


class SequenceTeacher(Proposer):
    """Scripted teacher for a run of checkpoints: valid and invalid
    proposals, empty replies, splits with and without neighbor assignments,
    and one outage on its third merge request."""

    def __init__(self, graph: SkillGraph):
        self.graph = graph
        self.calls: dict[str, int] = {}
        self.outages = 0

    def propose(self, request):
        n = self.calls[request.kind] = self.calls.get(request.kind, 0) + 1
        if request.kind == "insert":
            # one more than asked for, the second one blank
            return [proposal(100 * n + i, title=" " if i == 1 else None)
                    for i in range(request.max_items + 1)]
        if request.kind == "merge":
            if n == 3:
                self.outages += 1
                raise ProposerUnavailable("offline")
            if n % 4 == 0:
                return []
            a, b = request.skill_pair
            title = "" if n % 4 == 1 else f"Unified {a['skill_id']} {b['skill_id']}"
            return [proposal(n, title=title, category="heat" if n % 3 else None)]
        parent = request.skill["skill_id"]
        neighbors = sorted({dst if src == parent else src
                            for src, dst, _ in self.graph.incident_edges(parent)})
        children = [proposal(1000 * n + i, title=f"Step {i} of {parent}")
                    for i in range(3 + n % 2)]
        if n % 3 == 0:
            children[1].title = "\t"
        if n % 2 == 0:
            children[0].neighbor_assignment = neighbors[::2]
            children[-1].neighbor_assignment = neighbors[1::3] + ["nowhere"]
        return children


def checkpoint_sequence(seed: int = 7, steps: int = 6) -> tuple[list[dict], SkillGraph]:
    """Reports of a fixed-seed run of checkpoints on a random graph."""
    rng = random.Random(seed)
    graph = random_graph(rng, n=40)
    teacher = SequenceTeacher(graph)
    cfg = EvolutionConfig(merge_jaccard=0.3, split_band=(0.2, 0.6),
                          split_min_uses=10, deprecate_min_uses=60)
    reports = []
    for step in range(steps):
        ids = sorted(graph.nodes)
        edges = sorted((src, dst, kind.value) for src, dst, kind in graph.edges())
        wins = [success_record(rng.sample(ids, 4), rng.sample(edges, min(3, len(edges))))
                for _ in range(6)]
        losses = [failure(f"t{step}.{i}") for i in range(step % 3)]
        graph.update_stats([(v, True, rng.random() < 0.3) for v in rng.sample(ids, 8)])
        reports.append(evolve_step(graph, wins, losses, teacher, cfg).to_dict())
    assert teacher.outages == 1
    return reports, graph


class TestCheckpointSequence:
    # digest of the reports and the final graph_to_dict of checkpoint_sequence(),
    # pinned on the code before insert, merge and split shared their helpers
    PINNED = "349467e9bd377002ae68774e899638de8b6bd80b5eb3c9b5d705c432930b7698"

    def test_reports_and_graph_match_the_pinned_digest(self):
        reports, graph = checkpoint_sequence()
        assert sum(len(r["merged"]) for r in reports) >= 10
        assert sum(len(r["split"]) for r in reports) >= 10
        assert sum(len(r["inserted"]) for r in reports) >= 4
        payload = json.dumps([reports, graph_to_dict(graph)], sort_keys=True)
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == self.PINNED

    def test_levels_computed_at_most_once_per_checkpoint(self, monkeypatch):
        calls = []
        compute = SkillGraph.compute_levels
        monkeypatch.setattr(SkillGraph, "compute_levels",
                            lambda graph: calls.append(1) or compute(graph))
        graph = random_graph(random.Random(7), n=40)
        teacher = SequenceTeacher(graph)
        cfg = EvolutionConfig(merge_jaccard=0.3, split_band=(0.2, 0.6),
                              split_min_uses=10)
        for step in range(3):
            calls.clear()
            report = evolve_step(graph, [], [failure()], teacher, cfg)
            assert report.inserted and report.merged
            assert len(calls) <= 1
        assert graph._unleveled == set()
