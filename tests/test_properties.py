"""Property: no config document and no teacher reply breaks the graph.

Random config documents, wrong types and out-of-range values included, either
load or fail with ConfigInvalid. An evolution section that loads then drives
a checkpoint against a hostile teacher; the graph must keep its invariants and
its snapshot must load back unchanged. The CLI answers every document with a
documented exit code and never lets an exception escape.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillnet import (
    EvolutionConfig,
    Proposer,
    SkillGraph,
    SkillProposal,
    TrajectoryRecord,
    default_sim_config,
    evolve_step,
    graph_to_dict,
    load_graph,
    save_graph,
    save_trajectories,
)
from skillnet.cli import main
from skillnet.config import load_app_config
from skillnet.curriculum import CurriculumParams
from skillnet.errors import (
    ConfigInvalid,
    CycleWouldForm,
    ProposerParseError,
    ProposerUnavailable,
)
from skillnet.proposer import ProposerParams
from skillnet.retrieval import RetrievalParams

from conftest import (
    dependency_edges,
    make_node,
    oracle_has_cycle,
    oracle_levels,
    random_graph,
)

junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def mostly(good: st.SearchStrategy, bad: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(good, good, good, bad)


def valid(default: object) -> st.SearchStrategy:
    """Values of the default's type inside the usual range."""
    if isinstance(default, int):
        return st.integers(0, 30)
    if isinstance(default, float):
        return st.floats(0, 1)
    if isinstance(default, tuple):
        return st.lists(st.floats(0, 1), min_size=2, max_size=2).map(sorted)
    return st.none() | st.text(max_size=5)


def off(default: object) -> st.SearchStrategy:
    """Values of the default's type just outside the usual range."""
    if isinstance(default, int):
        return st.integers(-3, -1)
    if isinstance(default, float):
        return st.floats(1, 2, exclude_min=True) | st.floats(-1, 0, exclude_max=True)
    if isinstance(default, tuple):
        return st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=2)
    return st.integers()


@st.composite
def section(draw, default: object, spoiled: str | None = None) -> dict:
    """In-range values for some fields, then one field spoiled: out of range,
    of the wrong type, or not a field at all. Without ``spoiled`` the field,
    if any, is drawn too."""
    names = [f.name for f in fields(default)]
    doc = draw(st.fixed_dictionaries({}, optional={
        name: valid(getattr(default, name)) for name in names
        if not isinstance(getattr(default, name), list)}))
    if spoiled is None and draw(st.booleans()):
        spoiled = draw(mostly(st.sampled_from(names), st.text(max_size=4)))
    if spoiled is not None:
        doc[spoiled] = draw(mostly(off(getattr(default, spoiled, None)), junk))
    return doc


DEFAULTS = {"retrieval": RetrievalParams(), "evolution": EvolutionConfig(),
            "curriculum": CurriculumParams(), "proposer": ProposerParams(),
            "simulation": default_sim_config()}
config_docs = st.fixed_dictionaries(
    {}, optional={**{name: mostly(section(d), junk) for name, d in DEFAULTS.items()},
                  "mystery": junk})

good_text = st.sampled_from(["Wipe first", "Rinse, then dry", "Stage the parts"])
bad_text = (st.text(" \t\n", min_size=1, max_size=4)        # blank
            | st.text(min_size=81, max_size=90)             # oversized
            | st.text(max_size=8) | st.integers() | st.none())
proposals = st.builds(
    SkillProposal, skill_id=st.just("p"),
    title=st.one_of(good_text, bad_text), principle=mostly(good_text, bad_text),
    when_to_apply=mostly(good_text, bad_text),
    category=mostly(st.none() | st.sampled_from(["clean", "general", ""]), junk),
    neighbor_assignment=mostly(
        st.none() | st.lists(st.sampled_from(["n000", "n001", "twin"])), junk))
replies = (st.lists(proposals, max_size=4)
           | st.builds(ProposerUnavailable, st.just("offline"))
           | st.builds(ProposerParseError, st.just("no JSON array")))


class HostileProposer(Proposer):
    def __init__(self, data):
        self.data = data

    def propose(self, request):
        reply = self.data.draw(replies, label=request.kind)
        if isinstance(reply, Exception):
            raise reply
        return reply


def assert_invariants(graph: SkillGraph) -> None:
    nodes = sorted(graph.nodes)
    deps = dependency_edges(graph)
    assert not oracle_has_cycle(nodes, deps)
    assert all(0.0 <= e.weight <= 1.0 for e in graph.edges())
    assert {v: n.level for v, n in graph.nodes.items()} == oracle_levels(nodes, deps)
    assert all(a in graph.nodes and b in graph.nodes for a, b in graph.co_counts)


def library(seed: int) -> SkillGraph:
    """A random graph plus a twin of n000, so merges have a candidate."""
    graph = random_graph(random.Random(seed), n=12)
    graph.add_skill(make_node("twin", category="clean", n_use=30, n_succ=9))
    for edge in graph.incident_edges("n000"):
        src = "twin" if edge.src == "n000" else edge.src
        dst = "twin" if edge.dst == "n000" else edge.dst
        with contextlib.suppress(CycleWouldForm):
            graph.add_edge(src, dst, edge.kind, edge.weight)
    graph.compute_levels()
    return graph


def window(graph: SkillGraph, seed: int) -> list[TrajectoryRecord]:
    rng = random.Random(seed)
    ids, edges = sorted(graph.nodes), graph.edges()
    return [TrajectoryRecord(
        task_id=f"t{i}", task_type="clean",
        retrieved_skill_ids=rng.sample(ids, 3),
        traversed_edges=[(e.src, e.dst, e.kind.value)
                         for e in rng.sample(edges, min(2, len(edges)))],
        steps=[{"action": "try", "observation": "no skill guidance"}],
        success=i % 2 == 0) for i in range(6)]


def load_doc(doc: dict, directory: Path) -> Path:
    path = directory / "config.json"
    path.write_text(json.dumps(doc))
    return path


# one run per field, so a range check that goes missing is found on its own
@pytest.mark.parametrize("spoiled", [None, *(f.name for f in fields(EvolutionConfig))])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_any_config_and_teacher_reply_leave_a_loadable_graph(spoiled, seed, data):
    doc = {"evolution": data.draw(section(EvolutionConfig(), spoiled))}
    graph = library(seed)
    records = window(graph, seed)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            cfg = load_app_config(load_doc(doc, Path(tmp))).evolution
        except ConfigInvalid:
            cfg = EvolutionConfig()  # a rejected document never reaches the graph
        evolve_step(graph, [r for r in records if r.success],
                    [r for r in records if not r.success],
                    HostileProposer(data), cfg)
        assert_invariants(graph)
        save_graph(graph, Path(tmp) / "g.json")
        loaded = load_graph(Path(tmp) / "g.json")
    assert_invariants(loaded)
    assert graph_to_dict(loaded) == graph_to_dict(graph)


class OfflineProposer(Proposer):
    def __init__(self, **params):
        pass

    def propose(self, request):
        raise ProposerUnavailable("offline")


@settings(max_examples=40, deadline=None)
@given(doc=config_docs)
def test_cli_maps_any_config_to_a_documented_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        graph = library(7)
        save_graph(graph, tmp / "g.json")
        save_trajectories(window(graph, 7), tmp / "w.jsonl")
        common = ["--graph", str(tmp / "g.json"), "--config", str(load_doc(doc, tmp))]
        err = io.StringIO()
        # the teacher is never contacted, whatever endpoint the document names
        with mock.patch("skillnet.cli.HttpProposer", OfflineProposer), \
                contextlib.redirect_stderr(err):
            codes = [main([*common, "retrieve", "--task-type", "clean"]),
                     main([*common, "evolve", "--window", str(tmp / "w.jsonl"),
                           "--out", str(tmp / "out.json")])]
    assert set(codes) <= {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    # both commands read the same document, so they agree on whether it is valid
    assert codes[0] == codes[1]
