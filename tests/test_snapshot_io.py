"""The snapshot writer and the bulk edge loader against the code they replace.

``save_graph`` writes its schema in one pass; the oracle is the general
encoder it replaced, ``json.dumps(graph_to_dict(g), indent=2,
sort_keys=True) + "\\n"``. ``graph_from_dict`` checks each section column by
column and inserts all edges in one bulk call; the oracles are the per-edge
loader it replaced, one ``add_edge`` (with its cycle search) per edge, and
the row-by-row load that checked every record field by field, stored each
edge on its own and recomputed every level, both kept here. ``load_graph``
pauses the cyclic garbage collector over the decode and the build.
"""

from __future__ import annotations

import gc
import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillnet import (
    EdgeKind,
    SkillGraph,
    SkillNode,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    persistence,
    save_graph,
)
from skillnet.cli import main
from skillnet.errors import (
    CycleDetected,
    CycleWouldForm,
    DuplicateEdge,
    ParseError,
    SkillNetError,
    UnknownEndpoint,
    WeightOutOfRange,
)
from skillnet.model import is_blank, pair_key

from bench.library import generate_library
from bench.run import EXPECTED
from bench.workloads import CYCLES_PER_LIBRARY, PUBLISHES, Checkpoint2k, Retrieve8k
from conftest import add_nodes, computed_levels, random_graph

# ----------------------------------------------------------------------
# writer: the same bytes as the general encoder

# every text field gets quotes, backslashes, control and non-ASCII characters,
# astral ones (written as surrogate pairs) included
tricky = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                          "\u00a0", "\u2028", "é", "中", "\U0001f600"])
texts = st.lists(st.text(max_size=4) | tricky, max_size=4).map("".join)
titles = texts.filter(lambda text: not is_blank(text))
# floats whose shortest repr is easy to get wrong, and integer weights
weights = (st.sampled_from([1e-07, 0.1 + 0.2, 1.0, 0.0, 0, 1])
           | st.floats(0.0, 1.0))
# (n_succ, n_use): rates 0.0 (unused and used), 1.0, 1e-07 and 1/3
usage = (st.sampled_from([(0, 0), (0, 5), (4, 4), (1, 10**7), (1, 3)])
         | st.integers(0, 50).flatmap(
             lambda n_use: st.tuples(st.integers(0, n_use), st.just(n_use))))


@st.composite
def public_graphs(draw) -> SkillGraph:
    """A graph built through the public API only; any section may be empty."""
    graph = SkillGraph()
    ids = draw(st.lists(texts, max_size=8, unique=True))
    for skill_id in ids:
        n_succ, n_use = draw(usage)
        graph.add_skill(SkillNode(
            skill_id=skill_id, title=draw(titles), principle=draw(texts),
            when_to_apply=draw(texts), category=draw(texts | st.just("general")),
            n_use=n_use, n_succ=n_succ, created_step=draw(st.integers(0, 10**12)),
            deprecated=draw(st.booleans())))
    if len(ids) >= 2:
        pairs = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        for src, dst in draw(st.lists(pairs, max_size=16)):
            try:
                graph.add_edge(src, dst, draw(st.sampled_from(list(EdgeKind))),
                               draw(weights))
            except CycleWouldForm:
                pass
        for a, b in draw(st.lists(pairs, max_size=6)):
            graph.co_counts[pair_key(a, b)] = draw(st.integers(1, 10**6))
    graph.checkpoint_index = draw(st.integers(0, 10**6))
    graph.highest_active_level = draw(st.integers(0, 9))
    graph.next_dynamic_id = draw(st.integers(1, 10**6))
    return graph


def oracle_text(graph: SkillGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2, sort_keys=True) + "\n"


def saved_text(graph: SkillGraph) -> str:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "g.json"
        save_graph(graph, path)
        return path.read_text(encoding="utf-8")


@settings(max_examples=150, deadline=None)
@given(graph=public_graphs())
def test_writer_matches_the_general_encoder(graph):
    assert saved_text(graph) == oracle_text(graph)


def test_writer_covers_empty_and_populated_sections():
    empty = SkillGraph()
    assert saved_text(empty) == oracle_text(empty)
    assert '"nodes": []' in saved_text(empty)
    graph = random_graph(random.Random(3), n=40)
    assert graph.co_counts and len(graph.edges())
    assert saved_text(graph) == oracle_text(graph)


# text that json.dumps escapes: quotes, backslashes, control characters,
# non-ASCII and astral characters
TRICKY_TEXT = ['say "hi"', "C:\\path\\", "tab\tnew\nline\x00\x1f", "café 中文",
               "\u2028\u00a0\U0001f600", "/slash/"]


def library_scale_graph(seed: int) -> SkillGraph:
    """``random_graph`` at 2000 nodes, plus ids with long shared prefixes and
    escaped characters, tricky text, the weights whose repr is easy to get
    wrong on every edge kind, and co-appearance counts."""
    rng = random.Random(seed)
    graph = random_graph(rng, n=2000)
    prefix = "skill-with-a-long-shared-prefix-" * 3
    extra = [f"{prefix}{i:02d}" for i in range(20)] + [f'{prefix}"q\\', f"{prefix}é"]
    add_nodes(graph, extra, category="heat")
    ids = sorted(graph.nodes)
    for i, skill_id in enumerate(rng.sample(ids, 300)):
        node = graph.nodes[skill_id]
        node.title = f"{TRICKY_TEXT[i % len(TRICKY_TEXT)]} {skill_id}"
        node.principle = TRICKY_TEXT[(i + 1) % len(TRICKY_TEXT)]
        node.deprecated = node.deprecated or i % 5 == 0
    for a, b in zip(extra, extra[1:]):
        graph.add_edge(a, b, EdgeKind.CO_OCCUR, 0.5)
        graph.co_counts[pair_key(a, b)] = rng.randint(1, 10**6)
    keys = list(graph.edges())
    for kind in EdgeKind:
        of_kind = [key for key in keys if key[2] is kind]
        for key, weight in zip(rng.sample(of_kind, 4), [0.0, 1.0, 1e-07, 0.1 + 0.2]):
            graph.set_weight(key, weight)
    return graph


def first_difference(saved: str, expected: str) -> tuple[int, str, str] | None:
    """None for equal texts, else the first offset where they differ and the
    text around it in each: a readable failure where a diff of two
    megabyte-sized texts would take minutes."""
    if saved == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(saved, expected)) if a != b),
              min(len(saved), len(expected)))
    return at, saved[at - 200:at + 200], expected[at - 200:at + 200]


@pytest.mark.parametrize("seed", [5, 17])
def test_writer_matches_the_general_encoder_at_library_scale(seed):
    graph = library_scale_graph(seed)
    assert any(node.deprecated for node in graph.nodes.values()) and graph.co_counts
    assert {kind for _, _, kind in graph.edges()} == set(EdgeKind)
    before = graph_to_dict(graph)
    assert first_difference(saved_text(graph), oracle_text(graph)) is None
    assert graph_to_dict(graph) == before


# ----------------------------------------------------------------------
# loader: the same graph as one add_edge per edge


def per_edge_load(data: dict) -> SkillGraph:
    """The loader before the bulk insert: one ``add_edge`` per edge, each with
    its cycle search, and a duplicate seen as an unchanged edge count."""
    graph = graph_from_dict({**data, "edges": []})
    for obj in data["edges"]:
        src, dst, kind, weight = obj["src"], obj["dst"], obj["kind"], obj["weight"]
        edges_before = len(graph.edges())
        try:
            graph.add_edge(src, dst, EdgeKind(kind), float(weight))
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"bad edge entry: {exc}") from exc
        except SkillNetError as exc:
            raise ParseError(f"invalid edge: {exc}") from exc
        if len(graph.edges()) == edges_before:
            raise ParseError(f"duplicate edge {src} -> {dst} ({kind})")
    graph.compute_levels()
    return graph


def test_bulk_loader_matches_the_per_edge_loader_on_random_graphs():
    rng = random.Random(11)
    for _ in range(60):
        data = graph_to_dict(random_graph(rng, n=rng.randint(2, 40)))
        rng.shuffle(data["edges"])  # the loader must not rely on file order
        assert graph_to_dict(graph_from_dict(data)) == graph_to_dict(per_edge_load(data))


ids = ["a", "b", "c", "d"]
edge_entries = st.fixed_dictionaries({
    "src": st.sampled_from(ids + ["ghost"]), "dst": st.sampled_from(ids),
    "kind": st.sampled_from(["prereq", "enhance", "co_occur", "co-occur"]),
    "weight": st.sampled_from([0.0, 0.5, 1.0, 1, 1.5, -0.1])})


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(edge_entries, max_size=8))
def test_bulk_loader_accepts_exactly_what_the_per_edge_loader_accepts(edges):
    """Unknown kinds and endpoints, self-loops, weights out of range,
    duplicates and cycles: both loaders reject the same edge lists and
    load the rest to the same graph."""
    graph = SkillGraph()
    add_nodes(graph, ids)
    data = {**graph_to_dict(graph), "edges": edges}
    outcomes = []
    for load in (graph_from_dict, per_edge_load):
        try:
            outcomes.append(graph_to_dict(load(data)))
        except ParseError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("rows, error", [
    ([("a", "b", "prereq", 0.5), ("b", "a", "prereq", 0.5)], "dependency subgraph is cyclic"),
    ([("a", "b", "prereq", 0.5), ("a", "b", "prereq", 0.9)], "duplicate edge a -> b"),
    ([("a", "b", "enhance", 0.5), ("b", "b", "prereq", 0.5)], "self-loop on 'b'"),
])
def test_a_rejected_bulk_insert_leaves_the_graph_as_it_was(rows, error):
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"])
    graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.3)
    before = graph_to_dict(graph)
    with pytest.raises(SkillNetError, match=error):
        graph.add_edges(rows)
    assert graph_to_dict(graph) == before
    graph.add_edge("b", "a", EdgeKind.PREREQ, 0.5)  # no stale key left behind
    assert computed_levels(graph) == {"a": 1, "b": 0}


def test_bulk_insert_names_a_duplicate_as_given():
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"])
    with pytest.raises(DuplicateEdge, match=r"^duplicate edge b -> a \(co_occur\)$"):
        graph.add_edges([("a", "b", "co_occur", 0.3), ("b", "a", "co_occur", 0.6)])


@pytest.mark.parametrize("level", [float("inf"), 1.0, True])
def test_bulk_insert_trusts_only_int_levels(level):
    # infinite levels would fit a cycle, and 1.0 or True would stay unwritten
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"])
    graph.nodes["b"].level = level
    if level == float("inf"):
        graph.nodes["a"].level = level
        with pytest.raises(CycleDetected):
            graph.add_edges([("a", "b", "prereq", 0.5), ("b", "a", "enhance", 0.5)])
    else:
        graph.add_edges([("a", "b", "prereq", 0.5)])
        assert [type(n.level) for n in graph.nodes.values()] == [int, int]


def test_a_parent_level_that_is_no_number_is_repaired():
    # the level check must not compare it with its child's parents' levels
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"])
    graph.nodes["a"].level = None
    graph.add_edges([("a", "b", "prereq", 0.5)])
    assert {v: n.level for v, n in graph.nodes.items()} == {"a": 0, "b": 1}


# ----------------------------------------------------------------------
# loader: the bulk checks and the level check against the row-by-row load


def row_by_row_load(data: dict) -> SkillGraph:
    """The load before the bulk paths: every record through the checked
    path, every edge through ``_checked_key`` and ``_store`` one at a time,
    then a full ``compute_levels``, with the loader's error mapping."""
    graph = SkillGraph()
    for name, value in data["meta"].items():
        setattr(graph, name, value)
    for obj in data["nodes"]:
        values = persistence._node_row(obj, strict=False)
        try:
            graph.add_skill(SkillNode(*values))
        except SkillNetError as exc:
            raise ParseError(f"invalid node: {exc}") from exc
    rows = [persistence._edge_row(obj, strict=False) for obj in data["edges"]]
    try:
        for src, dst, value, weight in rows:
            key = graph._checked_key(src, dst, value, weight)
            if key in graph.edges():
                raise DuplicateEdge(f"duplicate edge {src} -> {dst} ({value})")
            graph._store(key, weight)
        graph.compute_levels()
    except ValueError as exc:
        raise ParseError(f"bad edge entry: {exc}") from exc
    except DuplicateEdge as exc:
        raise ParseError(str(exc)) from exc
    except CycleDetected as exc:
        raise ParseError(f"snapshot violates graph invariants: {exc}") from exc
    except SkillNetError as exc:
        raise ParseError(f"invalid edge: {exc}") from exc
    graph.co_counts = {pair_key(a, b): count for a, b, count in data["co_counts"]}
    return graph


def edge(src: str, dst: str, kind: str = "prereq", weight: float = 0.5) -> dict:
    return {"src": src, "dst": dst, "kind": kind, "weight": weight}


def entry_of(data: dict, kinds: set[str], draw) -> dict:
    """An edge entry of one of ``kinds`` in the snapshot, or a new prereq or
    co_occur one between its first two nodes, inserted too."""
    entries = [e for e in data["edges"] if e["kind"] in kinds]
    if entries:
        return draw(st.sampled_from(entries))
    first, second = sorted(n["skill_id"] for n in data["nodes"])[:2]
    entry = edge(first, second, "co_occur" if "co_occur" in kinds else "prereq")
    data["edges"].append(entry)
    return entry


DEPENDENCY = {"prereq", "enhance"}
# one fault each, but for the last three: records the fast path hands to
# the checked path, which loads them
MUTANTS = ["stale_level", "negative_level", "cycle", "duplicate", "reversed_co_occur",
           "unknown_endpoint", "self_loop", "weight", "unknown_kind",
           "integer_weight", "unknown_field", "integer_rate"]


def mutate(data: dict, name: str, draw) -> None:
    node = draw(st.sampled_from(data["nodes"]))
    added = None
    if name == "stale_level":
        node["level"] += draw(st.sampled_from([-1, 1]))
    elif name == "negative_level":
        node["level"] = -1
    elif name == "cycle":
        entry = entry_of(data, DEPENDENCY, draw)
        added = edge(entry["dst"], entry["src"], entry["kind"])
    elif name == "duplicate":
        added = dict(entry_of(data, DEPENDENCY, draw), weight=0.9)
    elif name == "reversed_co_occur":
        entry = entry_of(data, {"co_occur"}, draw)
        added = edge(entry["dst"], entry["src"], "co_occur", 0.6)
    elif name == "unknown_endpoint":
        added = edge(node["skill_id"], "ghost")
    elif name == "self_loop":
        added = edge(node["skill_id"], node["skill_id"], "enhance")
    elif name == "weight":
        entry = entry_of(data, DEPENDENCY | {"co_occur"}, draw)
        entry["weight"] = draw(st.sampled_from([1.5, -0.1, float("nan")]))
    elif name == "unknown_kind":
        entry_of(data, {"co_occur"}, draw)["kind"] = "co-occur"
    elif name == "integer_weight":
        entry_of(data, DEPENDENCY, draw)["weight"] = 1
    elif name == "unknown_field":
        node["note"] = "ignored with a warning"
    else:
        node["success_rate"] = 1
    if added is not None:
        data["edges"].insert(draw(st.integers(0, len(data["edges"]))), added)


@st.composite
def snapshot_mutants(draw) -> dict:
    """A random snapshot dict, its nodes and edges in a drawn file order,
    with one or two mutants applied."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    data = graph_to_dict(random_graph(rng, n=draw(st.integers(2, 12))))
    rng.shuffle(data["nodes"])
    rng.shuffle(data["edges"])
    for name in draw(st.lists(st.sampled_from(MUTANTS), min_size=1, max_size=2)):
        mutate(data, name, draw)
    return data


def structure(graph: SkillGraph) -> tuple:
    """A loaded graph as stored, before any read: its edge keys in map
    order, its adjacency and category tables in order, its unleveled
    skills and every skill's stored level."""
    orders = [[(key, list(entries)) for key, entries in table.items()]
              for table in (graph._out, graph._in, graph._categories)]
    levels = [(v, n.level) for v, n in graph.nodes.items()]
    return list(graph._edges), orders, graph._unleveled, levels


def load_outcome(load, data: dict):
    """What a load gives: its exception's type and message, or the graph's
    ``structure`` and its dict."""
    try:
        graph = load(data)
    except SkillNetError as exc:
        return type(exc), str(exc)
    return structure(graph), graph_to_dict(graph)


@settings(max_examples=200, deadline=None)
@given(data=snapshot_mutants())
def test_bulk_load_matches_the_row_by_row_load(data):
    """Stale and negative levels, cycles, duplicates (a reversed co_occur
    one too), unknown endpoints and kinds, self-loops, weights out of range,
    and records the fast path passes over: the same graph, in the same
    order, or the same error."""
    outcome = load_outcome(graph_from_dict, data)
    assert outcome == load_outcome(row_by_row_load, data)
    if not isinstance(outcome[0], type):
        assert outcome[0][2] == set()  # the load leveled every skill


def test_a_library_loads_as_the_row_by_row_load(tmp_path):
    """The benchmark's 2k library, saved and loaded: the same edge order,
    adjacency tuples and levels as the row-by-row load, nothing left to
    level."""
    path = tmp_path / "library.json"
    save_graph(generate_library(2000, 15), path)
    graph = load_graph(path)
    oracle = row_by_row_load(json.loads(path.read_text(encoding="utf-8")))
    assert structure(graph) == structure(oracle)
    assert graph._unleveled == set() and len(graph.edges()) > 2000


# the graph before each batch: a co_occur edge a - b, a prereq edge a -> c,
# and e added after the last leveling, so named for the next one
BATCH = [("b", "d", "prereq", 0.5), ("c", "e", "co_occur", 0.5)]
LAST_ROW_FAULTS = {
    "unknown_kind": (("c", "d", "co-occur", 0.5), ValueError,
                     "'co-occur' is not a valid EdgeKind"),
    "unknown_endpoint": (("c", "ghost", "prereq", 0.5), UnknownEndpoint,
                         "unknown endpoint 'ghost' of c -> ghost"),
    "self_loop": (("d", "d", "enhance", 0.5), CycleWouldForm, "self-loop on 'd'"),
    "weight": (("c", "d", "prereq", 1.5), WeightOutOfRange,
               "weight 1.5 outside [0, 1] for c -> d (prereq)"),
    "nan": (("c", "d", "prereq", float("nan")), WeightOutOfRange,
            "weight nan outside [0, 1] for c -> d (prereq)"),
    "duplicate_stored": (("a", "c", "prereq", 0.9), DuplicateEdge,
                         "duplicate edge a -> c (prereq)"),
    "duplicate_in_batch": (("b", "d", "prereq", 0.9), DuplicateEdge,
                           "duplicate edge b -> d (prereq)"),
    "reversed_co_occur_stored": (("b", "a", "co_occur", 0.6), DuplicateEdge,
                                 "duplicate edge b -> a (co_occur)"),
    "reversed_co_occur_in_batch": (("e", "c", "co_occur", 0.6), DuplicateEdge,
                                   "duplicate edge e -> c (co_occur)"),
    "cycle": (("d", "b", "enhance", 0.5), CycleDetected, "dependency subgraph is cyclic"),
}


@pytest.mark.parametrize("name", LAST_ROW_FAULTS)
def test_a_batch_faulty_only_in_its_last_row_changes_nothing(name):
    row, error, message = LAST_ROW_FAULTS[name]
    graph = SkillGraph()
    add_nodes(graph, ["a", "b", "c", "d"])
    graph.add_edges([("a", "b", "co_occur", 0.3), ("a", "c", "prereq", 0.5)])
    add_nodes(graph, ["e"])
    before = structure(graph), dict(graph.edges())
    tuples = {**graph._out}, {**graph._in}
    assert before[0][2] == {"e"}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        graph.add_edges([*BATCH, row])
    assert (structure(graph), dict(graph.edges())) == before
    if name != "cycle":
        # no tuple rebound, so the merge memo sees no skill as changed
        for table, kept in zip((graph._out, graph._in), tuples):
            assert all(table[v] is entries for v, entries in kept.items())


# a valid snapshot, and one load fault of each kind: bad JSON, a bad edge
# row, a duplicate edge, a cycle
COLLECTOR_CASES = {
    "valid": None, "invalid_json": "{", "bad_row": ("a", "ghost", "prereq"),
    "duplicate": ("a", "b", "prereq"), "cycle": ("b", "a", "enhance"),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("case", COLLECTOR_CASES)
def test_load_graph_leaves_the_collector_as_it_found_it(tmp_path, case, collecting):
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"])
    graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
    data = graph_to_dict(graph)
    extra = COLLECTOR_CASES[case]
    if isinstance(extra, tuple):
        src, dst, kind = extra
        data["edges"].append({"src": src, "dst": dst, "kind": kind, "weight": 0.5})
    path = tmp_path / "g.json"
    path.write_text(extra if isinstance(extra, str) else json.dumps(data), encoding="utf-8")
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        if extra is None:
            assert load_graph(path).edges() == graph.edges()
        else:
            with pytest.raises(ParseError):
                load_graph(path)
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
def test_cli_retrieve_leaves_the_collector_as_it_found_it(tmp_path, capsys, collecting):
    """``skillnet retrieve`` runs with the collector paused and restores it,
    after an answer and after a load that fails."""
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"], category="heat")
    path = tmp_path / "g.json"
    save_graph(graph, path)
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        for graph_path, code in ((path, 0), (tmp_path / "missing.json", 2)):
            assert main(["retrieve", "--graph", str(graph_path), "--task-type", "heat"]) == code
            assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()
    assert json.loads(capsys.readouterr().out)["ordered_skills"] == ["a", "b"]


def test_no_collection_starts_inside_a_library_load(tmp_path):
    """Decoding the 2k library's snapshot starts collections when the
    collector runs; ``load_graph``, which decodes it too, starts none."""
    path = tmp_path / "library.json"
    save_graph(generate_library(2000, 15), path)
    text = path.read_text(encoding="utf-8")
    starts = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        json.loads(text)
        collected = len(starts)
        graph = load_graph(path)
        during = len(starts) - collected
    finally:
        gc.callbacks.remove(count)
    assert collected > 0 and during == 0
    assert len(graph.nodes) == 2000 and gc.isenabled()


# ----------------------------------------------------------------------
# the benchmark's own writes, at its scale


class TestBenchScaleWrites:
    """The outputs ``bench/expected.json`` pins for held-out variant 15: the
    snapshot file of each of five publishes on the 8k library, and the
    report and snapshot file of each of the eight checkpoint cycles on the
    2k library. A workload raises DigestMismatch at the first output that
    differs from its pin."""

    PINS = json.loads(EXPECTED.read_text(encoding="utf-8"))

    def test_retrieve_8k_publishes(self, tmp_path):
        pins = self.PINS["retrieve_8k"]["15"]
        workload = Retrieve8k(15, tmp_path, pins)
        workload.setup()
        for _ in range(PUBLISHES):
            workload.publish()
        for k in range(PUBLISHES):
            assert workload.seen[f"publish/{k}"] == pins[f"publish/{k}"]

    def test_checkpoint_2k_cycles(self, tmp_path):
        pins = self.PINS["checkpoint_2k"]["15"]
        workload = Checkpoint2k(15, tmp_path, pins)
        workload.setup()
        for cycle in range(CYCLES_PER_LIBRARY):
            workload.op(cycle)
            assert workload.seen[f"cycle/{cycle}"] == pins[f"cycle/{cycle}"]
