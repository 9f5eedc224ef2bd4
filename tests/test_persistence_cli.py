"""Snapshot round-trips, JSONL ingestion, DOT export, CLI contract."""

from __future__ import annotations

import ast
import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import pytest

import skillnet
from skillnet import (
    EdgeKind,
    SkillGraph,
    TrajectoryRecord,
    compare_retrievers,
    default_sim_config,
    export_dot,
    graph_from_dict,
    graph_to_dict,
    ingest_trajectories,
    load_graph,
    run_loop,
    save_graph,
    save_trajectories,
)
from skillnet.cli import main
from skillnet.config import load_app_config
from skillnet.errors import ParseError, SkillNetError, VersionMismatch
from skillnet.persistence import MAX_STORED_INT

from conftest import add_nodes, make_node, random_graph
from test_config import BAD_CONFIGS


def disk_full(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# each CLI argument that names an input file, with ``{bad}`` for the file
FILE_BOUNDARIES = [
    ["--graph", "{bad}", "stats"],
    ["ingest", "--input", "{bad}"],
    ["init", "--skills", "{bad}", "--out", "{out}"],
    ["--config", "{bad}", "simulate", "--out", "{out}"],
]
FILE_BOUNDARY_IDS = ["stats-graph", "ingest-input", "init-skills", "config"]


class TestSnapshotRoundTrip:
    def test_save_load_structural_equality(self, tmp_path, rng):
        graph = random_graph(rng)
        path = tmp_path / "g.json"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert graph_to_dict(loaded) == graph_to_dict(graph)

    def test_canonical_bytes_stable(self, tmp_path, rng):
        graph = random_graph(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(graph, p1)
        save_graph(load_graph(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_hundred_random_graphs(self, tmp_path, rng):
        for i in range(100):
            graph = random_graph(rng, n=rng.randint(2, 20))
            path = tmp_path / f"g{i}.json"
            save_graph(graph, path)
            assert graph_to_dict(load_graph(path)) == graph_to_dict(graph)

    def test_unknown_top_level_field_strict(self, tmp_path, rng):
        graph = random_graph(rng, n=3)
        data = graph_to_dict(graph)
        data["surprise"] = True
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            load_graph(path, strict=True)
        load_graph(path, strict=False)  # tolerated with a warning

    def test_unknown_node_field_strict(self, tmp_path, rng):
        graph = random_graph(rng, n=3)
        data = graph_to_dict(graph)
        data["nodes"][0]["embedding"] = [1, 2, 3]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            load_graph(path, strict=True)

    def test_version_mismatch(self, tmp_path, rng):
        data = graph_to_dict(random_graph(rng, n=2))
        path = tmp_path / "g.json"
        # neither the string "1" nor true (== 1 in Python) is version 1
        for version in (99, "1", True):
            data["version"] = version
            path.write_text(json.dumps(data))
            with pytest.raises(VersionMismatch):
                load_graph(path)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n  "meta": }')
        with pytest.raises(ParseError) as info:
            load_graph(path)
        assert info.value.line == 2

    def test_write_is_synced_before_the_rename(self, tmp_path, monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync",
                            lambda fd: events.append("fsync") or fsync(fd))
        monkeypatch.setattr(os, "replace",
                            lambda a, b: events.append("replace") or replace(a, b))
        save_graph(SkillGraph(), tmp_path / "g.json")
        assert events == ["fsync", "replace"]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_a_failed_write_names_the_path(self, tmp_path, monkeypatch, step):
        monkeypatch.setattr(os, step, disk_full)
        path = tmp_path / "g.json"
        with pytest.raises(OSError) as info:
            save_graph(SkillGraph(), path)
        assert info.value.errno == errno.ENOSPC
        assert f"cannot write {path}: " in str(info.value)
        assert ".tmp" not in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_missing_node_field_rejected(self, tmp_path, rng):
        data = graph_to_dict(random_graph(rng, n=2))
        del data["nodes"][0]["principle"]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            load_graph(path)

    @pytest.mark.parametrize("section, name, value", [
        ("nodes", "title", None),           # was loaded as the title "None"
        ("nodes", "deprecated", "false"),   # was loaded as deprecated
        ("nodes", "n_use", True),
        ("nodes", "level", 1.5),
        ("edges", "weight", True),
        ("edges", "src", 7),
        ("meta", "checkpoint_index", "3"),
        ("meta", "highest_active_level", -2),
        ("meta", "checkpoint_index", -1),
        ("meta", "next_dynamic_id", 0),
        ("meta", "next_dynamic_id", MAX_STORED_INT + 1),
        ("nodes", "n_use", MAX_STORED_INT + 1),
    ])
    def test_mistyped_value_rejected(self, tmp_path, capsys, section, name, value):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        data = graph_to_dict(graph)
        entry = data[section] if section == "meta" else data[section][0]
        entry[name] = value
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=name):
            load_graph(path)
        assert main(["--graph", str(path), "stats"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("entry", [["a", "b", "2"], ["a", "b", True],
                                       ["a", 1, 2], ["a", "b"], "ab2"])
    def test_mistyped_co_counts_entry_rejected(self, tmp_path, entry):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        data = graph_to_dict(graph)
        data["co_counts"] = [entry]
        with pytest.raises(ParseError, match="co_counts"):
            graph_from_dict(data)

    @pytest.mark.parametrize("entry", [["ghost", "zz", 3], ["a", "ghost", 1],
                                       ["a", "a", 2], ["a", "b", 0], ["a", "b", -3],
                                       ["a", "b", MAX_STORED_INT + 1]])
    def test_co_counts_entry_outside_the_graph_rejected(self, tmp_path, capsys, entry):
        # a self-pair used to load and end the next evolve with a self-loop error
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        data = graph_to_dict(graph)
        data["co_counts"] = [["a", "b", 1], entry]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="co_counts"):
            load_graph(path)
        window = tmp_path / "w.jsonl"
        save_trajectories([TrajectoryRecord(
            task_id="t", task_type="general", retrieved_skill_ids=["a", "b"],
            success=True)], window)
        assert main(["--graph", str(path), "evolve", "--window", str(window)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "co_counts" in err and err.count("\n") == 1

    def test_counters_at_the_bound_load_and_save(self, tmp_path):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        data = graph_to_dict(graph)
        data["meta"] = dict.fromkeys(data["meta"], MAX_STORED_INT)
        data["nodes"][0].update(n_use=MAX_STORED_INT, n_succ=MAX_STORED_INT)
        data["co_counts"] = [["a", "b", MAX_STORED_INT]]
        loaded = graph_from_dict(data)
        save_graph(loaded, tmp_path / "g.json")
        assert graph_to_dict(load_graph(tmp_path / "g.json")) == graph_to_dict(loaded)

    def test_a_counter_past_the_bound_is_a_data_error(self, tmp_path, capsys):
        # it used to load, and evolve raised a traceback when it could not
        # write the next, 4301-digit checkpoint index
        _, graph = run_loop(default_sim_config(), 42)
        data = graph_to_dict(graph)
        data["meta"]["checkpoint_index"] = int("9" * 4300)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        window = tmp_path / "w.jsonl"
        save_trajectories([], window)
        before = path.read_bytes()
        assert main(["--graph", str(path), "evolve", "--window", str(window)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: meta checkpoint_index must be <= {MAX_STORED_INT}\n")
        assert path.read_bytes() == before

    def test_evolve_does_not_save_a_counter_past_the_bound(self, tmp_path, capsys):
        # evolve used to save checkpoint_index 2**63, which the next load refused
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.checkpoint_index = MAX_STORED_INT
        path = tmp_path / "g.json"
        save_graph(graph, path)
        window = tmp_path / "w.jsonl"
        save_trajectories([], window)
        before = path.read_bytes()
        assert main(["--graph", str(path), "evolve", "--window", str(window)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot save: meta checkpoint_index must be <= {MAX_STORED_INT}\n")
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["g.json", "w.jsonl"]
        assert load_graph(path).checkpoint_index == MAX_STORED_INT

    @pytest.mark.parametrize("saved_before", [False, True])
    @pytest.mark.parametrize("counter, message", [
        ("n_use", "node 'a' n_use"), ("co_counts", "co_counts count for (a, b)"),
        ("next_dynamic_id", "meta next_dynamic_id")])
    def test_save_refuses_a_counter_past_the_bound(self, tmp_path, saved_before,
                                                   counter, message):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        path = tmp_path / "g.json"
        path.write_text("old")
        if saved_before:  # the repeat save checks the records it renders again
            save_graph(graph, path)
        before = path.read_bytes()
        if counter == "n_use":
            graph.replace_skill("a", n_use=MAX_STORED_INT + 1)
        elif counter == "co_counts":
            graph.co_counts[("a", "b")] = MAX_STORED_INT + 1
        else:
            graph.next_dynamic_id = MAX_STORED_INT + 1
        with pytest.raises(SkillNetError) as caught:
            save_graph(graph, path)
        assert str(caught.value) == f"cannot save: {message} must be <= {MAX_STORED_INT}"
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["g.json"]

    @pytest.mark.parametrize("n_use, n_succ", [(3, -1), (-5, -6)])
    def test_negative_usage_count_rejected(self, tmp_path, capsys, n_use, n_succ):
        # -5 uses and -6 successes used to load with a success rate of 1.2
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        data = graph_to_dict(graph)
        data["nodes"][0].update(n_use=n_use, n_succ=n_succ)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="n_succ"):
            load_graph(path)
        assert main(["--graph", str(path), "stats"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("section, entries, message", [
        ("co_counts", [["a", "b", 1], ["b", "a", 2]],
         "duplicate co_counts entry for the pair ('a', 'b')"),
        ("edges", [{"src": "a", "dst": "b", "kind": "prereq", "weight": 0.5},
                   {"src": "a", "dst": "b", "kind": "prereq", "weight": 0.9}],
         "duplicate edge a -> b (prereq)"),
        ("edges", [{"src": "a", "dst": "b", "kind": "co_occur", "weight": 0.3},
                   {"src": "b", "dst": "a", "kind": "co_occur", "weight": 0.6}],
         "duplicate edge b -> a (co_occur)"),
    ])
    def test_duplicate_entry_rejected(self, tmp_path, capsys, section, entries,
                                      message):
        # each used to load: the co_counts pair kept the last count, the
        # edges the first weight
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        data = graph_to_dict(graph)
        data[section] = entries
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=re.escape(message)):
            load_graph(path)
        assert main(["--graph", str(path), "stats"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integer_weight_loads_as_a_float(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 1.0)
        data = graph_to_dict(graph)
        data["edges"][0]["weight"] = 1
        assert graph_to_dict(graph_from_dict(data)) == graph_to_dict(graph)

    @pytest.mark.parametrize("bulk", [False, True])
    def test_integer_weight_saves_the_bytes_of_its_float(self, tmp_path, bulk):
        paths = []
        for weight in (1, 1.0):
            graph = SkillGraph()
            add_nodes(graph, ["a", "b"])
            if bulk:
                graph.add_edges([("a", "b", "prereq", weight)])
            else:
                graph.add_edge("a", "b", EdgeKind.PREREQ, weight)
            paths.append(tmp_path / f"{weight!r}.json")
            save_graph(graph, paths[-1])
        reloaded = tmp_path / "reloaded.json"
        save_graph(load_graph(paths[0]), reloaded)
        assert paths[0].read_bytes() == paths[1].read_bytes() == reloaded.read_bytes()

    def test_oversized_integer_weight_rejected(self, tmp_path, capsys):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 1.0)
        data = graph_to_dict(graph)
        data["edges"][0]["weight"] = 10 ** 400
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="invalid edge"):
            load_graph(path)
        assert main(["--graph", str(path), "stats"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid edge")

    def test_cyclic_snapshot_rejected(self, tmp_path):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        data = graph_to_dict(graph)
        data["edges"].append(
            {"src": "b", "dst": "a", "kind": "prereq", "weight": 0.5})
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            load_graph(path)

    @pytest.mark.parametrize("edges, message", [
        ([{"src": "a", "dst": "b", "kind": "prereq", "weight": 0.5},
          {"src": "b", "dst": "a", "kind": "enhance", "weight": 0.5}],
         "snapshot violates graph invariants: dependency subgraph is cyclic"),
        ([{"src": "a", "dst": "a", "kind": "co_occur", "weight": 0.5}],
         "invalid edge: self-loop on 'a'"),
    ])
    def test_cycle_and_self_loop_messages(self, tmp_path, capsys, edges, message):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        data = graph_to_dict(graph)
        data["edges"] = edges
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_graph(path)
        assert main(["--graph", str(path), "stats"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_levels_recomputed_on_load(self, tmp_path):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        data = graph_to_dict(graph)
        for node in data["nodes"]:
            node["level"] = 7  # stale stored levels
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        loaded = load_graph(path)
        assert loaded.nodes["a"].level == 0
        assert loaded.nodes["b"].level == 1

    def test_large_graph_loads_quickly(self, tmp_path, rng):
        graph = random_graph(rng, n=140)
        path = tmp_path / "big.json"
        save_graph(graph, path)
        start = time.perf_counter()
        load_graph(path)
        assert time.perf_counter() - start < 0.1

    def test_deprecated_nodes_persisted(self, tmp_path):
        graph = SkillGraph()
        graph.add_skill(make_node("dead", n_use=30, n_succ=1, deprecated=True))
        path = tmp_path / "g.json"
        save_graph(graph, path)
        assert load_graph(path).nodes["dead"].deprecated


class TestTrajectories:
    def record(self, i: int = 0, success: bool = True) -> TrajectoryRecord:
        return TrajectoryRecord(
            task_id=f"t{i}", task_type="clean",
            retrieved_skill_ids=["a", "b"],
            traversed_edges=[("a", "b", "prereq")],
            steps=[{"action": "look", "observation": "mug on desk"}],
            success=success, checkpoint_index=3)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        outcome = ingest_trajectories(path)
        assert outcome.records == [] and outcome.errors == []

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trajectories([self.record(i) for i in range(3)], path)
        outcome = ingest_trajectories(path)
        assert len(outcome.records) == 3
        assert outcome.records[0].traversed_edges == [("a", "b", "prereq")]

    def test_append_mode_accumulates_across_checkpoints(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trajectories([self.record(0)], path)
        save_trajectories([self.record(1)], path, append=True)
        outcome = ingest_trajectories(path)
        assert [r.task_id for r in outcome.records] == ["t0", "t1"]

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [json.dumps(self.record(i).to_dict()) for i in range(3)]
        lines.insert(2, "{not json")
        path.write_text("\n".join(lines) + "\n")
        outcome = ingest_trajectories(path)
        assert len(outcome.records) == 3
        assert [lineno for lineno, _ in outcome.errors] == [3]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separators_stay_inside_a_record(self, tmp_path, char):
        record = self.record(0)
        record.steps[0]["observation"] = f"mug{char}on desk"
        lines = [json.dumps(r.to_dict(), ensure_ascii=False)
                 for r in (record, self.record(1))]
        lines.insert(1, "{not json")
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outcome = ingest_trajectories(path)
        assert [r.task_id for r in outcome.records] == ["t0", "t1"]
        assert outcome.records[0].steps[0]["observation"] == f"mug{char}on desk"
        assert [lineno for lineno, _ in outcome.errors] == [2]

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [json.dumps(self.record(i).to_dict()) for i in range(2)]
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        outcome = ingest_trajectories(path)
        assert [r.task_id for r in outcome.records] == ["t0", "t1"]
        assert outcome.errors == []

    def test_unknown_skill_id_accepted_with_warning(self, tmp_path, caplog):
        graph = SkillGraph()
        add_nodes(graph, ["a"])
        path = tmp_path / "t.jsonl"
        save_trajectories([self.record()], path)  # references b too
        with caplog.at_level("WARNING"):
            outcome = ingest_trajectories(path, graph=graph)
        assert len(outcome.records) == 1
        assert any("unknown skill" in message for message in caplog.messages)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_trajectories(tmp_path / "absent.jsonl")

    def test_structurally_wrong_records_become_diagnostics(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([
            json.dumps({"task_id": "t", "task_type": "clean",
                        "retrieved_skill_ids": [], "success": True,
                        "steps": ["not-a-dict"]}),
            json.dumps({"task_id": "t", "task_type": "clean",
                        "retrieved_skill_ids": 7, "success": True}),
            json.dumps({"task_id": "t", "task_type": "clean",
                        "retrieved_skill_ids": [],
                        "traversed_edges": [["only", "two"]],
                        "success": True}),
            json.dumps(["not", "an", "object"]),
        ]) + "\n")
        outcome = ingest_trajectories(path)
        assert outcome.records == []
        assert [lineno for lineno, _ in outcome.errors] == [1, 2, 3, 4]

    @pytest.mark.parametrize("name, value", [
        ("success", "false"),               # was counted as a success
        ("success", 0),
        ("task_id", None),
        ("retrieved_skill_ids", ["a", 1]),
        ("retrieved_skill_ids", ["a", "b", "a"]),  # would count as two uses
        ("traversed_edges", [["a", "b", 3]]),
        ("traversed_edges", [["a", "b", "bogus"]]),  # reinforce would skip it
        ("steps", [{"action": 3}]),
        ("checkpoint_index", True),
    ])
    def test_mistyped_record_is_a_line_error(self, tmp_path, name, value):
        good = {"task_id": "t", "task_type": "clean",
                "retrieved_skill_ids": ["a"], "success": False}
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({**good, name: value}) + "\n"
                        + json.dumps(good) + "\n")
        outcome = ingest_trajectories(path)
        assert [lineno for lineno, _ in outcome.errors] == [1]
        assert [r.success for r in outcome.records] == [False]

    def test_non_array_sections_rejected(self, tmp_path, rng):
        data = graph_to_dict(random_graph(rng, n=2))
        data["edges"] = {"src": "x"}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            load_graph(path)

    def test_reversed_cooccur_entry_canonicalized_on_load(self, tmp_path):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.3)
        data = graph_to_dict(graph)
        data["edges"][0]["src"], data["edges"][0]["dst"] = "b", "a"
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        loaded = load_graph(path)
        assert loaded.weight("a", "b", EdgeKind.CO_OCCUR) is not None
        assert len(loaded.edges()) == 1


DOT_EDGE = re.compile(r'^\s{2}"[^"]+" -> "[^"]+" \[[^\]]*\];$')
DOT_NODE = re.compile(r'^\s{2}"[^"]+" \[[^\]]*\];$')


def parse_dot(text: str) -> tuple[int, int]:
    """Tiny independent DOT shape checker; returns (nodes, edges)."""
    lines = text.splitlines()
    assert lines[0] == "digraph skills {"
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if DOT_EDGE.match(line):
            edges += 1
        elif DOT_NODE.match(line):
            nodes += 1
        else:
            assert line.startswith("  ") and line.endswith(";"), line
    return nodes, edges


class TestDotExport:
    def test_empty_graph_valid(self):
        nodes, edges = parse_dot(export_dot(SkillGraph()))
        assert (nodes, edges) == (0, 0)

    def test_chain_has_two_solid_edges(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"])
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        graph.add_edge("b", "c", EdgeKind.PREREQ, 0.5)
        text = export_dot(graph)
        assert text.count("style=solid") == 2
        nodes, edges = parse_dot(text)
        assert (nodes, edges) == (3, 2)

    def test_styles_by_kind_and_weight_width(self):
        graph = SkillGraph()
        add_nodes(graph, ["a", "b", "c"])
        graph.add_edge("a", "b", EdgeKind.ENHANCE, 0.2)
        graph.add_edge("b", "c", EdgeKind.CO_OCCUR, 1.0)
        text = export_dot(graph)
        assert "style=dashed" in text and "style=dotted" in text
        assert "penwidth=3.50" in text  # 0.5 + 3.0 * 1.0
        assert "dir=none" in text

    def test_deprecated_grey_or_hidden(self):
        graph = SkillGraph()
        graph.add_skill(make_node("dead", deprecated=True))
        graph.add_skill(make_node("alive"))
        graph.add_edge("dead", "alive", EdgeKind.CO_OCCUR, 0.3)
        shown = export_dot(graph)
        assert 'color="grey"' in shown
        hidden = export_dot(graph, hide_deprecated=True)
        assert "dead" not in hidden
        parse_dot(hidden)

    def test_random_graphs_parse(self, rng):
        for _ in range(10):
            parse_dot(export_dot(random_graph(rng, n=rng.randint(1, 15))))

    def test_label_escaping(self):
        graph = SkillGraph()
        graph.add_skill(make_node("q", title='Say "done" loudly'))
        parse_dot(export_dot(graph))

    def test_label_breaks_the_line_after_the_escaped_title(self):
        # the line break was escaped along with the title, so Graphviz showed
        # a backslash and an n instead of breaking the line
        graph = SkillGraph()
        graph.add_skill(make_node("q", title='Open "door" \\ now'))
        assert export_dot(graph).splitlines()[3] == (
            r'  "q" [label="Open \"door\" \\ now\nL0 p=0.00"];')


# ``TestCli.test_evolve_output_is_pinned``: its printed report and snapshot
EVOLVE_REPORT_SHA256 = "ef9f418d993ae7f4a2671c4f9c7a775d511b645b118f4d6b6d9ef821ca3c1b3d"
EVOLVE_SNAPSHOT_SHA256 = "6c1b69f64df4ddcdf7fc7fa1a8390523534bf6e182f124268a851b6da0b9f43f"


class TestCli:
    def write_skills(self, tmp_path) -> str:
        skills = [
            {"skill_id": "g1", "title": "Stay calm", "principle": "Breathe",
             "when_to_apply": "Always", "category": "general"},
            {"skill_id": "c1", "title": "Wipe surfaces", "principle": "Wipe",
             "when_to_apply": "Cleaning", "category": "clean"},
            {"skill_id": "c2", "title": "Rinse cloth", "principle": "Rinse",
             "when_to_apply": "Cleaning", "category": "clean"},
        ]
        path = tmp_path / "skills.json"
        path.write_text(json.dumps(skills))
        return str(path)

    def test_init_builds_structural_edges(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        code = main(["init", "--skills", self.write_skills(tmp_path),
                     "--out", str(graph_path)])
        assert code == 0
        graph = load_graph(graph_path)
        assert graph.health().edges == {"prereq": 0, "enhance": 2, "co_occur": 1}

    def test_retrieve_json_output(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        capsys.readouterr()
        code = main(["--graph", str(graph_path), "retrieve",
                     "--task-type", "clean"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"ordered_skills", "scores", "traversed_edges"}
        assert "g1" in payload["ordered_skills"]

    def test_retrieve_render(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        capsys.readouterr()
        code = main(["--graph", str(graph_path), "retrieve",
                     "--task-type", "clean", "--render"])
        assert code == 0
        assert capsys.readouterr().out.startswith(
            "### Skills (ordered by dependency)")

    def test_stats_output(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        capsys.readouterr()
        assert main(["--graph", str(graph_path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "nodes: 3 total" in out
        assert "co_occur=1" in out

    def test_export_dot_stdout(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        capsys.readouterr()
        assert main(["--graph", str(graph_path), "export-dot"]) == 0
        parse_dot(capsys.readouterr().out.rstrip("\n"))

    def test_ingest_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        save_trajectories([TrajectoryRecord(
            task_id="t", task_type="clean", retrieved_skill_ids=[],
            success=True)], good)
        assert main(["ingest", "--input", str(good)]) == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        capsys.readouterr()
        assert main(["ingest", "--input", str(bad)]) == 2
        # the line is the file's; JSON's own "line 1" would contradict it
        assert capsys.readouterr().err == (
            f"line 1: invalid JSON in {bad}: Expecting property name enclosed "
            f"in double quotes (column 2)\n")
        repeated = tmp_path / "repeated.jsonl"
        save_trajectories([TrajectoryRecord(
            task_id="t", task_type="clean", retrieved_skill_ids=["a", "a"],
            success=True)], repeated)
        capsys.readouterr()
        assert main(["ingest", "--input", str(repeated)]) == 2
        captured = capsys.readouterr()
        assert "line 1: retrieved_skill_ids repeats a" in captured.err
        assert "0 valid record(s), 1 malformed line(s)" in captured.out
        bogus = tmp_path / "bogus.jsonl"
        save_trajectories([TrajectoryRecord(
            task_id="t", task_type="clean", retrieved_skill_ids=["a", "b"],
            traversed_edges=[("a", "b", "bogus")], success=True)], bogus)
        assert main(["ingest", "--input", str(bogus)]) == 2
        captured = capsys.readouterr()
        assert "line 1: traversed_edges has unknown kind bogus" in captured.err
        assert "0 valid record(s), 1 malformed line(s)" in captured.out

    def test_cli_import_leaves_requests_out(self):
        # only a real teacher needs requests, and it costs every command
        src = Path(skillnet.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, skillnet.cli; print('requests' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr

    @pytest.mark.parametrize("command", [["retrieve", "--task-type", "clean"],
                                         ["--version"]])
    def test_retrieve_imports_only_what_it_runs(self, tmp_path, command):
        # the simulator, evolution, the teacher and the config sections cost
        # every retrieve call their import time
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"], category="clean")
        graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
        save_graph(graph, tmp_path / "g.json")
        argv = ["--graph", str(tmp_path / "g.json"), *command]
        src = Path(skillnet.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from skillnet import cli\n"
             f"code = cli.main({argv!r})\n"
             "print(code, sorted(m for m in sys.modules if m.startswith('skillnet.')))"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        code, loaded = result.stdout.splitlines()[-1].split(" ", 1)
        assert code == "0"
        unused = {f"skillnet.{name}" for name in
                  ("simulate", "evolution", "proposer", "config", "curriculum")}
        assert unused.isdisjoint(ast.literal_eval(loaded))

    @pytest.mark.parametrize("doc", [doc for doc in BAD_CONFIGS if "simulation" in doc])
    def test_retrieve_checks_the_whole_config(self, tmp_path, capsys, doc):
        graph = SkillGraph()
        add_nodes(graph, ["a"], category="clean")
        save_graph(graph, tmp_path / "g.json")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        assert main(["--graph", str(tmp_path / "g.json"), "--config", str(config),
                     "retrieve", "--task-type", "clean"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "simulation." in err

    def test_package_exports_resolve(self):
        # a stale name in __all__ makes ``from skillnet import *`` raise
        names = skillnet.__all__
        assert len(names) == len(set(names))
        assert [name for name in names if not hasattr(skillnet, name)] == []

    def test_usage_error_exit_code(self):
        assert main(["retrieve"]) == 1  # missing required --task-type

    def test_missing_graph_is_data_error(self, capsys):
        assert main(["--graph", "/nonexistent/g.json", "stats"]) == 2

    def test_graph_flag_required_for_stats(self, capsys):
        assert main(["stats"]) == 2

    @pytest.mark.parametrize("argv", FILE_BOUNDARIES, ids=FILE_BOUNDARY_IDS)
    def test_non_utf8_input_is_a_data_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff\xfe not utf-8")
        out = tmp_path / "out"
        argv = [arg.format(bad=bad, out=out) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("document, reason", [
        # deeper than every supported interpreter's JSON decoder accepts:
        # 3.12 decodes 1,000 levels and 3.13 8,000
        *((unit * depth, "nested too deeply")
          for unit in ("[", '{"a":') for depth in (20000, 100000)),
        ("[" + "9" * 5000 + "]", "integer too long"),
    ], ids=["list-20000", "list-100000", "object-20000", "object-100000", "long-int"])
    @pytest.mark.parametrize("argv", FILE_BOUNDARIES, ids=FILE_BOUNDARY_IDS)
    def test_undecodable_input_is_a_data_error(self, tmp_path, capsys, argv,
                                               document, reason):
        # json.loads raises RecursionError or a bare ValueError for these,
        # not JSONDecodeError
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        out = tmp_path / "out"
        argv = [arg.format(bad=bad, out=out) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        prefix = "line 1: " if argv[0] == "ingest" else "error: "
        assert err == f"{prefix}invalid JSON in {bad}: {reason}\n"
        assert not out.exists()

    def test_init_rejects_bad_skill_files(self, tmp_path, capsys):
        not_a_list = tmp_path / "obj.json"
        not_a_list.write_text('{"skill_id": "x"}')
        assert main(["init", "--skills", str(not_a_list),
                     "--out", str(tmp_path / "g.json")]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("[{")
        assert main(["init", "--skills", str(broken),
                     "--out", str(tmp_path / "g.json")]) == 2
        assert main(["init", "--skills", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "g.json")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("skill_id", 5), ("title", None), ("principle", ["x"]),
        ("when_to_apply", 1.5), ("category", 3)])
    def test_init_rejects_a_mistyped_field(self, tmp_path, capsys, field, value):
        # each used to load coerced: id "5", title "None", principle "['x']"
        entry = {"skill_id": "c1", "title": "Wipe surfaces", "principle": "Wipe",
                 "when_to_apply": "Cleaning", "category": "clean"}
        skills = tmp_path / "skills.json"
        skills.write_text(json.dumps([dict(entry, skill_id="c0"),
                                      dict(entry, **{field: value})]))
        out = tmp_path / "g.json"
        assert main(["init", "--skills", str(skills), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: skills entry 1 field ") and err.count("\n") == 1
        assert repr(field) in err
        assert not out.exists()

    def test_compare_flat_reuses_the_graph_run(self, tmp_path, capsys, monkeypatch):
        from skillnet import simulate

        arms = []

        def spy(config, seed, retriever="graph"):
            arms.append(retriever)
            return run_loop(config, seed, retriever)

        monkeypatch.setattr(simulate, "run_loop", spy)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "simulation": {"steps": 10, "tasks_per_step": 2}}))
        assert main(["simulate", "--config", str(config), "--seed", "3",
                     "--out", str(tmp_path / "m.csv"), "--compare-flat"]) == 0
        assert arms == ["graph", "flat"]
        out = capsys.readouterr().out
        paired = compare_retrievers(load_app_config(str(config)).simulation, 3)
        assert out[out.index("{"):] == json.dumps(
            paired.to_dict(), indent=2, sort_keys=True) + "\n"

    def test_simulate_compare_flat_prints_paired_stats(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "simulation": {"steps": 10, "tasks_per_step": 2}}))
        code = main(["simulate", "--config", str(config), "--seed", "3",
                     "--out", str(tmp_path / "m.csv"), "--compare-flat"])
        assert code == 0
        out = capsys.readouterr().out
        comparison = json.loads(out[out.index("{"):])
        assert set(comparison) == {"graph", "flat"}
        assert comparison["graph"]["tasks"] == comparison["flat"]["tasks"]

    def test_evolve_updates_graph_and_report(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        window = tmp_path / "w.jsonl"
        records = [TrajectoryRecord(
            task_id=f"t{i}", task_type="clean",
            retrieved_skill_ids=["g1", "c1"],
            traversed_edges=[("g1", "c1", "enhance")],
            success=True) for i in range(3)]
        save_trajectories(records, window)
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        code = main(["--graph", str(graph_path), "evolve",
                     "--window", str(window), "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["edges_reinforced"] == 3
        graph = load_graph(graph_path)
        assert graph.checkpoint_index == 1
        assert graph.nodes["g1"].n_use == 3
        # (0.2 + 3 * 0.05) * 0.99
        assert graph.weight("g1", "c1", EdgeKind.ENHANCE) == \
            pytest.approx(0.35 * 0.99)

    def test_evolve_cli_honors_checkpoint_warmup(self, tmp_path, capsys):
        """Repeated evolve invocations unlock only once five checkpoints
        have been banked in the snapshot."""
        graph = SkillGraph()
        add_nodes(graph, ["base"], category="clean")
        graph.add_skill(make_node("deep", category="clean"))
        graph.add_edge("base", "deep", EdgeKind.PREREQ, 0.9)
        graph.compute_levels()
        graph_path = tmp_path / "g.json"
        save_graph(graph, graph_path)
        window = tmp_path / "w.jsonl"
        save_trajectories([TrajectoryRecord(
            task_id=f"t{i}", task_type="clean",
            retrieved_skill_ids=["base"], success=True)
            for i in range(20)], window)
        unlock_at = []
        for invocation in range(7):
            capsys.readouterr()
            assert main(["--graph", str(graph_path), "evolve",
                         "--window", str(window)]) == 0
            report = json.loads(capsys.readouterr().out)
            if report["unlock_events"]:
                unlock_at.append(invocation)
        assert unlock_at and unlock_at[0] == 5  # sixth checkpoint, index 5

    def test_evolve_output_is_pinned(self, tmp_path, capsys):
        """Characterization of one ``skillnet evolve``: a window with a record
        naming a skill the graph no longer has, no warmup, and an unlock.
        The digests were taken with the code before the simulator and the
        CLI shared one checkpoint function."""
        graph = random_graph(random.Random(5), n=30, deprecated_rate=0.1)
        graph.highest_active_level = 0
        graph_path = tmp_path / "g.json"
        save_graph(graph, graph_path)
        rng = random.Random(6)
        ids = sorted(graph.nodes)
        records = [TrajectoryRecord(
            task_id=f"t{i}", task_type=rng.choice(["clean", "heat", "cool"]),
            retrieved_skill_ids=rng.sample(ids, rng.randint(1, 4)),
            success=rng.random() < 0.7) for i in range(40)]
        records[7].retrieved_skill_ids.append("merged_away")
        save_trajectories(records, tmp_path / "w.jsonl")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"curriculum": {"warmup_length": 0, "unlock_threshold": 0.3}}))
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(["--graph", str(graph_path), "--config", str(config), "evolve",
                     "--window", str(tmp_path / "w.jsonl"), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["unlock_events"]
        assert sha256(stdout.encode("utf-8")).hexdigest() == EVOLVE_REPORT_SHA256
        assert sha256(out.read_bytes()).hexdigest() == EVOLVE_SNAPSHOT_SHA256

    def test_inputs_never_mutated(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        before = graph_path.read_bytes()
        main(["--graph", str(graph_path), "retrieve", "--task-type", "clean"])
        main(["--graph", str(graph_path), "stats"])
        main(["--graph", str(graph_path), "export-dot"])
        assert graph_path.read_bytes() == before

    def test_global_flags_accepted_after_subcommand(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        capsys.readouterr()
        code = main(["retrieve", "--graph", str(graph_path),
                     "--task-type", "clean", "--kmax", "8",
                     "--depth", "2", "--beam", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ordered_skills"]

    def test_proposer_error_exit_code(self, monkeypatch):
        from skillnet import cli
        from skillnet.errors import ProposerUnavailable

        def boom(args):
            raise ProposerUnavailable("teacher offline")

        monkeypatch.setitem(cli._COMMANDS, "stats", boom)
        assert main(["--graph", "whatever", "stats"]) == 3

    def test_simulate_writes_metrics(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "simulation": {"steps": 10, "tasks_per_step": 2}}))
        out = tmp_path / "metrics.csv"
        graph_out = tmp_path / "final.json"
        code = main(["--config", str(config), "--seed", "7", "simulate",
                     "--out", str(out), "--graph-out", str(graph_out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("checkpoint,nodes_total,nodes_active")
        assert len(lines) == 3  # header + 2 checkpoints
        load_graph(graph_out)

    @pytest.mark.parametrize("doc", BAD_CONFIGS)
    def test_bad_config_is_one_error_line(self, tmp_path, capsys, doc):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "m.csv"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_simulate_refuses_a_bad_simulation_section(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulation": {
            "types": [{"name": "x", "canonical": ["a"], "weight": -1.0}]}}))
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: type x: weight must be positive\n"
        assert not out.exists()

    def test_init_rejects_non_object_entry(self, tmp_path, capsys):
        skills = tmp_path / "skills.json"
        skills.write_text(json.dumps([{"skill_id": "a", "title": "A"}, "oops"]))
        assert main(["init", "--skills", str(skills),
                     "--out", str(tmp_path / "g.json")]) == 2
        assert capsys.readouterr().err.startswith("error: skills entry 1")

    def test_graph_errors_are_data_errors(self, tmp_path, capsys):
        skills = tmp_path / "skills.json"
        skills.write_text(json.dumps([{"skill_id": "a", "title": " "}]))
        assert main(["init", "--skills", str(skills),
                     "--out", str(tmp_path / "g.json")]) == 2
        assert capsys.readouterr().err.startswith("error: skill 'a'")

    def test_unwritable_output_is_a_data_error(self, tmp_path, capsys):
        assert main(["init", "--skills", self.write_skills(tmp_path),
                     "--out", str(tmp_path / "missing" / "g.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_write_that_fails_after_the_checks_names_the_path(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "fsync", disk_full)
        out = tmp_path / "g.json"
        assert main(["init", "--skills", self.write_skills(tmp_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cannot write {out}: " in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["skills.json"]

    @pytest.mark.parametrize("argv", [
        ["evolve", "--window", "{window}", "--report", "{bad}"],
        ["evolve", "--window", "{window}", "--out", "{bad}"],
        ["evolve", "--window", "{window}", "--report", "{report}", "--out", "{bad}"],
        ["export-dot", "--out", "{bad}"],
        ["init", "--skills", "{skills}", "--out", "{bad}"],
    ], ids=["evolve-report", "evolve-out", "evolve-out-after-report", "export-dot",
            "init"])
    @pytest.mark.parametrize("bad", ["nodir/x.json", "."])
    def test_a_bad_output_is_refused_before_any_work(self, tmp_path, capsys, argv, bad):
        skills = self.write_skills(tmp_path)
        graph_path = tmp_path / "g.json"
        assert main(["init", "--skills", skills, "--out", str(graph_path)]) == 0
        window = tmp_path / "w.jsonl"
        save_trajectories([TrajectoryRecord(
            task_id="t", task_type="clean", retrieved_skill_ids=["c1"],
            success=True)], window)
        before = graph_path.read_bytes()
        paths = {"window": window, "skills": skills, "bad": tmp_path / bad,
                 "report": tmp_path / "r.json"}
        argv = ["--graph", str(graph_path)] + [a.format(**paths) for a in argv]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {paths['bad']}: ")
        assert err.count("\n") == 1 and ".tmp" not in err
        assert graph_path.read_bytes() == before
        assert not paths["report"].exists() and not (tmp_path / "nodir").exists()

    def test_evolve_in_place_refuses_a_graph_it_cannot_rewrite(
            self, tmp_path, capsys, monkeypatch):
        from skillnet import cli
        graph_path = tmp_path / "g.json"
        assert main(["init", "--skills", self.write_skills(tmp_path),
                     "--out", str(graph_path)]) == 0
        window = tmp_path / "w.jsonl"
        save_trajectories([], window)
        before = graph_path.read_bytes()
        real_access = os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode: (
            False if Path(path) == tmp_path else real_access(path, mode)))
        capsys.readouterr()
        assert main(["--graph", str(graph_path), "evolve", "--window", str(window)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {graph_path}: ") and err.count("\n") == 1
        assert graph_path.read_bytes() == before

    @pytest.mark.parametrize("flag", ["--out", "--graph-out"])
    @pytest.mark.parametrize("bad", ["missing/x", "."])
    def test_simulate_refuses_a_bad_output_before_running(
            self, tmp_path, capsys, monkeypatch, flag, bad):
        from skillnet import simulate

        def never(*args):
            raise AssertionError("run_loop must not start")

        monkeypatch.setattr(simulate, "run_loop", never)
        paths = {"--out": tmp_path / "m.csv", "--graph-out": tmp_path / "g.json"}
        paths[flag] = tmp_path / bad
        argv = ["simulate"] + [str(x) for pair in paths.items() for x in pair]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_simulate_reads_the_top_level_sections(self, tmp_path, capsys):
        csvs = []
        for extra in ({}, {"retrieval": {"k_max": 1}}):
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({
                "simulation": {"steps": 10, "tasks_per_step": 2}, **extra}))
            out = tmp_path / f"m{len(csvs)}.csv"
            assert main(["simulate", "--config", str(config), "--seed", "3",
                         "--out", str(out)]) == 0
            csvs.append(out.read_text())
        assert csvs[0] != csvs[1]

    def test_export_dot_out_writes_what_stdout_shows(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        capsys.readouterr()
        assert main(["--graph", str(graph_path), "export-dot"]) == 0
        shown = capsys.readouterr().out
        out = tmp_path / "g.dot"
        assert main(["--graph", str(graph_path), "export-dot", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text(encoding="utf-8") == shown == \
            export_dot(load_graph(graph_path)) + "\n"

    def test_evolve_skips_a_bad_window_line(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        window = tmp_path / "w.jsonl"
        save_trajectories([TrajectoryRecord(
            task_id=f"t{i}", task_type="clean", retrieved_skill_ids=["g1", "c1"],
            success=True) for i in range(2)], window)
        lines = window.read_text().splitlines()
        window.write_text("\n".join([lines[0], '{"task_id": 5}', lines[1]]) + "\n")
        capsys.readouterr()
        assert main(["--graph", str(graph_path), "evolve", "--window", str(window)]) == 0
        assert capsys.readouterr().err == (
            "line 2: trajectory record field 'task_id' must be a string, "
            "got an integer\n")
        graph = load_graph(graph_path)
        assert graph.checkpoint_index == 1
        assert graph.nodes["g1"].n_use == graph.nodes["c1"].n_use == 2

    @pytest.mark.parametrize("argv, message", [
        (["init", "--skills", "{skills}", "--out", "{out}"], "duplicate skill id 'a'"),
        (["--graph", "{node}", "stats"], "invalid node: duplicate skill id 'a'"),
        (["--graph", "{endpoint}", "stats"],
         "invalid edge: unknown endpoint 'zz' of a -> zz"),
        (["--graph", "{weight}", "stats"],
         "invalid edge: weight 1.5 outside [0, 1] for a -> b (co_occur)"),
    ], ids=["init-repeated-id", "snapshot-repeated-node", "edge-to-missing-node",
            "weight-1.5"])
    def test_a_refused_graph_write_names_the_fault(self, tmp_path, capsys, argv,
                                                   message):
        # each used to print only an id or a weight
        graph = SkillGraph()
        add_nodes(graph, ["a", "b"])
        data = graph_to_dict(graph)
        files = {"skills": [{"skill_id": "a", "title": "A"}] * 2,
                 "node": dict(data, nodes=data["nodes"] + data["nodes"][:1]),
                 "endpoint": dict(data, edges=[{"src": "a", "dst": "zz",
                                                "kind": "prereq", "weight": 0.5}]),
                 "weight": dict(data, edges=[{"src": "a", "dst": "b",
                                              "kind": "co_occur", "weight": 1.5}])}
        for name, doc in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        argv = [arg.format(out=out, **{name: tmp_path / f"{name}.json" for name in files})
                for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_retrieve_flags_obey_the_config_ranges(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        assert main(["--graph", str(graph_path), "retrieve",
                     "--task-type", "clean", "--depth", "-1"]) == 2


class TestTextThatIsNoUtf8:
    """A lone surrogate loads, since JSON can spell one as an escape, and
    saves, as the same escape. No command may write one as UTF-8 text: that
    is a data error with one message line, and leaves no file behind."""

    @pytest.fixture
    def graph_path(self, tmp_path):
        graph = SkillGraph()
        graph.add_skill(make_node("a", category="clean", title="\ud800 lone"))
        graph.add_skill(make_node("b", category="clean"))
        graph.init_edges()
        path = tmp_path / "g.json"
        save_graph(graph, path)
        assert '"title": "\\ud800 lone"' in path.read_text(encoding="utf-8")
        return path

    @staticmethod
    def strict_stdout(monkeypatch) -> io.TextIOWrapper:
        """A strict UTF-8 stdout, as a terminal's is; set in the test body,
        since capsys puts its own stream back when the test starts."""
        stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stream)
        return stream

    @pytest.mark.parametrize("argv", [["stats"], ["retrieve", "--task-type", "clean"]])
    def test_escaped_output_passes(self, graph_path, capsys, monkeypatch, argv):
        stdout = self.strict_stdout(monkeypatch)
        assert main(["--graph", str(graph_path), *argv]) == 0
        assert capsys.readouterr().err == ""
        stdout.flush()
        assert stdout.buffer.getvalue()

    @pytest.mark.parametrize("argv", [
        ["retrieve", "--task-type", "clean", "--render"],
        ["export-dot"],
        ["export-dot", "--out", "{out}"],
    ], ids=["retrieve-render", "export-dot", "export-dot-out"])
    def test_a_write_of_it_is_a_data_error(self, graph_path, capsys, monkeypatch, argv):
        """The message names what was being written: the file, or standard
        output."""
        out = graph_path.parent / "g.dot"
        argv = [arg.format(out=out) for arg in argv]
        stdout = self.strict_stdout(monkeypatch)
        assert main(["--graph", str(graph_path), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "surrogates not allowed" in err
        target = out if "--out" in argv else "standard output"
        assert f"cannot write {target}: 'utf-8' codec can't encode" in err
        stdout.flush()
        assert stdout.buffer.getvalue() == b""
        assert [p.name for p in graph_path.parent.iterdir()] == ["g.json"]


def snapshot_document() -> dict:
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"])
    graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
    return graph_to_dict(graph)


# each kind of input file: a good document of one record, and the CLI call
# that reads it with ``{path}`` for the file
INPUT_FILES = {
    "snapshot": (snapshot_document, ["--graph", "{path}", "stats"]),
    "trajectory": (lambda: {"task_id": "t", "task_type": "clean",
                            "retrieved_skill_ids": ["a"], "success": True,
                            "steps": [{"action": "look", "observation": "mug"}]},
                   ["ingest", "--input", "{path}"]),
    "skills": (lambda: [{"skill_id": "c1", "title": "Wipe", "category": "clean"}],
               ["init", "--skills", "{path}", "--out", "{out}"]),
}
# each reader of a JSON object from a file: its input file, its name in
# messages, the path to its object in the document, a field and a value of
# the wrong type for it, and a required field (None where it has none)
OBJECT_READERS = {
    "snapshot": ("snapshot", "snapshot", [], "nodes", {}, None),
    "meta": ("snapshot", "meta", ["meta"], "checkpoint_index", "3", None),
    "node": ("snapshot", "node", ["nodes", 0], "title", None, "principle"),
    "edge": ("snapshot", "edge", ["edges", 0], "weight", True, "kind"),
    "record": ("trajectory", "trajectory record", [], "success", "false", "success"),
    "step": ("trajectory", "step", ["steps", 0], "action", 3, None),
    "skills": ("skills", "skills entry 0", [0], "title", None, "title"),
}


@pytest.mark.parametrize("reader, case", [
    (reader, case) for reader, spec in OBJECT_READERS.items()
    for case in ("strict", "lenient", "mistyped", "missing")
    if case != "missing" or spec[5]])
def test_every_reader_checks_its_objects_alike(tmp_path, capsys, caplog, reader, case):
    """One checker for every object of a snapshot, trajectory or skills
    file: an unknown field is a data error under --strict and a warning that
    names it (and a trajectory's line) otherwise; a mistyped or missing field
    is named."""
    kind, where, at, name, value, required = OBJECT_READERS[reader]
    make_document, argv = INPUT_FILES[kind]
    document = obj = make_document()
    for key in at:
        obj = obj[key]
    if case in ("strict", "lenient"):
        obj["surprise"] = 1
    elif case == "mistyped":
        obj[name] = value
    else:
        del obj[required]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document) + "\n")
    argv = [arg.format(path=path, out=tmp_path / "g.json") for arg in argv]
    with caplog.at_level("WARNING"):
        code = main(argv + ["--strict"] * (case == "strict"))
    err = capsys.readouterr().err
    if case == "lenient":
        assert (code, err) == (0, "")
        line = "line 1: " * (kind == "trajectory")
        assert f"{line}unknown {where} field(s): surprise (ignored)" in caplog.messages
        return
    assert code == 2
    assert {"strict": f"unknown {where} field(s): surprise\n",
            "mistyped": f"{where} field {name!r} must be ",
            "missing": f"{where} missing field(s): {required}\n"}[case] in err


def test_an_ignored_trajectory_field_is_logged_with_its_line(tmp_path, caplog):
    record = dict(INPUT_FILES["trajectory"][0](), sucess=True)
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
    with caplog.at_level("WARNING"):
        assert len(ingest_trajectories(path).records) == 2
    assert caplog.messages == [
        f"line {n}: unknown trajectory record field(s): sucess (ignored)" for n in (1, 2)]
    assert ingest_trajectories(path, strict=True).errors == [
        (n, "unknown trajectory record field(s): sucess") for n in (1, 2)]


def test_an_ignored_snapshot_field_is_logged_once_per_section(caplog):
    graph = SkillGraph()
    add_nodes(graph, ["a", "b", "c", "d"])
    graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
    graph.add_edge("c", "d", EdgeKind.ENHANCE, 0.5)
    data = graph_to_dict(graph)
    for node in data["nodes"]:
        node["foo"] = 1
    data["nodes"][2]["bar"] = 1
    for edge in data["edges"]:
        edge["foo"] = 1
    with caplog.at_level("WARNING"):
        loaded = graph_from_dict(data)
    assert graph_to_dict(loaded) == graph_to_dict(graph)
    assert caplog.messages == ["unknown node field(s): foo (ignored)",
                               "unknown node field(s): bar (ignored)",
                               "unknown edge field(s): foo (ignored)"]
    with pytest.raises(ParseError, match=r"^unknown node field\(s\): foo$"):
        graph_from_dict(data, strict=True)


def test_an_ignored_skills_field_is_logged_once_per_file(tmp_path, capsys, caplog):
    """Each unknown field of an ``init`` skills file is logged once, naming
    the first entry that holds it, however many entries hold it."""
    entries = [{"skill_id": f"c{i}", "title": "Wipe", "catgory": "clean"} for i in range(3)]
    entries[2]["extra"] = 1
    path = tmp_path / "skills.json"
    path.write_text(json.dumps(entries))
    argv = ["init", "--skills", str(path), "--out", str(tmp_path / "g.json")]
    with caplog.at_level("WARNING"):
        assert main(argv) == 0
    assert caplog.messages == ["unknown skills entry 0 field(s): catgory (ignored)",
                               "unknown skills entry 2 field(s): extra (ignored)"]
    capsys.readouterr()
    assert main(argv + ["--strict"]) == 2
    assert capsys.readouterr().err == "error: unknown skills entry 0 field(s): catgory\n"


def test_outside_json_is_decoded_in_one_place():
    """json.loads and json.load run only in persistence.decode_json, which
    turns every failure into a ParseError. The teacher's reply, decoded in
    proposer.py, is the one other input."""
    expected = [("persistence", "decode_json", "json.loads"),
                ("proposer", "_post", "json"),
                ("proposer", "extract_json_array", "raw_decode")]

    def decoder(call: ast.AST) -> str | None:
        if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
            return None
        name = call.func.attr
        if name in ("json", "raw_decode"):
            return name
        if name in ("load", "loads") and getattr(call.func.value, "id", None) == "json":
            return f"json.{name}"
        return None

    found, total = [], 0
    for path in sorted(Path(skillnet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += sum(decoder(node) is not None for node in ast.walk(tree))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found += [(path.stem, func.name, decoder(node))
                          for node in ast.walk(func) if decoder(node)]
        # no decoder comes in under another name
        assert not [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "json"
                    for alias in node.names], path.name
    assert sorted(found) == expected
    assert total == len(expected)  # none outside a function
