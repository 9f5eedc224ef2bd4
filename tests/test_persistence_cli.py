"""Snapshot round-trips, JSONL ingestion, DOT export, CLI contract."""

from __future__ import annotations

import json
import os
import re
import time

import pytest

from skillnet import (
    EdgeKind,
    SkillGraph,
    TrajectoryRecord,
    export_dot,
    graph_from_dict,
    graph_to_dict,
    ingest_trajectories,
    load_graph,
    save_graph,
    save_trajectories,
)
from skillnet.cli import main
from skillnet.errors import ParseError, VersionMismatch

from conftest import add_nodes, make_node, random_graph
from test_config import BAD_CONFIGS


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
        data["version"] = 99
        path = tmp_path / "g.json"
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

    def test_missing_node_field_rejected(self, tmp_path, rng):
        data = graph_to_dict(random_graph(rng, n=2))
        del data["nodes"][0]["principle"]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            load_graph(path)

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
        assert loaded.get_edge("a", "b", EdgeKind.CO_OCCUR) is not None
        assert loaded.edge_count() == 1


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
        assert graph.edge_count(EdgeKind.CO_OCCUR) == 1
        assert graph.edge_count(EdgeKind.ENHANCE) == 2
        assert graph.edge_count(EdgeKind.PREREQ) == 0

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
        assert main(["ingest", "--input", str(bad)]) == 2

    def test_usage_error_exit_code(self):
        assert main(["retrieve"]) == 1  # missing required --task-type

    def test_missing_graph_is_data_error(self, capsys):
        assert main(["--graph", "/nonexistent/g.json", "stats"]) == 2

    def test_graph_flag_required_for_stats(self, capsys):
        assert main(["stats"]) == 2

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
        assert graph.get_edge("g1", "c1", EdgeKind.ENHANCE).weight == \
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

    def test_retrieve_flags_obey_the_config_ranges(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        main(["init", "--skills", self.write_skills(tmp_path),
              "--out", str(graph_path)])
        assert main(["--graph", str(graph_path), "retrieve",
                     "--task-type", "clean", "--depth", "-1"]) == 2
