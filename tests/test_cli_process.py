"""The ``skillnet`` process (``cli.run``) against in-process ``main`` as the
oracle. ``run`` flushes the standard streams and ends the process without
interpreter teardown, so these tests start real processes and compare what
reaches their readers. ``PYTHONUNBUFFERED`` is removed from each child's
environment: with it set, nothing is left in a buffer for ``run`` to flush.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skillnet
from skillnet import EdgeKind, SkillGraph, TrajectoryRecord, save_graph
from skillnet.cli import main
from skillnet.persistence import save_trajectories

from conftest import add_nodes, make_node

SRC = Path(skillnet.__file__).parents[1]
PIPE_BUFFER = 1 << 16  # Linux's default pipe capacity


def buffered_env() -> dict[str, str]:
    """This environment less ``PYTHONUNBUFFERED``, with the package importable."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def skillnet_process(argv: list[str], cwd: Path, stdout=subprocess.PIPE):
    """``python -m skillnet.cli argv``, with buffered standard streams."""
    return subprocess.run([sys.executable, "-m", "skillnet.cli", *argv], cwd=cwd,
                          stdout=stdout, stderr=subprocess.PIPE, env=buffered_env(),
                          timeout=60)


@pytest.fixture
def files(tmp_path, monkeypatch):
    """A small graph snapshot and a trajectory file with one bad line, named
    relative to ``tmp_path``, where both the process and ``main`` run."""
    monkeypatch.chdir(tmp_path)
    graph = SkillGraph()
    add_nodes(graph, ["g1"])
    add_nodes(graph, ["c1", "c2", "c3"], category="clean")
    graph.init_edges()
    graph.add_edge("c1", "c2", EdgeKind.PREREQ, 0.5)
    save_graph(graph, tmp_path / "g.json")
    save_trajectories([TrajectoryRecord(task_id="t", task_type="clean",
                                        retrieved_skill_ids=["c1"], success=True)],
                      tmp_path / "w.jsonl")
    with open(tmp_path / "w.jsonl", "a", encoding="utf-8") as handle:
        handle.write("{nope\n")
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["--graph", "g.json", "retrieve", "--task-type", "clean"],
    ["--graph", "g.json", "retrieve", "--task-type", "clean", "--render"],
    ["--graph", "g.json", "stats"],
    ["--graph", "g.json", "export-dot"],
    ["ingest", "--input", "w.jsonl"],
    ["retrieve"],  # usage error: --task-type is missing
    ["stats"],  # data error: no --graph
], ids=["retrieve", "retrieve-render", "stats", "export-dot", "ingest-bad-line",
        "usage-error", "missing-graph"])
def test_the_process_prints_and_exits_as_main_does(files, capsys, argv):
    code = main(argv)
    expected = capsys.readouterr()
    result = skillnet_process(argv, files)
    assert result.returncode == code
    assert result.stdout == expected.out.encode("utf-8")
    assert result.stderr.decode("utf-8") == expected.err


def test_an_output_larger_than_a_pipe_buffer_arrives_whole(tmp_path, capsys):
    graph = SkillGraph()
    for i in range(400):
        graph.add_skill(make_node(f"s{i:03d}", category="clean", title="t" * 200))
    graph.init_edges()
    save_graph(graph, tmp_path / "g.json")
    argv = ["--graph", str(tmp_path / "g.json"), "export-dot"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    assert len(expected) > 4 * PIPE_BUFFER
    result = skillnet_process(argv, tmp_path)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == expected


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["--graph", "g.json", "retrieve", "--task-type", "clean"],
], ids=["version", "retrieve"])
def test_a_reader_gone_before_any_output_is_a_data_error(files, argv):
    """What ``main`` printed is still buffered when its reader has gone, so
    the flush in ``run`` fails. Python's own exit reported that as an
    ``Exception ignored`` message and exit 120."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = skillnet_process(argv, files, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr.decode("utf-8") == (
        "error: cannot write standard output: [Errno 32] Broken pipe\n")


def test_a_process_started_without_stdout_exits_as_before(tmp_path):
    """With file descriptor 1 closed, ``sys.stdout`` is None: there is
    nothing to flush, and argparse prints the version to stderr."""
    result = subprocess.run(
        ["sh", "-c", 'exec "$0" -m skillnet.cli --version 1>&-', sys.executable],
        cwd=tmp_path, stderr=subprocess.PIPE, env=buffered_env(), timeout=60)
    assert (result.returncode, result.stderr) == (0, f"{skillnet.__version__}\n".encode())


def test_the_skillnet_script_is_run():
    """The installed ``skillnet`` command ends through ``run`` as well."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["skillnet", "=", '"skillnet.cli:run"']

