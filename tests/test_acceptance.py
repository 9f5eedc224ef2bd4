"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> ... PASS|FAIL` line (run with -s to see
them on success; pytest shows them on failure regardless) and then asserts.
Run: pytest tests/test_acceptance.py -s
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from skillnet import (
    EdgeKind,
    EvolutionConfig,
    HttpProposer,
    SkillGraph,
    TaskQuery,
    TrajectoryRecord,
    compare_retrievers,
    decay_and_prune,
    default_sim_config,
    deprecate_scan,
    evolve_step,
    graph_to_dict,
    group_advantages,
    grpo_objective,
    load_graph,
    merge_scan,
    reinforce_paths,
    retrieve,
    run_loop,
    save_graph,
    split_scan,
)
from skillnet.errors import CycleWouldForm, ProposerUnavailable
from skillnet.proposer import ProposerParams, render_insert_prompt
from skillnet.retrieval import DEFAULT_K_MAX, _expand_forward

from conftest import (
    add_nodes,
    computed_levels,
    dependency_edges,
    make_node,
    oracle_best_path_products,
    oracle_has_cycle,
    oracle_levels,
    random_graph,
)
from test_evolution import CountingProposer, proposal, success_record
from test_sim import tiny_config


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}", file=sys.stderr)


# ----------------------------------------------------------------------


def test_criterion_1_graph_invariant_suite():
    """>=1000 random operation sequences: DAG always, longest-path levels,
    weights in [0,1]; under 60 s."""
    rng = random.Random(1001)
    start = time.perf_counter()
    sequences = 1000
    for _ in range(sequences):
        graph = SkillGraph()
        ids: list[str] = []
        for _ in range(rng.randint(3, 35)):
            roll = rng.random()
            if roll < 0.35 or len(ids) < 2:
                if len(ids) >= 50:
                    continue
                skill_id = f"s{len(ids)}"
                graph.add_skill(make_node(
                    skill_id, category=rng.choice(["general", "a", "b"])))
                ids.append(skill_id)
            elif roll < 0.75:
                src, dst = rng.sample(ids, 2)
                try:
                    graph.add_edge(src, dst, rng.choice(list(EdgeKind)),
                                   rng.random())
                except CycleWouldForm:
                    pass
            elif roll < 0.9:
                skill_id = rng.choice(ids)
                used = rng.random() < 0.9
                graph.update_stats(
                    [(skill_id, used, used and rng.random() < 0.5)])
            else:
                decay_and_prune(graph, 0.99, 0.05)
        assert not oracle_has_cycle(ids, dependency_edges(graph))
        assert computed_levels(graph) == oracle_levels(
            ids, dependency_edges(graph))
        assert all(0.0 <= w <= 1.0 for w in graph.edges().values())
    elapsed = time.perf_counter() - start
    passed = elapsed < 60
    report(1, "graph invariant suite", passed,
           f"{sequences} sequences in {elapsed:.1f}s")
    assert passed


def test_criterion_2_retrieval_correctness():
    """>=500 random graphs: dependency order, K_max cap, active-set respect,
    and exact beam scores against the path-product oracle."""
    rng = random.Random(2002)
    graphs = 500
    sigma_checked = 0
    for i in range(graphs):
        graph = random_graph(rng, n=rng.randint(2, 25))
        query = TaskQuery("acceptance", rng.choice(["clean", "heat", "cool"]))
        result = retrieve(graph, query)
        assert len(result.ordered_skills) <= DEFAULT_K_MAX
        position = {v: j for j, v in enumerate(result.ordered_skills)}
        for src, dst, kind in graph.edges():
            if kind is EdgeKind.CO_OCCUR:
                continue
            if src in position and dst in position:
                assert position[src] < position[dst]
        for skill_id in result.ordered_skills:
            node = graph.nodes[skill_id]
            assert not node.deprecated
            assert node.level <= graph.highest_active_level
        if len(graph.nodes) <= 20:
            seeds = {v for v in graph.nodes
                     if graph.is_active(v)
                     and graph.nodes[v].category in ("general", query.task_type)}
            if seeds:
                depth = rng.randint(1, 3)
                scores, _ = _expand_forward(graph, seeds, len(graph.nodes),
                                            depth)
                assert scores == oracle_best_path_products(graph, seeds, depth)
                sigma_checked += 1
    report(2, "retrieval correctness", True,
           f"{graphs} graphs, beam scores exact on {sigma_checked}")


def test_criterion_3_evolution_arithmetic():
    """Pinned-constant fixtures plus merge conservation on random fixtures."""
    cfg = EvolutionConfig()

    # reinforcement: 0.30 + 0.05 = 0.35
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"], category="clean")
    graph.add_edge("a", "b", EdgeKind.PREREQ, 0.30)
    reinforce_paths(graph, [success_record(["a", "b"], [("a", "b", "prereq")])],
                    cfg.reinforce_step)
    assert graph.weight("a", "b", EdgeKind.PREREQ) == \
        pytest.approx(0.35)

    # decay then prune: 0.0500 * 0.99 = 0.0495 < 0.05
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"], category="clean")
    graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.05)
    assert decay_and_prune(graph, cfg.decay_factor, cfg.prune_threshold) == 1

    # deprecation: 3/25 = 0.12 < 0.15 with enough usage; floors hold
    graph = SkillGraph()
    graph.add_skill(make_node("bad", n_use=25, n_succ=3))
    graph.add_skill(make_node("young", n_use=19, n_succ=0))
    graph.add_skill(make_node("edge", n_use=20, n_succ=3))
    assert deprecate_scan(graph, cfg) == ["bad"]

    # split trigger: band plus usage floor
    graph = SkillGraph()
    graph.add_skill(make_node("mid", n_use=12, n_succ=4))       # 0.333
    graph.add_skill(make_node("good", n_use=12, n_succ=6))      # 0.5
    graph.add_skill(make_node("rare", n_use=9, n_succ=2))       # usage floor
    splits = split_scan(graph, CountingProposer([proposal(1), proposal(2)]),
                        [], cfg)
    assert [parent for parent, _ in splits] == ["mid"]

    # merge trigger at tau and conservation over random fixtures
    rng = random.Random(3003)
    for _ in range(50):
        graph = random_graph(rng, n=rng.randint(4, 14), deprecated_rate=0.0)
        total_use = sum(n.n_use for n in graph.nodes.values())
        total_succ = sum(n.n_succ for n in graph.nodes.values())
        merge_scan(graph, CountingProposer([proposal(7)]), cfg)
        assert sum(n.n_use for n in graph.nodes.values()) == total_use
        assert sum(n.n_succ for n in graph.nodes.values()) == total_succ
    report(3, "evolution arithmetic", True)


def test_criterion_4_curriculum():
    """Gate iff smoothed mean >= 0.6, warmup honored, L non-decreasing over
    a 1000-step simulated run."""
    from skillnet import CurriculumState, level_mean, maybe_unlock

    rng = random.Random(4004)
    # gate soundness both directions over randomized statistics
    for _ in range(300):
        graph = SkillGraph()
        add_nodes(graph, ["base0", "base1"], category="clean")
        graph.add_skill(make_node("next", category="clean"))
        graph.add_edge("base0", "next", EdgeKind.PREREQ, 0.5)
        for skill_id in ("base0", "base1"):
            use = rng.randint(0, 40)
            graph.nodes[skill_id].n_use = use
            graph.nodes[skill_id].n_succ = rng.randint(0, use)
        graph.compute_levels()
        mean = level_mean(graph, 0)
        state = CurriculumState(warmup_steps_remaining=0)
        unlocked = maybe_unlock(graph, state)
        assert bool(unlocked) == (mean >= 0.6)

    # warmup: five checkpoint ticks with perfect stats, no unlock
    graph = SkillGraph()
    add_nodes(graph, ["a"], category="clean")
    graph.add_skill(make_node("b", category="clean"))
    graph.add_edge("a", "b", EdgeKind.PREREQ, 0.5)
    graph.nodes["a"].n_use = graph.nodes["a"].n_succ = 100
    graph.compute_levels()
    state = CurriculumState()
    warmup_clean = all(maybe_unlock(graph, state) == [] for _ in range(5))
    assert warmup_clean and maybe_unlock(graph, state) == [1]

    # 1000-step closed-loop run: active level never decreases
    config = default_sim_config()
    config.steps = 1000
    config.tasks_per_step = 2
    metrics, graph = run_loop(config, 77)
    levels = []
    current = 0
    for rep in metrics.reports:
        if rep.unlock_events:
            current = max(current, max(rep.unlock_events))
        levels.append(current)
    assert all(b >= a for a, b in zip(levels, levels[1:]))
    assert graph.highest_active_level == levels[-1]
    report(4, "curriculum", True,
           f"final L={graph.highest_active_level} over {len(levels)} checkpoints")


def test_criterion_5_policy_math():
    """Advantages vs direct oracle at 1e-9 over 1e4 groups, zero-sum under
    1e-6, objective exact on a 100x100 grid."""
    rng = random.Random(5005)
    for _ in range(10_000):
        size = rng.randint(1, 64)
        rewards = [float(rng.randint(0, 1)) for _ in range(size)]
        ours = group_advantages(rewards)
        mean = statistics.fmean(rewards)
        std = statistics.pstdev(rewards)
        for got, reward in zip(ours, rewards):
            want = (reward - mean) / (std + 1e-8)
            assert abs(got - want) < 1e-9
        assert abs(math.fsum(ours)) < 1e-6

    mismatches = 0
    for i in range(100):
        for j in range(100):
            ratio = i / 25.0
            advantage = (j - 50) / 12.5
            got = grpo_objective([ratio], [advantage], clip_epsilon=0.2)
            if advantage >= 0:
                want = advantage * min(ratio, 1.2)
            else:
                want = advantage * max(ratio, 0.8)
            mismatches += got != want
    assert mismatches == 0
    report(5, "policy math", True)


def test_criterion_6_closed_loop_dynamics():
    """Golden run, directional: 3x node growth, active-count plateau,
    co_occur fastest-growing kind, rising node success; under 5 minutes."""
    start = time.perf_counter()
    metrics, _ = run_loop(default_sim_config(), 42)
    elapsed = time.perf_counter() - start
    rows = metrics.rows

    def fit_slope(values: list[float]) -> float:
        n = len(values)
        xbar = (n - 1) / 2
        ybar = sum(values) / n
        num = sum((x - xbar) * (y - ybar) for x, y in enumerate(values))
        return num / sum((x - xbar) ** 2 for x in range(n))

    total = [r.nodes_total for r in rows]
    active = [r.nodes_active for r in rows]
    growth = total[-1] / total[0]
    third = len(rows) // 3
    active_slope = fit_slope(active[-third:])
    total_slope = fit_slope(total[-third:])
    co_delta = rows[-1].edges_cooccur - rows[0].edges_cooccur
    prereq_delta = rows[-1].edges_prereq - rows[0].edges_prereq
    enhance_delta = rows[-1].edges_enhance - rows[0].edges_enhance
    quartile = len(rows) // 4
    first_q = statistics.mean(r.mean_node_success for r in rows[:quartile])
    last_q = statistics.mean(r.mean_node_success for r in rows[-quartile:])

    checks = {
        "a: total >= 3x": growth >= 3.0,
        "b: active slope < 25% of total": active_slope < 0.25 * total_slope,
        "c: co_occur fastest": co_delta > prereq_delta and co_delta > enhance_delta,
        "d: success rises": last_q > first_q,
        "runtime < 300s": elapsed < 300,
    }
    report(6, "closed-loop dynamics", all(checks.values()),
           f"growth={growth:.2f}x slopes={active_slope:.2f}/{total_slope:.2f} "
           f"deltas co={co_delta} pre={prereq_delta} enh={enhance_delta} "
           f"success {first_q:.3f}->{last_q:.3f} in {elapsed:.1f}s")
    assert all(checks.values()), checks


def test_criterion_7_flat_vs_graph():
    """Graph arm beats flat top-K by >= 5 points on chain>=3 tasks over
    >= 2000 such tasks, with prompts no longer than flat's."""
    config = default_sim_config()
    config.steps = 450  # volume only; every other knob stays at its default
    outcome = compare_retrievers(config, 42)
    graph_arm, flat_arm = outcome.graph_arm, outcome.flat_arm
    long_tasks = graph_arm.long_chain_rollouts // default_sim_config().group_size
    gap = (graph_arm.long_chain_success - flat_arm.long_chain_success) * 100

    checks = {
        ">=2000 long-chain tasks": long_tasks >= 2000,
        "gap >= 5 points": gap >= 5.0,
        "graph prompts <= flat prompts":
            graph_arm.mean_retrieved_len <= flat_arm.mean_retrieved_len,
    }
    report(7, "flat vs graph comparison", all(checks.values()),
           f"gap={gap:.1f}pts on {long_tasks} tasks, "
           f"len {graph_arm.mean_retrieved_len:.2f} vs "
           f"{flat_arm.mean_retrieved_len:.2f}")
    assert all(checks.values()), checks


def test_criterion_8_determinism_and_roundtrip(tmp_path):
    """Byte-identical metrics for identical (config, seed); 100 random
    graphs survive save/load structurally intact."""
    first, _ = run_loop(tiny_config(steps=60), 42)
    second, _ = run_loop(tiny_config(steps=60), 42)
    assert first.to_csv().encode() == second.to_csv().encode()

    rng = random.Random(8008)
    for i in range(100):
        graph = random_graph(rng, n=rng.randint(2, 25))
        path = tmp_path / f"graph_{i}.json"
        save_graph(graph, path)
        assert graph_to_dict(load_graph(path)) == graph_to_dict(graph)
    report(8, "determinism and round-trip", True)


class _AcceptanceStub(BaseHTTPRequestHandler):
    prompts: list[str] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).prompts.append(body["messages"][0]["content"])
        skills = [{"skill_id": f"t{i}", "title": f"Stub skill {i}",
                   "principle": "Check state first",
                   "when_to_apply": "Whenever unsure"} for i in range(5)]
        payload = json.dumps({"choices": [{"message": {
            "content": f"Of course! {json.dumps(skills)} Good luck."}}]})
        self.send_response(200)
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


def test_criterion_9_proposer_integration():
    """Against a local stub: template substrings, array parsing, the m=3
    cap, and graceful ProposerUnavailable degradation mid-checkpoint."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _AcceptanceStub)
    _AcceptanceStub.prompts = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}"
        graph = SkillGraph()
        add_nodes(graph, ["seed"], category="clean")
        failures = [TrajectoryRecord(
            task_id="t0", task_type="clean", retrieved_skill_ids=["seed"],
            steps=[{"action": f"a{i}", "observation": f"o{i}"}
                   for i in range(7)],
            success=False)]
        proposer = HttpProposer(ProposerParams(endpoint, model="stub", timeout=5.0))
        report_obj = evolve_step(graph, [], failures, proposer,
                                 EvolutionConfig())
        assert len(report_obj.inserted) == 3          # five offered, m=3 kept
        assert all(i in graph.nodes for i in report_obj.inserted)

        prompt = _AcceptanceStub.prompts[0]
        assert "Return ONLY a JSON array" in prompt
        assert "Action: a2" in prompt and "Action: a6" in prompt
        assert "Action: a1" not in prompt             # last-5 truncation
        rendered = render_insert_prompt([], [], 3, ["dyn_0001"])
        assert "Return ONLY a JSON array" in rendered
    finally:
        server.shutdown()

    # timeout degrades without aborting the checkpoint
    dead = HttpProposer(ProposerParams("http://127.0.0.1:9", model="stub", timeout=0.2,
                                       max_retries=0))
    graph = SkillGraph()
    add_nodes(graph, ["a", "b"], category="clean")
    graph.add_edge("a", "b", EdgeKind.CO_OCCUR, 0.3)
    failures = [TrajectoryRecord(task_id="t", task_type="clean",
                                 retrieved_skill_ids=[], success=False)]
    with pytest.raises(ProposerUnavailable):
        dead.propose(_insert_request_for(failures))
    report_obj = evolve_step(graph, [], failures, dead, EvolutionConfig())
    assert report_obj.inserted == []
    assert graph.checkpoint_index == 1                # checkpoint completed
    report(9, "proposer integration", True)


def _insert_request_for(failures):
    from skillnet.evolution import summarize_failures
    from skillnet.proposer import ProposerRequest
    return ProposerRequest(kind="insert",
                           failure_summaries=summarize_failures(failures),
                           max_items=3)
