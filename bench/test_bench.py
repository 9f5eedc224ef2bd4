"""Tests of the benchmark itself, on libraries small enough to run in seconds."""

from __future__ import annotations

import random
import time

import pytest

from skillnet import GENERAL_CATEGORY, graph_to_dict, retrieval

from bench import run, speed
from bench.library import STRIDE, generate_library
from bench.tracing import BOUNDARIES, COUNTERS, PER_LAYER, Tracer
from bench.workloads import Checkpoint2k, Retrieve8k, tail_percentile

SMALL = 300


def small(cls, tmp_path, seed=1):
    workload = cls(seed, tmp_path, None)
    workload.size = SMALL
    return workload


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    for with_stats in (False, True):
        first = graph_to_dict(generate_library(SMALL, 4, with_stats))
        assert first == graph_to_dict(generate_library(SMALL, 4, with_stats))
        assert first != graph_to_dict(generate_library(SMALL, 5, with_stats))
    graph = generate_library(SMALL, 4)
    assert graph.highest_active_level == graph.max_level() > 0
    general = [v for v, node in graph.nodes.items() if node.category == GENERAL_CATEGORY]
    assert len(general) == SMALL // STRIDE


@pytest.mark.parametrize("n, percentile, beyond", [
    (1000, 99.0, 10), (999, 95.0, 49), (200, 95.0, 10), (199, 90.0, 19),
    (100, 90.0, 10), (99, 75.0, 24), (20, 50.0, 10), (19, 100.0, 0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, beyond):
    samples = [float(v) for v in range(1, n + 1)]
    random.Random(n).shuffle(samples)
    value, got_percentile, got_beyond = tail_percentile(samples)
    assert (got_percentile, got_beyond) == (percentile, beyond)
    assert sum(s > value for s in samples) == got_beyond
    if percentile < 100:
        assert got_beyond >= 10


def test_tail_percentile_stops_at_the_highest_allowed():
    samples = [float(v) for v in range(1, 2001)]
    assert tail_percentile(samples)[1:] == (99.0, 20)
    assert tail_percentile(samples, 95.0)[1:] == (95.0, 100)


def test_speed_gauge_rescales_by_the_probes_around_a_region(monkeypatch):
    slowdowns = iter([2.0] * 3 + [4.0] * 3)
    monkeypatch.setattr(speed, "probe_unit",
                        lambda: next(slowdowns) * speed.REFERENCE_PROBE_S)
    gauge = speed.SpeedGauge(interval=3600)
    with gauge.running():
        timed = gauge.stop(gauge.start())
    assert (timed.first_probe, timed.last_probe) == (0, 1)
    assert gauge.value(timed) == pytest.approx(timed.raw / 3)


def test_speed_gauge_probes_on_its_timer_and_leaves_probe_time_out(monkeypatch):
    def slow_probe():
        time.sleep(0.02)
        return speed.REFERENCE_PROBE_S
    monkeypatch.setattr(speed, "probe_unit", slow_probe)
    gauge = speed.SpeedGauge(interval=0.1)
    with gauge.running():
        mark = gauge.start()
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
        timed = gauge.stop(mark)
        with gauge.waiting():
            probes = len(gauge.factors)
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pass
            assert len(gauge.factors) == probes
    assert timed.last_probe - timed.first_probe >= 3
    assert timed.raw < 0.5 - 0.06 * 2
    assert gauge.value(timed) == pytest.approx(timed.raw)


def test_tail_percentile_needs_samples():
    with pytest.raises(ValueError):
        tail_percentile([])


def bindings():
    return {(owner, attr): vars(owner).get(attr)
            for owner, attr, _ in BOUNDARIES + COUNTERS}


def test_traced_run_restores_every_wrapped_name_and_keeps_outputs(tmp_path):
    before = bindings()
    assert all(before.values())
    workload = small(Checkpoint2k, tmp_path)
    metrics, details = run.measure_traced(workload, 0.0, tmp_path / "spans.jsonl")
    assert bindings() == before
    assert workload.failed == 0, workload.errors
    assert set(metrics) == set(PER_LAYER)
    assert details["not_measured"] == []
    assert metrics["evolution.merge_pairs_scanned"][0] > 0
    assert (tmp_path / "spans.jsonl").read_text().count("\n") == details["spans"]


def test_tracer_restores_names_when_the_traced_code_raises(tmp_path):
    before = bindings()
    workload = small(Retrieve8k, tmp_path)
    workload.setup()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert bindings() != before
            workload.op(0)
            raise ZeroDivisionError
    assert bindings() == before


def test_missing_boundary_is_reported_not_measured(monkeypatch):
    monkeypatch.delattr(retrieval, "_expand_backward")
    with Tracer() as tracer:
        pass
    metrics, not_measured = tracer.metrics({})
    assert "retrieval.backward_ms" in not_measured
    assert metrics["retrieval.backward_ms"] == (0.0, "ms")


def test_raising_stub_makes_failed_ops_ratio_positive(tmp_path, monkeypatch):
    workload = small(Retrieve8k, tmp_path)
    workload.attempt(workload.setup)
    run.run_ops(workload, 0.0, count=3)
    assert workload.failed == 0, workload.errors

    def broken(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(retrieval, "retrieve", broken)
    run.run_ops(workload, 0.0, count=3)
    assert workload.failed / workload.attempted > 0
    assert workload.errors == ["RuntimeError: injected"] * 3


def test_changed_output_is_a_failed_operation(tmp_path):
    workload = small(Retrieve8k, tmp_path)
    workload.attempt(workload.setup)
    workload.pinned = {key: "0" * 16 for key in workload.seen}
    run.run_ops(workload, 0.0, count=3)
    assert workload.failed == 3
