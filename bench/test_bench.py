"""Tests of the benchmark's own parts: the reference estimator, the span
arithmetic, the speed gauge, the output checks and ``BENCHMARK.json``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import oppload as ol

import checks
import gauge
import refest
import run
import tracer as tracing
from workloads import WORKLOADS, fresh_oppload


def _random_hops(rng, count):
    return [
        (
            float(rng.uniform(0.002, 0.2)),
            float(rng.uniform(1.2, 10.0)),
            float(rng.uniform(2.0, 3.0)),
            float(rng.choice([1.0, 4.0])),
        )
        for _ in range(count)
    ]


def test_reference_estimator_matches_program():
    rng = np.random.default_rng(2016)
    worst = 0.0
    for i in range(120):
        hops = _random_hops(rng, 1 + i % 3)
        if i % 20 == 0:
            hops[0] = (hops[0][0], 1.0, hops[0][2], hops[0][3])  # harmonic branch
        size = float(rng.uniform(1.0, 30.0))
        deadline = float(rng.uniform(50.0, 2000.0))
        spec = ol.PathSpec(tuple(ol.PairContactParams(*h) for h in hops))
        program = ol.delivery_prob_path(spec, ol.DeliveryQuery(size, deadline))
        worst = max(worst, abs(program - refest.delivery_prob(hops, size, deadline)))
    assert worst <= 1e-12


def test_reference_estimator_reduces_to_erlang_sum_on_one_hop():
    hop = (0.01, 3.5, 2.5, 1.0)
    program = ol.delivery_prob_onehop(ol.PairContactParams(*hop), ol.DeliveryQuery(20.0, 400.0))
    assert refest.delivery_prob([hop], 20.0, 400.0) == pytest.approx(program, abs=1e-14)
    # the deadline cannot cover the transmission time
    assert refest.delivery_prob([hop, hop], 20.0, 39.0) == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    t = tracing.Tracer()
    seen = []

    def leaf():
        clock.advance(4.0)

    def failing():
        clock.advance(16.0)
        raise KeyError("boom")

    leaf_ = t.wrap("leaf", leaf)
    failing_ = t.wrap("failing", failing, lambda a, k, r, e: seen.append(type(e).__name__))

    def inner():
        clock.advance(2.0)
        leaf_()

    inner_ = t.wrap("inner", inner)

    def outer():
        clock.advance(1.0)
        inner_()
        clock.advance(8.0)
        leaf_()
        with pytest.raises(KeyError):
            failing_()

    with t.span("root", root=True):
        t.wrap("outer", outer)()

    assert dict(t.calls) == {"leaf": 2, "inner": 1, "failing": 1, "outer": 1, "root": 1}
    assert t.self_s["leaf"] == 8.0
    assert t.self_s["inner"] == 2.0
    assert t.self_s["failing"] == 16.0
    assert t.self_s["outer"] == 9.0
    assert t.self_s["root"] == 0.0
    assert t.root_self_s["root"] == 35.0 == clock.now
    assert seen == ["KeyError"]
    assert t.span_count() == 6


def test_spans_written_with_parents(tmp_path, monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    t = tracing.Tracer()
    child = t.wrap("child", lambda: clock.advance(1.0))
    with t.span("parent"):
        child()
        child()
    t.write(tmp_path / "spans.npz")
    data = np.load(tmp_path / "spans.npz")
    names = [str(data["names"][i]) for i in data["name"]]
    assert names == ["child", "child", "parent"]
    parent_id = int(data["span_id"][2])
    assert list(data["parent_id"]) == [parent_id, parent_id, -1]
    assert list(data["end"] - data["start"]) == [1.0, 1.0, 2.0]


def test_missing_private_names_are_reported_absent():
    def program_modules():
        return {n: m for n, m in sys.modules.items() if n == "oppload" or n.startswith("oppload.")}

    saved = program_modules()
    try:
        simulator = fresh_oppload().simulator
        del simulator._ContactSampler, simulator._RUNNERS
        probe = tracing.OpploadProbe(tracing.Tracer(), [])
        probe.install()
        absent = probe.tracer.absent
        assert {"simulator.sampler.events", "simulator.sampler.all_events", "simulator.run"} <= absent
        assert "delivery.delivery_prob_path" not in absent
    finally:
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_gauge_scales_to_reference_speed(monkeypatch):
    clock = FakeClock()

    def probe():
        clock.advance(0.5)
        return gauge.REFERENCE_PROBE_S

    monkeypatch.setattr(gauge, "probe", probe)
    monkeypatch.setattr(gauge.time, "perf_counter", clock)
    g = gauge.Gauge()
    timing = gauge.Timing()
    with g.time(timing):
        clock.advance(3.0)
    assert (timing.wall, timing.scaled) == (3.0, 3.0)  # stopped: scaled = wall

    g.running, g._reading = True, 2 * gauge.REFERENCE_PROBE_S  # machine at half speed
    timing, outer = gauge.Timing(), gauge.Timing()
    with g.time(outer):
        clock.advance(1.0)
        with g.time(timing):
            clock.advance(1.0)
            g._tick()  # probe reads full speed again; its 0.5 s counts nowhere
            clock.advance(1.0)
    assert (timing.wall, timing.scaled) == (2.0, 1.5)
    assert (outer.wall, outer.scaled) == (3.0, 2.0)
    assert g.probes == 1


def test_criterion_2_region_bounds():
    one = (0.005, 3.5, 2.5, 1.0)
    assert checks.in_region([one], 30.0, 300.0) == 0.05
    assert checks.in_region([one], 50.0, 300.0) is None
    assert checks.in_region([(0.02, 3.5, 2.5, 1.0)], 30.0, 300.0) is None
    assert checks.in_region([one[:3] + (2.0,)], 30.0, 300.0) is None
    two = [(0.05, 8.0, 2.5, 1.0), (0.005, 3.5, 2.5, 1.0)]
    assert checks.in_region(two, 5.0, 250.0) == 0.08
    assert checks.in_region(two[::-1], 5.0, 250.0) is None
    assert checks.in_region(two + [one], 5.0, 250.0) is None


def test_validation_audit_flags_violations():
    problems = checks.Problems()
    audit = checks.ValidationAudit(problems)
    hop = (0.005, 3.5, 2.5, 1.0)
    good = [(30.0, d, refest.delivery_prob([hop], 30.0, d), s) for d, s in ((250.0, 0.0), (400.0, 0.01))]
    audit.check((0, 1), [hop], good)
    assert problems == []
    assert audit.figures()["criterion_2_region"]["1"]["points"] == 2
    bad = [(30.0, 250.0, 0.5, 0.2), (30.0, 400.0, 0.4, 0.1)]
    audit.check((0, 1), [hop], bad)
    text = " ".join(problems)
    assert "reference" in text and "criterion 2" in text and "decreases" in text


def test_ordering_gates_wait_for_enough_tasks():
    problems = checks.Problems()
    wins = {"individual": 10, "heuristic": 9, "distributed": 8, "spread": 0, "maxrate": 8}
    assert checks.check_ordering(wins, 10, problems) == []
    applied = checks.check_ordering(wins, 1000, problems)
    assert len(applied) == len(checks.ORDERING_GATES)
    assert problems.total == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
