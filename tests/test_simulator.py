import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import weakref
from math import inf
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np
import pytest

import oppload as ol
from oppload import distributed, simulator
from oppload.contacts import _sample_columns
from oppload.distributed import NodeState
from oppload.errors import (
    ComplexityError,
    ConfigError,
    EstimationError,
    PlanningError,
    ProtocolError,
)
from oppload.netgraph import Network, edge_key

from conftest import TWO_PATH_DEADLINE, TWO_PATH_SIZE, criterion_7_network


def params(lam=0.1, alpha=3.0, beta=5.0, rate=100.0):
    return ol.PairContactParams(contact_rate=lam, alpha=alpha, beta=beta, rate=rate)


def reference_monte_carlo(path, data_size, deadline, runs, seed):
    """The Monte Carlo oracle answering one deadline from a fresh draw, as
    it did before one draw answered every deadline."""
    if deadline <= 0:
        return 0.0
    return float(np.mean(reference_completion_times(path, data_size, runs, seed) <= deadline))


def reference_completion_times(path, data_size, runs, seed):
    """The runs' completion times, drawn as that oracle drew them."""
    rng = np.random.default_rng(seed)
    ready = np.zeros(runs)
    for hop in path.hops:
        contacts = math.ceil(data_size / hop.beta - 1e-9)
        gaps = rng.exponential(1.0 / hop.contact_rate, size=(runs, contacts))
        starts = ready[:, None] + np.cumsum(gaps, axis=1)
        durations = (rng.pareto(hop.alpha, size=(runs, contacts)) + 1.0) * (
            hop.beta / hop.rate
        )
        amounts = durations * hop.rate
        cumulative = np.cumsum(amounts, axis=1)
        done = np.argmax(cumulative >= data_size - 1e-12, axis=1)
        rows = np.arange(runs)
        carried_before = np.where(done > 0, cumulative[rows, np.maximum(done - 1, 0)], 0.0)
        needed = data_size - carried_before
        ready = starts[rows, done] + needed / hop.rate
    return ready


class TestMonteCarloDelivery:
    def test_first_contact_in_time(self):
        # with an effectively infinite data rate the run reduces to "does
        # the first contact happen in time"
        hop = params(lam=0.1, alpha=2.0, beta=5.0, rate=1e9)
        (got,) = ol.run_monte_carlo_delivery(ol.PathSpec((hop,)), 4.0, [10.0], 20_000, seed=1)
        assert got == pytest.approx(1 - math.exp(-1), abs=0.02)

    def test_zero_deadline(self):
        hop = params()
        assert ol.run_monte_carlo_delivery(ol.PathSpec((hop,)), 4.0, [0.0], 100, seed=2) == [0.0]

    @pytest.mark.parametrize("size, deadline", [(4.0, math.nan), (math.inf, 10.0), (math.nan, 10.0)])
    def test_nan_deadline_and_non_finite_size_refused(self, size, deadline):
        path = ol.PathSpec((params(),))
        with pytest.raises(ValueError):
            ol.run_monte_carlo_delivery(path, size, [deadline], 100, seed=2)

    def test_nan_among_deadlines_refused(self):
        path = ol.PathSpec((params(),))
        with pytest.raises(ValueError, match="NaN"):
            ol.run_monte_carlo_delivery(path, 4.0, [10.0, 0.0, math.nan], 100, seed=2)

    def test_deterministic(self):
        path = ol.PathSpec((params(lam=0.05, rate=1.0), params(lam=0.08, rate=1.0)))
        a = ol.run_monte_carlo_delivery(path, 8.0, [120.0], 5000, seed=9)
        b = ol.run_monte_carlo_delivery(path, 8.0, [120.0], 5000, seed=9)
        assert a == b

    @pytest.mark.parametrize(
        "hops, size",
        [
            ((params(lam=0.05, alpha=2.0, beta=5.0, rate=1.0),), 12.0),
            ((params(lam=0.05, alpha=2.0, beta=5.0, rate=1.0),), 5.0),
            (
                (
                    params(lam=0.1, alpha=8.0, beta=2.5, rate=1.7),
                    params(lam=0.01, alpha=3.0, beta=2.0, rate=1.0),
                ),
                7.3,
            ),
            (
                (
                    params(lam=0.08, alpha=6.0, beta=2.0, rate=3.0),
                    params(lam=0.05, alpha=9.0, beta=3.0, rate=0.7),
                    params(lam=0.02, alpha=3.5, beta=2.5, rate=1.3),
                ),
                20.0,
            ),
        ],
    )
    def test_one_draw_matches_a_draw_per_deadline(self, hops, size):
        # unsorted and repeated deadlines, and deadlines <= 0, each read
        # bit for bit what a fresh draw for that deadline alone reads
        path = ol.PathSpec(hops)
        deadlines = [400.0, -inf, 50.0, 0.0, 1000.0, 25.0, 50.0, 150.0, -3.0, 600.0, 3000.0, inf]
        got = ol.run_monte_carlo_delivery(path, size, deadlines, 3000, seed=21)
        want = [reference_monte_carlo(path, size, d, 3000, 21) for d in deadlines]
        assert got == want
        assert all(type(value) is float for value in got)
        # a deadline at each run's completion time and one just below it:
        # the answers move if any run's time moves by one ulp either way
        ready = reference_completion_times(path, size, 3000, 21)
        edges = np.concatenate([ready, np.nextafter(ready, -inf)]).tolist()
        got = ol.run_monte_carlo_delivery(path, size, edges, 3000, seed=21)
        assert got == [float(np.mean(ready <= d)) for d in edges]

    def test_no_positive_deadline_draws_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew samples for no positive deadline")

        monkeypatch.setattr(simulator.np.random, "default_rng", refuse)
        path = ol.PathSpec((params(),))
        assert ol.run_monte_carlo_delivery(path, 4.0, [0.0, -1.0, -inf], 100, seed=2) == [0.0] * 3
        assert ol.run_monte_carlo_delivery(path, 4.0, [], 100, seed=2) == []

    def test_agrees_with_estimator(self):
        # Monte Carlo noise at 20k runs is ~3 binomial standard errors
        # (~0.01); the analytic side adds its own approximation error, so
        # the bound is the acceptance tolerance for one-hop paths
        rng = np.random.default_rng(55)
        runs = 20_000
        for _ in range(5):
            hop = ol.PairContactParams(
                contact_rate=float(rng.uniform(0.002, 0.01)),
                alpha=float(rng.uniform(3.0, 4.0)),
                beta=float(rng.uniform(2.0, 3.0)),
                rate=1.0,
            )
            size = float(rng.uniform(5.0, 20.0))
            deadline = float(rng.uniform(250.0, 400.0))
            estimated = ol.delivery_prob_onehop(hop, ol.DeliveryQuery(size, deadline))
            (simulated,) = ol.run_monte_carlo_delivery(
                ol.PathSpec((hop,)), size, [deadline], runs, seed=int(rng.integers(1 << 30))
            )
            se = math.sqrt(max(estimated * (1 - estimated), 1e-4) / runs)
            assert abs(estimated - simulated) <= max(3 * se, 0.05)


def hot_link_network():
    return Network(
        node_count=2,
        infrastructure_id=1,
        edges={edge_key(0, 1): params(lam=2.0, alpha=3.0, beta=100.0, rate=100.0)},
    )


def small_network(seed=21):
    return ol.generate_synthetic(
        ol.SyntheticConfig(
            n=12,
            avg_degree=4,
            max_degree=6,
            node_alpha_range=(6.0, 10.0),
            node_beta_range=(2.0, 3.0),
            infra_alpha_range=(3.0, 4.0),
            infra_beta_range=(2.0, 3.0),
            infra_lambda_range=(0.005, 0.05),
            rate=1.0,
            seed=seed,
        )
    )


def make_tasks(network, count, size, deadline, seed=3):
    rng = np.random.default_rng(seed)
    mobile = network.mobile_nodes()
    return [
        ol.TransmissionTask(
            task_id=i, source=int(mobile[rng.integers(len(mobile))]), size=size, deadline=deadline
        )
        for i in range(count)
    ]


def pcg64_events(sampler, key):
    """Reference for ``_ContactSampler.events`` on the stream the sampler
    drew before its Philox key: edge ``(a, b)`` from the PCG64 generator that
    ``SeedSequence((seed, task_id, a, b))`` seeds."""
    a, b = key
    contacts = ol.sample_contact_process(
        sampler._network.edges[key],
        sampler._horizon,
        np.random.SeedSequence((sampler._seed, sampler._task_id, a, b)),
    )
    return simulator._EdgeContacts([s for s, _ in contacts], [d for _, d in contacts])


@pytest.fixture
def pcg64_stream(monkeypatch):
    """Replays on :func:`pcg64_events`, so that values recorded on that
    stream keep pinning the strategy rules alone."""
    monkeypatch.setattr(simulator._ContactSampler, "events", pcg64_events)


class TestTransmissionTask:
    @pytest.mark.parametrize("field", ["size", "deadline", "release"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, field, value):
        fields = dict(task_id=0, source=0, size=10.0, deadline=100.0, release=0.0)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            ol.TransmissionTask(**fields)

    @pytest.mark.parametrize("field", ["size", "deadline"])
    def test_non_positive_size_and_deadline_are_rejected(self, field):
        fields = dict(task_id=0, source=0, size=10.0, deadline=100.0)
        fields[field] = 0.0
        with pytest.raises(ValueError):
            ol.TransmissionTask(**fields)

    def test_negative_release_is_rejected(self):
        with pytest.raises(ValueError, match="release"):
            ol.TransmissionTask(task_id=0, source=0, size=10.0, deadline=100.0, release=-1.0)

    def test_zero_release_is_accepted(self):
        assert ol.TransmissionTask(task_id=0, source=0, size=1.0, deadline=1.0).release == 0.0

    def test_negative_task_id_is_rejected(self):
        # a task's contacts are seeded from its id, which must be >= 0
        with pytest.raises(ValueError, match="task_id must be a non-negative integer, got -3"):
            ol.TransmissionTask(task_id=-3, source=0, size=10.0, deadline=100.0)

    @pytest.mark.parametrize("task_id", [1.5, 2.0, "3"])
    def test_non_integer_task_id_is_rejected(self, task_id):
        # the id seeds the task's contacts, which take integers only
        with pytest.raises(ValueError, match="task_id must be a non-negative integer"):
            ol.TransmissionTask(task_id=task_id, source=0, size=10.0, deadline=100.0)

    def test_numpy_integer_task_id_is_accepted(self):
        task = ol.TransmissionTask(task_id=np.int64(7), source=0, size=10.0, deadline=100.0)
        assert task.task_id == 7


class TestSimulateStrategy:
    def test_a_generator_of_tasks_runs_like_the_list(self):
        net = small_network()
        tasks = make_tasks(net, 3, size=20.0, deadline=400.0)
        got = ol.simulate_strategy(net, (task for task in tasks), "distributed", seed=5)
        assert got == ol.simulate_strategy(net, tasks, "distributed", seed=5)
        assert got.total == 3

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ol.simulate_strategy(hot_link_network(), [], "flooding", seed=1)

    @pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.0, 2.5, "3", None])
    def test_malformed_seed_is_rejected(self, seed):
        tasks = [ol.TransmissionTask(task_id=0, source=0, size=10.0, deadline=200.0)]
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            ol.simulate_strategy(hot_link_network(), tasks, "individual", seed=seed)

    @pytest.mark.parametrize(
        "seed, same", [(True, 1), (np.int64(7), 7), (np.uint64(2**64 - 1), 2**64 - 1)]
    )
    def test_bool_and_numpy_integer_seeds_are_accepted(self, seed, same):
        net = small_network()
        tasks = make_tasks(net, 3, size=20.0, deadline=400.0)
        got = ol.simulate_strategy(net, tasks, "spread", seed=seed)
        assert got == ol.simulate_strategy(net, tasks, "spread", seed=same)

    @pytest.mark.parametrize("strategy", ol.STRATEGIES)
    @pytest.mark.parametrize("source", [99, -1, "infrastructure"])
    def test_source_must_be_a_mobile_node(self, strategy, source):
        net = small_network()
        if source == "infrastructure":
            source = net.infrastructure_id
        message = f"task 7: source {source} is not a mobile node"
        if source == -1:  # not a node id at all: the task itself refuses it
            message = "source must be a non-negative integer, got -1"
        log: list[dict] = []
        hooks = {"event_log": log} if strategy == "distributed" else {}
        with pytest.raises(ValueError, match=message):
            tasks = [
                ol.TransmissionTask(task_id=0, source=0, size=10.0, deadline=200.0),
                ol.TransmissionTask(task_id=7, source=source, size=10.0, deadline=200.0),
            ]
            ol.simulate_strategy(net, tasks, strategy, seed=1, **hooks)
        assert log == []  # refused before the first task ran

    def test_hot_link_makes_every_strategy_succeed(self):
        net = hot_link_network()
        tasks = [
            ol.TransmissionTask(task_id=i, source=0, size=20.0, deadline=50.0)
            for i in range(40)
        ]
        for strategy in ol.STRATEGIES:
            result = ol.simulate_strategy(net, tasks, strategy, seed=5)
            assert result.successful >= 0.95 * result.total, strategy

    def test_deterministic_results(self):
        net = small_network()
        tasks = make_tasks(net, 30, size=10.0, deadline=300.0)
        for strategy in ol.STRATEGIES:
            a = ol.simulate_strategy(net, tasks, strategy, seed=17)
            b = ol.simulate_strategy(net, tasks, strategy, seed=17)
            assert a == b, strategy

    @pytest.mark.parametrize("strategy", ol.STRATEGIES)
    def test_one_call_over_the_tasks_equals_a_call_per_task(self, strategy):
        # nothing one task leaves behind reaches the next: a provenance set
        # shared across tasks, say, would block later hand-overs
        net = small_network()
        tasks = make_tasks(net, 30, size=10.0, deadline=300.0)
        together = ol.simulate_strategy(net, tasks, strategy, seed=17).outcomes
        alone = [ol.simulate_strategy(net, [task], strategy, seed=17).outcomes for task in tasks]
        assert together == tuple(outcome for outcomes in alone for outcome in outcomes)

    def test_individual_never_marks_offloaded(self):
        net = small_network()
        tasks = make_tasks(net, 20, size=10.0, deadline=300.0)
        result = ol.simulate_strategy(net, tasks, "individual", seed=2)
        assert result.offloaded == 0

    def test_counts_are_consistent(self):
        net = small_network()
        tasks = make_tasks(net, 25, size=15.0, deadline=250.0)
        for strategy in ol.STRATEGIES:
            result = ol.simulate_strategy(net, tasks, strategy, seed=11)
            assert result.total == len(tasks)
            assert result.successful <= result.total
            assert result.offloaded <= result.total
            assert len(result.outcomes) == len(tasks)

    def test_completion_times_respect_deadline(self):
        net = small_network()
        tasks = make_tasks(net, 30, size=10.0, deadline=200.0)
        for strategy in ol.STRATEGIES:
            result = ol.simulate_strategy(net, tasks, strategy, seed=23)
            for outcome in result.outcomes:
                if outcome.success:
                    task = tasks[outcome.task_id]
                    assert outcome.completion_time is not None
                    assert outcome.completion_time <= task.release + task.deadline + 1e-9

    def test_task_without_any_route_fails_alone(self):
        # node 1 has no edge at all, so its heuristic plan raises PlanningError
        net = Network(
            node_count=3,
            infrastructure_id=2,
            edges={edge_key(0, 2): params(lam=2.0, alpha=3.0, beta=100.0, rate=100.0)},
        )
        with pytest.raises(PlanningError):
            ol.plan_offload(net, 1, 10.0, 50.0)
        tasks = [
            ol.TransmissionTask(task_id=0, source=1, size=10.0, deadline=50.0),
            ol.TransmissionTask(task_id=1, source=0, size=10.0, deadline=50.0),
        ]
        for strategy in ol.STRATEGIES:
            lost, sent = ol.simulate_strategy(net, tasks, strategy, seed=5).outcomes
            assert (lost.offloaded, lost.success, lost.completion_time) == (False, False, None)
            assert sent.success, strategy

    def test_task_over_the_tuple_cap_fails_alone(self):
        # source 47's size-120 plan at deadline 3000 reaches a route whose
        # tuple space exceeds the estimator's cap
        net = criterion_7_network()
        tasks = [
            ol.TransmissionTask(task_id=0, source=47, size=120.0, deadline=3000.0),
            ol.TransmissionTask(task_id=1, source=5, size=60.0, deadline=3000.0),
        ]
        over, planned = ol.simulate_strategy(net, tasks, "heuristic", seed=1).outcomes
        assert (over.offloaded, over.success, over.completion_time) == (False, False, None)
        assert planned.offloaded and planned.success

    @pytest.mark.usefixtures("pcg64_stream")
    def test_task_over_the_contact_cap_fails_alone(self):
        # at deadline 6e6 a strong mobile edge of source 3 expects more than
        # MAX_EXPECTED_CONTACTS contacts, so only the replays fail the task:
        # they check every edge of the source, which they walk at the start,
        # and maxrate checks this one without walking it, as no meeting on it
        # can move data; the direct edge stays under the cap.
        # The completion time 108.4 was recorded on the PCG64 stream.
        net = criterion_7_network()
        tasks = [
            ol.TransmissionTask(task_id=0, source=3, size=10.0, deadline=400.0),
            ol.TransmissionTask(task_id=1, source=3, size=10.0, deadline=6e6),
        ]
        for strategy in ol.STRATEGIES:
            first, long = ol.simulate_strategy(net, tasks, strategy, seed=1).outcomes
            (alone,) = ol.simulate_strategy(net, tasks[:1], strategy, seed=1).outcomes
            assert first == alone, strategy
            outcome = (long.offloaded, long.success, long.completion_time)
            if strategy in ("individual", "heuristic"):
                assert outcome == (False, True, pytest.approx(108.4, abs=0.1)), strategy
            else:
                assert outcome == (False, False, None), strategy

    @pytest.mark.parametrize("contact_rate, over", [(2e4, True), (0.05, False)])
    def test_a_spread_carrier_below_the_floor_fails_on_an_edge_over_the_contact_cap(
        self, monkeypatch, contact_rate, over
    ):
        # source 0 hands 1 of its 16 to node 1, whose half is then below the
        # floor of 2, so no meeting on (1, 2) can move data; still, at
        # deadline 100 and contact rate 2e4 that edge expects more than
        # MAX_EXPECTED_CONTACTS contacts, and the task fails alone, as it
        # does when node 1's edges are sampled on its first holding data
        edges = {
            (0, 1): uniform_params(), (0, 3): uniform_params(), (1, 3): uniform_params(),
            (1, 2): uniform_params(contact_rate),
        }
        net = Network(node_count=4, infrastructure_id=3, edges=edges)
        contacts = {(0, 1): [(1.0, 1.0)], (0, 3): [(50.0, 100.0)], (1, 3): [(60.0, 100.0)]}
        asked = []

        def capped_events(sampler, key):
            # the real sampler's cap, then the hand-built contacts
            if sampler._network.edges[key].contact_rate * sampler._horizon > 1_000_000:
                raise ComplexityError("above 1000000")
            asked.append(key)
            return StubSampler(contacts).events(key)

        monkeypatch.setattr(simulator._ContactSampler, "events", capped_events)
        task = ol.TransmissionTask(task_id=0, source=0, size=16.0, deadline=100.0)
        (outcome,) = ol.simulate_strategy(net, [task], "spread", seed=1).outcomes
        got = (outcome.offloaded, outcome.success, outcome.completion_time)
        assert got == ((False, False, None) if over else (True, True, 61.0))
        assert (1, 2) not in asked

    @pytest.mark.parametrize(
        "rates, message",
        [
            # the planner's first label argument, rate 2 times the deadline
            ({(0, 1): 2.0, (0, 2): 0.5, (1, 2): 0.5}, "x must be finite and >= 0, got inf"),
            # the direct edge's price, and distributed's availability ranking
            ({(0, 2): 2.0}, "gamma argument overflows at deadline 1e+308"),
        ],
        ids=["planner-label", "direct-price"],
    )
    def test_task_whose_estimator_gamma_overflows_fails_alone(self, rates, message):
        # at deadline 1e308 a gamma argument overflows; the replays cannot
        # sample that task either, and the task at deadline 100 is run as if
        # alone
        net = Network(
            node_count=3,
            infrastructure_id=2,
            edges={
                edge_key(a, b): params(lam=lam, alpha=3.0, beta=3.0, rate=1.0)
                for (a, b), lam in rates.items()
            },
        )
        with pytest.raises(EstimationError) as caught:
            ol.plan_offload(net, 0, 5.0, 1e308)
        assert str(caught.value) == message
        tasks = [
            ol.TransmissionTask(task_id=0, source=0, size=5.0, deadline=1e308),
            ol.TransmissionTask(task_id=1, source=0, size=5.0, deadline=100.0),
        ]
        for strategy in ol.STRATEGIES:
            lost, kept = ol.simulate_strategy(net, tasks, strategy, seed=1).outcomes
            assert (lost.offloaded, lost.success, lost.completion_time) == (False, False, None)
            assert (kept,) == ol.simulate_strategy(net, tasks[1:], strategy, seed=1).outcomes
            assert kept.success, strategy

    def test_task_whose_contact_count_overflows_fails_alone(self):
        # 1e308 / beta 0.1 overflows, so the planner's estimator cannot count
        # the contacts of the only edge; the task at size 5 is run as if alone
        net = Network(
            node_count=2,
            infrastructure_id=1,
            edges={edge_key(0, 1): params(lam=0.5, alpha=3.0, beta=0.1, rate=1.0)},
        )
        with pytest.raises(EstimationError) as caught:
            ol.plan_offload(net, 0, 1e308, 1.7e308)
        assert str(caught.value) == "data_size / beta overflows at size 1e+308, beta 0.1"
        tasks = [
            ol.TransmissionTask(task_id=0, source=0, size=1e308, deadline=1.7e308),
            ol.TransmissionTask(task_id=1, source=0, size=5.0, deadline=100.0),
        ]
        for strategy in ol.STRATEGIES:
            lost, kept = ol.simulate_strategy(net, tasks, strategy, seed=1).outcomes
            assert (lost.offloaded, lost.success, lost.completion_time) == (False, False, None)
            assert (kept,) == ol.simulate_strategy(net, tasks[1:], strategy, seed=1).outcomes
            assert kept.success, strategy

    def test_distributed_task_whose_route_gamma_overflows_fails_alone(self):
        # M**2 of route (0, 1, 3), over two hops at rate 1e-154, overflows,
        # so criterion assignment cannot rank it; every route of source 2
        # goes over a hop at that rate too.  Each task fails alone, and the
        # plans, which take the direct edges, deliver both
        rates = {(0, 1): 1e-154, (1, 2): 1e-154, (1, 3): 1e-154, (2, 3): 0.5, (0, 3): 0.5}
        net = Network(
            node_count=4,
            infrastructure_id=3,
            edges={
                edge_key(a, b): params(lam=lam, alpha=3.0, beta=3.0, rate=1.0)
                for (a, b), lam in rates.items()
            },
        )
        state = NodeState(0, 3, 0, simulator._Context(net).routes[0])
        with pytest.raises(EstimationError, match=r"got \(nan, 0\.0\)"):
            ol.criterion_assignment(state, 2.0, 100.0)
        tasks = [
            ol.TransmissionTask(task_id=0, source=0, size=2.0, deadline=100.0),
            ol.TransmissionTask(task_id=1, source=2, size=2.0, deadline=100.0),
        ]
        for task, outcome in zip(
            tasks, ol.simulate_strategy(net, tasks, "distributed", seed=1).outcomes
        ):
            assert (outcome.offloaded, outcome.success, outcome.completion_time) == (
                False, False, None
            )
            assert (outcome,) == ol.simulate_strategy(net, [task], "distributed", seed=1).outcomes
        for strategy in ("individual", "heuristic"):
            result = ol.simulate_strategy(net, tasks, strategy, seed=1)
            assert result.successful == 2, strategy

    def test_protocol_error_in_a_replay_propagates(self, monkeypatch):
        # only a task the program cannot run fails alone; a protocol fault
        # stops the call
        def faulty(*args):
            raise ProtocolError("injected protocol fault")

        monkeypatch.setattr(simulator, "on_contact", faulty)
        task = ol.TransmissionTask(task_id=0, source=3, size=10.0, deadline=400.0)
        with pytest.raises(ProtocolError, match="injected protocol fault"):
            ol.simulate_strategy(criterion_7_network(), [task], "distributed", seed=1)


@pytest.mark.parametrize("strategy", ol.STRATEGIES)
def test_each_edge_is_sampled_at_most_once_per_task(monkeypatch, strategy):
    asked: dict[int, list] = {}  # per task, the edges its sampler was asked for
    events = simulator._ContactSampler.events

    def recording(sampler, key):
        asked.setdefault(sampler._task_id, []).append(key)
        return events(sampler, key)

    monkeypatch.setattr(simulator._ContactSampler, "events", recording)
    net = criterion_7_network()
    tasks = make_tasks(net, 6, size=20.0, deadline=400.0) + [
        ol.TransmissionTask(task_id=6 + i, source=source, size=60.0, deadline=3000.0)
        for i, source in enumerate((5, 15))
    ]
    ol.simulate_strategy(net, tasks, strategy, seed=3)
    assert sum(map(len, asked.values())) >= len(tasks)
    for keys in asked.values():
        assert len(keys) == len(set(keys)), strategy


@pytest.mark.parametrize("deadline", [400.0, 3000.0])
@pytest.mark.parametrize("task_id", [0, 499, 2**32 + 1])
@pytest.mark.parametrize("seed", [0, 5, 2**32, 2**70, np.int64(7)])
def test_sampler_draws_each_edge_from_its_own_philox_counter(seed, task_id, deadline):
    # every edge's contacts are those of Philox under the task's key from
    # counter (0, 0, a, b), whichever edge the task asks for first
    net = criterion_7_network()
    keys = sorted(net.edges)
    task_key = np.random.SeedSequence((seed, task_id)).generate_state(2, np.uint64)
    forward = simulator._ContactSampler(net, seed, task_id, deadline)
    backward = simulator._ContactSampler(net, seed, task_id, deadline)
    got = {key: forward.events(key) for key in keys}
    got_backward = {key: backward.events(key) for key in reversed(keys)}
    for (a, b), contacts in got.items():
        rng = np.random.Generator(np.random.Philox(key=task_key, counter=(0, 0, a, b)))
        expected = _sample_columns(net.edges[a, b], deadline, rng)
        assert (contacts.starts, contacts.durations) == expected
        reverse = got_backward[a, b]
        assert (reverse.starts, reverse.durations) == expected


def test_sampler_refuses_an_edge_over_the_contact_cap():
    # at horizon 6e6 source 3's strong mobile edge expects about 1.18e6
    # contacts; its direct edge to infrastructure expects about 68k
    net = criterion_7_network()
    sampler = simulator._ContactSampler(net, 1, 1, 6e6)
    with pytest.raises(ComplexityError, match="above 1000000"):
        sampler.events(edge_key(3, 30))
    assert len(sampler.events(edge_key(3, 50))) > 0


# sha256 of tasks 0-2's contacts on every criterion-7 edge at seed 17 and
# horizon 400, in sorted edge order: any change to it is a change to the
# random stream, which CHANGES.md must announce.
PINNED_STREAM = "872ba2b139b5fb7c57a2e97d5d4a7dcc6a32dfcac8a740fc23db0b4630d95e4e"


def test_sampler_stream_is_pinned():
    net = criterion_7_network()
    digest = hashlib.sha256()
    for task_id in range(3):
        sampler = simulator._ContactSampler(net, 17, task_id, 400.0)
        for key in sorted(net.edges):
            contacts = sampler.events(key)
            digest.update(repr((key, contacts.starts, contacts.durations)).encode())
    assert digest.hexdigest() == PINNED_STREAM


# Outcomes of one small replay, recorded on the PCG64 stream (see
# pcg64_events) before the strategy replays were merged into one event
# loop.  The tests replay on that stream, so any change to them is a change
# to a strategy's rule.
PINNED_OUTCOMES = {
    "individual": [
        (False, True, "47.737194892282886"),
        (False, True, "56.93536239079592"),
        (False, False, "None"),
        (False, False, "None"),
        (False, True, "63.6546311973964"),
        (False, True, "49.50708333927517"),
        (False, True, "30.189344716812986"),
        (False, False, "None"),
    ],
    "heuristic": [
        (False, True, "47.737194892282886"),
        (False, True, "56.93536239079592"),
        (True, True, "47.85768306549317"),
        (True, True, "63.30189735089068"),
        (True, True, "72.19282862279589"),
        (False, True, "49.50708333927517"),
        (False, True, "30.189344716812986"),
        (True, True, "77.41678901864846"),
    ],
    "distributed": [
        (True, True, "40.38321309573349"),
        (True, True, "51.11060120204872"),
        (True, True, "126.46160121557986"),
        (True, False, "None"),
        (True, True, "55.88605874370648"),
        (True, True, "58.19293732785014"),
        (True, True, "25.997954965474136"),
        (True, False, "None"),
    ],
    # re-recorded when spread stopped splitting below an eighth of the item
    "spread": [
        (True, True, "38.202866756194055"),
        (True, True, "44.92415353664949"),
        (True, True, "65.61954634279525"),
        (True, False, "None"),
        (True, True, "62.373764007518886"),
        (True, True, "76.8523274116181"),
        (True, False, "None"),
        (True, True, "78.9869747586787"),
    ],
    "maxrate": [
        (True, True, "32.41473200446985"),
        (True, True, "46.661419950423195"),
        (True, True, "47.19874737793639"),
        (True, True, "44.1055107740115"),
        (True, True, "37.02234259950888"),
        (True, True, "106.17091425991892"),
        (True, True, "44.57128464631816"),
        (True, True, "32.23158618727842"),
    ],
}
PINNED_EVENT_LOG = (415, "fd3c54c07c4b7cd8f8982d9d1cad76a17c90fd64f4393b230854f7fd6fd80200")
# Digests of every node's carried amount and assignment after each
# distributed event, recorded before real-time adjustment ranked the
# segments once.
PINNED_STATES = "c0400b8ebd22debaf5306d39cc3f6a53e6af3e15a99e570ccca573da32f28d38"

# Criterion 7's network at deadline 3000, sizes 60 and 120, recorded on the
# PCG64 stream before the replay walked only the edges touching data.
PINNED_LONG_OUTCOMES = {
    "individual": [
        (False, False, "None"),
        (False, False, "None"),
        (False, True, "729.2360100688546"),
        (False, True, "2931.600110454356"),
    ],
    "heuristic": [
        (True, True, "342.2718383061829"),
        (True, True, "1266.6541232955974"),
        (False, True, "729.2360100688546"),
        (True, True, "1518.4140384140767"),
    ],
    "distributed": [
        (True, True, "2303.305607482521"),
        (True, False, "None"),
        (True, True, "406.3361775168083"),
        (True, True, "2019.5237227050966"),
    ],
    # re-recorded when spread stopped splitting below an eighth of the item
    "spread": [
        (True, True, "1340.2032479008053"),
        (True, True, "2659.41290131968"),
        (True, True, "698.0999455460487"),
        (True, False, "None"),
    ],
    "maxrate": [
        (True, True, "1074.742434620899"),
        (True, True, "1633.3178587548528"),
        (True, True, "426.15371186084695"),
        (True, True, "1015.0785936235296"),
    ],
}
PINNED_LONG_EVENT_LOG = (
    13126,
    "2dbffb4b3a6044eab210631e3b16be128f2f569844d403e7ab25fbc14da70969",
)
PINNED_LONG_STATES = "eec7caea700be1d1813e755678c178c96ad8a347e82b37d027e67b7fc9837425"
# The protocol's delivery_probs calls and queries on those tasks: a change
# that loses one of the no-move rule's skips prices more.
PINNED_LONG_PRICING = (1557, 8810)


def long_deadline_tasks():
    """The four tasks of criterion 7 at deadline 3000 that the long pins replay."""
    return [
        ol.TransmissionTask(task_id=i, source=source, size=size, deadline=3000.0)
        for i, (source, size) in enumerate([(5, 60.0), (5, 120.0), (15, 60.0), (15, 120.0)])
    ]


def replay_all(net, tasks, seed):
    """Every strategy's (offloaded, success, repr(completion)), the
    distributed event log's row count and digest, and the digest of the
    node states the distributed monitor sees (each loaded node's carried
    amount and assignment, in order, after every event)."""
    log: list[dict] = []
    states_digest = hashlib.sha256()

    def monitor(row, states, delivered):
        loaded = [
            (node, s.carried, list(s.assignment.items()))
            for node, s in sorted(states.items())
            if s.carried or s.assignment
        ]
        states_digest.update(repr((delivered, loaded)).encode())

    outcomes = {}
    for strategy in ol.STRATEGIES:
        hooks = {"event_log": log, "monitor": monitor} if strategy == "distributed" else {}
        result = ol.simulate_strategy(net, tasks, strategy, seed=seed, **hooks)
        outcomes[strategy] = [
            (o.offloaded, o.success, repr(o.completion_time)) for o in result.outcomes
        ]
    log_digest = (len(log), hashlib.sha256(repr(log).encode()).hexdigest())
    return outcomes, log_digest, states_digest.hexdigest()


@pytest.mark.usefixtures("pcg64_stream")
class TestPinnedReplay:
    def test_outcomes_and_event_log_are_unchanged(self):
        net = ol.generate_synthetic(
            ol.SyntheticConfig(
                n=12,
                avg_degree=4,
                max_degree=6,
                node_alpha_range=(6.0, 10.0),
                node_beta_range=(2.0, 3.0),
                infra_alpha_range=(3.0, 4.0),
                infra_beta_range=(2.0, 3.0),
                infra_lambda_range=(0.02, 0.1),
                rate=1.0,
                seed=21,
            )
        )
        tasks = make_tasks(net, 8, size=16.0, deadline=150.0)
        outcomes, log, states = replay_all(net, tasks, seed=17)
        assert outcomes == PINNED_OUTCOMES
        assert log == PINNED_EVENT_LOG
        assert states == PINNED_STATES

    def test_long_deadline_outcomes_and_event_log_are_unchanged(self):
        outcomes, log, states = replay_all(criterion_7_network(), long_deadline_tasks(), seed=17)
        assert outcomes == PINNED_LONG_OUTCOMES
        assert log == PINNED_LONG_EVENT_LOG
        assert states == PINNED_LONG_STATES

    def test_long_deadline_pricing_work_is_unchanged(self, monkeypatch):
        delivery_probs = distributed.delivery_probs
        priced = [0, 0]

        def counted(queries, deadline):
            priced[0] += 1
            priced[1] += len(queries)
            return delivery_probs(queries, deadline)

        monkeypatch.setattr(distributed, "delivery_probs", counted)
        net = criterion_7_network()
        ol.simulate_strategy(net, long_deadline_tasks(), "distributed", seed=17)
        assert tuple(priced) == PINNED_LONG_PRICING


def test_network_is_derived_once_per_call(monkeypatch):
    # the distributed routes are built once per simulate_strategy call, not
    # once per task: 504 routes over the 49 mobile nodes of criterion 7
    route_path = simulator.route_path
    calls = []

    def counted(network, route):
        calls.append(route)
        return route_path(network, route)

    monkeypatch.setattr(simulator, "route_path", counted)
    net = criterion_7_network()
    ol.simulate_strategy(net, make_tasks(net, 20, size=10.0, deadline=200.0), "distributed", seed=7)
    assert len(calls) == 504


# The replays and the path oracle draw one contact model from different
# streams, so each point compares two independent estimates.  A miss of 4
# combined binomial standard errors has probability below 1e-4 per point.
AGREEMENT_SE = 4.0


@pytest.mark.parametrize(
    "route, size, deadline",
    [
        ((33, 50), 10.0, 400.0),
        ((40, 50), 20.0, 600.0),
        ((5, 50), 10.0, 300.0),
        ((33, 6, 50), 10.0, 400.0),
        ((33, 6, 50), 10.0, 600.0),
    ],
)
def test_the_replays_agree_with_the_path_oracle_on_criterion_7_routes(route, size, deadline):
    # one hop through the individual strategy's replay, two hops through the
    # plan loop on the fixed route, each over 4,000 tasks' contacts at seed
    # 3, against 20,000 oracle runs at seed 5; the estimator is not asked
    net = criterion_7_network()
    tasks = [
        ol.TransmissionTask(task_id=i, source=route[0], size=size, deadline=deadline)
        for i in range(4000)
    ]
    if len(route) == 2:
        replayed = ol.simulate_strategy(net, tasks, "individual", seed=3).successful
    else:
        replayed = sum(
            simulator._drain(
                [(route, size)],
                simulator._ContactSampler(net, 3, task.task_id, deadline),
                net,
                deadline,
            )
            is not None
            for task in tasks
        )
    runs = 20_000
    (oracle,) = ol.run_monte_carlo_delivery(
        simulator.route_path(net, route), size, [deadline], runs, seed=5
    )
    replay = replayed / len(tasks)
    se = math.sqrt(replay * (1 - replay) / len(tasks) + oracle * (1 - oracle) / runs)
    assert 0.0 < oracle < 1.0
    assert abs(replay - oracle) <= AGREEMENT_SE * se


def test_route_terms_live_for_one_task():
    # every route's memo of sized terms is empty when a task starts, and the
    # protocol's kept prices live on node states built for the task, so a
    # call's memory does not grow with its number of tasks
    net = criterion_7_network()
    held_at_start = []
    held_during = []
    earlier_states = []

    def monitor(row, states, delivered):
        specs = [spec for s in states.values() for spec in s.routes.values()]
        held = (
            sum(len(spec.memo) for spec in specs),
            sum(len(s.prices) for s in states.values()),
        )
        if row["event"] == "start":
            # the last task's node states are gone once the next one starts
            assert all(ref() is None for ref in earlier_states)
            earlier_states[:] = [weakref.ref(s) for s in states.values()]
            held_at_start.append(held)
            held_during.append((0, 0))
        held_during[-1] = tuple(map(max, held_during[-1], held))

    # short tasks, whose empty peers keep prices, then long ones whose
    # certain segments keep lower bounds too
    short = make_tasks(net, 6, size=10.0, deadline=300.0)
    long = [
        dataclasses.replace(task, task_id=task.task_id + len(short))
        for task in make_tasks(net, 4, size=60.0, deadline=3000.0)
    ]
    ol.simulate_strategy(net, short + long, "distributed", seed=7, monitor=monitor)
    assert held_at_start == [(0, 0)] * len(short + long)
    assert min(memo for memo, _ in held_during) > 0
    assert min(prices for _, prices in held_during) > 0


# Runs in a fresh interpreter, so the suite's own import of oppload is untouched.
FRESH_IMPORT_PROBE = """
import gc, sys, weakref

def replay_once():
    import oppload as ol
    from oppload import delivery, simulator
    net = ol.generate_synthetic(ol.SyntheticConfig(n=12, avg_degree=4, max_degree=6, seed=21))
    tasks = [
        ol.TransmissionTask(task_id=i, source=s, size=10.0, deadline=250.0)
        for i, s in enumerate(net.mobile_nodes()[:4])
    ]
    for strategy in ol.STRATEGIES:
        ol.simulate_strategy(net, tasks, strategy, seed=3)
    return {
        "delivery_prob_path": weakref.ref(delivery.delivery_prob_path),
        "_mean_max_ratio_cached": weakref.ref(delivery._mean_max_ratio_cached),
        "_ContactSampler": weakref.ref(simulator._ContactSampler),
    }

refs = replay_once()
for name in [n for n in sys.modules if n == "oppload" or n.startswith("oppload.")]:
    del sys.modules[name]
import oppload
gc.collect()
print(sorted(name for name, ref in refs.items() if ref() is not None))
"""


def test_a_fresh_import_frees_the_previous_one():
    # nothing the package builds at import may keep an earlier import's
    # functions, caches or classes alive once its modules are dropped
    env = dict(os.environ)
    src = str(Path(ol.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class StubSampler:
    """Hand-built contacts per edge, recording which edges were asked for."""

    def __init__(self, contacts):
        self.contacts = {key: sorted(events) for key, events in contacts.items()}
        self.asked = []

    def events(self, key):
        self.asked.append(key)
        events = self.contacts.get(key, [])
        return simulator._EdgeContacts([s for s, _ in events], [d for _, d in events])


def merged_replay(network, task, sampler, strategy):
    """The replay before it walked only edges touching data: every edge's
    contacts merged into one stream, stably sorted on start, then walked."""
    infra = network.infrastructure_id
    edges = network.edges
    deadline = task.deadline
    held = strategy.held
    merged = [
        (start, a, b, duration)
        for a, b in sorted(edges)
        for start, duration in zip(*attrgetter("starts", "durations")(sampler.events((a, b))))
    ]
    merged.sort(key=itemgetter(0))
    delivered = 0.0
    offloaded = False
    for start, a, b, duration in merged:
        usable = min(duration, deadline - start)
        if usable <= 0:
            continue
        rate = edges[(a, b)].rate
        capacity = usable * rate
        if a == infra or b == infra:
            mobile = b if a == infra else a
            amount = min(held(mobile), capacity)
            if amount > 1e-9:
                delivered += amount
                strategy.unload(mobile, amount, start, delivered)
                if delivered >= task.size - 1e-9 * task.size:
                    return offloaded, True, start + amount / rate
        elif held(a) > 1e-9 or held(b) > 1e-9:
            offloaded = strategy.meet(a, b, capacity, start) or offloaded
    return offloaded, False, None


def recorded(strategy):
    """Log every meet and unload call on ``strategy`` with its result."""
    calls = []
    meet, unload = strategy.meet, strategy.unload

    def record_meet(a, b, capacity, start):
        moved = meet(a, b, capacity, start)
        calls.append(("meet", a, b, capacity, start, moved))
        return moved

    def record_unload(node, amount, start, delivered):
        unload(node, amount, start, delivered)
        calls.append(("unload", node, amount, start, delivered))

    strategy.meet, strategy.unload = record_meet, record_unload
    return calls


def replay_both_ways(network, task, contacts):
    """Per contact-driven strategy: (outcome, calls, event log) from the walk
    and from the merged reference, plus the edges the walk sampled."""
    runs = {}
    for name in ("distributed", "spread", "maxrate"):
        pair = []
        for replay in (simulator._replay, merged_replay):
            log: list[dict] = []
            context = simulator._Context(network, event_log=log)
            try:
                if name == "distributed":
                    strategy = simulator._Distributed(context, task)
                elif name == "spread":
                    strategy = simulator._Spread(context, task)
                else:
                    strategy = simulator._MaxRate(context, task)
            except PlanningError:
                break
            calls = recorded(strategy)
            sampler = StubSampler(contacts)
            # the walk reads the context; the reference reads the network
            first = context if replay is simulator._replay else network
            pair.append((replay(first, task, sampler, strategy), calls, log, sampler.asked))
        if pair:
            runs[name] = pair
    return runs


def assert_walk_matches(name, walked, merged):
    """The walk's outcome and event log equal the merged reference's, and its
    calls are the reference's, in order, minus only meets that moved nothing
    there; distributed's calls are exactly the reference's."""
    (outcome, calls, log, _), (ref_outcome, ref_calls, ref_log, _) = walked, merged
    assert (outcome, log) == (ref_outcome, ref_log), name
    if name == "distributed":
        assert calls == ref_calls, name
        return
    kept = 0
    for call in ref_calls:
        if kept < len(calls) and calls[kept] == call:
            kept += 1
        else:
            assert call[0] == "meet" and call[-1] is False, (name, call)
    assert kept == len(calls), name


def uniform_params(lam=0.05):
    return ol.PairContactParams(contact_rate=lam, alpha=3.0, beta=2.0, rate=1.0)


class TestHeuristicRunner:
    # relays 1 and 2 each carry one half of the two-path plan; the sender's
    # contacts hand each half over at time 5
    CONTACTS = {(0, 1): [(5.0, 1.0)], (1, 3): [(20.0, 1.0)], (0, 2): [(5.0, 1.0)]}

    def run(self, network, contacts):
        task = ol.TransmissionTask(
            task_id=0, source=0, size=TWO_PATH_SIZE, deadline=TWO_PATH_DEADLINE
        )
        return simulator._run_heuristic(simulator._Context(network), task, StubSampler(contacts))

    def test_an_allocation_that_misses_the_deadline_fails_the_plan(self, two_path_network):
        # relay 2 meets infrastructure only after the deadline
        contacts = {**self.CONTACTS, (2, 3): [(TWO_PATH_DEADLINE + 50.0, 1.0)]}
        assert self.run(two_path_network, contacts) == (True, False, None)

    def test_the_last_allocation_to_arrive_completes_the_plan(self, two_path_network):
        contacts = {**self.CONTACTS, (2, 3): [(30.0, 1.0)]}
        half = TWO_PATH_SIZE / 2 / two_path_network.edge_params(2, 3).rate
        assert self.run(two_path_network, contacts) == (True, True, 30.0 + half)


class TestPlanDrain:
    """A plan's segments pushed hop by hop on hand-built contacts: mobile
    nodes 0-2 and infrastructure 3, every rate 1, so a contact of duration
    ``d`` carries ``d``."""

    EDGES = [(0, 1), (0, 2), (1, 3), (2, 3)]

    def drain(self, allocations, contacts, deadline=100.0):
        network = Network(4, 3, dict.fromkeys(self.EDGES, uniform_params()))
        sampler = StubSampler(contacts)
        return simulator._drain(allocations, sampler, network, deadline), sampler.asked

    def test_a_plan_fails_at_its_first_allocation_that_misses(self):
        # relay 1 meets infrastructure only after the deadline
        contacts = {
            (0, 1): [(1.0, 50.0)], (1, 3): [(120.0, 50.0)],
            (0, 2): [(1.0, 50.0)], (2, 3): [(10.0, 50.0)],
        }
        completion, asked = self.drain([((0, 1, 3), 4.0), ((0, 2, 3), 4.0)], contacts)
        assert completion is None
        # the later allocation's edges are never sampled
        assert asked == [(0, 1), (1, 3)]

    def test_a_hop_waits_for_the_whole_segment(self):
        # the segment of 10 reaches relay 1 at 5 + 10 = 15; on the next hop
        # the contacts at 2 and at 10 (during the first hop's contact, and
        # outlasting it) start too early, and the one at 15 carries it
        contacts = {
            (0, 1): [(5.0, 20.0)],
            (1, 3): [(2.0, 100.0), (10.0, 50.0), (15.0, 30.0)],
        }
        completion, _ = self.drain([((0, 1, 3), 10.0)], contacts)
        assert completion == 25.0

    def test_the_plan_completes_at_its_latest_arrival(self):
        # the first allocation listed arrives at 44, the second at 14
        contacts = {
            (0, 1): [(1.0, 50.0)], (1, 3): [(40.0, 50.0)],
            (0, 2): [(1.0, 50.0)], (2, 3): [(10.0, 50.0)],
        }
        completion, _ = self.drain([((0, 1, 3), 4.0), ((0, 2, 3), 4.0)], contacts)
        assert completion == 44.0


class TestWalkEquivalence:
    """The walk over the edges where a contact can change something ends as
    a walk over every contact of the task does, with the same event log and
    the same calls in the same order, but for meets that move nothing."""

    # mobile nodes 0-4, infrastructure 5; node 4 reaches only infrastructure
    KEYS = [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)]
    CONTACTS = {
        # equal starts on different edges, and a higher-ranked edge of the
        # node that just received data at that same start
        (0, 1): [(5.0, 10.0), (50.0, 10.0)],
        (0, 2): [(5.0, 10.0)],
        (1, 5): [(5.0, 100.0), (12.0, 5.0), (55.0, 0.5)],
        # two contacts of one edge at one start, reached while neither end
        # holds data, then node 3 receives data later at that start
        (1, 3): [(30.0, 10.0), (30.0, 10.0), (60.0, 10.0)],
        (2, 3): [(30.0, 10.0)],  # runs out while both ends hold data
        (1, 2): [(52.0, 10.0)],
        (3, 5): [(40.0, 0.4), (40.0, 0.4)],
        (2, 5): [(70.0, 100.0), (100.0, 5.0)],
        (0, 5): [(80.0, 100.0), (100.0, 5.0)],  # the last at the deadline
        (4, 5): [(1.0, 50.0), (50.0, 50.0)],
    }

    def network(self):
        edges = {key: uniform_params(0.02 + 0.01 * rank) for rank, key in enumerate(self.KEYS)}
        return Network(node_count=6, infrastructure_id=5, edges=edges)

    def test_hand_built_contacts(self):
        net = self.network()
        task = ol.TransmissionTask(task_id=0, source=0, size=8.0, deadline=100.0)
        runs = replay_both_ways(net, task, self.CONTACTS)
        assert set(runs) == {"distributed", "spread", "maxrate"}
        for name, (walked, merged) in runs.items():
            assert_walk_matches(name, walked, merged)
            # node 4 never holds data, so its only edge is never sampled
            assert (4, 5) not in walked[3], name
            assert len(walked[3]) == len(set(walked[3])), name

        # the cases the contacts were built for all happen under spread
        calls = runs["spread"][0][1]
        unloads = [(call[1], call[3]) for call in calls if call[0] == "unload"]
        meets = [(call[1], call[2], call[4]) for call in calls if call[0] == "meet" and call[5]]
        # node 1 delivers everything at 5, receives again at 50, delivers at 55
        assert (1, 5.0) in unloads and (1, 55.0) in unloads
        assert (0, 1, 50.0) in meets
        # both contacts of (3, 5) at 40 deliver
        assert unloads.count((3, 40.0)) == 2
        # (1, 3) at 30 came before node 3 held data; (2, 3) at 30 hands it some
        assert (2, 3, 30.0) in meets and not any(start == 30.0 for a, b, start in meets if a == 1)
        # nothing moves at the deadline
        assert all(start < 100.0 for _, start in unloads)
        # spread and maxrate skip meetings that cannot move data
        for name in ("spread", "maxrate"):
            walked, merged = runs[name]
            assert len(walked[1]) < len(merged[1]), name

    @pytest.mark.parametrize("seed", range(40))
    def test_random_contacts_on_a_coarse_grid(self, seed):
        for name, (walked, merged) in replay_both_ways(*coarse_grid_case(seed)).items():
            assert_walk_matches(name, walked, merged)

    def test_a_spread_carrier_below_the_floor_splits_again_once_refilled(self):
        # mobile nodes 0-3, infrastructure 4, every rate 1; size 16, floor 2.
        # Node 1 gets 8 from 0 at 1, hands 4 to 2 at 2 and 2 to 3 at 3, so
        # holds 2, below the floor; at 4 nodes 1 and 3 hold 2 each, and (1, 3)
        # leaves the walk.  At 6 node 0 hands it 4 more, and at 7 it splits
        # again with 3 on the edge that left.
        keys = [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
        edges = dict.fromkeys(keys, uniform_params())
        net = Network(node_count=5, infrastructure_id=4, edges=edges)
        contacts = {
            (0, 1): [(1.0, 50.0), (6.0, 50.0)],
            (1, 2): [(2.0, 50.0)],
            (1, 3): [(3.0, 50.0), (4.0, 50.0), (7.0, 50.0)],
            (3, 4): [(10.0, 50.0)], (2, 4): [(11.0, 50.0)],
            (1, 4): [(12.0, 50.0)], (0, 4): [(13.0, 50.0)],
        }
        task = ol.TransmissionTask(task_id=0, source=0, size=16.0, deadline=100.0)
        walked, merged = replay_both_ways(net, task, contacts)["spread"]
        assert_walk_matches("spread", walked, merged)
        assert walked[0] == (True, True, 17.0)
        assert ("meet", 1, 3, 50.0, 4.0, False) in merged[1]
        assert not any(call[0] == "meet" and call[4] == 4.0 for call in walked[1])
        assert ("meet", 0, 1, 50.0, 6.0, True) in walked[1]
        assert ("meet", 1, 3, 50.0, 7.0, True) in walked[1]

    def relay_case(self):
        """Mobile nodes 0-2, infrastructure 3, every rate 1: node 0's best
        relay is 1, node 1's is 2 and node 2's is 1.  Relay 1 gets 6 at 1,
        hands it all to 2 at 2, so its edge to infrastructure leaves the
        walk at 4; it gets 6 again at 5 and hands it on at 6, and the 4 it
        gets at 7 it delivers at 12.  No meeting on (0, 2) can move data,
        nor can node 2 hand back to relay 1 at 3.5."""
        edges = {
            (0, 1): uniform_params(), (0, 2): uniform_params(), (1, 2): uniform_params(),
            (1, 3): uniform_params(0.05), (2, 3): uniform_params(0.02),
        }
        net = Network(node_count=4, infrastructure_id=3, edges=edges)
        contacts = {
            (0, 1): [(1.0, 6.0), (5.0, 6.0), (7.0, 50.0)],
            (1, 2): [(2.0, 50.0), (3.5, 50.0), (6.0, 50.0)],
            (0, 2): [(3.0, 50.0)],
            (1, 3): [(4.0, 50.0), (12.0, 50.0)],
            (2, 3): [(10.0, 50.0)],
        }
        task = ol.TransmissionTask(task_id=0, source=0, size=16.0, deadline=100.0)
        return net, task, contacts

    def test_a_maxrate_relay_hands_everything_on_and_is_refilled(self):
        walked, merged = replay_both_ways(*self.relay_case())["maxrate"]
        assert_walk_matches("maxrate", walked, merged)
        assert walked[0] == (True, True, 16.0)
        hands = [(call[1], call[2], call[4]) for call in walked[1] if call[0] == "meet"]
        assert hands == [(0, 1, 1.0), (1, 2, 2.0), (0, 1, 5.0), (1, 2, 6.0), (0, 1, 7.0)]
        assert ("meet", 0, 2, 50.0, 3.0, False) in merged[1]
        assert ("meet", 1, 2, 50.0, 3.5, False) in merged[1]
        assert (0, 2) not in walked[3]
        assert ("unload", 1, 4.0, 12.0, 16.0) in walked[1]

    def test_a_node_is_walked_only_when_its_holding_grows(self, monkeypatch):
        # the never-movable edge (0, 2) is checked against the contact cap
        # each time an end is walked: node 0 at the start, and node 2 when
        # it receives at 2 and at 6; node 0, which only hands data on at 1
        # and 5, is not walked again
        net, task, contacts = self.relay_case()
        key_of = {id(params): key for key, params in net.edges.items()}
        assert len(key_of) == len(net.edges)
        checked = []

        def check(params, horizon):
            checked.append(key_of[id(params)])

        monkeypatch.setattr(simulator, "_check_contact_count", check)
        context = simulator._Context(net)
        outcome = simulator._replay(
            context, task, StubSampler(contacts), simulator._MaxRate(context, task)
        )
        assert outcome == (True, True, 16.0)
        assert checked.count((0, 2)) == 3


def test_meet_moves_only_what_movable_gives():
    # under the merged reference, which meets wherever either end holds
    # data, each meet is checked against movable(a, b) asked just before it
    seen = {name: [] for name in ("distributed", "spread", "maxrate")}
    for seed in range(40):
        network, task, contacts = coarse_grid_case(seed)
        mobile = network.mobile_nodes()
        for name, kind in (
            ("distributed", simulator._Distributed),
            ("spread", simulator._Spread),
            ("maxrate", simulator._MaxRate),
        ):
            try:
                strategy = kind(simulator._Context(network), task)
            except PlanningError:
                continue
            meet = strategy.meet

            def checked(a, b, capacity, start, meet=meet, strategy=strategy, name=name):
                move = strategy.movable(a, b)
                before = {n: strategy.held(n) for n in mobile}
                moved = meet(a, b, capacity, start)
                after = {n: strategy.held(n) for n in mobile}
                seen[name].append((bool(move), moved))
                assert move or (not moved and after == before), (seed, name)
                if name == "distributed":
                    assert move == (before[a] > 1e-9 or before[b] > 1e-9), seed
                elif moved:
                    sender, receiver, amount = move
                    amount = min(amount, capacity)
                    before[sender] -= amount
                    before[receiver] += amount
                    assert after == before, (seed, name)
                return moved

            strategy.meet = checked
            merged_replay(network, task, StubSampler(contacts), strategy)
    for name, calls in seen.items():
        assert (True, True) in calls, name
    # the reference meets where the carriers' movable is falsy; a spread
    # hand it passes can still move nothing, and a maxrate one always moves
    assert (False, False) in seen["spread"] and (True, False) in seen["spread"]
    assert (False, False) in seen["maxrate"] and (True, False) not in seen["maxrate"]


def coarse_grid_case(seed):
    """A random network, hand-made contacts on it and one task: integer
    starts make simultaneous contacts common, within an edge and across
    edges, and the deadline falls on the grid."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    infra = n - 1
    keys = {edge_key(m, infra) for m in range(infra) if rng.random() < 0.7}
    keys.add(edge_key(0, infra))
    for _ in range(int(rng.integers(n, 3 * n))):
        a, b = (int(x) for x in rng.choice(infra, size=2, replace=False))
        keys.add(edge_key(a, b))
    edges = {
        key: ol.PairContactParams(
            contact_rate=float(rng.uniform(0.01, 0.2)),
            alpha=float(rng.uniform(2.0, 6.0)),
            beta=float(rng.uniform(1.0, 3.0)),
            rate=float(rng.choice([0.5, 1.0, 2.0])),
        )
        for key in keys
    }
    net = Network(node_count=n, infrastructure_id=infra, edges=edges)
    deadline = float(rng.integers(20, 60))
    contacts = {
        key: [
            (float(rng.integers(0, deadline + 1)), float(rng.uniform(0.2, 3.0)))
            for _ in range(int(rng.integers(0, 12)))
        ]
        for key in keys
    }
    task = ol.TransmissionTask(
        task_id=0, source=int(rng.integers(infra)), size=float(rng.uniform(2.0, 12.0)),
        deadline=deadline,
    )
    return net, task, contacts


class TestCarrierRules:
    """Spread and maxrate on hand-built contacts: mobile nodes 0-3 and
    infrastructure 4, every rate 1, so a contact's capacity is its duration."""

    def replay(self, strategy, edges, contacts, size=16.0):
        """The walk's carried amounts, meets and sampled edges, once its
        outcome, calls and carried amounts match the merged reference's."""
        network = Network(node_count=5, infrastructure_id=4, edges=edges)
        task = ol.TransmissionTask(task_id=0, source=0, size=size, deadline=100.0)
        runs = []
        for replay in (simulator._replay, merged_replay):
            context = simulator._Context(network)
            carriers = strategy(context, task)
            calls = recorded(carriers)
            sampler = StubSampler(contacts)
            first = context if replay is simulator._replay else network
            outcome = replay(first, task, sampler, carriers)
            runs.append(((outcome, calls, [], sampler.asked), carriers.carried))
        (walked, carried), (merged, merged_carried) = runs
        assert_walk_matches(strategy.__name__, walked, merged)
        assert carried == merged_carried
        meets = [call[1:3] + call[4:] for call in walked[1] if call[0] == "meet"]
        return carried, meets, walked[3]

    def spread(self, contacts, size=16.0):
        keys = [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)]
        edges = dict.fromkeys(keys, uniform_params())
        return self.replay(simulator._Spread, edges, contacts, size)[:2]

    def test_equal_amounts_hand_from_the_lower_id(self):
        # 0 -> 1, 0 -> 2 and 1 -> 3 leave nodes 1 and 2 holding 4 each,
        # neither received from the other, and then they meet
        contacts = {
            (0, 1): [(1.0, 50.0)], (0, 2): [(2.0, 50.0)], (1, 3): [(3.0, 50.0)],
            (1, 2): [(4.0, 50.0)],
        }
        carried, meets = self.spread(contacts)
        assert carried == {0: 4.0, 1: 2.0, 2: 6.0, 3: 4.0}
        assert all(moved for *_, moved in meets)
        # the rule reads ids, not the order the ends are given in
        carriers = simulator._Spread(
            simulator._Context(Network(5, 4, {(1, 2): uniform_params()})),
            ol.TransmissionTask(task_id=0, source=1, size=4.0, deadline=100.0),
        )
        carriers.carried[2] = 4.0
        assert carriers.meet(2, 1, 50.0, 0.0)
        assert carriers.carried == {0: 0.0, 1: 2.0, 2: 6.0, 3: 0.0}

    def test_a_node_never_hands_back_to_a_node_it_received_from(self):
        # 0 -> 1 (8), then 0 -> 1 again on equal amounts (4); then node 1
        # holds more but got its data from 0, so nothing moves, and as its
        # half passes movable the edge stays walked
        contacts = {(0, 1): [(1.0, 50.0), (2.0, 50.0), (3.0, 50.0), (4.0, 50.0)]}
        carried, meets = self.spread(contacts)
        assert carried == {0: 4.0, 1: 12.0, 2: 0.0, 3: 0.0}
        assert [moved for *_, moved in meets] == [True, True, False, False]

    def test_the_capacity_caps_the_amount(self):
        # half of 16 is 8, and the contact carries 3
        carried, _ = self.spread({(0, 1): [(1.0, 3.0)]})
        assert carried == {0: 13.0, 1: 3.0, 2: 0.0, 3: 0.0}

    @pytest.mark.parametrize(
        "size, duration, moved",
        [(2e-9, 50.0, 0.0), (4e-9, 50.0, 2e-9), (16.0, 1e-9, 0.0), (16.0, 2e-9, 2e-9)],
    )
    def test_an_amount_of_at_most_1e_9_does_not_move(self, size, duration, moved):
        carried, meets = self.spread({(0, 1): [(1.0, duration)]}, size=size)
        assert carried[1] == moved
        # the replay skips a meeting whose half is at most 1e-9
        assert [meet for meet in meets if meet[-1]] == ([(0, 1, 1.0, True)] if moved else [])
        assert self.carriers(size).meet(0, 1, duration, 1.0) == (moved > 0)

    def carriers(self, size=16.0):
        """A spread task of ``size`` at node 0, met by hand on one edge."""
        return simulator._Spread(
            simulator._Context(Network(5, 4, {(0, 1): uniform_params()})),
            ol.TransmissionTask(task_id=0, source=0, size=size, deadline=100.0),
        )

    def test_a_half_below_an_eighth_of_the_item_does_not_move(self):
        # the floor is 16 / 8 = 2: a holder of 4 hands its half of 2, and a
        # holder of 2 keeps its data
        carriers = self.carriers()
        assert carriers.floor == 2.0
        carriers.carried[0] = 4.0
        assert carriers.meet(0, 1, 50.0, 0.0)
        assert carriers.carried == {0: 2.0, 1: 2.0, 2: 0.0, 3: 0.0}
        carriers = self.carriers()
        carriers.carried[0] = 2.0
        assert not carriers.meet(0, 1, 50.0, 0.0)
        assert not carriers.meet(1, 0, 50.0, 0.0)
        assert carriers.carried == {0: 2.0, 1: 0.0, 2: 0.0, 3: 0.0}
        assert carriers.provenance[1] == set()

    @pytest.mark.parametrize("capacity, moved", [(3.0, 3.0), (1.0, 1.0)])
    def test_the_floor_reads_the_half_before_the_capacity_cap(self, capacity, moved):
        # the half of 16 is 8, above the floor of 2, so the contact carries
        # all it can, even less than the floor
        carriers = self.carriers()
        assert carriers.meet(0, 1, capacity, 0.0)
        assert carriers.carried[1] == moved

    def test_every_hand_moves_at_least_the_floor_or_the_capacity(self):
        hands = []
        for seed in range(40):
            network, task, contacts = coarse_grid_case(seed)
            context = simulator._Context(network)
            carriers = simulator._Spread(context, task)
            capacity = None

            def meet(a, b, cap, start, meet=carriers.meet):
                nonlocal capacity
                capacity = cap
                return meet(a, b, cap, start)

            def hand(sender, receiver, amount, hand=carriers.hand, floor=carriers.floor):
                moved = hand(sender, receiver, amount)
                if moved:
                    hands.append((amount, capacity, floor))
                return moved

            carriers.meet, carriers.hand = meet, hand
            simulator._replay(context, task, StubSampler(contacts), carriers)
        assert hands
        assert all(amount >= floor or amount == cap for amount, cap, floor in hands)
        # both cases happen
        assert any(amount < floor for amount, _, floor in hands)
        assert any(amount < cap for amount, cap, _ in hands)

    def test_a_spread_hand_flips_when_a_delivery_shrinks_the_larger_carrier(self):
        # node 1 holds 12 from node 0 and may not hand back at 3; it delivers
        # 10 at 5, so node 0, holding 4, hands its half to it at 6.  A
        # delivery brings no edge back, so (0, 1) must stay walked at 3
        edges = dict.fromkeys([(0, 1), (0, 4), (1, 4)], uniform_params())
        contacts = {
            (0, 1): [(1.0, 50.0), (2.0, 50.0), (3.0, 50.0), (6.0, 50.0)],
            (1, 4): [(5.0, 10.0), (7.0, 50.0)],
            (0, 4): [(8.0, 50.0)],
        }
        carried, meets, _ = self.replay(simulator._Spread, edges, contacts)
        assert meets[2:] == [(0, 1, 3.0, False), (0, 1, 6.0, True)]
        assert carried == {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}

    def test_mutual_best_relays_hand_the_other_way_when_provenance_refuses(self):
        # nodes 1 and 2 are each other's best relay, and node 0's is 2.
        # 0 -> 2 (6) at 1, 2 -> 1 (4) at 2, 0 -> 2 (6) at 3; at 4 node 1 got
        # its data from 2, so of the meeting's two directions 2 -> 1 hands
        edges = {
            (0, 1): uniform_params(), (0, 2): uniform_params(), (1, 2): uniform_params(),
            (1, 4): uniform_params(0.02), (2, 4): uniform_params(0.05),
        }
        contacts = {
            (0, 2): [(1.0, 6.0), (3.0, 6.0)], (1, 2): [(2.0, 4.0), (4.0, 50.0)],
        }
        carried, meets, _ = self.replay(simulator._MaxRate, edges, contacts)
        assert meets == [(0, 2, 1.0, True), (1, 2, 2.0, True), (0, 2, 3.0, True), (1, 2, 4.0, True)]
        assert carried == {0: 4.0, 1: 12.0, 2: 0.0, 3: 0.0}

    @pytest.mark.parametrize("capacity", [1e-9, 5e-10])
    def test_maxrate_hands_even_a_capacity_of_at_most_1e_9(self, capacity):
        # unlike spread, maxrate's capped amount has no 1e-9 test
        carriers = simulator._MaxRate(
            simulator._Context(Network(5, 4, {(0, 1): uniform_params(), (1, 4): uniform_params()})),
            ol.TransmissionTask(task_id=0, source=0, size=16.0, deadline=100.0),
        )
        assert carriers.meet(0, 1, capacity, 1.0)
        assert carriers.carried[1] == capacity

    def test_maxrate_hands_only_to_the_best_relay(self):
        # node 0 reaches infrastructure through 1 (contact rate 0.05) or 2 (0.02)
        edges = {
            (0, 1): uniform_params(), (0, 2): uniform_params(), (0, 3): uniform_params(),
            (1, 4): uniform_params(0.05), (2, 4): uniform_params(0.02),
        }
        contacts = {(0, 2): [(1.0, 50.0)], (0, 3): [(2.0, 50.0)], (0, 1): [(3.0, 50.0)]}
        carried, meets, asked = self.replay(simulator._MaxRate, edges, contacts)
        assert carried == {0: 0.0, 1: 16.0, 2: 0.0, 3: 0.0}
        assert [(b, moved) for _, b, _, moved in meets] == [(1, True)]
        # a meeting with a node other than the best relay moves nothing ...
        carriers = simulator._MaxRate(
            simulator._Context(Network(node_count=5, infrastructure_id=4, edges=edges)),
            ol.TransmissionTask(task_id=0, source=0, size=16.0, deadline=100.0),
        )
        for other in (2, 3):
            assert not carriers.meet(0, other, 50.0, 1.0)
            assert not carriers.meet(other, 0, 50.0, 1.0)
        assert carriers.carried == {0: 16.0, 1: 0.0, 2: 0.0, 3: 0.0}
        # ... so the replay never samples those edges
        assert (0, 2) not in asked and (0, 3) not in asked


class TestDistributedInvariantSweep:
    def test_protocol_invariants_hold_over_a_run(self):
        net = small_network(seed=29)
        tasks = make_tasks(net, 25, size=12.0, deadline=300.0, seed=7)
        violations = []
        totals = {}

        def monitor(row, states, delivered):
            task_total = totals["current"]
            in_flight = math.fsum(s.carried for s in states.values())
            if abs(in_flight + delivered - task_total) > 1e-6 * task_total:
                violations.append(("mass", row))
            for state in states.values():
                if abs(math.fsum(state.assignment.values()) - state.carried) > 1e-6 * task_total:
                    violations.append(("assignment", row, state.node_id))
                for route in state.assignment:
                    if len(route) > 3 or route[-1] != net.infrastructure_id:
                        violations.append(("route", row, route))

        # run tasks one at a time so the monitor knows the task size
        for task in tasks:
            totals["current"] = task.size
            ol.simulate_strategy(net, [task], "distributed", seed=31, monitor=monitor)
        assert violations == []

    def test_event_log_schema(self, tmp_path):
        net = small_network(seed=29)
        tasks = make_tasks(net, 5, size=12.0, deadline=300.0, seed=9)
        log: list[dict] = []
        ol.simulate_strategy(net, tasks, "distributed", seed=31, event_log=log)
        assert log, "expected events"
        keys = {"time", "event", "node_a", "node_b", "planned", "actual", "carried_a", "carried_b"}
        assert all(set(row) == keys for row in log)
        path = tmp_path / "events.csv"
        ol.write_event_log_csv(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,event,node_a,node_b,planned,actual,carried_a,carried_b"
        assert len(lines) == 1 + len(log)

    def test_no_backflow_to_provenance(self):
        net = small_network(seed=33)
        tasks = make_tasks(net, 20, size=12.0, deadline=300.0, seed=13)
        log: list[dict] = []
        ol.simulate_strategy(net, tasks, "distributed", seed=37, event_log=log)
        # replay the log per task: a pair that exchanged data must never
        # exchange again (the provenance rule blocks both directions)
        seen_pairs: set[tuple[int, int]] = set()
        for row in log:
            if row["event"] == "start":
                seen_pairs = set()
                continue
            if row["event"] != "contact" or row["actual"] <= 0:
                continue
            pair = tuple(sorted((row["node_a"], row["node_b"])))
            assert pair not in seen_pairs
            seen_pairs.add(pair)


class TestCsvWriters:
    def test_results_and_summary_shape(self, tmp_path):
        net = small_network()
        tasks = make_tasks(net, 10, size=10.0, deadline=250.0)
        results = [
            ol.simulate_strategy(net, tasks, s, seed=3) for s in ("individual", "maxrate")
        ]
        results_path = tmp_path / "results.csv"
        summary_path = tmp_path / "summary.csv"
        ol.write_results_csv(results, results_path)
        ol.write_summary_csv(results, summary_path)
        lines = results_path.read_text().strip().splitlines()
        assert lines[0] == "strategy,task_id,size,deadline,offloaded,success,completion_time"
        assert len(lines) == 1 + 2 * len(tasks)
        summary = summary_path.read_text().strip().splitlines()
        assert summary[0] == "strategy,total,offloaded,successful"
        assert len(summary) == 3
