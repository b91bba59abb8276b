import hashlib
import math

import numpy as np
import pytest

import oppload as ol
from oppload.errors import ConfigError
from oppload.netgraph import Network, edge_key


def params(lam=0.1, alpha=3.0, beta=5.0, rate=100.0):
    return ol.PairContactParams(contact_rate=lam, alpha=alpha, beta=beta, rate=rate)


class TestMonteCarloDelivery:
    def test_first_contact_in_time(self):
        # with an effectively infinite data rate the run reduces to "does
        # the first contact happen in time"
        hop = params(lam=0.1, alpha=2.0, beta=5.0, rate=1e9)
        got = ol.run_monte_carlo_delivery(ol.PathSpec((hop,)), 4.0, 10.0, 20_000, seed=1)
        assert got == pytest.approx(1 - math.exp(-1), abs=0.02)

    def test_zero_deadline(self):
        hop = params()
        assert ol.run_monte_carlo_delivery(ol.PathSpec((hop,)), 4.0, 0.0, 100, seed=2) == 0.0

    def test_deterministic(self):
        path = ol.PathSpec((params(lam=0.05, rate=1.0), params(lam=0.08, rate=1.0)))
        a = ol.run_monte_carlo_delivery(path, 8.0, 120.0, 5000, seed=9)
        b = ol.run_monte_carlo_delivery(path, 8.0, 120.0, 5000, seed=9)
        assert a == b

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
            simulated = ol.run_monte_carlo_delivery(
                ol.PathSpec((hop,)), size, deadline, runs, seed=int(rng.integers(1 << 30))
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


class TestSimulateStrategy:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ol.simulate_strategy(hot_link_network(), [], "flooding", seed=1)

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


# Outcomes of one small replay, recorded before the strategy replays were
# merged into one event loop; any change to them is a change to the
# random stream or to a strategy's rule.
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
    "spread": [
        (True, False, "None"),
        (True, False, "None"),
        (True, False, "None"),
        (True, True, "125.7938995398441"),
        (True, True, "64.03704042096653"),
        (True, False, "None"),
        (True, False, "None"),
        (True, True, "142.27480521093193"),
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
        log: list[dict] = []
        for strategy in ol.STRATEGIES:
            result = ol.simulate_strategy(
                net, tasks, strategy, seed=17, event_log=log if strategy == "distributed" else None
            )
            got = [(o.offloaded, o.success, repr(o.completion_time)) for o in result.outcomes]
            assert got == PINNED_OUTCOMES[strategy], strategy
        digest = hashlib.sha256(repr(log).encode()).hexdigest()
        assert (len(log), digest) == PINNED_EVENT_LOG


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
