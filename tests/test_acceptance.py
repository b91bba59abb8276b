"""Acceptance suite.

One test per criterion; each prints a single PASS line (with the measured
quantities) once its assertions hold, so a verbose run reads as a
checklist.  Tolerances are fixed here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

import oppload as ol
from oppload.cli import main as cli_main
from oppload.netgraph import write_trace_csv

from conftest import TWO_PATH_DEADLINE, TWO_PATH_SIZE, random_small_instance


def report(name, detail):
    print(f"ACCEPTANCE PASS {name}: {detail}")


def test_criterion_1_two_path_arithmetic(two_path_network):
    started = time.perf_counter()
    plan = ol.plan_offload(two_path_network, 0, TWO_PATH_SIZE, TWO_PATH_DEADLINE)
    assert plan.offloaded
    assert sorted(a.assigned for a in plan.allocations) == [10.0, 10.0]
    assert plan.joint_probability == pytest.approx(0.504, abs=1e-3)

    oracle = ol.brute_force_optimal(
        two_path_network,
        0,
        TWO_PATH_SIZE,
        TWO_PATH_DEADLINE,
        ol.OracleConfig(size_granularity=TWO_PATH_SIZE / 2, max_paths=3, max_hops=3),
    )
    assert sorted(a.assigned for a in oracle.allocations) == [10.0, 10.0]
    assert oracle.joint_probability == pytest.approx(0.504, abs=1e-3)

    # sending two whole replications instead: Bernoulli over the two paths
    replication = sum(
        math.comb(2, n) * 0.23**n * 0.77 ** (2 - n) for n in (1, 2)
    )
    assert replication == pytest.approx(0.407, abs=1e-3)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(
        "1 two-path arithmetic",
        f"split joint={plan.joint_probability:.4f}, replication={replication:.4f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_estimator_validation():
    started = time.perf_counter()
    rng = np.random.default_rng(20240810)
    worst_one = 0.0
    for i in range(20):
        hop = ol.PairContactParams(
            contact_rate=float(rng.uniform(0.001, 0.01)),
            alpha=float(rng.uniform(3.0, 4.0)),
            beta=float(rng.uniform(2.0, 3.0)),
            rate=1.0,
        )
        size = float(rng.uniform(10.0, 40.0))
        deadline = float(rng.uniform(250.0, 400.0))
        estimated = ol.delivery_prob_onehop(hop, ol.DeliveryQuery(size, deadline))
        (simulated,) = ol.run_monte_carlo_delivery(
            ol.PathSpec((hop,)), size, [deadline], runs=20_000, seed=900 + i
        )
        worst_one = max(worst_one, abs(estimated - simulated))
        assert abs(estimated - simulated) <= 0.05

    worst_two = 0.0
    rng = np.random.default_rng(77)
    for i in range(10):
        path = ol.PathSpec(
            (
                ol.PairContactParams(
                    contact_rate=float(rng.uniform(0.02, 0.1)),
                    alpha=float(rng.uniform(6.0, 10.0)),
                    beta=float(rng.uniform(2.0, 3.0)),
                    rate=1.0,
                ),
                ol.PairContactParams(
                    contact_rate=float(rng.uniform(0.002, 0.01)),
                    alpha=float(rng.uniform(3.0, 4.0)),
                    beta=float(rng.uniform(2.0, 3.0)),
                    rate=1.0,
                ),
            )
        )
        size = float(rng.uniform(2.0, 10.0))
        deadline = float(rng.uniform(250.0, 400.0))
        estimated = ol.delivery_prob_path(path, ol.DeliveryQuery(size, deadline))
        (simulated,) = ol.run_monte_carlo_delivery(
            path, size, [deadline], runs=20_000, seed=3000 + i
        )
        worst_two = max(worst_two, abs(estimated - simulated))
        assert abs(estimated - simulated) <= 0.08

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        "2 estimator validation",
        f"worst one-hop delta={worst_one:.4f} (<=0.05), "
        f"worst two-hop delta={worst_two:.4f} (<=0.08), {elapsed:.1f}s",
    )


def test_criterion_3_gamma_moment_identity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        counts = rng.integers(1, 12, size=k).tolist()
        lams = rng.uniform(0.005, 5.0, size=k).tolist()
        approx = ol.gamma_approx(counts, lams)
        mean = sum(n / l for n, l in zip(counts, lams))
        var = sum(n / l**2 for n, l in zip(counts, lams))
        assert approx.gamma_shape / approx.delta_rate == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert approx.gamma_shape / approx.delta_rate**2 == pytest.approx(var, rel=1e-12, abs=1e-12)
    report("3 gamma moment identity", "100 random inputs matched to 1e-12")


def test_criterion_4_sum_to_max_ratio_exactness():
    for c in range(1, 51):
        harmonic = sum(1.0 / i for i in range(1, c + 1))
        assert ol.mean_max_ratio(c, 1.0) == pytest.approx(harmonic, abs=1e-12)
    assert ol.mean_max_ratio(2, 2.0) == pytest.approx(5.0 / 3.0, abs=1e-12)
    report("4 sum-to-max ratio", "harmonic branch exact to c=50; (2,2) = 5/3")


def test_criterion_5_heuristic_near_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(5150)
    config = ol.OracleConfig(size_granularity=1.0, max_paths=3, max_hops=4)
    ratios = []
    for _ in range(50):
        net = random_small_instance(rng)
        size = float(rng.integers(2, 9))
        deadline = float(rng.uniform(30.0, 120.0))
        heuristic = ol.plan_offload(net, 0, size, deadline)
        oracle = ol.brute_force_optimal(net, 0, size, deadline, config)
        assert heuristic.joint_probability <= oracle.joint_probability + 1e-9
        ratios.append(
            heuristic.joint_probability / oracle.joint_probability
            if oracle.joint_probability > 0
            else 1.0
        )
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio >= 0.95
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(
        "5 heuristic near-optimality",
        f"0 bound violations, mean(heuristic/oracle)={mean_ratio:.4f} (>=0.95), {elapsed:.1f}s",
    )


def _benchmark_config(n, seed, infra_lambda=(0.001, 0.01)):
    return ol.SyntheticConfig(
        n=n,
        avg_degree=10,
        max_degree=15,
        weight_exponent=2.0,
        node_alpha_range=(6.0, 10.0),
        node_beta_range=(2.0, 3.0),
        infra_alpha_range=(3.0, 4.0),
        infra_beta_range=(2.0, 3.0),
        infra_lambda_range=infra_lambda,
        rate=1.0,
        seed=seed,
    )


def test_criterion_6_cooperative_improvement():
    started = time.perf_counter()
    net = ol.generate_synthetic(_benchmark_config(n=100, seed=23))
    rng = np.random.default_rng(99)
    mobile = net.mobile_nodes()
    tasks = [
        ol.TransmissionTask(
            task_id=i, source=int(rng.choice(mobile)), size=20.0, deadline=400.0
        )
        for i in range(150)
    ]
    individual = ol.simulate_strategy(net, tasks, "individual", seed=7)
    cooperative = ol.simulate_strategy(net, tasks, "heuristic", seed=7)
    rate_ind = individual.successful / individual.total
    rate_coop = cooperative.successful / cooperative.total
    assert 0.05 <= rate_ind <= 0.35
    assert 0.55 <= rate_coop <= 0.85
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(
        "6 cooperative improvement",
        f"individual={rate_ind:.3f} in [0.05,0.35], cooperative={rate_coop:.3f} "
        f"in [0.55,0.85], {elapsed:.1f}s",
    )


def test_criterion_7_strategy_ordering():
    started = time.perf_counter()
    net = ol.generate_synthetic(
        _benchmark_config(n=50, seed=42, infra_lambda=(0.002, 0.02))
    )
    rng = np.random.default_rng(5)
    mobile = net.mobile_nodes()
    tasks = []
    task_id = 0
    for _ in range(50):
        for size in (10.0, 20.0):
            for deadline in (200.0, 300.0, 400.0, 500.0, 600.0):
                tasks.append(
                    ol.TransmissionTask(
                        task_id=task_id,
                        source=int(rng.choice(mobile)),
                        size=size,
                        deadline=deadline,
                    )
                )
                task_id += 1
    assert len(tasks) == 500
    successes = {}
    for strategy in ol.STRATEGIES:
        successes[strategy] = ol.simulate_strategy(net, tasks, strategy, seed=17).successful
    assert successes["heuristic"] >= successes["distributed"]
    assert successes["distributed"] >= 0.95 * max(successes["spread"], successes["maxrate"])
    assert successes["heuristic"] >= 1.5 * successes["individual"]
    # spread's halving stops at a floor, so its pieces reach infrastructure
    assert successes["spread"] > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    report(
        "7 strategy ordering",
        f"successes={successes}, {elapsed:.1f}s",
    )


def test_criterion_8_cli_determinism(tmp_path):
    # a small synthetic network config shared by the subcommands
    synth = {
        "n": 15,
        "avg_degree": 4,
        "max_degree": 6,
        "node_alpha_range": [6.0, 10.0],
        "node_beta_range": [2.0, 3.0],
        "infra_alpha_range": [3.0, 4.0],
        "infra_beta_range": [2.0, 3.0],
        "infra_lambda_range": [0.005, 0.05],
        "rate": 1.0,
        "seed": 3,
    }
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(json.dumps(synth), encoding="utf-8")

    # trace input for the fit subcommand
    params = ol.PairContactParams(0.1, 3.0, 3.0, 50.0)
    records = []
    for i, pair in enumerate([(0, 1), (0, 2), (0, 3)]):
        for start, dur in ol.sample_contact_process(params, 3000.0, rng_seed=60 + i):
            records.append(ol.TraceRecord(pair[0], pair[1], start, start + dur))
    records.sort(key=lambda r: r.t_start)
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(records, trace_path)

    exp = {
        "network": {"synthetic": synth},
        "sizes": [10.0],
        "deadlines": [200.0],
        "strategies": ["individual", "heuristic", "distributed"],
        "runs": 2,
        "seed": 11,
    }
    exp_path = tmp_path / "exp.json"
    exp_path.write_text(json.dumps(exp), encoding="utf-8")

    path_spec = tmp_path / "pathspec.json"
    path_spec.write_text(
        json.dumps({"hops": [{"lambda": 0.05, "alpha": 3.0, "beta": 5.0, "rate": 10.0}]}),
        encoding="utf-8",
    )

    net_path = tmp_path / "net.json"
    assert cli_main(["generate", "--config", str(synth_path), "--out", str(net_path)]) == 0

    def run_all(tag):
        outputs = {}
        gen = tmp_path / f"gen-{tag}.json"
        assert cli_main(["generate", "--config", str(synth_path), "--out", str(gen)]) == 0
        outputs["generate"] = gen.read_bytes()
        fit = tmp_path / f"fit-{tag}.json"
        assert cli_main(
            ["fit", "--trace", str(trace_path), "--rate", "50.0", "--out", str(fit)]
        ) == 0
        outputs["fit"] = fit.read_bytes()
        plan = tmp_path / f"plan-{tag}.json"
        assert cli_main(
            ["plan", "--network", str(net_path), "--source", "0",
             "--size", "10", "--deadline", "200", "--out", str(plan)]
        ) == 0
        outputs["plan"] = plan.read_bytes()
        est = tmp_path / f"est-{tag}.json"
        assert cli_main(
            ["estimate", "--network", str(net_path), "--source", "0",
             "--size", "10", "--deadline", "200", "--out", str(est)]
        ) == 0
        outputs["estimate"] = est.read_bytes()
        results = tmp_path / f"results-{tag}.csv"
        summary = tmp_path / f"summary-{tag}.csv"
        assert cli_main(
            ["simulate", "--config", str(exp_path), "--results", str(results),
             "--out", str(summary)]
        ) == 0
        outputs["simulate.results"] = results.read_bytes()
        outputs["simulate.summary"] = summary.read_bytes()
        val = tmp_path / f"val-{tag}.csv"
        assert cli_main(
            ["validate", "--path-spec", str(path_spec), "--sizes", "5,10",
             "--deadlines", "0,100", "--runs", "2000", "--seed", "4", "--out", str(val)]
        ) == 0
        outputs["validate"] = val.read_bytes()
        return outputs

    first = run_all("a")
    second = run_all("b")
    assert first == second
    report("8 CLI determinism", f"{len(first)} output files byte-identical across reruns")


def test_criterion_9_protocol_invariant_sweeps():
    net = ol.generate_synthetic(
        ol.SyntheticConfig(
            n=25,
            avg_degree=6,
            max_degree=9,
            node_alpha_range=(6.0, 10.0),
            node_beta_range=(2.0, 3.0),
            infra_alpha_range=(3.0, 4.0),
            infra_beta_range=(2.0, 3.0),
            infra_lambda_range=(0.005, 0.05),
            rate=1.0,
            seed=31,
        )
    )
    rng = np.random.default_rng(13)
    mobile = net.mobile_nodes()
    tasks = [
        ol.TransmissionTask(
            task_id=i, source=int(rng.choice(mobile)), size=15.0, deadline=300.0
        )
        for i in range(40)
    ]

    violations = []
    events = 0

    def run_with_sweeps(task):
        nonlocal events

        def monitor(row, states, delivered):
            nonlocal events
            events += 1
            in_flight = math.fsum(s.carried for s in states.values())
            if abs(in_flight + delivered - task.size) > 1e-6 * task.size:
                violations.append(("mass", task.task_id, row))
            for state in states.values():
                if abs(math.fsum(state.assignment.values()) - state.carried) > 1e-6 * task.size:
                    violations.append(("assignment", task.task_id, state.node_id))

        log: list[dict] = []
        ol.simulate_strategy(net, [task], "distributed", seed=19, event_log=log, monitor=monitor)
        exchanged: set[tuple[int, int]] = set()
        for row in log:
            if row["event"] != "contact" or row["actual"] <= 0:
                continue
            pair = (min(row["node_a"], row["node_b"]), max(row["node_a"], row["node_b"]))
            if pair in exchanged:
                violations.append(("backflow", task.task_id, pair))
            exchanged.add(pair)

    for task in tasks:
        run_with_sweeps(task)
    assert violations == []
    report(
        "9 protocol invariants",
        f"0 violations over {len(tasks)} tasks / {events} protocol events",
    )
