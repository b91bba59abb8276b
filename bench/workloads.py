"""The benchmark's workloads.

Both workloads run on criterion 7's synthetic network (50 mobile nodes,
seed 42, infrastructure contact rates 0.002-0.02, 277 edges).  A round is
one replay operation (all five strategies) followed by one ``oppload
validate`` operation over 1-, 2- and 3-hop routes of the network.  Each
round starts from a fresh import of oppload, as a new ``oppload`` process
would, so nothing the program caches carries over from one round to the
next.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from checks import (
    PlainNetwork,
    ProtocolAudit,
    ValidationAudit,
    check_ordering,
    check_outcomes,
    check_results_csv,
)
from gauge import Gauge, Timing

NETWORK = {
    "n": 50,
    "avg_degree": 10,
    "max_degree": 15,
    "weight_exponent": 2.0,
    "node_alpha_range": [6.0, 10.0],
    "node_beta_range": [2.0, 3.0],
    "infra_alpha_range": [3.0, 4.0],
    "infra_beta_range": [2.0, 3.0],
    "infra_lambda_range": [0.002, 0.02],
    "rate": 1.0,
    "seed": 42,
}
NETWORK_EDGES = 277


def fresh_oppload():
    """Import oppload anew, dropping every module of an earlier import."""
    for name in [n for n in sys.modules if n == "oppload" or n.startswith("oppload.")]:
        del sys.modules[name]
    ol = importlib.import_module("oppload")
    importlib.import_module("oppload.cli")
    return ol


class StrategyClock:
    """Times every ``simulate_strategy`` call and counts its tasks and errors.

    Untraced, each call is timed through the gauge.  Traced, each call is
    a root span named after its strategy, and distributed calls feed the
    protocol audit through the ``event_log`` and ``monitor`` hooks.
    """

    def __init__(self, gauge: Gauge, problems) -> None:
        self.gauge = gauge
        self.problems = problems
        self.timing: dict[str, Timing] = defaultdict(Timing)
        self.traced_tasks: dict[str, int] = defaultdict(int)
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.errors: dict[str, Counter] = defaultdict(Counter)
        self.tracer = None
        self.audit = ProtocolAudit(problems)
        self.calls: list[tuple] = []

    def bind(self, simulate):
        def timed(network, tasks, strategy, seed, **kwargs):
            if self.tracer is None:
                with self.gauge.time(self.timing[strategy]):
                    outcome = _outcome(simulate, network, tasks, strategy, seed, **kwargs)
                log = None
            else:
                log, outcome = self._traced(simulate, network, tasks, strategy, seed, **kwargs)
            self._record(strategy, tasks, outcome)
            if isinstance(outcome, Exception):
                raise outcome
            check_outcomes(strategy, tasks, outcome, self.problems)
            if log is not None:
                self.audit.check_log(log)
            return outcome

        return timed

    def _traced(self, simulate, network, tasks, strategy, seed, **kwargs):
        log = None
        if strategy == "distributed":
            log = []
            monitor = self.tracer.wrap("bench.protocol_audit", self.audit.monitor)
            kwargs = dict(kwargs, event_log=log, monitor=monitor)
        with self.tracer.span(f"strategy.{strategy}", root=True):
            outcome = _outcome(simulate, network, tasks, strategy, seed, **kwargs)
        self.traced_tasks[strategy] += len(tasks)
        return log, outcome

    def _record(self, strategy, tasks, outcome) -> None:
        self.attempted[strategy] += len(tasks)
        if isinstance(outcome, Exception):
            self.failed[strategy] += len(tasks)
            self.errors[strategy][type(outcome).__name__] += len(tasks)
        self.calls.append((strategy, tuple(t.task_id for t in tasks), outcome))

    def take_signature(self) -> list:
        """What the calls since the last take returned, for comparing runs."""
        signature = []
        for strategy, task_ids, outcome in self.calls:
            if isinstance(outcome, Exception):
                signature.append((strategy, task_ids, type(outcome).__name__))
            else:
                signature.append(
                    (
                        strategy,
                        task_ids,
                        tuple(
                            (o.task_id, o.offloaded, o.success, o.completion_time)
                            for o in outcome.outcomes
                        ),
                    )
                )
        self.calls = []
        return signature


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


class ValidateGrid:
    """``oppload validate`` over fresh 1-, 2- and 3-hop routes each round.

    ``grids`` maps a hop count to (sizes, deadlines, Monte Carlo runs).
    Each route is asked once per (size, deadline), so a memo cache over
    (path, size) has little to reuse; 3-hop tuple spaces make the
    estimator, not the Monte Carlo, take most of the time.
    """

    def __init__(self, grids: dict, sources_per_round: int) -> None:
        self.grids = grids
        self.sources_per_round = sources_per_round
        self.timing = Timing()
        self.points = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.calls = 0

    @staticmethod
    def routes(net: PlainNetwork, rng: np.random.Generator) -> list[tuple[int, ...]]:
        infra = net.infra
        while True:
            source = int(rng.choice(net.mobile()))
            firsts = [n for n in net.adjacency[source] if n != infra]
            if not firsts:
                continue
            relay = int(rng.choice(firsts))
            seconds = [n for n in net.adjacency[relay] if n not in (source, infra)]
            if not seconds:
                continue
            third = int(rng.choice(seconds))
            return [(source, infra), (source, relay, infra), (source, relay, third, infra)]

    def run(self, ol, net: PlainNetwork, net_path: Path, workdir: Path, rng, gauge, audit) -> int:
        """One validate operation; returns the points it attempted."""
        pending = []
        for k in range(self.sources_per_round):
            for route in self.routes(net, rng):
                sizes, deadlines, runs = self.grids[len(route) - 1]
                out = workdir / f"validate-{k}-{len(route) - 1}.csv"
                argv = [
                    "validate",
                    "--network", str(net_path),
                    "--route", ",".join(map(str, route)),
                    "--sizes", ",".join(map(repr, sizes)),
                    "--deadlines", ",".join(map(repr, deadlines)),
                    "--runs", str(runs),
                    "--seed", str(int(rng.integers(2**31))),
                    "--out", str(out),
                ]
                with redirect_stdout(io.StringIO()), gauge.time(self.timing):
                    code = ol.cli.main(argv)
                pending.append((route, out, code, len(sizes) * len(deadlines)))
        self.calls += len(pending)
        for route, out, code, points in pending:
            self.points += points
            if code != 0:
                self.failed += points
                self.errors[f"exit {code}"] += 1
                continue
            with open(out, encoding="utf-8") as handle:
                next(handle)
                rows = [tuple(float(x) for x in line.split(",")[:4]) for line in handle]
            audit.check(route, net.hops(route), rows)
        return sum(points for *_, points in pending)


class Workload:
    """Shared driver: set-up, rounds, checks and end-to-end figures."""

    name = ""
    trace_rounds = 1
    validate: ValidateGrid

    def __init__(self, seed: int, workdir: Path, problems) -> None:
        self.seed = seed
        self.workdir = workdir
        self.problems = problems
        self.net_path = workdir / "network.json"
        self.gauge = Gauge()
        self.clock = StrategyClock(self.gauge, problems)
        self.audit = ValidationAudit(problems)
        self.replay_timing = Timing()
        self.replay_pairs = 0
        self.net: PlainNetwork | None = None

    def write_inputs(self, ol) -> None:
        network = ol.generate_synthetic(
            ol.SyntheticConfig(
                **{k: tuple(v) if isinstance(v, list) else v for k, v in NETWORK.items()}
            )
        )
        ol.save_network(network, self.net_path)
        if len(network.edges) != NETWORK_EDGES:
            self.problems.add(f"network has {len(network.edges)} edges, not {NETWORK_EDGES}")

    def run_round(self, ol, index: int) -> dict:
        """One round; returns its operation counts, wall time and outcomes."""
        if self.net is None:
            self.net = PlainNetwork(self.net_path)
        rng = np.random.default_rng([self.seed, index])
        timing = Timing()
        with self.gauge.time(timing):
            pairs = self.replay(ol, rng)
            points = self.validate.run(
                ol, self.net, self.net_path, self.workdir, rng, self.gauge, self.audit
            )
        self.replay_pairs += pairs
        return {
            "pairs": pairs,
            "points": points,
            "wall_s": timing.wall,
            "signature": self.clock.take_signature(),
        }

    def replay(self, ol, rng) -> int:
        """One replay operation, timed into ``replay_timing``; returns its pairs."""
        raise NotImplementedError

    def finish_checks(self) -> dict:
        return {}


class C7Strategies(Workload):
    """``oppload simulate`` in-process on a slice of criterion 7's task grid."""

    name = "c7-strategies"
    trace_rounds = 3
    sizes = [10.0, 20.0]
    deadlines = [200.0, 300.0, 400.0, 500.0, 600.0]
    runs_per_round = 2

    def __init__(self, seed, workdir, problems) -> None:
        super().__init__(seed, workdir, problems)
        self.config_path = workdir / "experiment.json"
        self.validate = ValidateGrid(
            {
                1: ([30.0, 40.0], [250.0, 400.0], 20000),
                2: ([2.0], [250.0, 400.0, 1000.0], 20000),
                3: ([20.0, 40.0], [250.0, 400.0, 1000.0, 2000.0], 1000),
            },
            sources_per_round=4,
        )
        self.successes: Counter = Counter()
        self.tasks_seen = 0

    def write_inputs(self, ol) -> None:
        super().write_inputs(ol)
        config = {
            "network": {"file": str(self.net_path)},
            "sizes": self.sizes,
            "deadlines": self.deadlines,
            "strategies": "all",
            "runs": self.runs_per_round,
        }
        self.config_path.write_text(json.dumps(config), encoding="utf-8")

    def replay(self, ol, rng) -> int:
        ol.cli.simulate_strategy = self.clock.bind(ol.cli.simulate_strategy)
        results_csv = self.workdir / "results.csv"
        argv = [
            "simulate",
            "--config", str(self.config_path),
            "--seed", str(int(rng.integers(2**31))),
            "--results", str(results_csv),
            "--out", str(self.workdir / "summary.csv"),
        ]
        first_call = len(self.clock.calls)
        with redirect_stdout(io.StringIO()), self.gauge.time(self.replay_timing):
            code = ol.cli.main(argv)
        calls = self.clock.calls[first_call:]
        results = [outcome for _, _, outcome in calls if not isinstance(outcome, Exception)]
        if code == 0:
            check_results_csv(results_csv, results, self.problems)
        if code == 0 and self.clock.tracer is None:
            # the traced run replays the same tasks; count each task once
            self.tasks_seen += results[0].total
            for result in results:
                self.successes[result.strategy] += result.successful
        return sum(len(ids) for _, ids, _ in calls)

    def finish_checks(self) -> dict:
        applied = check_ordering(dict(self.successes), self.tasks_seen, self.problems)
        return {
            "ordering_gates": applied,
            "tasks_per_strategy": self.tasks_seen,
            "successes": dict(self.successes),
        }


class LongHaul(Workload):
    """``simulate_strategy`` once per task, on long deadlines and large items.

    Every round replays the same panel of sources at both sizes, with
    contact realizations and release times drawn from the seed, plus one
    task that does not depend on the seed: source 47 at size 120, whose
    heuristic plan reaches a 4-hop route over the estimator's tuple cap
    and raises ``ComplexityError``.  That failure is counted, not raised.
    """

    name = "longhaul"
    trace_rounds = 1
    deadline = 3000.0
    sizes = (60.0, 120.0)
    # sources whose heuristic plans exceed the tuple cap at both sizes
    cap_sources = (2, 47)
    cap_task = (47, 120.0)
    panel_stride = 5

    def __init__(self, seed, workdir, problems) -> None:
        super().__init__(seed, workdir, problems)
        self.validate = ValidateGrid(
            {
                1: ([60.0, 120.0], [1000.0, 2000.0, 3000.0], 1000),
                2: ([60.0, 120.0], [1000.0, 2000.0, 3000.0], 1000),
                3: ([60.0], [1000.0, 2000.0, 3000.0], 1000),
            },
            sources_per_round=12,
        )

    def panel(self) -> list[int]:
        eligible = [n for n in self.net.mobile() if n not in self.cap_sources]
        return eligible[:: self.panel_stride]

    def replay(self, ol, rng) -> int:
        with self.gauge.time(self.replay_timing):
            results, pairs = self._replay(ol, rng)
        check_results_csv(self.workdir / "results.csv", results, self.problems)
        return pairs

    def _replay(self, ol, rng):
        simulate = self.clock.bind(ol.simulate_strategy)
        network = ol.load_network(self.net_path)
        source, size = self.cap_task
        runs = [(ol.TransmissionTask(0, source, size, self.deadline, 0.0), 0)]
        task_id = 1
        for source in self.panel():
            for size in self.sizes:
                release = float(np.round(rng.uniform(0.0, 1000.0), 3))
                task = ol.TransmissionTask(task_id, source, size, self.deadline, release)
                runs.append((task, int(rng.integers(2**31))))
                task_id += 1
        results = []
        for strategy in ol.STRATEGIES:
            for task, sim_seed in runs:
                try:
                    results.append(simulate(network, [task], strategy, sim_seed))
                except ol.OppLoadError:
                    continue
        ol.write_results_csv(results, self.workdir / "results.csv")
        return results, len(runs) * len(ol.STRATEGIES)


WORKLOADS = {w.name: w for w in (C7Strategies, LongHaul)}
