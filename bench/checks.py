"""Output checks: properties of the method, or agreement with the reference
estimator in ``refest``.  No check compares with a stored copy of output.

Each check appends a one-line description of every violation it finds to
a shared ``problems`` list; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import refest

MAX_REPORTED = 20

# Criterion 2's region, where the paper's estimator must stay within a
# fixed distance of Monte Carlo: (lambda, alpha, beta) ranges per hop,
# then the size and deadline ranges and the tolerance.
ONE_HOP_REGION = (((0.001, 0.01), (3.0, 4.0), (2.0, 3.0)),)
TWO_HOP_REGION = (
    ((0.02, 0.1), (6.0, 10.0), (2.0, 3.0)),
    ((0.002, 0.01), (3.0, 4.0), (2.0, 3.0)),
)
REGIONS = {
    1: (ONE_HOP_REGION, (10.0, 40.0), (250.0, 400.0), 0.05),
    2: (TWO_HOP_REGION, (2.0, 10.0), (250.0, 400.0), 0.08),
}

# Criterion 7's gates, each applied once the replay holds at least this
# many tasks per strategy; below that, sampling alone can break a gate
# whose margin the 500-task criterion has.  See README.md.
ORDERING_GATES = (
    ("heuristic >= 1.5 * individual", 120, lambda s: s["heuristic"] >= 1.5 * s["individual"]),
    (
        "distributed >= 0.95 * max(spread, maxrate)",
        160,
        lambda s: s["distributed"] >= 0.95 * max(s["spread"], s["maxrate"]),
    ),
    ("heuristic >= distributed", 940, lambda s: s["heuristic"] >= s["distributed"]),
)


class Problems(list):
    """Violations found so far; keeps the first ``MAX_REPORTED`` lines."""

    def __init__(self) -> None:
        super().__init__()
        self.total = 0

    def add(self, message: str) -> None:
        self.total += 1
        if len(self) < MAX_REPORTED:
            self.append(message)


class PlainNetwork:
    """The network file read with ``json`` alone, apart from the program."""

    def __init__(self, path: Path) -> None:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        self.infra = int(payload["infrastructure"])
        self.nodes = int(payload["nodes"])
        self.edges: dict[tuple[int, int], refest.Hop] = {}
        self.adjacency: dict[int, list[int]] = defaultdict(list)
        for e in payload["edges"]:
            a, b = sorted((int(e["a"]), int(e["b"])))
            self.edges[(a, b)] = (e["lambda"], e["alpha"], e["beta"], e["rate"])
            self.adjacency[a].append(b)
            self.adjacency[b].append(a)
        for nbrs in self.adjacency.values():
            nbrs.sort()

    def mobile(self) -> list[int]:
        return [n for n in range(self.nodes) if n != self.infra]

    def hop(self, a: int, b: int) -> refest.Hop | None:
        return self.edges.get((min(a, b), max(a, b)))

    def hops(self, route) -> list[refest.Hop]:
        return [self.hop(a, b) for a, b in zip(route, route[1:])]


def check_outcomes(strategy: str, tasks, result, problems: Problems) -> None:
    """One ``simulate_strategy`` result against its tasks."""
    by_id = {t.task_id: t for t in tasks}
    if sorted(o.task_id for o in result.outcomes) != sorted(by_id):
        problems.add(f"{strategy}: outcomes do not cover the tasks one to one")
        return
    for o in result.outcomes:
        task = by_id[o.task_id]
        if o.success:
            done = o.completion_time
            slack = 1e-9 * (task.release + task.deadline)
            if done is None or not (task.release - slack <= done <= task.release + task.deadline + slack):
                problems.add(
                    f"{strategy} task {o.task_id}: success at {done} outside "
                    f"[{task.release}, {task.release + task.deadline}]"
                )
        elif o.completion_time is not None:
            problems.add(f"{strategy} task {o.task_id}: failure with a completion time")
        if strategy == "individual" and o.offloaded:
            problems.add(f"individual task {o.task_id}: offloaded")
    if result.successful != sum(o.success for o in result.outcomes):
        problems.add(f"{strategy}: summary count disagrees with outcomes")


def check_results_csv(path: Path, results, problems: Problems) -> None:
    """The per-task CSV holds exactly the outcomes the calls returned."""
    expected = {
        (o.strategy, o.task_id): (o.offloaded, o.success, o.completion_time)
        for r in results
        for o in r.outcomes
    }
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    found = {
        (row["strategy"], int(row["task_id"])): (
            row["offloaded"] == "1",
            row["success"] == "1",
            float(row["completion_time"]) if row["completion_time"] else None,
        )
        for row in rows
    }
    if len(rows) != len(found) or found != expected:
        problems.add(f"{path.name}: rows differ from the returned outcomes")


def check_ordering(successes: dict[str, int], tasks: int, problems: Problems) -> list[str]:
    """Criterion 7's gates that the number of tasks allows; returns those applied."""
    applied = []
    for name, min_tasks, holds in ORDERING_GATES:
        if tasks < min_tasks:
            continue
        applied.append(name)
        if not holds(successes):
            problems.add(f"ordering gate {name} fails on {tasks} tasks: {successes}")
    return applied


def check_plan(net: PlainNetwork, source: int, total: float, deadline: float, plan, problems: Problems) -> None:
    """A heuristic plan against the method's rules and the reference estimator."""
    direct_hop = net.hop(source, net.infra)
    direct = refest.delivery_prob([direct_hop], total, deadline) if direct_hop else 0.0
    where = f"plan (source {source}, size {total}, deadline {deadline})"
    if not plan.offloaded:
        if plan.allocations or abs(plan.joint_probability - direct) > 1e-9:
            problems.add(f"{where}: direct plan does not carry the direct probability")
        return
    used: set[tuple[int, int]] = set()
    product = 1.0
    for alloc in plan.allocations:
        route = tuple(alloc.route)
        if route[0] != source or route[-1] != net.infra:
            problems.add(f"{where}: route {route} does not join source and infrastructure")
            return
        edges = {(min(a, b), max(a, b)) for a, b in zip(route, route[1:])}
        hops = net.hops(route)
        if edges & used or None in hops:
            problems.add(f"{where}: routes share an edge or use a missing one")
            return
        used |= edges
        if alloc.assigned > 1e-9:
            product *= refest.delivery_prob(hops, alloc.assigned, deadline)
    assigned = math.fsum(a.assigned for a in plan.allocations)
    if abs(assigned - total) > 1e-9 * total:
        problems.add(f"{where}: sizes sum to {assigned}")
    if abs(plan.joint_probability - product) > 1e-9:
        problems.add(f"{where}: joint {plan.joint_probability} vs reference {product}")
    if plan.joint_probability < direct - 1e-9:
        problems.add(f"{where}: joint {plan.joint_probability} below direct {direct}")


class ProtocolAudit:
    """Criterion 9's invariants, fed by ``simulate_strategy``'s hooks."""

    def __init__(self, problems: Problems) -> None:
        self.problems = problems
        self.size = 0.0
        self.events = 0

    def monitor(self, row, states, delivered) -> None:
        if row["event"] == "start":
            self.size = row["carried_a"]
        self.events += 1
        tol = 1e-6 * self.size
        in_flight = math.fsum(s.carried for s in states.values())
        if abs(in_flight + delivered - self.size) > tol:
            self.problems.add(f"protocol: mass not conserved at t={row['time']}")
        for state in states.values():
            if abs(math.fsum(state.assignment.values()) - state.carried) > tol:
                self.problems.add(f"protocol: node {state.node_id} assignment != carried")

    def check_log(self, log: list[dict]) -> None:
        """No pair exchanges a task's data twice (no backflow)."""
        exchanged: set[tuple[int, int]] = set()
        for row in log:
            if row["event"] == "start":
                exchanged = set()
            elif row["event"] == "contact" and row["actual"] > 0:
                pair = (min(row["node_a"], row["node_b"]), max(row["node_a"], row["node_b"]))
                if pair in exchanged:
                    self.problems.add(f"protocol: pair {pair} exchanged data twice")
                exchanged.add(pair)


def in_region(hops, size: float, deadline: float):
    """Criterion 2's tolerance for this point, or None outside its region."""
    region = REGIONS.get(len(hops))
    if region is None:
        return None
    ranges, (size_lo, size_hi), (dl_lo, dl_hi), tol = region
    if not (size_lo <= size <= size_hi and dl_lo <= deadline <= dl_hi):
        return None
    for hop, hop_ranges in zip(hops, ranges):
        if hop[3] != 1.0:
            return None
        for value, (lo, hi) in zip(hop[:3], hop_ranges):
            if not lo <= value <= hi:
                return None
    return tol


class ValidationAudit:
    """Checks ``oppload validate`` rows; keeps error figures per hop count."""

    def __init__(self, problems: Problems) -> None:
        self.problems = problems
        self.region = defaultdict(lambda: {"points": 0, "max_abs_error": 0.0})
        self.outside = defaultdict(lambda: {"points": 0, "sum_error": 0.0, "max_abs_error": 0.0})

    def check(self, route, hops, rows) -> None:
        """``rows``: (size, deadline, estimated, simulated) in CSV order."""
        by_size = defaultdict(list)
        for size, deadline, est, sim in rows:
            by_size[size].append((deadline, est, sim))
            ref = refest.delivery_prob(hops, size, deadline)
            if abs(est - ref) > 1e-12:
                self.problems.add(f"validate {route} ({size}, {deadline}): {est} vs reference {ref}")
            if not (0.0 <= est <= 1.0 and 0.0 <= sim <= 1.0):
                self.problems.add(f"validate {route} ({size}, {deadline}): outside [0, 1]")
            error = est - sim
            tol = in_region(hops, size, deadline)
            if tol is not None:
                fig = self.region[len(hops)]
                fig["points"] += 1
                fig["max_abs_error"] = max(fig["max_abs_error"], abs(error))
                if abs(error) > tol:
                    self.problems.add(
                        f"validate {route} ({size}, {deadline}): |{est} - {sim}| > {tol} "
                        "inside criterion 2's region"
                    )
            else:
                fig = self.outside[len(hops)]
                fig["points"] += 1
                fig["sum_error"] += error
                fig["max_abs_error"] = max(fig["max_abs_error"], abs(error))
        for size, points in by_size.items():
            points.sort()
            for (_, e0, s0), (deadline, e1, s1) in zip(points, points[1:]):
                if e1 < e0 - 1e-12 or s1 < s0:
                    self.problems.add(f"validate {route} size {size}: decreases at deadline {deadline}")

    def figures(self) -> dict:
        outside = {
            str(hops): {
                "points": fig["points"],
                "mean_error": fig["sum_error"] / fig["points"],
                "max_abs_error": fig["max_abs_error"],
            }
            for hops, fig in sorted(self.outside.items())
        }
        region = {str(hops): dict(fig) for hops, fig in sorted(self.region.items())}
        return {"criterion_2_region": region, "outside_region": outside}
