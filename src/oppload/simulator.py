"""Seeded Monte Carlo simulation of data transmissions.

Two entry points: :func:`run_monte_carlo_delivery` empirically estimates
the delivery probability of one path (the validation oracle for the
analytic estimators), and :func:`simulate_strategy` replays whole
transmission tasks on a network under one of five strategies, reporting
per-task outcomes.  Its task loop alone turns a ``ComplexityError`` or
``PlanningError`` into a failed task; a ``ProtocolError`` propagates.

Contact realizations are derived deterministically from ``(seed, task id,
edge)``, so every strategy sees the same contacts for the same task and a
rerun with the same seed reproduces results exactly.  What depends on the
network alone (the replay's edge ranks, maxrate's best relays, the
distributed routes) is derived once per :func:`simulate_strategy` call,
the first time a task needs it, and shared by its tasks.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush, heapreplace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .contacts import _sample_columns
from .delivery import PathSpec, _needed_contacts
from .distributed import (
    _EPS,
    NodeState,
    _deliver,
    criterion_assignment,
    on_contact,
)
from .errors import ComplexityError, ConfigError, PlanningError
from .heuristic import plan_offload, route_path
from .netgraph import EdgeKey, Network, edge_key

__all__ = [
    "TransmissionTask",
    "TaskOutcome",
    "SimResult",
    "STRATEGIES",
    "run_monte_carlo_delivery",
    "simulate_strategy",
    "write_results_csv",
    "write_summary_csv",
    "write_event_log_csv",
]

@dataclass(frozen=True)
class TransmissionTask:
    """One data item to deliver to infrastructure within a deadline."""

    task_id: int
    source: int
    size: float
    deadline: float
    release: float = 0.0

    def __post_init__(self) -> None:
        for name in ("size", "deadline", "release"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.size <= 0 or self.deadline <= 0:
            raise ValueError("size and deadline must be > 0")
        if self.release < 0:
            raise ValueError(f"release must be >= 0, got {self.release!r}")


@dataclass(frozen=True)
class TaskOutcome:
    strategy: str
    task_id: int
    size: float
    deadline: float
    offloaded: bool
    success: bool
    completion_time: float | None


@dataclass(frozen=True)
class SimResult:
    strategy: str
    total: int
    offloaded: int
    successful: int
    outcomes: tuple[TaskOutcome, ...]


# ---------------------------------------------------------------------------
# path-level Monte Carlo oracle


def run_monte_carlo_delivery(
    path: PathSpec, data_size: float, deadlines: Sequence[float], runs: int, seed: int
) -> list[float]:
    """Empirical delivery probability of one path, one per deadline.

    Per run, each hop's contact process is sampled afresh from the moment
    the item fully arrives at that hop's sender; a contact moves
    ``min(remaining, duration * rate)`` and the item advances when the
    cumulative amount reaches the item size.  The runs' completion times
    are drawn once, from ``seed`` alone, and every deadline reads the
    share of runs whose final hop completes by it; a deadline <= 0 gives
    0.  So each answer equals that of a call with that deadline alone, and
    the answers never decrease as the deadline grows.  When no deadline is
    positive nothing is drawn.

    Raises:
        ValueError: ``runs < 1``, ``data_size`` not finite and > 0, or a
            NaN deadline.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not 0 < data_size < math.inf:
        raise ValueError(f"data_size must be finite and > 0, got {data_size!r}")
    deadlines = [float(d) for d in deadlines]
    if any(math.isnan(d) for d in deadlines):
        raise ValueError("deadline must not be NaN")
    if not any(d > 0 for d in deadlines):
        return [0.0] * len(deadlines)
    rng = np.random.default_rng(seed)
    rows = np.arange(runs)
    ready = np.zeros(runs)
    for hop in path.hops:
        contacts = _needed_contacts(data_size, hop.beta)
        gaps = rng.exponential(1.0 / hop.contact_rate, size=(runs, contacts))
        np.cumsum(gaps, axis=1, out=gaps)
        # durations, then the data they carry: the two scalings round as the
        # oracle always has, so its answers stay bit for bit the same
        amounts = rng.pareto(hop.alpha, size=(runs, contacts))
        amounts += 1.0
        amounts *= hop.beta / hop.rate
        amounts *= hop.rate
        np.cumsum(amounts, axis=1, out=amounts)
        # first contact index at which the cumulative amount covers the item
        done = np.argmax(amounts >= data_size - 1e-12, axis=1)
        carried_before = np.where(done > 0, amounts[rows, np.maximum(done - 1, 0)], 0.0)
        needed = data_size - carried_before
        ready = (ready + gaps[rows, done]) + needed / hop.rate
    return [float(np.mean(ready <= d)) if d > 0 else 0.0 for d in deadlines]


# ---------------------------------------------------------------------------
# contact realizations shared by the strategy runners


class _EdgeContacts:
    """One edge's contacts as two lists ordered by start; ``len`` counts the
    contacts."""

    __slots__ = ("starts", "durations")

    def __init__(self, starts: list[float], durations: list[float]):
        self.starts = starts
        self.durations = durations

    def __len__(self) -> int:
        return len(self.starts)


class _ContactSampler:
    """Samples one contact realization per (task, edge), seeded from both;
    the runners ask for each edge at most once per task."""

    def __init__(self, network: Network, seed: int, task_id: int, horizon: float):
        self._network = network
        self._seed = seed
        self._task_id = task_id
        self._horizon = horizon

    def events(self, key: EdgeKey) -> _EdgeContacts:
        seed = np.random.SeedSequence((self._seed, self._task_id, key[0], key[1]))
        return _EdgeContacts(*_sample_columns(self._network.edges[key], self._horizon, seed))


def _drain_route(
    route: Sequence[int],
    size: float,
    sampler: _ContactSampler,
    network: Network,
    deadline: float,
) -> float | None:
    """Completion time of a segment pushed hop by hop along a route."""
    ready = 0.0
    for a, b in zip(route, route[1:]):
        params = network.edge_params(a, b)
        remaining = size
        completed = None
        contacts = sampler.events(edge_key(a, b))
        for start, duration in zip(contacts.starts, contacts.durations):
            if start < ready or start >= deadline:
                continue
            # the contact carries data until it ends or the deadline passes
            amount = min(remaining, min(duration, deadline - start) * params.rate)
            remaining -= amount
            if remaining <= _EPS * size:
                completed = start + amount / params.rate
                break
        if completed is None:
            return None
        ready = completed
    return ready


# ---------------------------------------------------------------------------
# strategy runners; each returns (offloaded, success, completion or None),
# or raises ComplexityError or PlanningError for a task it cannot run


@dataclass
class _Context:
    """One :func:`simulate_strategy` call: the network, the distributed log and
    monitor, and what the replays derive from the network alone, built when first needed."""

    network: Network
    event_log: list[dict] | None = None
    monitor: Callable[[dict, dict[int, NodeState], float], None] | None = None

    @cached_property
    def edge_index(self) -> tuple[list[EdgeKey], list[int], dict[int, list[int]], list[float]]:
        """By rank in ``sorted(network.edges)``: keys, mobile ends (-1 on an
        edge between mobiles) and rates; per node, the ranks of its edges."""
        network, infra = self.network, self.network.infrastructure_id
        keys = sorted(network.edges)
        mobile_end = [b if a == infra else a if b == infra else -1 for a, b in keys]
        incident: dict[int, list[int]] = {node: [] for node in range(network.node_count)}
        for rank, (a, b) in enumerate(keys):
            incident[a].append(rank)
            incident[b].append(rank)
        return keys, mobile_end, incident, [network.edges[key].rate for key in keys]

    @cached_property
    def best_relay(self) -> dict[int, int | None]:
        """Per mobile node, the neighbor with the strongest contact rate to
        infrastructure; ties go to the lowest id."""
        network, infra = self.network, self.network.infrastructure_id
        lam = {nb: network.edge_params(nb, infra).contact_rate for nb in network.neighbors(infra)}
        return {
            node: max((n for n in network.neighbors(node) if n in lam), key=lam.get, default=None)
            for node in network.mobile_nodes()
        }

    @cached_property
    def routes(self) -> dict[int, dict[tuple[int, ...], PathSpec]]:
        """Per mobile node, its :class:`NodeState` routes, shared by every task
        (nodes are taken to have met their neighbors before any task): the
        direct route, then one through each neighbor, in ascending id."""
        network, infra = self.network, self.network.infrastructure_id
        relays = set(network.neighbors(infra))
        routes = {}
        for node in network.mobile_nodes():
            candidates = [(node, infra)] + [(node, nb, infra) for nb in network.neighbors(node)]
            # a route is kept when its last hop reaches infrastructure
            routes[node] = {r: route_path(network, r) for r in candidates if r[-2] in relays}
        return routes


def _run_individual(
    context: _Context, task: TransmissionTask, sampler: _ContactSampler
) -> tuple[bool, bool, float | None]:
    network = context.network
    infra = network.infrastructure_id
    if network.edge_params(task.source, infra) is None:
        raise PlanningError(f"node {task.source} has no edge to infrastructure")
    completion = _drain_route((task.source, infra), task.size, sampler, network, task.deadline)
    return False, completion is not None, completion


def _run_heuristic(
    context: _Context, task: TransmissionTask, sampler: _ContactSampler
) -> tuple[bool, bool, float | None]:
    plan = plan_offload(context.network, task.source, task.size, task.deadline)
    if not plan.offloaded:
        return _run_individual(context, task, sampler)
    worst = 0.0
    for allocation in plan.allocations:
        completion = _drain_route(
            allocation.route, allocation.assigned, sampler, context.network, task.deadline
        )
        if completion is None:
            return True, False, None
        worst = max(worst, completion)
    return True, True, worst


def _replay(
    context: _Context,
    task: TransmissionTask,
    sampler: _ContactSampler,
    strategy: _Carriers | _Distributed,
) -> tuple[bool, bool, float | None]:
    """Walk a task's contacts in time order under one contact-driven strategy.

    The rule at infrastructure is shared: a contact delivers
    ``min(held, capacity)`` from its mobile side, and the task completes
    once the delivered total reaches its size.  Between mobile nodes the
    strategy's ``meet`` decides what moves; it runs only when one side
    holds data and returns whether data moved.

    A contact where no mobile end holds data changes nothing, so only the
    edges touching data are walked, merged on a heap in the order of the
    fully merged stream: by start, then by rank in ``sorted(network.edges)``,
    then by index on the edge.  An edge is sampled the first time the walk
    needs it and leaves the walk when it is reached while neither mobile
    end holds data.  A node that comes to hold data brings its idle edges
    back from the first contact after the current one.
    """
    deadline = task.deadline
    done = task.size - _EPS * task.size
    inf, eps = math.inf, _EPS
    held = strategy.held
    meet, unload = strategy.meet, strategy.unload
    keys, mobile_end, incident, rates = context.edge_index
    # per edge, built when first walked: contact starts closed by an inf start
    starts: list[list[float] | None] = [None] * len(keys)
    durations: list[list[float]] = [[]] * len(keys)
    resume = [0] * len(keys)  # where an idle edge stopped
    live = [False] * len(keys)  # the edge has an entry on the heap
    # entries (start, rank, index); (start, rank) alone orders them
    heap: list[tuple[float, int, int]] = [(inf, -1, 0)]
    # nodes whose edges are all on the heap; an edge leaving it stops both
    # ends walking, so a node that holds data again brings it back
    walking: set[int] = set()

    def walk(node: int, now: float, rank: int) -> None:
        """Put ``node``'s idle edges on the heap after contact ``(now, rank)``."""
        walking.add(node)
        for r in incident[node]:
            if live[r]:
                continue
            s = starts[r]
            if s is None:
                contacts = sampler.events(keys[r])
                s = starts[r] = contacts.starts + [inf]
                durations[r] = contacts.durations
            # simultaneous contacts of lower-ranked edges came before this one
            i = (bisect_right if r < rank else bisect_left)(s, now, resume[r])
            live[r] = True
            heappush(heap, (s[i], r, i))

    for node in context.network.mobile_nodes():
        if held(node) > eps:
            walk(node, -inf, -1)
    delivered = 0.0
    offloaded = False
    while True:
        start, r, i = heap[0]
        if start == inf:
            return offloaded, False, None
        mobile = mobile_end[r]
        if mobile >= 0:
            touching = held(mobile) > eps
        else:
            a, b = keys[r]
            touching = held(a) > eps or held(b) > eps
        if not touching:
            heappop(heap)
            live[r] = False
            resume[r] = i
            walking.difference_update(keys[r])
            continue
        heapreplace(heap, (starts[r][i + 1], r, i + 1))
        # min(duration, deadline - start), inlined: this runs once a contact
        usable = deadline - start
        duration = durations[r][i]
        if duration <= usable:
            usable = duration
        if usable <= 0:
            continue
        capacity = usable * rates[r]
        if mobile >= 0:
            amount = min(held(mobile), capacity)
            if amount > eps:
                delivered += amount
                unload(mobile, amount, start, delivered)
                if delivered >= done:
                    return offloaded, True, start + amount / rates[r]
        else:
            offloaded = meet(a, b, capacity, start) or offloaded
            if a not in walking and held(a) > eps:
                walk(a, start, r)
            if b not in walking and held(b) > eps:
                walk(b, start, r)


class _Distributed:
    """The two-hop protocol's node states for one task.

    Raises:
        PlanningError: the source has no route, checked before any state is
            built; so ``criterion_assignment`` never raises ``ProtocolError``
            here, and one that leaves a replay is a protocol fault.
    """

    def __init__(self, context: _Context, task: TransmissionTask):
        if not context.routes[task.source]:
            raise PlanningError(f"node {task.source} has no route to infrastructure")
        self.context = context
        self.infra = infra = context.network.infrastructure_id
        self.states = {n: NodeState(n, infra, task.source, r) for n, r in context.routes.items()}
        # a task's segment sizes are its own: dropping the last task's terms
        # and prices keeps a call's memory from growing with its number of tasks
        for routes in context.routes.values():
            for spec in routes.values():
                spec.terms.clear()
        self.deadline = task.deadline
        self.delivered = 0.0
        source = self.states[task.source]
        source.carried = task.size
        source.assignment = criterion_assignment(source, task.size, task.deadline)
        self._record(0.0, "start", task.source, task.source, 0.0, 0.0)

    def _record(
        self, time: float, event: str, a: int, b: int, planned: float, actual: float
    ) -> None:
        """Log one protocol event and pass it to the monitor, when either is set."""
        log, monitor = self.context.event_log, self.context.monitor
        if log is None and monitor is None:
            return
        states = self.states
        row = {
            "time": time,
            "event": event,
            "node_a": a,
            "node_b": b,
            "planned": planned,
            "actual": actual,
            "carried_a": 0.0 if a == self.infra else states[a].carried,
            "carried_b": 0.0 if b == self.infra else states[b].carried,
        }
        if log is not None:
            log.append(row)
        if monitor is not None:
            monitor(row, states, self.delivered)

    def held(self, node: int) -> float:
        return self.states[node].carried

    def unload(self, node: int, amount: float, start: float, delivered: float) -> None:
        _deliver(self.states[node], amount, self.deadline - start)
        self.delivered = delivered
        self._record(start, "deliver", node, self.infra, amount, amount)

    def meet(self, a: int, b: int, capacity: float, start: float) -> bool:
        contact = on_contact(self.states[a], self.states[b], capacity, self.deadline - start)
        self._record(start, "contact", a, b, contact.planned, contact.transferred)
        return contact.transferred > _EPS


class _Carriers:
    """Data held per mobile node for one task; a node never hands data back
    to a node it received data from."""

    def __init__(self, context: _Context, task: TransmissionTask):
        self.context = context
        self.carried = dict.fromkeys(context.network.mobile_nodes(), 0.0)
        self.carried[task.source] = task.size
        self.provenance: dict[int, set[int]] = {}
        # a plain dict lookup: the replay asks for nearly every contact
        self.held = self.carried.__getitem__

    def unload(self, node: int, amount: float, start: float, delivered: float) -> None:
        self.carried[node] -= amount

    def hand(self, sender: int, receiver: int, amount: float) -> bool:
        """Move ``amount`` unless ``sender`` got its data from ``receiver``."""
        if receiver in self.provenance.get(sender, ()):
            return False
        self.carried[sender] -= amount
        self.carried[receiver] += amount
        self.provenance.setdefault(receiver, set()).add(sender)
        return True


class _Spread(_Carriers):
    def meet(self, a: int, b: int, capacity: float, start: float) -> bool:
        # larger carrier hands half of its remainder to the other side
        carried = self.carried
        first, second = (a, b) if (carried[a], -a) >= (carried[b], -b) else (b, a)
        amount = min(carried[first] / 2.0, capacity)
        return amount > _EPS and self.hand(first, second, amount)


class _MaxRate(_Carriers):
    def meet(self, a: int, b: int, capacity: float, start: float) -> bool:
        for sender, receiver in ((a, b), (b, a)):
            held = self.carried[sender]
            if (
                held > _EPS
                and self.context.best_relay[sender] == receiver
                and self.hand(sender, receiver, min(held, capacity))
            ):
                return True
        return False


def _replaying(strategy: type[_Distributed] | type[_Carriers]):
    """The runner that replays each task under a fresh ``strategy``."""

    def run(
        context: _Context, task: TransmissionTask, sampler: _ContactSampler
    ) -> tuple[bool, bool, float | None]:
        return _replay(context, task, sampler, strategy(context, task))

    return run


# The strategies, in the order "all" runs them.  The annotation stays an
# unevaluated string: ``typing`` memoizes a ``Callable[...]`` built at import
# under its argument classes, which would keep every earlier import alive.
_RUNNERS: dict[
    str, Callable[[_Context, TransmissionTask, _ContactSampler], tuple[bool, bool, float | None]]
] = {
    "individual": _run_individual,
    "heuristic": _run_heuristic,
    "distributed": _replaying(_Distributed),
    "spread": _replaying(_Spread),
    "maxrate": _replaying(_MaxRate),
}
STRATEGIES = tuple(_RUNNERS)


def simulate_strategy(
    network: Network,
    tasks: Sequence[TransmissionTask],
    strategy: str,
    seed: int,
    event_log: list[dict] | None = None,
    monitor: Callable[[dict, dict[int, NodeState], float], None] | None = None,
) -> SimResult:
    """Replay every task under one strategy on seeded contact realizations.

    Each task sees a fresh contact realization derived from ``(seed,
    task_id, edge)``, identical across strategies.  ``event_log`` (filled
    with per-event rows) and ``monitor`` (called after every protocol
    event) only apply to the distributed strategy.

    A task the program cannot run fails alone (not offloaded, no completion
    time): the task loop catches any runner's ``ComplexityError`` (the
    planner's tuple cap, the estimator's cap in a replay, or the sampler's
    ``MAX_EXPECTED_CONTACTS`` on an edge the strategy walks) or
    ``PlanningError`` (a source without the route its strategy needs).  A
    ``ProtocolError`` is a protocol fault and propagates.

    Raises:
        ConfigError: unknown strategy name.
        ValueError: a task's source is not a mobile node of the network.
    """
    runner = _RUNNERS.get(strategy)
    if runner is None:
        raise ConfigError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    mobile = set(network.mobile_nodes())
    for task in tasks:
        if task.source not in mobile:
            raise ValueError(f"task {task.task_id}: source {task.source!r} is not a mobile node")
    context = _Context(network, event_log, monitor)
    outcomes: list[TaskOutcome] = []
    for task in tasks:
        sampler = _ContactSampler(network, seed, task.task_id, task.deadline)
        try:
            offloaded, success, completion = runner(context, task, sampler)
        except (ComplexityError, PlanningError):
            offloaded, success, completion = False, False, None
        outcomes.append(
            TaskOutcome(
                strategy=strategy,
                task_id=task.task_id,
                size=task.size,
                deadline=task.deadline,
                offloaded=offloaded,
                success=success,
                completion_time=(task.release + completion) if completion is not None else None,
            )
        )
    outcomes.sort(key=lambda o: o.task_id)
    return SimResult(
        strategy=strategy,
        total=len(outcomes),
        offloaded=sum(o.offloaded for o in outcomes),
        successful=sum(o.success for o in outcomes),
        outcomes=tuple(outcomes),
    )


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(results: Iterable[SimResult], path: str | Path) -> None:
    """Per-task rows: strategy,task_id,size,deadline,offloaded,success,completion_time."""
    outcomes = sorted(
        (o for r in results for o in r.outcomes),
        key=lambda o: (o.strategy, o.task_id),
    )
    _write_csv(
        path,
        ["strategy", "task_id", "size", "deadline", "offloaded", "success", "completion_time"],
        (
            [
                o.strategy,
                o.task_id,
                repr(float(o.size)),
                repr(float(o.deadline)),
                int(o.offloaded),
                int(o.success),
                "" if o.completion_time is None else repr(float(o.completion_time)),
            ]
            for o in outcomes
        ),
    )


def write_summary_csv(results: Iterable[SimResult], path: str | Path) -> None:
    """Summary rows: strategy,total,offloaded,successful."""
    _write_csv(
        path,
        ["strategy", "total", "offloaded", "successful"],
        (
            [r.strategy, r.total, r.offloaded, r.successful]
            for r in sorted(results, key=lambda r: r.strategy)
        ),
    )


def write_event_log_csv(rows: Iterable[dict], path: str | Path) -> None:
    """Protocol event rows: time,event,node_a,node_b,planned,actual,carried_a,carried_b."""
    amounts = ["planned", "actual", "carried_a", "carried_b"]
    _write_csv(
        path,
        ["time", "event", "node_a", "node_b", *amounts],
        (
            [
                repr(float(row["time"])),
                row["event"],
                row["node_a"],
                row["node_b"],
                *(repr(float(row[column])) for column in amounts),
            ]
            for row in rows
        ),
    )
