"""Seeded Monte Carlo simulation of data transmissions.

Two entry points: :func:`run_monte_carlo_delivery` empirically estimates
the delivery probability of one path (the validation oracle for the
analytic estimators), and :func:`simulate_strategy` replays whole
transmission tasks on a network under one of five strategies, reporting
per-task outcomes, with one loop per transfer model: a plan's whole segments
drain hop by hop, and the per-contact strategies walk their contacts on
only the edges where a contact can change something, as :func:`_replay`
states.  The task loop of :func:`simulate_strategy` alone turns a
``ComplexityError``, ``EstimationError`` or ``PlanningError`` into a
failed task; a ``ProtocolError`` propagates.  The sampler's
``MAX_EXPECTED_CONTACTS`` fails a task on an edge that its plan drains, or
on any edge of a node that a replay walks.

Contact realizations are derived deterministically from ``(seed, task id,
edge)``, so every strategy sees the same contacts for the same task and a
rerun with the same seed reproduces results exactly: a task's Philox key
is ``SeedSequence((seed, task_id)).generate_state(2, uint64)``, and edge
``(a, b)`` draws from Philox under that key from counter ``(0, 0, a, b)``.
What depends on the network alone (the replay's edge ranks, maxrate's best
relays, the distributed routes) is derived once per
:func:`simulate_strategy` call, the first time a task needs it, and shared
by its tasks.
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

from .contacts import _check_contact_count, _sample_columns
from .delivery import PathSpec, _needed_contacts
from .distributed import (
    _EPS,
    NodeState,
    _deliver,
    criterion_assignment,
    on_contact,
)
from .errors import (
    ComplexityError,
    ConfigError,
    EstimationError,
    PlanningError,
    check_index,
    check_nonnegative,
    check_positive,
    check_seed,
)
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
    """One data item to deliver to infrastructure within a deadline, checked
    by the input contract's validators."""

    task_id: int
    source: int
    size: float
    deadline: float
    release: float = 0.0

    def __post_init__(self) -> None:
        check_index("task_id", self.task_id)
        check_index("source", self.source)
        check_positive("size", self.size)
        check_positive("deadline", self.deadline)
        check_nonnegative("release", self.release)


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
        ValueError: ``runs`` not an integer >= 1, ``data_size`` not finite
            and > 0, ``seed`` not a non-negative integer, or a NaN deadline.
    """
    check_index("runs", runs, start=1)
    check_positive("data_size", data_size)
    check_seed(seed)
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
    """Samples one contact realization per (task, edge) over the task's
    deadline; the runners ask for each edge at most once per task.

    The task's Philox key is ``SeedSequence((seed, task_id))``'s first two
    64-bit words.  Edge ``(a, b)`` draws from Philox under that key from
    counter ``(0, 0, a, b)``: Philox steps only the lowest counter word per
    block, so no two edges' streams overlap.  Each request loads its edge's
    counter into the task's one ``Generator``.  Nothing outlives the task.
    """

    def __init__(self, network: Network, seed: int, task_id: int, horizon: float):
        self._network = network
        self._seed = seed
        self._task_id = task_id
        self._horizon = horizon
        self._key = np.random.SeedSequence((seed, task_id)).generate_state(2, np.uint64)
        self._rng = np.random.Generator(np.random.Philox(key=self._key))

    def events(self, key: EdgeKey) -> _EdgeContacts:
        # the state of a fresh Philox(key=..., counter=(0, 0, a, b))
        self._rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, *key), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return _EdgeContacts(*_sample_columns(self._network.edges[key], self._horizon, self._rng))


def _drain(
    allocations: Iterable[tuple[Sequence[int], float]],
    sampler: _ContactSampler,
    network: Network,
    deadline: float,
) -> float | None:
    """Completion time of a plan whose ``(route, size)`` segments are each
    pushed hop by hop, a hop using only contacts that start once the whole
    segment has arrived: the latest arrival, or None at the first segment
    that misses the deadline, before any edge of a later one is sampled."""
    latest = 0.0
    for route, size in allocations:
        ready = 0.0
        for a, b in zip(route, route[1:]):
            rate = network.edge_params(a, b).rate
            remaining = size
            contacts = sampler.events(edge_key(a, b))
            for start, duration in zip(contacts.starts, contacts.durations):
                if start < ready or start >= deadline:
                    continue
                # the contact carries data until it ends or the deadline passes
                amount = min(remaining, min(duration, deadline - start) * rate)
                remaining -= amount
                if remaining <= _EPS * size:
                    ready = start + amount / rate
                    break
            else:
                return None
        latest = max(latest, ready)
    return latest


# ---------------------------------------------------------------------------
# strategy runners; each returns (offloaded, success, completion or None),
# or raises for a task it cannot run (see simulate_strategy)


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
    completion = _drain([((task.source, infra), task.size)], sampler, network, task.deadline)
    return False, completion is not None, completion


def _run_heuristic(
    context: _Context, task: TransmissionTask, sampler: _ContactSampler
) -> tuple[bool, bool, float | None]:
    plan = plan_offload(context.network, task.source, task.size, task.deadline)
    if not plan.offloaded:
        return _run_individual(context, task, sampler)
    completion = _drain(
        ((a.route, a.assigned) for a in plan.allocations), sampler, context.network, task.deadline
    )
    return True, completion is not None, completion


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
    strategy's ``movable(a, b)``, whose docstring states its rule, is truthy
    where a meeting can move data; ``meet`` moves data and returns whether
    it did, and moves nothing where ``movable`` is falsy.  A falsy answer
    turns truthy only when an end's holding grows.

    Any other contact changes nothing, so only the edges where a contact can
    change something are walked: an edge to infrastructure whose mobile end
    holds data, and an edge between mobile nodes that ``movable`` passes.
    They are merged on a heap in the order of the fully merged stream: by
    start, then by rank in ``sorted(network.edges)``, then by index on the
    edge.  An edge is sampled the first time the walk needs it and leaves
    the walk when it is reached while no contact on it can change anything.
    A node is walked when its holding grows, the source at the start: its
    idle edges that can then change something come back from the first
    contact after the current one, and its other edges are checked against
    ``MAX_EXPECTED_CONTACTS`` as sampling would check them, so the cap fails
    a task on any edge of a node that comes to hold data, walked or not.
    """
    deadline = task.deadline
    done = task.size - _EPS * task.size
    inf, eps = math.inf, _EPS
    held = strategy.held
    meet, unload, movable = strategy.meet, strategy.unload, strategy.movable
    edges = context.network.edges
    keys, mobile_end, incident, rates = context.edge_index
    # per edge, built when first walked: contact starts closed by an inf start
    starts: list[list[float] | None] = [None] * len(keys)
    durations: list[list[float]] = [[]] * len(keys)
    live = [False] * len(keys)  # the edge has an entry on the heap
    # entries (start, rank, index); (start, rank) alone orders them
    heap: list[tuple[float, int, int]] = [(inf, -1, 0)]

    def walk(node: int, now: float, rank: int) -> None:
        """Put the idle edges of ``node``, which holds data, that can change
        something on the heap after contact ``(now, rank)``, and check the
        others against the contact cap."""
        for r in incident[node]:
            if live[r]:
                continue
            s = starts[r]
            if mobile_end[r] < 0 and not movable(*keys[r]):
                if s is None:
                    _check_contact_count(edges[keys[r]], deadline)
                continue
            if s is None:
                contacts = sampler.events(keys[r])
                s = starts[r] = contacts.starts + [inf]
                durations[r] = contacts.durations
            # simultaneous contacts of lower-ranked edges came before this one;
            # an idle edge's earlier contacts all start at or before ``now``
            i = (bisect_right if r < rank else bisect_left)(s, now)
            live[r] = True
            heappush(heap, (s[i], r, i))

    if held(task.source) > eps:
        walk(task.source, -inf, -1)
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
            touching = movable(a, b)
        if not touching:
            heappop(heap)
            live[r] = False
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
            held_a, held_b = held(a), held(b)
            offloaded = meet(a, b, capacity, start) or offloaded
            if held(a) > max(held_a, eps):
                walk(a, start, r)
            if held(b) > max(held_b, eps):
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
        for routes in context.routes.values():
            for spec in routes.values():
                spec.clear()
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

    def movable(self, a: int, b: int) -> bool:
        """Whether a meeting of ``a`` and ``b`` can move data: either holds
        more than 1e-9.  The replay logs every such meeting."""
        return self.states[a].carried > _EPS or self.states[b].carried > _EPS

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
        mobile = context.network.mobile_nodes()
        self.carried = dict.fromkeys(mobile, 0.0)
        self.carried[task.source] = task.size
        # per node, the nodes it received data from: one set each, made once
        self.provenance = {node: set() for node in mobile}
        # a plain dict lookup: the replay asks for nearly every contact
        self.held = self.carried.__getitem__

    def unload(self, node: int, amount: float, start: float, delivered: float) -> None:
        self.carried[node] -= amount

    def hand(self, sender: int, receiver: int, amount: float) -> bool:
        """Move ``amount`` unless ``sender`` got its data from ``receiver``."""
        if receiver in self.provenance[sender]:
            return False
        self.carried[sender] -= amount
        self.carried[receiver] += amount
        self.provenance[receiver].add(sender)
        return True


# Halving alone leaves at most this many pieces of an item under spread.
_SPREAD_COPIES = 8


class _Spread(_Carriers):
    """Binary Spray and Wait over data: at a meeting the larger carrier hands
    half of what it holds, at most the contact's capacity, to the other side
    (of two equal carriers the lower id sends), only while that half is at
    least ``size / _SPREAD_COPIES``, and never back to a node it received
    data from.  As Spray and Wait stops splitting at one copy, a carrier
    whose half falls below the floor hands its data to infrastructure
    only."""

    def __init__(self, context: _Context, task: TransmissionTask):
        super().__init__(context, task)
        self.floor = task.size / _SPREAD_COPIES

    def movable(self, a: int, b: int) -> tuple[int, int, float] | None:
        """The hand a meeting of ``a`` and ``b`` makes before the capacity
        cap, ``(sender, receiver, amount)``: the larger carrier (of two equal
        ones the lower id) sends half of what it holds, when that half is at
        least the floor and above 1e-9; else None.  ``hand`` tests provenance,
        as a delivery can flip the direction without bringing the edge back."""
        held_a, held_b = self.carried[a], self.carried[b]
        if held_a > held_b or (held_a == held_b and a < b):
            sender, receiver, amount = a, b, held_a / 2.0
        else:
            sender, receiver, amount = b, a, held_b / 2.0
        if amount < self.floor or amount <= _EPS:
            return None
        return sender, receiver, amount

    def meet(self, a: int, b: int, capacity: float, start: float) -> bool:
        if not (move := self.movable(a, b)):
            return False
        sender, receiver, amount = move
        amount = min(amount, capacity)
        return amount > _EPS and self.hand(sender, receiver, amount)


class _MaxRate(_Carriers):
    def __init__(self, context: _Context, task: TransmissionTask):
        super().__init__(context, task)
        self.best_relay = context.best_relay

    def movable(self, a: int, b: int) -> tuple[int, int, float] | None:
        """The hand a meeting of ``a`` and ``b`` makes before the capacity
        cap, ``(sender, receiver, amount)``: a node that holds more than 1e-9
        hands all of it to its best relay, from which it received no data,
        ``a`` first where both could; else None."""
        carried, relay, provenance = self.carried, self.best_relay, self.provenance
        if relay[a] == b and carried[a] > _EPS and b not in provenance[a]:
            return a, b, carried[a]
        if relay[b] == a and carried[b] > _EPS and a not in provenance[b]:
            return b, a, carried[b]
        return None

    def meet(self, a: int, b: int, capacity: float, start: float) -> bool:
        if not (move := self.movable(a, b)):
            return False
        sender, receiver, held = move
        return self.hand(sender, receiver, min(held, capacity))


def _replaying(strategy: type[_Distributed] | type[_Carriers]):
    """The runner that replays each task under a fresh ``strategy``."""

    def run(
        context: _Context, task: TransmissionTask, sampler: _ContactSampler
    ) -> tuple[bool, bool, float | None]:
        return _replay(context, task, sampler, strategy(context, task))

    return run


# The strategies, in the order "all" runs them.
_RUNNERS = {
    "individual": _run_individual,
    "heuristic": _run_heuristic,
    "distributed": _replaying(_Distributed),
    "spread": _replaying(_Spread),
    "maxrate": _replaying(_MaxRate),
}
STRATEGIES = tuple(_RUNNERS)


def simulate_strategy(
    network: Network,
    tasks: Iterable[TransmissionTask],
    strategy: str,
    seed: int,
    event_log: list[dict] | None = None,
    monitor: Callable[[dict, dict[int, NodeState], float], None] | None = None,
) -> SimResult:
    """Replay every task under one strategy on seeded contact realizations.

    ``tasks`` is read once, so a generator runs like the list it yields.
    Each task sees a fresh contact realization derived from ``(seed,
    task_id, edge)``, identical across strategies.  ``event_log`` (filled
    with per-event rows) and ``monitor`` (called after every protocol
    event) only apply to the distributed strategy.  Distributed, spread and
    maxrate walk a task's contacts as :func:`_replay` states.

    A task the program cannot run fails alone (not offloaded, no completion
    time): the task loop catches any runner's ``ComplexityError`` (the
    planner's tuple cap, the estimator's cap in a replay, or the sampler's
    ``MAX_EXPECTED_CONTACTS`` on an edge that a plan drains or on any edge of
    a node that a replay walks),
    ``EstimationError`` (an estimator gamma or contact count overflows) or
    ``PlanningError`` (a source without the route its strategy needs).  A
    ``ProtocolError`` is a protocol fault and propagates.

    Raises:
        ConfigError: unknown strategy name.
        ValueError: before any task runs, when ``seed`` is not a
            non-negative integer (``bool`` and NumPy integers count, as
            ``SeedSequence`` takes them), a task's source is not a mobile
            node, or two tasks share a ``task_id``: their contacts are
            seeded from it, so they would replay the same contacts.
    """
    runner = _RUNNERS.get(strategy)
    if runner is None:
        raise ConfigError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    check_seed(seed)
    tasks = tuple(tasks)
    mobile = set(network.mobile_nodes())
    seen = set()
    for task in tasks:
        if task.source not in mobile:
            raise ValueError(f"task {task.task_id}: source {task.source!r} is not a mobile node")
        if task.task_id in seen:
            raise ValueError(f"task_id {task.task_id!r} is given to two tasks; ids must differ")
        seen.add(task.task_id)
    context = _Context(network, event_log, monitor)
    outcomes: list[TaskOutcome] = []
    for task in tasks:
        sampler = _ContactSampler(network, seed, task.task_id, task.deadline)
        try:
            offloaded, success, completion = runner(context, task, sampler)
        except (ComplexityError, EstimationError, PlanningError):
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
