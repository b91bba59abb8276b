"""Centralized cooperative-offload planning.

Given global knowledge of the network, a source node fragments a data item
across edge-disjoint opportunistic paths to the infrastructure node so the
joint delivery probability beats direct transmission.  Planning runs in
three phases: path allocation by availability (a greedy max-availability
search with allocated edges excluded), capacity-sized initial assignment
plus growth of the remaining data onto the currently best path, and a
reallocation pass that retires the weakest path while that improves the
product of per-path probabilities.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .contacts import _reg_lower_incomplete_gammas
from .delivery import (
    DeliveryQuery,
    PathSpec,
    availability,
    delivery_prob_onehop,
    delivery_prob_path,
    path_capacity,
)
from .errors import ConfigError, PlanningError, check_index, check_nonnegative, check_positive
from .netgraph import EdgeKey, Network, edge_key

__all__ = [
    "Allocation",
    "OffloadPlan",
    "dijkstra_max_q",
    "allocate_paths",
    "assign_remaining",
    "reallocate",
    "plan_offload",
    "plan_to_json",
    "route_path",
]

_SIZE_EPS = 1e-9


@dataclass(frozen=True)
class Allocation:
    """One allocated path and the data segment assigned to it."""

    route: tuple[int, ...]
    path: PathSpec
    assigned: float

    def __post_init__(self) -> None:
        if len(self.route) < 2:
            raise ValueError(f"route needs at least two nodes, got {self.route!r}")
        if len(set(self.route)) != len(self.route):
            raise ValueError(f"route revisits a node: {self.route!r}")
        if len(self.route) - 1 != len(self.path):
            raise ValueError("route length does not match the hop count")
        check_nonnegative("assigned", self.assigned)

    def edges(self) -> set[EdgeKey]:
        return {edge_key(a, b) for a, b in zip(self.route, self.route[1:])}


@dataclass(frozen=True)
class OffloadPlan:
    """Outcome of planning: either an offload split or direct transmission."""

    allocations: tuple[Allocation, ...]
    total: float
    deadline: float
    joint_probability: float
    offloaded: bool


def route_path(network: Network, route: Sequence[int]) -> PathSpec:
    """The hops of ``route``, a sequence of node ids, on ``network``.

    Raises:
        ConfigError: the route uses an edge the network does not have.
    """
    hops = []
    for a, b in zip(route, route[1:]):
        params = network.edge_params(a, b)
        if params is None:
            raise ConfigError(f"route uses missing edge {(a, b)}")
        hops.append(params)
    return PathSpec(tuple(hops))


def _check_plan_inputs(network: Network, u: int, total: float, deadline: float) -> None:
    if check_index("source", u, network.node_count) == network.infrastructure_id:
        raise ValueError(f"source {u} is the infrastructure node, which plans no offloads")
    check_positive("total", total)
    check_positive("deadline", deadline)


def _settle(
    network: Network, u: int, deadline: float, excluded: set[EdgeKey]
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Yield ``(route, availability)`` for each node as the search settles it.

    The source comes first with label 1.  A heap entry carries its route's
    running ``M = sum(1/lambda)`` and ``V = sum(1/lambda**2)``, summed in
    route order as :func:`availability` sums them, so extending a route by
    one hop gives that function's value without rebuilding the path.  When
    a node settles, its unsettled neighbors over edges not in ``excluded``
    (read from :meth:`Network.incident`) are labelled together, with one
    array gamma call that applies the scalar call's checks to every label.
    The first entry popped for a node settles it with that entry's label,
    and later entries for the node are skipped.  Each route is pushed at
    most once, so no two entries tie, and an entry is not pushed at all
    when the smallest one pushed for its node is smaller on the key
    ``(-availability, hops, route)``: that one pops first, so this one
    would only be skipped.  The route is built only for a label that is
    not already beaten on ``(-availability, hops)``.  Every node of a
    popped route is settled, so extending it to an unsettled neighbor
    never revisits a node.
    """
    settled: set[int] = set()
    # each node's smallest entry pushed so far; routes differ, so entries
    # compare on their keys alone
    pushed: dict[int, tuple] = {}
    # heap orders by (-availability, hops, route)
    heap = [(-1.0, 0, (u,), 0.0, 0.0)]
    while heap:
        neg_q, hops, route, mean, var = heapq.heappop(heap)
        node = route[-1]
        if node in settled:
            continue
        settled.add(node)
        yield route, -neg_q
        moments = []
        for neighbor, key, params in network.incident(node):
            if neighbor in settled or key in excluded:
                continue
            lam = params.contact_rate
            moments.append((neighbor, mean + 1 / lam, var + 1 / (lam * lam)))
        if not moments:
            continue
        labels = _reg_lower_incomplete_gammas(
            [m * m / v for _, m, v in moments], [m / v * deadline for _, m, v in moments]
        )
        next_hops = hops + 1
        for (neighbor, next_mean, next_var), q in zip(moments, labels):
            best = pushed.get(neighbor)
            # (-q, hops) sorts before every entry that starts with it, so
            # this skips only labels beaten outright; a tie needs the route
            if best is not None and best < (-q, next_hops):
                continue
            entry = (-q, next_hops, route + (neighbor,), next_mean, next_var)
            if best is not None and best < entry:
                continue
            pushed[neighbor] = entry
            heapq.heappush(heap, entry)


def dijkstra_max_q(
    network: Network,
    u: int,
    v: int,
    deadline: float,
    excluded_edges: Iterable[EdgeKey] = (),
) -> tuple[int, ...] | None:
    """Greedy max-availability route search from ``u`` to ``v``.

    Label-setting search in the style of Dijkstra, except that the label of
    a candidate route is the availability of the whole route within the
    deadline, recomputed at every relaxation from the route's running
    moments.  The unvisited node with the highest availability is settled
    next; ties break toward fewer hops and then the lexicographically
    smallest route.  Edges in ``excluded_edges`` are ignored.

    Returns the route as a node tuple, or None when ``v`` is unreachable.
    Availability of whole candidate routes is not additive along edges, so
    the result is a deterministic greedy choice, not a guaranteed optimum.
    """
    if check_index("u", u, network.node_count) == check_index("v", v, network.node_count):
        raise ValueError("source and destination coincide")
    check_nonnegative("deadline", deadline)
    for route, _ in _settle(network, u, deadline, set(excluded_edges)):
        if route[-1] == v:
            return route
    return None


def allocate_paths(
    network: Network, u: int, v: int, total: float, deadline: float
) -> list[Allocation]:
    """Phase one: pick edge-disjoint paths and give each its capacity.

    Repeatedly searches for the max-availability route, stopping when the
    route's availability drops below that of the direct edge (0 when there
    is none), when ``v`` becomes unreachable, or when the assigned sizes
    sum to ``total``.  Each accepted route's edges are excluded from later
    searches, and the route carries ``min(path capacity, unassigned
    remainder)``.

    When the very first search returns the direct one-hop route, no
    alternative path beats plain direct transmission and the result is
    empty, which callers read as "send direct".
    """
    check_positive("total", total)
    check_positive("deadline", deadline)
    direct = network.edge_params(u, v)
    q_direct = availability(PathSpec((direct,)), deadline) if direct else 0.0

    allocations: list[Allocation] = []
    excluded: set[EdgeKey] = set()
    assigned = 0.0
    while total - assigned > _SIZE_EPS:
        route = dijkstra_max_q(network, u, v, deadline, excluded)
        if route is None:
            break
        path = route_path(network, route)
        if availability(path, deadline) < q_direct:
            break
        if route == (u, v) and not allocations:
            break
        size = min(path_capacity(path), total - assigned)
        allocations.append(Allocation(route=route, path=path, assigned=size))
        excluded |= allocations[-1].edges()
        assigned += size
    return allocations


def _alloc_prob(alloc: Allocation, deadline: float) -> float:
    if alloc.assigned <= _SIZE_EPS:
        return 1.0
    query = DeliveryQuery(data_size=alloc.assigned, deadline=deadline)
    return delivery_prob_path(alloc.path, query)


class _Prices:
    """:func:`_alloc_prob` at one plan's deadline, priced once for each
    distinct (route, assigned size): within a plan a route names one path,
    and growth and reallocation ask for the same pairs again and again.
    Made afresh for each plan, so nothing outlives it."""

    __slots__ = ("deadline", "memo")

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.memo: dict[tuple[tuple[int, ...], float], float] = {}

    def __call__(self, alloc: Allocation) -> float:
        key = (alloc.route, alloc.assigned)
        prob = self.memo.get(key)
        if prob is None:
            prob = self.memo[key] = _alloc_prob(alloc, self.deadline)
        return prob


def _growth_step(alloc: Allocation) -> float:
    """Next data increment for a path, following its beta ladder.

    Below the largest hop beta the assignment steps up to the next larger
    beta value; at or above it the step is the path capacity.
    """
    betas = sorted({hop.beta for hop in alloc.path.hops})
    if alloc.assigned < betas[-1] - _SIZE_EPS:
        target = min(b for b in betas if b > alloc.assigned + _SIZE_EPS)
        return target - alloc.assigned
    return betas[0]


def _grow_onto(allocations: list[Allocation], pool: float, price: _Prices) -> list[Allocation]:
    """Distribute ``pool`` over ``allocations`` by the growth rule, with
    ``price`` giving each allocation's delivery probability.

    The path with the highest delivery probability of its assigned data
    grows step by step while its probability stays at or above the
    runner-up's, then the ranking is refreshed.  With a single path the
    whole pool lands on it.  The best-ranked path takes at least one step
    per round, so every round drains some of the pool.
    """
    current = list(allocations)
    if pool <= _SIZE_EPS:
        return current
    target_total = math.fsum(a.assigned for a in current) + pool
    if len(current) == 1:
        current[0] = replace(current[0], assigned=current[0].assigned + pool)
        pool = 0.0
    while pool > _SIZE_EPS:
        probs = [price(a) for a in current]
        p = max(range(len(current)), key=lambda i: (probs[i], -i))
        q = max((i for i in range(len(current)) if i != p), key=lambda i: (probs[i], -i))
        stepped = False
        while pool > _SIZE_EPS:
            if stepped and price(current[p]) < probs[q]:
                break
            step = min(_growth_step(current[p]), pool)
            current[p] = replace(current[p], assigned=current[p].assigned + step)
            pool -= step
            stepped = True
    # pin the float drift so sizes sum exactly to the intended total
    others = math.fsum(a.assigned for a in current[1:])
    current[0] = replace(current[0], assigned=target_total - others)
    return current


def assign_remaining(
    allocations: Sequence[Allocation], total: float, deadline: float
) -> list[Allocation]:
    """Phase two: grow the allocated paths until they carry ``total``."""
    check_positive("total", total)
    check_positive("deadline", deadline)
    if not allocations:
        raise ValueError("no allocations to assign to")
    assigned = math.fsum(a.assigned for a in allocations)
    if assigned > total + _SIZE_EPS:
        raise ValueError(f"already assigned {assigned} exceeds total {total}")
    return _grow_onto(list(allocations), total - assigned, _Prices(deadline))


def reallocate(allocations: Sequence[Allocation], deadline: float) -> list[Allocation]:
    """Phase three: retire weak paths while the probability product improves.

    Repeatedly removes the allocation with the lowest delivery probability
    and redistributes its segment over the rest with the growth rule; the
    change is kept only when the product of per-path probabilities strictly
    improves, and the pass stops at the first non-improving attempt or when
    a single allocation remains.
    """
    if not allocations:
        raise ValueError("no allocations to reallocate")
    return _retire_weak(list(allocations), _Prices(deadline))


def _retire_weak(current: list[Allocation], price: _Prices) -> list[Allocation]:
    """:func:`reallocate`, with ``price`` giving each allocation's
    delivery probability."""
    while len(current) > 1:
        probs = [price(a) for a in current]
        j = min(range(len(current)), key=lambda i: (probs[i], i))
        rest = [a for i, a in enumerate(current) if i != j]
        candidate = _grow_onto(rest, current[j].assigned, price)
        before = math.prod(probs)
        after = math.prod(map(price, candidate))
        if before < after:
            current = candidate
        else:
            break
    return current


def plan_offload(network: Network, u: int, total: float, deadline: float) -> OffloadPlan:
    """Plan the transmission of ``total`` data units from ``u`` to infrastructure.

    Runs path allocation, remaining-data assignment and reallocation, then
    compares the joint delivery probability of the offload split against
    direct transmission on the edge to infrastructure (0 when absent) and
    returns whichever is better.

    Raises:
        ValueError: ``u`` is not a mobile node, or ``total`` or ``deadline``
            is not finite and > 0.
        PlanningError: ``u`` has no route of any kind to the infrastructure.
    """
    _check_plan_inputs(network, u, total, deadline)
    v = network.infrastructure_id

    direct = network.edge_params(u, v)
    direct_prob = (
        delivery_prob_onehop(direct, DeliveryQuery(data_size=total, deadline=deadline))
        if direct
        else 0.0
    )

    allocations = allocate_paths(network, u, v, total, deadline)
    # without a direct edge, no allocation means no route at all
    if direct is None and not allocations:
        raise PlanningError(f"node {u} has no path of any kind to infrastructure")
    if allocations:
        # one pricer for the growth, the reallocation and the joint product
        price = _Prices(deadline)
        pool = total - math.fsum(a.assigned for a in allocations)
        allocations = _retire_weak(_grow_onto(allocations, pool, price), price)
        joint = math.prod(map(price, allocations))
        if joint > direct_prob:
            return OffloadPlan(
                allocations=tuple(allocations),
                total=total,
                deadline=deadline,
                joint_probability=joint,
                offloaded=True,
            )
    return OffloadPlan(
        allocations=(),
        total=total,
        deadline=deadline,
        joint_probability=direct_prob,
        offloaded=False,
    )


def plan_to_json(plan: OffloadPlan) -> dict:
    return {
        "offloaded": plan.offloaded,
        "probability": plan.joint_probability,
        "allocations": [
            {"route": list(a.route), "size": a.assigned} for a in plan.allocations
        ],
    }
