"""Distributed offload protocol driven by two-hop local knowledge.

Every node keeps contact parameters for its neighbors plus, learned on
contact, each neighbor's own neighbor table.  A task is split at the
source over the at-most-two-hop paths it can construct (criterion
assignment); whenever a carrier meets another node the weakest segments
are re-evaluated against the peer's paths and moved if that improves the
joint delivery probability (real-time adjustment); after the transfer both
sides reconcile their assignments with the amount actually moved
(assignment update).  A node never sends task data back to the node it
received it from, nor to the task source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .contacts import PairContactParams
from .delivery import DeliveryQuery, PathSpec, availability, delivery_prob_path, path_capacity
from .errors import ProtocolError, TransferContractError

__all__ = [
    "TwoHopTable",
    "NodeState",
    "AdjustmentResult",
    "ContactResult",
    "criterion_assignment",
    "realtime_adjustment",
    "assignment_update",
    "on_contact",
]

_EPS = 1e-9

Route = tuple[int, ...]


@dataclass
class SecondHopInfo:
    """A neighbor's neighbor table as learned during a contact."""

    neighbors: dict[int, PairContactParams]
    learned_at: float


@dataclass
class TwoHopTable:
    """Per-neighbor contact parameters plus learned second-hop tables."""

    neighbors: dict[int, PairContactParams] = field(default_factory=dict)
    second_hop: dict[int, SecondHopInfo] = field(default_factory=dict)

    def learn(self, neighbor: int, table: dict[int, PairContactParams], now: float) -> None:
        self.second_hop[neighbor] = SecondHopInfo(neighbors=table, learned_at=now)


@dataclass
class NodeState:
    """Protocol state of one node for one task."""

    node_id: int
    destination: int
    source: int
    table: TwoHopTable = field(default_factory=TwoHopTable)
    carried: float = 0.0
    assignment: dict[Route, float] = field(default_factory=dict)
    provenance: set[int] = field(default_factory=set)
    # second-hop entries older than this are ignored; defaults to "no limit"
    staleness_horizon: float = math.inf

    def candidate_routes(self, now: float = 0.0) -> dict[Route, PathSpec]:
        """Routes of at most two hops from this node to the destination."""
        routes: dict[Route, PathSpec] = {}
        direct = self.table.neighbors.get(self.destination)
        if direct is not None:
            routes[(self.node_id, self.destination)] = PathSpec((direct,))
        for neighbor in sorted(self.table.neighbors):
            if neighbor == self.destination:
                continue
            info = self.table.second_hop.get(neighbor)
            if info is None or now - info.learned_at > self.staleness_horizon:
                continue
            tail = info.neighbors.get(self.destination)
            if tail is None:
                continue
            first = self.table.neighbors[neighbor]
            routes[(self.node_id, neighbor, self.destination)] = PathSpec((first, tail))
        return routes

    def route_spec(self, route: Route) -> PathSpec | None:
        # resolve a route against the table without the staleness filter,
        # for segments assigned earlier whose entry has since gone stale
        hops: list[PairContactParams] = []
        first = self.table.neighbors.get(route[1])
        if first is None:
            return None
        hops.append(first)
        if len(route) == 3:
            info = self.table.second_hop.get(route[1])
            tail = info.neighbors.get(route[2]) if info else None
            if tail is None:
                return None
            hops.append(tail)
        return PathSpec(tuple(hops))


@dataclass(frozen=True)
class AdjustmentResult:
    """Outcome of real-time adjustment at a contact."""

    planned: float
    sender_assignment: dict[Route, float]
    receiver_assignment: dict[Route, float]
    improvement: float


@dataclass(frozen=True)
class ContactResult:
    """What one handled contact planned and actually moved."""

    planned: float
    transferred: float


def _route_prob(spec: PathSpec | None, size: float, deadline: float) -> float:
    if size <= _EPS:
        return 1.0
    if spec is None or deadline <= 0:
        return 0.0
    return delivery_prob_path(spec, DeliveryQuery(data_size=size, deadline=deadline))


def criterion_assignment(
    state: NodeState, total: float, deadline: float, now: float = 0.0
) -> dict[Route, float]:
    """Initial split of ``total`` over the node's at-most-two-hop paths.

    With aggregate path capacity below ``total`` the split is proportional
    to capacity; otherwise paths are ranked by availability and filled to
    capacity, the last taking the remainder (unfilled paths keep 0).

    Raises:
        ProtocolError: the node has no path to the destination.
    """
    if total <= 0 or deadline <= 0:
        raise ValueError("total and deadline must be > 0")
    routes = state.candidate_routes(now)
    if not routes:
        raise ProtocolError(f"node {state.node_id} has no two-hop path to destination")

    capacities = {route: path_capacity(spec) for route, spec in routes.items()}
    aggregate = math.fsum(capacities.values())
    assignment: dict[Route, float] = {}
    if aggregate < total:
        for route, cap in capacities.items():
            assignment[route] = total * cap / aggregate
    else:
        ranked = sorted(
            routes,
            key=lambda r: (-availability(routes[r], deadline), len(r), r),
        )
        remaining = total
        for route in ranked:
            take = min(capacities[route], remaining)
            assignment[route] = take
            remaining -= take
    # pin float drift so the sizes sum to total exactly
    drift = total - math.fsum(assignment.values())
    heaviest = max(assignment, key=lambda r: (assignment[r], r))
    assignment[heaviest] += drift
    return assignment


def realtime_adjustment(
    holder: NodeState, peer: NodeState, t_remaining: float, now: float = 0.0
) -> AdjustmentResult:
    """Decide how much data the holder should hand to the peer it met.

    Starts from the criterion amount already assigned to paths through the
    peer (those segments continue on the peer's direct hop).  Then the
    holder's weakest remaining segment is repeatedly offered to whichever
    peer path improves the joint probability the most, comparing only the
    product over the affected paths; the loop stops at the first
    non-improving move.  Neither node's live state is modified: the result
    carries the planned transfer, the sender assignment to reconcile
    against after the transfer (unchanged here), and the peer's tentative
    assignment including the planned placements.

    Raises:
        ProtocolError: the peer is the destination, the task source, or the
            pair already exchanged this task's data.
    """
    if peer.node_id == holder.destination:
        raise ProtocolError("real-time adjustment does not apply to the destination")
    if peer.node_id == holder.source:
        raise ProtocolError("data never flows back to the task source")
    if peer.node_id in holder.provenance or holder.node_id in peer.provenance:
        raise ProtocolError("this pair already exchanged data for the task")

    peer_routes = {
        route: spec
        for route, spec in peer.candidate_routes(now).items()
        if len(route) == 2 or route[1] != holder.node_id
    }
    remaining = dict(holder.assignment)
    planned = dict(peer.assignment)
    holder_specs = {route: holder.route_spec(route) for route in remaining}

    before = math.fsum(
        math.log(max(_route_prob(holder_specs[r], s, t_remaining), 1e-300))
        for r, s in remaining.items()
    ) + math.fsum(
        math.log(max(_route_prob(peer.route_spec(r), s, t_remaining), 1e-300))
        for r, s in planned.items()
    )

    moved = 0.0
    direct_tail = (peer.node_id, holder.destination)
    for route in sorted(remaining):
        if len(route) == 3 and route[1] == peer.node_id and remaining[route] > _EPS:
            if direct_tail in peer_routes:
                planned[direct_tail] = planned.get(direct_tail, 0.0) + remaining[route]
                moved += remaining[route]
                remaining[route] = 0.0

    while peer_routes:
        loaded = [(r, s) for r, s in sorted(remaining.items()) if s > _EPS]
        if not loaded:
            break
        j_route, j_size = min(
            loaded,
            key=lambda item: (_route_prob(holder_specs[item[0]], item[1], t_remaining), item[0]),
        )
        j_prob = _route_prob(holder_specs[j_route], j_size, t_remaining)
        best_route = None
        best_ratio = 0.0
        for k_route, k_spec in sorted(peer_routes.items()):
            k_size = planned.get(k_route, 0.0)
            p_old = _route_prob(k_spec, k_size, t_remaining)
            p_new = _route_prob(k_spec, k_size + j_size, t_remaining)
            if p_old <= 0.0:
                continue
            ratio = p_new / p_old
            if ratio > best_ratio:
                best_ratio = ratio
                best_route = k_route
        if best_route is None or best_ratio <= j_prob + 1e-12:
            break
        planned[best_route] = planned.get(best_route, 0.0) + j_size
        remaining[j_route] = 0.0
        moved += j_size

    after = math.fsum(
        math.log(max(_route_prob(holder_specs[r], s, t_remaining), 1e-300))
        for r, s in remaining.items()
    ) + math.fsum(
        math.log(max(_route_prob(peer.route_spec(r), s, t_remaining), 1e-300))
        for r, s in planned.items()
    )

    return AdjustmentResult(
        planned=moved,
        sender_assignment=dict(holder.assignment),
        receiver_assignment=planned,
        improvement=after - before,
    )


def _strip(state: NodeState, amount: float, deadline: float) -> None:
    """Remove ``amount`` from the assignment, weakest-probability paths first."""
    while amount > _EPS:
        loaded = [(r, s) for r, s in sorted(state.assignment.items()) if s > _EPS]
        if not loaded:
            break
        route, size = min(
            loaded,
            key=lambda item: (_route_prob(state.route_spec(item[0]), item[1], deadline), item[0]),
        )
        take = min(size, amount)
        state.assignment[route] = size - take
        amount -= take


def _deliver(holder: NodeState, amount: float, t_remaining: float) -> None:
    """Hand ``amount`` to the destination and strip the holder's assignment
    down to what it still carries, weakest-probability paths first."""
    holder.carried -= amount
    excess = math.fsum(holder.assignment.values()) - holder.carried
    if excess > _EPS:
        _strip(holder, excess, t_remaining)


def assignment_update(
    sender: NodeState,
    receiver: NodeState,
    planned: float,
    actual: float,
    t_remaining: float,
) -> None:
    """Reconcile both nodes after ``actual`` of ``planned`` data moved.

    The receiver keeps the tentative assignment set at adjustment time and
    strips the shortfall ``planned - actual`` from its weakest paths; the
    sender strips ``actual``.  Both provenance sets gain the counterpart.

    Raises:
        TransferContractError: ``actual`` outside ``[0, planned]``.
    """
    if actual < -_EPS or actual > planned + _EPS:
        raise TransferContractError(
            f"actual transfer {actual} outside [0, planned={planned}]"
        )
    receiver.carried += actual
    _strip(receiver, planned - actual, t_remaining)
    sender.carried -= actual
    _strip(sender, actual, t_remaining)
    sender.provenance.add(receiver.node_id)
    receiver.provenance.add(sender.node_id)


def on_contact(
    a: NodeState,
    b: NodeState,
    contact_capacity: float,
    t_remaining: float,
    now: float = 0.0,
) -> ContactResult:
    """Full protocol handling of one contact.

    Both nodes first learn each other's neighbor tables.  A contact with
    the destination delivers ``min(carried, capacity)`` outright and strips
    the holder's assignment down to what it still carries.
    Otherwise, if the pair may exchange data (neither received this task's
    data from the other, neither is the source of the other's data), the
    carrier with more to gain runs real-time adjustment and transfers up to
    the contact capacity, after which both assignments are reconciled.
    Returns the planned and actually transferred amounts.
    """
    if contact_capacity < 0:
        raise ValueError("contact_capacity must be >= 0")
    a.table.learn(b.node_id, b.table.neighbors, now)
    b.table.learn(a.node_id, a.table.neighbors, now)

    if a.node_id == b.destination or b.node_id == a.destination:
        holder, sink = (a, b) if b.node_id == a.destination else (b, a)
        amount = min(holder.carried, contact_capacity)
        if amount <= _EPS:
            return ContactResult(0.0, 0.0)
        _deliver(holder, amount, t_remaining)
        sink.carried += amount
        return ContactResult(amount, amount)

    holders = [s for s in (a, b) if s.carried > _EPS]
    if not holders:
        return ContactResult(0.0, 0.0)
    if b.node_id in a.provenance or a.node_id in b.provenance:
        return ContactResult(0.0, 0.0)

    candidates: list[tuple[NodeState, NodeState, AdjustmentResult]] = []
    for sender in holders:
        receiver = b if sender is a else a
        if receiver.node_id == sender.source:
            continue
        candidates.append(
            (sender, receiver, realtime_adjustment(sender, receiver, t_remaining, now))
        )
    if not candidates:
        return ContactResult(0.0, 0.0)
    sender, receiver, result = max(
        candidates, key=lambda item: (item[2].improvement, -item[0].node_id)
    )
    if result.planned <= _EPS:
        return ContactResult(0.0, 0.0)

    actual = min(result.planned, contact_capacity)
    receiver.assignment = result.receiver_assignment
    assignment_update(sender, receiver, result.planned, actual, t_remaining)
    return ContactResult(result.planned, actual)
