"""Distributed offload protocol driven by two-hop local knowledge.

Every node keeps the routes of at most two hops to the destination that its
two-hop local knowledge gives: its direct hop, and each neighbor's hop to
the destination through that neighbor.  The routes are given when the
node's state is built (the simulator builds them from the network) and
stay fixed for the task.
A task is split at the source over those routes (criterion assignment);
whenever a carrier meets another node its segments are ranked once,
weakest first, and offered in that order to the peer's routes, each moving
if that improves the joint delivery probability (real-time adjustment);
after the transfer both sides reconcile their assignments with the amount
actually moved (assignment update).  A node never sends task data back to
the node it received it from, nor to the task source.  Handing data to the
destination needs no decision: the caller moves it and :func:`_deliver`
strips the holder's assignment to match.  Every delivery probability is
priced in batches by :func:`~oppload.delivery.delivery_probs`, from the
terms each route's spec keeps (see :class:`~oppload.delivery.RouteTerms`).
Two no-move rules skip pricing when earlier prices prove that an offer to a
peer carrying nothing cannot win; such a route prices at exactly 1 before,
so it gains only if its grown price beats the segment's.  The first skips
the whole adjustment: when every loaded segment of the holder has a floor
(:meth:`~oppload.delivery.RouteTerms.certain`), a remaining time no longer
than now at which it priced exactly 1, no segment can lose, so nothing is
priced; a node looks up no floor until one of its segments has got one
(``NodeState.certified``).  The second skips the peer's batch: each
route's ceiling (:meth:`~oppload.delivery.RouteTerms.ceiling`) bounds its
grown price by one taken at a remaining time no shorter, plus a 1e-9
margin, or by 1.  Both rules are exact as long as
``scipy.special.gammainc`` falls by no more than a few last bits as its
argument grows (see :func:`realtime_adjustment`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .delivery import PathSpec, availability, delivery_probs, path_capacity
from .errors import ProtocolError, TransferContractError, check_positive

__all__ = [
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
class NodeState:
    """Protocol state of one node for one task.

    ``routes`` maps each route of at most two hops from the node to the
    destination, as a node-id tuple, to its hops: the direct route, when
    the destination is a neighbor, then the route through each neighbor
    with a hop to the destination.  Insertion order is kept: criterion
    assignment fills its assignment in that order.

    ``certified`` turns true once one of the node's segments gets a floor
    (:meth:`~oppload.delivery.RouteTerms.certify`) in a real-time
    adjustment; until then its adjustments look up no floor, so the rule
    costs one attribute read where no segment is ever certain.  It only
    gates the lookup: a marked node whose floors were dropped decides as
    an unmarked one.
    """

    node_id: int
    destination: int
    source: int
    routes: dict[Route, PathSpec] = field(default_factory=dict)
    carried: float = 0.0
    assignment: dict[Route, float] = field(default_factory=dict)
    provenance: set[int] = field(default_factory=set)
    certified: bool = False

    @cached_property
    def sorted_routes(self) -> tuple[Route, ...]:
        """The routes in ascending order, sorted once: they stay fixed for
        the task."""
        return tuple(sorted(self.routes))


@dataclass(frozen=True)
class AdjustmentResult:
    """Outcome of real-time adjustment at a contact."""

    planned: float
    receiver_assignment: dict[Route, float]
    improvement: float


@dataclass(frozen=True)
class ContactResult:
    """What one handled contact planned and actually moved."""

    planned: float
    transferred: float


def _route_probs(queries: list[tuple[PathSpec, float]], deadline: float) -> list[float]:
    """Delivery probability of each (spec, size) query within ``deadline``:
    1 for a size of at most ``_EPS``, else the estimator's, all such queries
    priced in one :func:`~oppload.delivery.delivery_probs` batch.

    Raises:
        ValueError: the estimator is asked about a deadline that is NaN or
            +inf.
    """
    asked = [i for i, (_, size) in enumerate(queries) if size > _EPS]
    if len(asked) == len(queries):
        return delivery_probs(queries, deadline)
    probs = [1.0] * len(queries)
    for i, prob in zip(asked, delivery_probs([queries[i] for i in asked], deadline)):
        probs[i] = prob
    return probs


def _log_joint(
    prob: dict[tuple[Route, float], float], holder: dict[Route, float], peer: dict[Route, float]
) -> float:
    """Log joint delivery probability of both sides' segments, with
    ``prob`` holding each (route, size) probability."""
    return math.fsum(math.log(max(prob[seg], 1e-300)) for seg in holder.items()) + math.fsum(
        math.log(max(prob[seg], 1e-300)) for seg in peer.items()
    )


def criterion_assignment(state: NodeState, total: float, deadline: float) -> dict[Route, float]:
    """Initial split of ``total`` over the node's at-most-two-hop paths.

    With aggregate path capacity below ``total`` the split is proportional
    to capacity; otherwise paths are ranked by availability and filled to
    capacity, the last taking the remainder (unfilled paths keep 0).

    Raises:
        ValueError: ``total`` or ``deadline`` is not finite and > 0.
        ProtocolError: the node has no path to the destination.
    """
    check_positive("total", total)
    check_positive("deadline", deadline)
    routes = state.routes
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
    holder: NodeState, peer: NodeState, t_remaining: float
) -> AdjustmentResult:
    """Decide how much data the holder should hand to the peer it met.

    Starts from the criterion amount already assigned to paths through the
    peer (those segments continue on the peer's direct hop).  The holder's
    other loaded segments are then ranked once, weakest first (only a
    moved segment changes size, so the order holds), and each in turn is
    offered to whichever peer path improves the joint probability the
    most, comparing only the product over the affected paths; the loop
    stops at the first non-improving move.  Probabilities are priced in
    batches: the holder's loaded segments together, then, for each offered
    segment, every peer path at its planned size and at that size plus the
    segment's.

    That second batch is skipped when it cannot find a move: every peer
    path is empty and each path's ceiling at the grown size is at most
    ``p_j + 1e-12``.  An empty path prices at exactly 1, so its ratio is
    its grown price, which the ceiling bounds: ``min(1, p + 1e-9)`` for a
    price ``p`` of that size kept at a remaining time no shorter than now
    (:meth:`~oppload.delivery.RouteTerms.ceiling`), else 1.  A kept price
    is a clamped, left-to-right float sum of ``w * gammainc(a, r * (d -
    T'))`` with every ``w >= 0``, so as the remaining time ``d`` falls it
    can rise only by what ``gammainc`` falls as its argument grows, a few
    last bits, which the 1e-9 margin covers; the decision is then the same
    on the computed floats.  A certain segment needs no lookup, since no
    ceiling exceeds 1, and with nothing kept the rule is that test alone.
    The grown prices of an empty peer are kept whenever that batch is
    priced.  A skipped path whose grown tuple space is over the cap does
    not raise ``ComplexityError``.

    When every peer path is empty, even after the move through the peer,
    and every loaded segment of the holder is certain by its floor
    (:meth:`~oppload.delivery.RouteTerms.certain`; only a holder marked
    ``certified`` is looked at), nothing is priced at all: the weakest
    segment prices above ``1 - 1e-12``, so the first offer would meet the
    certain-segment test above, and the result is the no-move one.  A
    floor is a remaining time ``d0`` no longer than now at which the
    segment's kept terms, with no negative weight, priced exactly 1; as
    for the ceilings, the price can fall as the remaining time grows only
    by the few last bits ``gammainc`` may lose.  Where the certain-segment
    test is still met, each segment that priced exactly 1 and is not yet
    certain by its floor is priced once more at ``d0 = T' + 0.98 *
    (t_remaining - T')`` (:meth:`~oppload.delivery.RouteTerms.certify`),
    which keeps ``d0`` if the answer is exactly 1, and the holder is then
    marked ``certified``, so its later meetings with empty peers, nearer
    the deadline, price nothing.  Nothing loaded is still priced as an empty
    batch, which refuses a remaining time the estimator refuses.

    The improvement in log joint probability is 0 when nothing moves; only
    when something does are both sides' log joints summed, before and
    after.  Neither node's assignment is modified (only the holder's
    ``certified`` mark may turn true): the result carries the planned
    transfer and the peer's tentative assignment including the planned
    placements.

    Raises:
        ProtocolError: the peer is the destination, the task source, or the
            pair already exchanged this task's data.
        KeyError: an assignment names a route its node does not hold.
    """
    if peer.node_id == holder.destination:
        raise ProtocolError("real-time adjustment does not apply to the destination")
    if peer.node_id == holder.source:
        raise ProtocolError("data never flows back to the task source")
    if peer.node_id in holder.provenance or holder.node_id in peer.provenance:
        raise ProtocolError("this pair already exchanged data for the task")

    peer_routes = [r for r in peer.sorted_routes if len(r) == 2 or r[1] != holder.node_id]
    remaining = dict(holder.assignment)
    planned = dict(peer.assignment)

    def spec(route: Route) -> PathSpec:
        # a route starts at the node that owns it
        return (holder if route[0] == holder.node_id else peer).routes[route]

    moved = 0.0
    # every route starts at its owner and ends at the destination
    via_peer = (holder.node_id, peer.node_id, holder.destination)
    direct_tail = (peer.node_id, holder.destination)
    if remaining.get(via_peer, 0.0) > _EPS and direct_tail in peer.routes:
        planned[direct_tail] = planned.get(direct_tail, 0.0) + remaining[via_peer]
        moved += remaining[via_peer]
        remaining[via_peer] = 0.0

    if peer_routes:
        loaded = [(r, s) for r, s in remaining.items() if s > _EPS]
        if holder.certified:
            # the first offer would meet the certain-segment break below; a
            # move through the peer has loaded the peer's direct route
            for route, size in loaded:
                if not spec(route).terms.certain(size, t_remaining):
                    break
            else:
                if loaded and all(planned.get(k, 0.0) <= _EPS for k in peer_routes):
                    return AdjustmentResult(
                        planned=0.0, receiver_assignment=planned, improvement=0.0
                    )
        ranked = sorted(
            zip(_route_probs([(spec(r), s) for r, s in loaded], t_remaining), loaded),
            key=lambda item: (item[0], item[1][0]),
        )
        peer_specs = [peer.routes[k] for k in peer_routes]
        for j_prob, (j_route, j_size) in ranked:
            sizes = [planned.get(k, 0.0) for k in peer_routes]
            empty = all(s <= _EPS for s in sizes)
            # an empty peer route prices at exactly 1, so no ratio can beat
            # the segment when no grown price can; no ceiling exceeds 1
            bound = j_prob + 1e-12
            if empty and bound >= 1.0:
                # the weakest segment is certain, so all are: floors let a
                # later meeting with an empty peer skip the holder's batch
                for prob, (route, size) in ranked:
                    if prob == 1.0 and spec(route).terms.certify(size, t_remaining):
                        holder.certified = True
                break
            if empty and all(
                k_spec.terms.ceiling(s + j_size, t_remaining) <= bound
                for k_spec, s in zip(peer_specs, sizes)
            ):
                break
            grown = [s + j_size for s in sizes]
            probs = _route_probs([*zip(peer_specs, sizes), *zip(peer_specs, grown)], t_remaining)
            if empty:
                for k_spec, size, price in zip(peer_specs, grown, probs[len(sizes) :]):
                    k_spec.terms.keep_price(size, t_remaining, price)
            best_route = None
            best_ratio = 0.0
            for k_route, p_old, p_new in zip(peer_routes, probs, probs[len(sizes) :]):
                if p_old <= 0.0:
                    continue
                ratio = p_new / p_old
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_route = k_route
            if best_route is None or best_ratio <= bound:
                break
            planned[best_route] = planned.get(best_route, 0.0) + j_size
            remaining[j_route] = 0.0
            moved += j_size

    if not moved:
        return AdjustmentResult(planned=0.0, receiver_assignment=planned, improvement=0.0)
    segments = list(
        dict.fromkeys(
            itertools.chain(
                holder.assignment.items(),
                peer.assignment.items(),
                remaining.items(),
                planned.items(),
            )
        )
    )
    prob = dict(zip(segments, _route_probs([(spec(r), s) for r, s in segments], t_remaining)))
    before = _log_joint(prob, holder.assignment, peer.assignment)
    return AdjustmentResult(
        planned=moved,
        receiver_assignment=planned,
        improvement=_log_joint(prob, remaining, planned) - before,
    )


def _strip(state: NodeState, amount: float, t_remaining: float) -> None:
    """Remove ``amount`` from the assignment, weakest-probability paths first.

    Every route but the last one touched is emptied, so one ranking holds.
    """
    if amount <= _EPS:
        return
    loaded = [(r, s) for r, s in state.assignment.items() if s > _EPS]
    probs = _route_probs([(state.routes[r], s) for r, s in loaded], t_remaining)
    for _, route in sorted(zip(probs, (r for r, _ in loaded))):
        size = state.assignment[route]
        take = min(size, amount)
        state.assignment[route] = size - take
        amount -= take
        if amount <= _EPS:
            break


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
    if not -_EPS <= actual <= planned + _EPS:
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
) -> ContactResult:
    """Full protocol handling of one contact between two mobile nodes.

    Neither node's routes change.  If the pair may exchange data (neither
    received this task's data from the other, neither is the source of the
    other's data), the carrier with more to gain runs real-time adjustment
    and transfers up to the contact capacity, after which both assignments
    are reconciled.  Returns the planned and actually transferred amounts.
    A contact with the destination is a delivery, which the caller makes
    with :func:`_deliver`.

    Raises:
        ValueError: ``contact_capacity`` is NaN or negative.
        ProtocolError: either node is the other's destination.
    """
    if not contact_capacity >= 0:
        raise ValueError(f"contact_capacity must be >= 0, got {contact_capacity!r}")

    if a.node_id == b.destination or b.node_id == a.destination:
        raise ProtocolError("contacts with the destination are deliveries, not exchanges")

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
        candidates.append((sender, receiver, realtime_adjustment(sender, receiver, t_remaining)))
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
