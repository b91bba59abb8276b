import copy
import hashlib
import math

import numpy as np
import pytest

import oppload as ol
from oppload import delivery, distributed, simulator
from oppload.cli import _build_tasks
from oppload.delivery import _CEIL_GUARD, _MAX_KEPT, DEFAULT_TUPLE_CAP, RouteTerms, _BlockTerms
from oppload.distributed import NodeState, realtime_adjustment
from oppload.errors import ComplexityError, ProtocolError, TransferContractError

from scipy import special

from conftest import criterion_7_network
from test_delivery import needed, reference_path, serial_sum


def params(lam=0.1, alpha=3.0, beta=5.0, rate=100.0):
    return ol.PairContactParams(contact_rate=lam, alpha=alpha, beta=beta, rate=rate)


DEST = 99
SOURCE = 0


def node(node_id, neighbors, second_hop=None, carried=0.0, assignment=None, source=SOURCE):
    """Build a NodeState; second_hop maps neighbor -> its neighbor table.

    The routes are the direct one, when DEST is a neighbor, then the one
    through each second_hop neighbor whose table reaches DEST, in order.
    """
    routes = {}
    if DEST in neighbors:
        routes[(node_id, DEST)] = ol.PathSpec((neighbors[DEST],))
    for nb, tbl in (second_hop or {}).items():
        if nb in neighbors and DEST in tbl:
            routes[(node_id, nb, DEST)] = ol.PathSpec((neighbors[nb], tbl[DEST]))
    state = NodeState(node_id=node_id, destination=DEST, source=source, routes=routes)
    state.carried = carried
    state.assignment = dict(assignment or {})
    return state


class TestCriterionAssignment:
    def test_proportional_when_capacity_short(self):
        # two 2-hop paths with capacities 2 and 3, item of 10
        state = node(
            1,
            neighbors={2: params(beta=2.0), 3: params(beta=3.0)},
            second_hop={2: {DEST: params(beta=7.0)}, 3: {DEST: params(beta=9.0)}},
            carried=10.0,
        )
        assignment = ol.criterion_assignment(state, 10.0, 100.0)
        assert assignment[(1, 2, DEST)] == pytest.approx(4.0)
        assert assignment[(1, 3, DEST)] == pytest.approx(6.0)

    def test_rank_fill_when_capacity_suffices(self):
        # capacities 5, 4, 3 with availability decreasing in the same order
        state = node(
            1,
            neighbors={
                2: params(lam=0.5, beta=5.0),
                3: params(lam=0.2, beta=4.0),
                4: params(lam=0.05, beta=3.0),
            },
            second_hop={
                2: {DEST: params(lam=0.5, beta=8.0)},
                3: {DEST: params(lam=0.2, beta=8.0)},
                4: {DEST: params(lam=0.05, beta=8.0)},
            },
            carried=7.0,
        )
        assignment = ol.criterion_assignment(state, 7.0, 100.0)
        assert assignment[(1, 2, DEST)] == pytest.approx(5.0)
        assert assignment[(1, 3, DEST)] == pytest.approx(2.0)
        assert assignment[(1, 4, DEST)] == 0.0

    def test_single_path(self):
        state = node(1, neighbors={DEST: params(beta=4.0)}, carried=3.0)
        assignment = ol.criterion_assignment(state, 3.0, 50.0)
        assert assignment == {(1, DEST): pytest.approx(3.0)}

    def test_no_path_refused(self):
        state = node(1, neighbors={2: params()}, carried=1.0)
        with pytest.raises(ProtocolError):
            ol.criterion_assignment(state, 1.0, 50.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_malformed_total_or_deadline_refused(self, bad):
        state = node(1, neighbors={DEST: params()}, carried=1.0)
        with pytest.raises(ValueError):
            ol.criterion_assignment(state, bad, 50.0)
        with pytest.raises(ValueError):
            ol.criterion_assignment(state, 1.0, bad)


class TestRealtimeAdjustment:
    def test_peer_without_paths_gets_only_criterion_amount(self):
        holder = node(
            1,
            neighbors={2: params(), DEST: params()},
            second_hop={2: {DEST: params()}},
            carried=6.0,
            assignment={(1, 2, DEST): 2.0, (1, DEST): 4.0},
        )
        peer = node(2, neighbors={5: params()}, carried=0.0)
        result = realtime_adjustment(holder, peer, 80.0)
        # peer cannot reach the destination, so nothing can be placed there
        assert result.planned == 0.0

    def test_criterion_amount_flows_through_peer(self):
        holder = node(
            1,
            neighbors={2: params(), DEST: params()},
            second_hop={2: {DEST: params()}},
            carried=6.0,
            assignment={(1, 2, DEST): 2.5, (1, DEST): 3.5},
        )
        peer = node(2, neighbors={DEST: params()}, carried=0.0)
        result = realtime_adjustment(holder, peer, 80.0)
        assert result.planned >= 2.5
        assert result.receiver_assignment[(2, DEST)] >= 2.5
        # the holder strips at update time, not at planning time
        assert holder.assignment == {(1, 2, DEST): 2.5, (1, DEST): 3.5}

    def test_weak_segment_moves_to_strong_peer_path(self):
        # the holder's direct path is nearly dead; the peer owns a hot path
        holder = node(
            1,
            neighbors={DEST: params(lam=1e-4, beta=5.0), 2: params(lam=0.3, beta=5.0)},
            carried=4.0,
            assignment={(1, DEST): 4.0},
        )
        peer = node(2, neighbors={DEST: params(lam=0.5, beta=10.0)}, carried=0.0)
        result = realtime_adjustment(holder, peer, 60.0)
        assert result.planned == pytest.approx(4.0)
        assert result.receiver_assignment[(2, DEST)] == pytest.approx(4.0)
        assert result.improvement > 0

    def test_a_certain_segment_is_not_priced_on_an_empty_peer(self):
        # the peer's only route has a grown tuple space over the cap:
        # ceil(12 / 0.01) = 1200 contacts on each of its two hops
        tiny = params(lam=1.0, beta=0.01)
        peer = node(2, neighbors={3: tiny}, second_hop={3: {DEST: tiny}})
        spec = peer.routes[(2, 3, DEST)]
        assert math.prod(needed(12.0, hop.beta) for hop in spec.hops) > DEFAULT_TUPLE_CAP
        with pytest.raises(ComplexityError):
            route_prob(spec, 12.0, 1000.0)

        # a segment that is certain is never offered to a peer carrying
        # nothing, so the peer route is not priced and nothing raises
        holder = node(1, neighbors={DEST: params(lam=1.0, beta=100.0)}, carried=12.0,
                      assignment={(1, DEST): 12.0})
        assert route_prob(holder.routes[(1, DEST)], 12.0, 1000.0) == 1.0
        result = realtime_adjustment(holder, peer, 1000.0)
        assert (result.planned, result.receiver_assignment, result.improvement) == (0.0, {}, 0.0)
        assert 12.0 not in spec.terms.memo

        # an uncertain segment is offered, and the peer route raises as before
        holder = node(1, neighbors={DEST: params(lam=0.001, beta=100.0)}, carried=12.0,
                      assignment={(1, DEST): 12.0})
        assert route_prob(holder.routes[(1, DEST)], 12.0, 1000.0) < 1.0
        with pytest.raises(ComplexityError):
            realtime_adjustment(holder, peer, 1000.0)

    def test_dedup_pair_is_rejected(self):
        holder = node(1, neighbors={2: params(), DEST: params()}, carried=1.0,
                      assignment={(1, DEST): 1.0})
        peer = node(2, neighbors={DEST: params()})
        holder.provenance.add(2)
        with pytest.raises(ProtocolError):
            realtime_adjustment(holder, peer, 50.0)

    def test_never_decreases_joint_probability(self):
        import numpy as np

        rng = np.random.default_rng(61)
        for _ in range(25):
            def draw():
                return params(
                    lam=float(10 ** rng.uniform(-3, -0.5)),
                    beta=float(rng.uniform(2.0, 6.0)),
                )

            holder = node(
                1,
                neighbors={2: draw(), 3: draw(), DEST: draw()},
                second_hop={3: {DEST: draw()}},
                carried=0.0,
            )
            peer = node(
                2,
                neighbors={DEST: draw(), 4: draw()},
                second_hop={4: {DEST: draw()}},
            )
            total = float(rng.uniform(2.0, 12.0))
            holder.carried = total
            holder.assignment = ol.criterion_assignment(holder, total, 100.0)
            result = realtime_adjustment(holder, peer, float(rng.uniform(20.0, 200.0)))
            assert result.improvement >= -1e-9


class TestAssignmentUpdate:
    def _pair(self):
        sender = node(
            1,
            neighbors={2: params(lam=0.3), DEST: params(lam=0.05)},
            carried=10.0,
            assignment={(1, 2, DEST): 7.0, (1, DEST): 3.0},
            second_hop={2: {DEST: params(lam=0.3)}},
        )
        receiver = node(
            2,
            neighbors={DEST: params(lam=0.4, beta=8.0), 3: params(lam=0.01)},
            second_hop={3: {DEST: params(lam=0.01)}},
        )
        return sender, receiver

    def test_full_transfer(self):
        sender, receiver = self._pair()
        result = realtime_adjustment(sender, receiver, 100.0)
        receiver.assignment = result.receiver_assignment
        ol.assignment_update(sender, receiver, result.planned, result.planned, 100.0)
        assert sender.carried == pytest.approx(10.0 - result.planned)
        assert receiver.carried == pytest.approx(result.planned)
        assert math.fsum(sender.assignment.values()) == pytest.approx(sender.carried)
        assert math.fsum(receiver.assignment.values()) == pytest.approx(receiver.carried)
        assert 2 in sender.provenance and 1 in receiver.provenance

    def test_zero_transfer_clears_fresh_receiver(self):
        sender, receiver = self._pair()
        result = realtime_adjustment(sender, receiver, 100.0)
        receiver.assignment = result.receiver_assignment
        ol.assignment_update(sender, receiver, result.planned, 0.0, 100.0)
        assert receiver.carried == 0.0
        assert math.fsum(receiver.assignment.values()) == pytest.approx(0.0)
        assert sender.carried == pytest.approx(10.0)
        assert math.fsum(sender.assignment.values()) == pytest.approx(10.0)

    def test_strip_order_removes_weakest_first(self):
        # receiver holds tentative 7 + 3 with the 3 on a nearly dead path
        receiver = node(
            2,
            neighbors={DEST: params(lam=0.5, beta=8.0), 4: params(lam=1e-5, beta=4.0)},
            second_hop={4: {DEST: params(lam=1e-5, beta=4.0)}},
            assignment={(2, DEST): 7.0, (2, 4, DEST): 3.0},
        )
        sender = node(
            1,
            neighbors={2: params(), DEST: params()},
            carried=10.0,
            assignment={(1, DEST): 10.0},
        )
        ol.assignment_update(sender, receiver, 10.0, 6.0, 100.0)
        assert receiver.assignment[(2, 4, DEST)] == pytest.approx(0.0)
        assert receiver.assignment[(2, DEST)] == pytest.approx(6.0)
        assert receiver.carried == pytest.approx(6.0)

    def test_contract_violation(self):
        sender, receiver = self._pair()
        with pytest.raises(TransferContractError):
            ol.assignment_update(sender, receiver, 2.0, 3.0, 100.0)

    @pytest.mark.parametrize("planned, actual", [(2.0, math.nan), (math.nan, 1.0)])
    def test_nan_amounts_violate_the_contract(self, planned, actual):
        sender, receiver = self._pair()
        with pytest.raises(TransferContractError):
            ol.assignment_update(sender, receiver, planned, actual, 100.0)
        assert sender.carried == 10.0 and receiver.carried == 0.0


class TestOnContact:
    def test_delivery_to_destination(self):
        # deliveries are the caller's; the protocol handles mobile pairs only
        holder = node(1, neighbors={DEST: params(beta=4.0)}, carried=3.0,
                      assignment={(1, DEST): 3.0})
        dest = node(DEST, neighbors={1: params(beta=4.0)})
        for a, b in ((holder, dest), (dest, holder)):
            with pytest.raises(ProtocolError):
                ol.on_contact(a, b, contact_capacity=10.0, t_remaining=50.0)
        assert holder.carried == 3.0 and dest.carried == 0.0

    def test_contact_with_source_moves_nothing(self):
        source = node(SOURCE, neighbors={1: params(), DEST: params()}, carried=0.0)
        holder = node(
            1,
            neighbors={SOURCE: params(), DEST: params()},
            carried=4.0,
            assignment={(1, DEST): 4.0},
        )
        holder.provenance.add(SOURCE)
        routes = (dict(holder.routes), dict(source.routes))
        result = ol.on_contact(holder, source, contact_capacity=100.0, t_remaining=50.0)
        assert result.transferred == 0.0
        assert holder.carried == 4.0
        # routes are given, not learned: a contact changes neither side's
        assert (holder.routes, source.routes) == routes

    @pytest.mark.parametrize("capacity", [math.nan, -1.0])
    def test_malformed_capacity_refused(self, capacity):
        holder = node(
            1,
            neighbors={DEST: params(lam=1e-4), 2: params(lam=0.3)},
            carried=8.0,
            assignment={(1, DEST): 8.0},
        )
        relay = node(2, neighbors={DEST: params(lam=0.5, beta=10.0)})
        with pytest.raises(ValueError):
            ol.on_contact(holder, relay, contact_capacity=capacity, t_remaining=60.0)
        assert holder.carried == 8.0 and relay.carried == 0.0

    def test_capacity_limited_transfer_keeps_books_straight(self):
        holder = node(
            1,
            neighbors={DEST: params(lam=1e-4), 2: params(lam=0.3)},
            carried=8.0,
            assignment={(1, DEST): 8.0},
        )
        relay = node(2, neighbors={DEST: params(lam=0.5, beta=10.0)})
        result = ol.on_contact(holder, relay, contact_capacity=3.0, t_remaining=60.0)
        assert result.transferred == pytest.approx(3.0)
        assert result.planned >= result.transferred
        assert holder.carried == pytest.approx(5.0)
        assert relay.carried == pytest.approx(3.0)
        assert math.fsum(holder.assignment.values()) == pytest.approx(5.0)
        assert math.fsum(relay.assignment.values()) == pytest.approx(3.0)
        assert 2 in holder.provenance and 1 in relay.provenance

    def test_mass_conserved_between_relays(self):
        a = node(
            1,
            neighbors={DEST: params(lam=0.01), 2: params(lam=0.3)},
            carried=5.0,
            assignment={(1, DEST): 5.0},
        )
        b = node(
            2,
            neighbors={DEST: params(lam=0.4, beta=8.0), 1: params(lam=0.3)},
            carried=2.0,
            assignment={(2, DEST): 2.0},
        )
        before = a.carried + b.carried
        ol.on_contact(a, b, contact_capacity=100.0, t_remaining=80.0)
        assert a.carried + b.carried == pytest.approx(before)
        assert math.fsum(a.assignment.values()) == pytest.approx(a.carried)
        assert math.fsum(b.assignment.values()) == pytest.approx(b.carried)

    def test_two_hop_limit_on_assignment_routes(self):
        holder = node(
            1,
            neighbors={2: params(), DEST: params()},
            second_hop={2: {DEST: params(), 7: params()}},
            carried=5.0,
        )
        holder.assignment = ol.criterion_assignment(holder, 5.0, 100.0)
        for route in holder.assignment:
            assert len(route) <= 3
            assert route[-1] == DEST


def route_prob(spec, size, deadline):
    """One query of the protocol's batch pricing."""
    return distributed._route_probs([(spec, size)], deadline)[0]


def reference_adjustment(holder, peer, t_remaining):
    """Real-time adjustment as it was before it ranked the holder's segments
    once: the weakest loaded segment is searched for again after every
    move, and every probability is asked of the estimator where it is used.
    Returns (planned, receiver assignment, improvement)."""
    eps = distributed._EPS
    peer_routes = {
        route: spec
        for route, spec in peer.routes.items()
        if len(route) == 2 or route[1] != holder.node_id
    }
    remaining = dict(holder.assignment)
    planned = dict(peer.assignment)
    holder_specs = {route: holder.routes.get(route) for route in remaining}

    before = math.fsum(
        math.log(max(route_prob(holder_specs[r], s, t_remaining), 1e-300))
        for r, s in remaining.items()
    ) + math.fsum(
        math.log(max(route_prob(peer.routes.get(r), s, t_remaining), 1e-300))
        for r, s in planned.items()
    )

    moved = 0.0
    direct_tail = (peer.node_id, holder.destination)
    for route in sorted(remaining):
        if len(route) == 3 and route[1] == peer.node_id and remaining[route] > eps:
            if direct_tail in peer_routes:
                planned[direct_tail] = planned.get(direct_tail, 0.0) + remaining[route]
                moved += remaining[route]
                remaining[route] = 0.0

    while peer_routes:
        loaded = [(r, s) for r, s in sorted(remaining.items()) if s > eps]
        if not loaded:
            break
        j_route, j_size = min(
            loaded,
            key=lambda item: (route_prob(holder_specs[item[0]], item[1], t_remaining), item[0]),
        )
        j_prob = route_prob(holder_specs[j_route], j_size, t_remaining)
        best_route = None
        best_ratio = 0.0
        for k_route, k_spec in sorted(peer_routes.items()):
            k_size = planned.get(k_route, 0.0)
            p_old = route_prob(k_spec, k_size, t_remaining)
            p_new = route_prob(k_spec, k_size + j_size, t_remaining)
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
        math.log(max(route_prob(holder_specs[r], s, t_remaining), 1e-300))
        for r, s in remaining.items()
    ) + math.fsum(
        math.log(max(route_prob(peer.routes.get(r), s, t_remaining), 1e-300))
        for r, s in planned.items()
    )
    return moved, planned, after - before


def reference_strip(state, amount, deadline):
    """The assignment strip as it was before it ranked the routes once: the
    weakest loaded route is searched for again after every removal."""
    eps = distributed._EPS
    while amount > eps:
        loaded = [(r, s) for r, s in sorted(state.assignment.items()) if s > eps]
        if not loaded:
            break
        route, size = min(
            loaded,
            key=lambda item: (route_prob(state.routes.get(item[0]), item[1], deadline), item[0]),
        )
        take = min(size, amount)
        state.assignment[route] = size - take
        amount -= take


def random_neighbourhood(rng, lam_exponents=(-3, -0.5)):
    """A holder (node 1) meeting a peer (node 2), both with two-hop tables
    over relays 3-7.  Hop parameters come from a small pool, so equal
    probabilities, and the tie-breaks between them, are common; contact
    rates are ``10 ** uniform(*lam_exponents)``."""
    pool = [
        params(
            lam=float(10 ** rng.uniform(*lam_exponents)),
            beta=float(rng.choice([2.0, 3.0, 5.0])),
            rate=float(rng.choice([1.0, 100.0])),
        )
        for _ in range(4)
    ]

    def draw():
        return pool[int(rng.integers(len(pool)))]

    def table(node_id, always):
        others = [n for n in (SOURCE, 1, 2, 3, 4, 5, 6, 7) if n != node_id]
        nbs = set(always) | {n for n in others if rng.random() < 0.4}
        if rng.random() < 0.6:
            nbs.add(DEST)
        return {nb: draw() for nb in sorted(nbs)}

    tables = {n: table(n, always={1, 2} - {n}) for n in (SOURCE, 1, 2, 3, 4, 5, 6, 7)}
    return [
        node(n, tables[n], second_hop={nb: tables[nb] for nb in tables[n] if nb != DEST})
        for n in (1, 2)
    ]


def load(state, rng, most=14.0, deadline=300.0):
    """Give ``state`` a criterion assignment of a random total up to
    ``most``, made for a random deadline up to ``deadline``, with some
    segments emptied, halved or shrunk below the protocol's epsilon, so
    segments of every size occur; False when the node has no path."""
    total = float(rng.uniform(0.5, most))
    try:
        state.assignment = ol.criterion_assignment(state, total, float(rng.uniform(50.0, deadline)))
    except ProtocolError:
        return False
    for route in list(state.assignment):
        if rng.random() < 0.3:
            state.assignment[route] *= float(rng.choice([0.0, 0.5, 1e-10]))
    state.carried = math.fsum(state.assignment.values())
    return True


def certain_offer_to_an_empty_peer(holder, peer, t_remaining):
    """``(probability, size)`` of the holder's weakest loaded segment when
    real-time adjustment may skip pricing the peer: that segment is certain,
    and no peer route open to the holder's data carries more than the
    protocol's epsilon, even after the segment through the peer moves;
    None otherwise."""
    eps = distributed._EPS
    open_routes = [r for r in peer.routes if r[1] != holder.node_id]
    loaded = [(r, s) for r, s in holder.assignment.items() if s > eps]
    if not open_routes or not loaded:
        return None
    through_peer = holder.assignment.get((holder.node_id, peer.node_id, DEST), 0.0)
    if through_peer > eps and (peer.node_id, DEST) in peer.routes:
        return None
    if any(peer.assignment.get(r, 0.0) > eps for r in open_routes):
        return None
    j_prob, _, j_size = min((route_prob(holder.routes[r], s, t_remaining), r, s) for r, s in loaded)
    return (j_prob, j_size) if j_prob + 1e-12 >= 1.0 else None


class TestAdjustmentEquivalence:
    """Ranking the segments once and asking each probability once decides
    exactly what searching again after every move decided."""

    def test_random_neighbourhoods(self):
        rng = np.random.default_rng(2024)
        compared = moved = 0
        for _ in range(300):
            holder, peer = random_neighbourhood(rng)
            if not load(holder, rng):
                continue
            if rng.random() < 0.5:
                load(peer, rng)
            t_remaining = float(rng.uniform(20.0, 300.0))
            want = reference_adjustment(holder, peer, t_remaining)
            got = realtime_adjustment(holder, peer, t_remaining)
            assert got.planned == want[0]
            assert list(got.receiver_assignment.items()) == list(want[1].items())
            assert got.improvement == want[2]
            compared += 1
            moved += got.planned > 0

            for state in (holder, peer):
                total = math.fsum(state.assignment.values())
                for amount in (0.0, 1e-10, float(rng.uniform(0.0, total)), total, 2 * total + 1):
                    ref, new = copy.deepcopy(state), copy.deepcopy(state)
                    reference_strip(ref, amount, t_remaining)
                    distributed._strip(new, amount, t_remaining)
                    assert list(new.assignment.items()) == list(ref.assignment.items())
        # the draws exercise both outcomes of an adjustment
        assert compared > 200 and 20 < moved < compared

    def test_long_budgets_skip_only_what_cannot_move(self, monkeypatch):
        # long budgets and large totals, as at the long-haul deadline: the
        # holder's weakest segment is often certain and the peer often empty
        route_probs = distributed._route_probs
        batches = []

        def counted(queries, deadline):
            batches.append(len(queries))
            return route_probs(queries, deadline)

        rng = np.random.default_rng(3000)
        compared = moved = skipped = 0
        for _ in range(400):
            holder, peer = random_neighbourhood(rng, lam_exponents=(-1.5, -0.5))
            if not load(holder, rng, most=120.0, deadline=3000.0):
                continue
            if rng.random() < 0.2:
                load(peer, rng, most=120.0, deadline=3000.0)
            t_remaining = float(rng.uniform(1000.0, 3000.0))
            want = reference_adjustment(holder, peer, t_remaining)
            batches.clear()
            with monkeypatch.context() as patched:
                patched.setattr(distributed, "_route_probs", counted)
                got = realtime_adjustment(holder, peer, t_remaining)
            assert got.planned == want[0]
            assert list(got.receiver_assignment.items()) == list(want[1].items())
            assert got.improvement == want[2]
            compared += 1
            moved += got.planned > 0

            offer = certain_offer_to_an_empty_peer(holder, peer, t_remaining)
            # only the holder's batch is priced exactly when the test fires
            assert (offer is not None) == (len(batches) == 1 and batches[0] > 0)
            if offer is None:
                continue
            skipped += 1
            # pricing the peer routes anyway finds no move
            j_prob, j_size = offer
            for route, spec in peer.routes.items():
                if route[1] == holder.node_id:
                    continue
                size = peer.assignment.get(route, 0.0)
                assert route_prob(spec, size, t_remaining) == 1.0
                assert route_prob(spec, size + j_size, t_remaining) <= j_prob + 1e-12
        assert compared > 300 and 100 < moved < compared
        # the no-move test fires in at least 5 % of the draws
        assert skipped >= 0.05 * compared


def adjust_counted(monkeypatch, holder, peer, t_remaining):
    """Real-time adjustment, and the size of each batch it priced."""
    route_probs = distributed._route_probs
    batches = []

    def counted(queries, deadline):
        batches.append(len(queries))
        return route_probs(queries, deadline)

    with monkeypatch.context() as patched:
        patched.setattr(distributed, "_route_probs", counted)
        return realtime_adjustment(holder, peer, t_remaining), batches


def assert_matches_reference(got, holder, peer, t_remaining):
    want = reference_adjustment(holder, peer, t_remaining)
    assert got.planned == want[0]
    assert list(got.receiver_assignment.items()) == list(want[1].items())
    assert got.improvement == want[2]


def skipped_beyond_a_certain_segment(holder, peer, t_remaining, batches):
    """Whether the adjustment priced only the holder's batch although the
    offered segment was not certain: the ceilings of kept prices, not the
    certain-segment case, skipped the peer's batch."""
    priced_holder_only = len(batches) == 1 and batches[0] > 0
    return priced_holder_only and certain_offer_to_an_empty_peer(holder, peer, t_remaining) is None


def meetings(rng, count):
    """``count`` random loaded neighbourhoods, each a (holder, peer) pair
    that meets again and again with unchanged assignments."""
    pairs = []
    while len(pairs) < count:
        holder, peer = random_neighbourhood(rng)
        if not load(holder, rng):
            continue
        if rng.random() < 0.3:
            load(peer, rng)
        pairs.append((holder, peer))
    return pairs


def replay_distributed(monkeypatch, net, tasks, seed):
    """The outcomes, event log and monitor-state digest of a distributed
    replay, the number of adjustments, and the number that priced only the
    holder's batch."""
    log = []
    states_digest = hashlib.sha256()
    counts = {"adjustments": 0, "holder_only": 0}
    route_probs, adjust = distributed._route_probs, distributed.realtime_adjustment
    batches = []

    def counted_probs(queries, deadline):
        batches.append(len(queries))
        return route_probs(queries, deadline)

    def counted_adjust(holder, peer, t_remaining):
        batches.clear()
        result = adjust(holder, peer, t_remaining)
        counts["adjustments"] += 1
        counts["holder_only"] += len(batches) == 1 and batches[0] > 0
        return result

    def monitor(row, states, delivered):
        loaded = [
            (node, s.carried, list(s.assignment.items()))
            for node, s in sorted(states.items())
            if s.carried or s.assignment
        ]
        states_digest.update(repr((delivered, loaded)).encode())

    with monkeypatch.context() as patched:
        patched.setattr(distributed, "_route_probs", counted_probs)
        patched.setattr(distributed, "realtime_adjustment", counted_adjust)
        result = ol.simulate_strategy(
            net, tasks, "distributed", seed=seed, event_log=log, monitor=monitor
        )
    outcomes = [(o.offloaded, o.success, repr(o.completion_time)) for o in result.outcomes]
    return (outcomes, repr(log), states_digest.hexdigest()), counts


class TestNoMoveRule:
    """An offer to a peer carrying nothing is not priced when the ceilings of
    prices kept at a remaining time no shorter prove it cannot win, and the
    decision is the one pricing it would make."""

    def test_falling_remaining_times_skip_on_kept_prices(self, monkeypatch):
        # the same pair met again and again as the deadline nears, as in a
        # replay: what each meeting prices bounds the next meeting's prices
        rng = np.random.default_rng(4242)
        compared = beyond = 0
        for holder, peer in meetings(rng, 60):
            t_remaining = float(rng.uniform(100.0, 300.0))
            for _ in range(8):
                got, batches = adjust_counted(monkeypatch, holder, peer, t_remaining)
                assert_matches_reference(got, holder, peer, t_remaining)
                compared += 1
                beyond += skipped_beyond_a_certain_segment(holder, peer, t_remaining, batches)
                t_remaining *= float(rng.uniform(0.9, 1.0))
        # the ceilings skip where certain segments alone would not (53 of
        # the 480 meetings)
        assert compared == 480 and beyond >= 0.05 * compared

    def test_a_price_kept_at_a_shorter_remaining_time_is_never_used(self, monkeypatch):
        def rising_meetings():
            # the same pairs met at ever longer remaining times: every kept
            # price was taken at a shorter one
            rng = np.random.default_rng(4242)
            beyond = differing = 0
            for holder, peer in meetings(rng, 60):
                t_remaining = float(rng.uniform(20.0, 100.0))
                for _ in range(8):
                    got, batches = adjust_counted(monkeypatch, holder, peer, t_remaining)
                    want = reference_adjustment(holder, peer, t_remaining)
                    differing += (got.planned, got.receiver_assignment) != want[:2]
                    beyond += skipped_beyond_a_certain_segment(holder, peer, t_remaining, batches)
                    t_remaining *= float(rng.uniform(1.0, 1.1))
            return beyond, differing

        assert rising_meetings() == (0, 0)

        # a ceiling that ignored when its price was taken would use them
        def timeless(terms, data_size, deadline):
            return min(1.0, terms.prices.get(data_size, (math.inf, 1.0))[1] + 1e-9)

        with monkeypatch.context() as patched:
            patched.setattr(RouteTerms, "ceiling", timeless)
            beyond, _ = rising_meetings()
        assert beyond > 0

    def test_ceiling_bounds_prices_at_shorter_deadlines_only(self):
        spec = ol.PathSpec((params(lam=0.02, beta=3.0), params(lam=0.05, beta=2.0)))
        terms = spec.terms
        # nothing is kept for a size that was never built
        terms.keep_price(10.0, 200.0, 0.25)
        assert terms.prices == {} and terms.ceiling(10.0, 100.0) == 1.0
        price = route_prob(spec, 10.0, 200.0)
        assert 0.0 < price < 1.0
        # built and not yet given a price
        assert terms.prices == {} and terms.ceiling(10.0, 200.0) == 1.0
        terms.keep_price(10.0, 200.0, price)
        for deadline in (200.0, 150.0, 30.0, 0.0):
            assert terms.ceiling(10.0, deadline) == price + 1e-9
            assert route_prob(spec, 10.0, deadline) <= terms.ceiling(10.0, deadline)
        assert terms.ceiling(10.0, math.nextafter(200.0, math.inf)) == 1.0
        assert terms.ceiling(10.5, 100.0) == 1.0
        # a price near 1 is capped at 1
        terms.keep_price(10.0, 200.0, 1.0 - 1e-12)
        assert terms.ceiling(10.0, 100.0) == 1.0
        terms.clear()
        assert terms.prices == {} and terms.memo == {}

    def test_a_negative_kept_weight_gets_no_ceiling(self, monkeypatch):
        exact_success = delivery._exact_success

        def tilted(hop, data_size, limit, stop_when_certain):
            # the second contact's increment turned negative
            for n, success in enumerate(exact_success(hop, data_size, limit, stop_when_certain)):
                yield -abs(success) if n == 1 else success

        monkeypatch.setattr(delivery, "_exact_success", tilted)
        for hops in ((params(lam=0.02, beta=3.0),), (params(beta=3.0), params(beta=4.0))):
            spec = ol.PathSpec(hops)
            price = route_prob(spec, 10.0, 200.0)
            weights = spec.terms.memo[10.0][1][0]
            assert min(weights) < 0.0
            # the first price finds the negative weight, and no later one is kept
            for _ in range(2):
                spec.terms.keep_price(10.0, 200.0, price)
                assert spec.terms.ceiling(10.0, 100.0) == 1.0

    def test_a_block_term_size_gets_no_ceiling(self):
        # ceil(12 / 0.01) = 1200 contacts, more than _MAX_KEPT
        spec = ol.PathSpec((params(lam=1.0, beta=0.01),))
        price = route_prob(spec, 12.0, 1000.0)
        assert isinstance(spec.terms.memo[12.0][1], _BlockTerms)
        for _ in range(2):
            spec.terms.keep_price(12.0, 1000.0, price)
            assert spec.terms.ceiling(12.0, 500.0) == 1.0

    def test_criterion_7_replay_is_unchanged_by_the_ceilings(self, monkeypatch):
        net = criterion_7_network()
        tasks = _build_tasks(net, [10.0, 20.0], [200.0, 300.0, 400.0, 500.0, 600.0], 2, 1000)
        with monkeypatch.context() as patched:
            patched.setattr(RouteTerms, "ceiling", lambda self, data_size, deadline: 1.0)
            unbounded, plain = replay_distributed(monkeypatch, net, tasks, seed=7)
        bounded, counts = replay_distributed(monkeypatch, net, tasks, seed=7)
        assert bounded == unbounded
        # with every ceiling 1 only certain segments skip, and none does here
        assert plain["holder_only"] == 0
        assert counts["adjustments"] == plain["adjustments"] > 1000
        assert counts["holder_only"] >= 0.4 * counts["adjustments"]

    def test_gammainc_falls_far_less_than_the_ceiling_margin(self):
        # the one assumption of the ceilings: as its argument grows,
        # gammainc never falls by more than a few last bits, which the 1e-9
        # margin covers (a denser scan saw falls of up to 7.2e-15 near x = a).
        # Scanned: shapes 1-64 and every kept shape of the criterion-7
        # routes at sizes 10, 20 and 60, on a grid up to where the CDF is
        # 1, and a few ulps to 1e-6 on each side of the arguments where
        # scipy switches its method (x = 1, a, 0.7a and 1.3a)
        shapes = set()
        for routes in simulator._Context(criterion_7_network()).routes.values():
            for spec in routes.values():
                for size in (10.0, 20.0, 60.0):
                    entry = spec.terms.entry(size, 1e6)
                    if entry is not None and not isinstance(entry[1], _BlockTerms):
                        shapes.update(entry[1][1])
        assert len(shapes) > 10_000
        offsets = np.concatenate([[0.0], np.geomspace(1e-16, 1e-6, 6)])
        offsets = np.concatenate([-offsets[1:], offsets])

        def largest_fall(shape, points):
            top = shape + 12.0 * np.sqrt(shape) + 40.0
            switches = np.stack([np.ones_like(shape), shape, 0.7 * shape, 1.3 * shape], axis=1)
            near = switches[:, :, None] * (1.0 + offsets)
            x = np.concatenate(
                [top[:, None] * np.linspace(0.0, 1.0, points), near.reshape(len(shape), -1)],
                axis=1,
            )
            x.sort(axis=1)
            in_time = special.gammainc(shape[:, None], x)
            return float((np.maximum.accumulate(in_time, axis=1) - in_time).max())

        falls = [largest_fall(np.arange(1.0, 65.0), 20_000)]
        kept = np.array(sorted(shapes))
        falls += [largest_fall(kept[i : i + 4096], 200) for i in range(0, len(kept), 4096)]
        assert max(falls) <= 1e-12


def transmission(spec, size):
    """The serial transmission time ``T'`` of ``size`` over ``spec``."""
    return serial_sum(size / hop.rate for hop in spec.hops)


def sizes_to_check(spec, rng):
    """Sizes at and around each hop's beta and the ceiling guard, random
    sizes, and one size over ``_MAX_KEPT`` tuples."""
    sizes = []
    for hop in spec.hops:
        guarded = hop.beta * (1 + _CEIL_GUARD)
        sizes += [
            hop.beta,
            math.nextafter(hop.beta, math.inf),
            math.nextafter(guarded, 0.0),
            guarded,
            math.nextafter(guarded, math.inf),
        ]
    sizes += (10 ** rng.uniform(-1.5, 1.6, size=12)).tolist()
    # just over _MAX_KEPT tuples: the terms are built in blocks
    size = min(hop.beta for hop in spec.hops)
    while math.prod(needed(size, hop.beta) for hop in spec.hops) <= _MAX_KEPT:
        size *= 1.25
    return sizes + [size]


class TestRoutePricer:
    """The protocol prices a (route, size) from the route's terms exactly
    as the scalar reference sums the route's hops at that size."""

    def test_bit_identical_to_the_scalar_reference_on_every_criterion_7_route(self):
        specs = [
            spec
            for routes in simulator._Context(criterion_7_network()).routes.values()
            for spec in routes.values()
        ]
        assert len(specs) == 504
        rng = np.random.default_rng(2026)
        checked = 0
        below_one = []
        for spec in specs:
            sizes = sizes_to_check(spec, rng)
            checked += len(sizes)
            # the memo answers repeats: every deadline asks every size again
            for budget in [0.0, -1e-9, *(10 ** rng.uniform(0, 3.5, size=3)).tolist()]:
                for size in sizes:
                    deadline = transmission(spec, size) + budget
                    want = reference_path(spec.hops, size, deadline)
                    assert route_prob(spec, size, deadline) == want
                    if budget <= 0:
                        assert want == 0.0
            # one batch prices every size as each size alone
            deadline = float(rng.uniform(50.0, 3000.0))
            want = [reference_path(spec.hops, size, deadline) for size in sizes]
            assert distributed._route_probs([(spec, s) for s in sizes], deadline) == want
            # one ulp over a one-hop route's beta the ceiling guard keeps
            # one contact, which carries the item with probability below 1
            size = math.nextafter(spec.hops[0].beta, math.inf)
            if len(spec.hops) == 1:
                weights = spec.terms.memo[size][1][0]
                below_one.append(weights[0] < 1.0)
        assert checked >= 10_000
        # the one-contact weight is computed, not taken to be 1
        assert any(below_one)

    def test_over_the_tuple_cap_raises_only_once_the_deadline_covers_t_prime(self):
        for spec in [
            spec
            for routes in simulator._Context(criterion_7_network()).routes.values()
            for spec in routes.values()
            if len(spec.hops) == 2
        ][:20]:
            size = 2.0 * math.isqrt(DEFAULT_TUPLE_CAP) * max(hop.beta for hop in spec.hops)
            assert math.prod(needed(size, hop.beta) for hop in spec.hops) > DEFAULT_TUPLE_CAP
            t_prime = transmission(spec, size)
            assert route_prob(spec, size, t_prime) == 0.0
            assert route_prob(spec, size, math.nextafter(t_prime, 0.0)) == 0.0
            for deadline in (math.nextafter(t_prime, math.inf), t_prime + 100.0):
                # a failed build stores nothing, so every query raises
                for _ in range(2):
                    with pytest.raises(ComplexityError):
                        route_prob(spec, size, deadline)
            assert size not in spec.terms.memo
