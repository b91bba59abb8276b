import heapq
import math

import numpy as np
import pytest

import oppload as ol
from oppload import delivery
from oppload.errors import ComplexityError, PlanningError
from oppload.heuristic import _alloc_prob, _settle, route_path
from oppload.netgraph import Network, edge_key

from conftest import (
    TWO_PATH_DEADLINE,
    TWO_PATH_SIZE,
    criterion_7_network,
    random_small_instance,
)


def params(lam=0.1, alpha=3.0, beta=5.0, rate=100.0):
    return ol.PairContactParams(contact_rate=lam, alpha=alpha, beta=beta, rate=rate)


def simple_net(edge_map, n, infra):
    return Network(
        node_count=n,
        infrastructure_id=infra,
        edges={edge_key(a, b): p for (a, b), p in edge_map.items()},
    )


class TestDijkstraMaxQ:
    def test_single_edge(self):
        net = simple_net({(0, 1): params()}, n=2, infra=1)
        assert ol.dijkstra_max_q(net, 0, 1, 50.0) == (0, 1)

    def test_prefers_reliable_two_hop_route(self):
        net = simple_net(
            {
                (0, 2): params(lam=0.001),
                (0, 1): params(lam=0.1),
                (1, 2): params(lam=0.1),
            },
            n=3,
            infra=2,
        )
        # Erlang-2(0.1) at 100 gives ~0.9995, the direct edge only ~0.0952
        assert ol.dijkstra_max_q(net, 0, 2, 100.0) == (0, 1, 2)

    def test_unreachable_after_exclusions(self):
        net = simple_net({(0, 1): params(), (1, 2): params()}, n=3, infra=2)
        route = ol.dijkstra_max_q(net, 0, 2, 100.0, excluded_edges={(1, 2)})
        assert route is None


def reference_dijkstra(network, u, v, deadline, excluded=frozenset()):
    """The search with every label recomputed by ``availability`` on the
    whole candidate route, and a table of each node's best label so far."""
    best = {u: (1.0, 0, (u,))}
    settled = set()
    heap = [(-1.0, 0, (u,))]
    while heap:
        neg_q, hops, route = heapq.heappop(heap)
        node = route[-1]
        if node in settled or (-neg_q, hops, route) != best[node]:
            continue
        settled.add(node)
        if node == v:
            return route
        for neighbor in network.neighbors(node):
            if neighbor in settled or neighbor in route:
                continue
            if edge_key(node, neighbor) in excluded:
                continue
            candidate = route + (neighbor,)
            q = ol.availability(route_path(network, candidate), deadline)
            entry = (q, len(candidate) - 1, candidate)
            incumbent = best.get(neighbor)
            if incumbent is None or (-q, entry[1], candidate) < (
                -incumbent[0],
                incumbent[1],
                incumbent[2],
            ):
                best[neighbor] = entry
                heapq.heappush(heap, (-q, entry[1], candidate))
    return None


class TestRunningMomentLabels:
    @pytest.mark.parametrize("deadline", [300.0, 3000.0])
    def test_labels_and_routes_match_whole_route_availability(self, deadline):
        net = criterion_7_network()
        infra = net.infrastructure_id
        for source in net.mobile_nodes():
            settled = list(_settle(net, source, deadline, set()))
            assert len(settled) == net.node_count
            for route, q in settled[1:]:
                assert q == ol.availability(route_path(net, route), deadline)
            assert ol.dijkstra_max_q(net, source, infra, deadline) == reference_dijkstra(
                net, source, infra, deadline
            )

    @pytest.mark.parametrize("deadline", [300.0, 3000.0])
    def test_routes_match_with_excluded_edges(self, deadline):
        net = criterion_7_network()
        infra = net.infrastructure_id
        for source in net.mobile_nodes():
            first = ol.dijkstra_max_q(net, source, infra, deadline)
            excluded = {edge_key(a, b) for a, b in zip(first, first[1:])}
            for route, q in list(_settle(net, source, deadline, excluded))[1:]:
                assert q == ol.availability(route_path(net, route), deadline)
            assert ol.dijkstra_max_q(
                net, source, infra, deadline, excluded
            ) == reference_dijkstra(net, source, infra, deadline, excluded)


class TestAllocatePaths:
    def test_only_direct_edge_degenerates(self):
        net = simple_net({(0, 1): params()}, n=2, infra=1)
        assert ol.allocate_paths(net, 0, 1, 10.0, 50.0) == []

    def test_two_disjoint_paths(self, two_path_network):
        allocs = ol.allocate_paths(
            two_path_network, 0, 3, TWO_PATH_SIZE, TWO_PATH_DEADLINE
        )
        assert len(allocs) == 2
        assert {a.route for a in allocs} == {(0, 1, 3), (0, 2, 3)}
        assert [a.assigned for a in allocs] == [10.0, 10.0]

    def test_capacity_cap_and_stop_condition(self):
        net = simple_net(
            {
                (0, 1): params(lam=0.2, beta=3.0),
                (1, 3): params(lam=0.2, beta=3.0),
                (0, 2): params(lam=0.1, beta=4.0),
                (2, 3): params(lam=0.1, beta=4.0),
            },
            n=4,
            infra=3,
        )
        allocs = ol.allocate_paths(net, 0, 3, 5.0, 100.0)
        assert [a.assigned for a in allocs] == [3.0, 2.0]


def make_alloc(route, betas, lam=0.05, alpha=3.0, rate=100.0, assigned=0.0):
    hops = tuple(params(lam=lam, alpha=alpha, beta=b, rate=rate) for b in betas)
    return ol.Allocation(route=route, path=ol.PathSpec(hops), assigned=assigned)


class TestAssignRemaining:
    def test_single_path_takes_everything(self):
        alloc = make_alloc((0, 1, 2), (3.0, 5.0), assigned=3.0)
        out = ol.assign_remaining([alloc], 10.0, 100.0)
        assert [a.assigned for a in out] == [10.0]

    def test_no_remainder_is_identity(self):
        allocs = [
            make_alloc((0, 1, 5), (3.0, 5.0), assigned=3.0),
            make_alloc((0, 2, 5), (4.0, 6.0), assigned=4.0),
        ]
        out = ol.assign_remaining(allocs, 7.0, 100.0)
        assert [a.assigned for a in out] == [3.0, 4.0]

    def test_identical_paths_alternate_by_one_step(self):
        # capacity 3, next beta 5, so the growth step is 2; with a pool of
        # exactly one step the paths end up differing by exactly that step
        a = make_alloc((0, 1, 5), (3.0, 5.0), assigned=3.0)
        b = make_alloc((0, 2, 5), (3.0, 5.0), assigned=3.0)
        out = ol.assign_remaining([a, b], 8.0, 200.0)
        sizes = sorted(a.assigned for a in out)
        assert sizes == [3.0, 5.0]

    def test_conservation_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            allocs = [
                make_alloc(
                    (0, 1 + i, 9),
                    (float(rng.choice([2.0, 3.0, 4.0])), float(rng.choice([2.0, 3.0, 4.0]))),
                    lam=float(rng.uniform(0.01, 0.2)),
                    assigned=float(rng.uniform(1.0, 4.0)),
                )
                for i in range(int(rng.integers(1, 4)))
            ]
            total = math.fsum(a.assigned for a in allocs) + float(rng.uniform(0.0, 15.0))
            out = ol.assign_remaining(allocs, total, 150.0)
            assert math.fsum(a.assigned for a in out) == pytest.approx(total, abs=0.0)


class TestReallocate:
    def test_single_allocation_unchanged(self):
        alloc = make_alloc((0, 1, 2), (3.0,) * 2, assigned=6.0)
        out = ol.reallocate([alloc], 100.0)
        assert [a.assigned for a in out] == [6.0]

    def test_dead_path_collapses(self):
        strong = make_alloc((0, 1, 4), (5.0, 5.0), lam=0.2, assigned=5.0)
        dead = make_alloc((0, 2, 4), (2.0, 2.0), lam=1e-4, assigned=2.0)
        out = ol.reallocate([strong, dead], 100.0)
        assert len(out) == 1
        assert out[0].route == (0, 1, 4)
        assert out[0].assigned == pytest.approx(7.0)

    def test_symmetric_paths_stay(self, two_path_network):
        allocs = ol.allocate_paths(two_path_network, 0, 3, TWO_PATH_SIZE, TWO_PATH_DEADLINE)
        out = ol.reallocate(allocs, TWO_PATH_DEADLINE)
        assert [a.assigned for a in out] == [10.0, 10.0]

    def test_never_lowers_the_product(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            allocs = [
                make_alloc(
                    (0, 1 + i, 9),
                    (float(rng.choice([2.0, 3.0])), float(rng.choice([2.0, 3.0]))),
                    lam=float(10 ** rng.uniform(-3, -0.5)),
                    assigned=float(rng.choice([2.0, 3.0, 4.0])),
                )
                for i in range(int(rng.integers(2, 5)))
            ]
            deadline = float(rng.uniform(50.0, 300.0))
            before = math.prod(_alloc_prob(a, deadline) for a in allocs)
            out = ol.reallocate(allocs, deadline)
            after = math.prod(_alloc_prob(a, deadline) for a in out)
            assert after >= before - 1e-12
            assert math.fsum(a.assigned for a in out) == pytest.approx(
                math.fsum(a.assigned for a in allocs)
            )


class TestPlanOffload:
    def test_two_path_split(self, two_path_network):
        plan = ol.plan_offload(two_path_network, 0, TWO_PATH_SIZE, TWO_PATH_DEADLINE)
        assert plan.offloaded
        assert sorted(a.assigned for a in plan.allocations) == [10.0, 10.0]
        assert plan.joint_probability == pytest.approx(0.71**2, abs=1e-3)

    def test_hot_direct_link_wins(self):
        net = simple_net(
            {
                (0, 3): params(lam=1.0, beta=100.0),
                (0, 1): params(lam=0.05),
                (1, 3): params(lam=0.05),
                (0, 2): params(lam=0.05),
                (2, 3): params(lam=0.05),
            },
            n=4,
            infra=3,
        )
        plan = ol.plan_offload(net, 0, 10.0, 50.0)
        assert not plan.offloaded
        assert plan.allocations == ()
        assert plan.joint_probability > 0.99

    def test_no_route_raises(self):
        net = simple_net({(1, 2): params()}, n=4, infra=2)
        with pytest.raises(PlanningError):
            ol.plan_offload(net, 0, 5.0, 50.0)

    @pytest.mark.parametrize("source", [99, -1])
    def test_source_must_be_a_node(self, two_path_network, source):
        with pytest.raises(ValueError, match=f"source {source} is not a node"):
            ol.plan_offload(two_path_network, source, TWO_PATH_SIZE, TWO_PATH_DEADLINE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_total_or_deadline_refused(self, two_path_network, bad):
        # the source has no direct edge: an infinite total would otherwise
        # grow the allocations forever, and NaN reads as "no path"
        alloc = make_alloc((0, 1, 3), (3.0, 5.0), assigned=3.0)
        for total, deadline in ((bad, TWO_PATH_DEADLINE), (TWO_PATH_SIZE, bad)):
            with pytest.raises(ValueError, match="finite"):
                ol.plan_offload(two_path_network, 0, total, deadline)
            with pytest.raises(ValueError, match="finite"):
                ol.allocate_paths(two_path_network, 0, 3, total, deadline)
            with pytest.raises(ValueError, match="finite"):
                ol.assign_remaining([alloc], total, deadline)

    def test_never_below_direct_probability(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            net = random_small_instance(rng)
            size = float(rng.integers(2, 9))
            deadline = float(rng.uniform(30.0, 120.0))
            plan = ol.plan_offload(net, 0, size, deadline)
            direct = net.edge_params(0, net.infrastructure_id)
            direct_prob = (
                ol.delivery_prob_onehop(direct, ol.DeliveryQuery(size, deadline))
                if direct
                else 0.0
            )
            assert plan.joint_probability >= direct_prob - 1e-12

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            net = random_small_instance(rng)
            size = float(rng.integers(2, 9))
            deadline = float(rng.uniform(30.0, 120.0))
            plan = ol.plan_offload(net, 0, size, deadline)
            if not plan.offloaded:
                continue
            # conservation
            assert math.fsum(a.assigned for a in plan.allocations) == pytest.approx(size)
            # pairwise edge-disjoint routes
            used = set()
            for alloc in plan.allocations:
                assert not (alloc.edges() & used)
                used |= alloc.edges()
            # allocation count bounded by the endpoint degrees
            bound = min(net.degree(0), net.degree(net.infrastructure_id))
            assert len(plan.allocations) <= bound

    def test_plan_json_shape(self, two_path_network):
        plan = ol.plan_offload(two_path_network, 0, TWO_PATH_SIZE, TWO_PATH_DEADLINE)
        payload = ol.plan_to_json(plan)
        assert payload["offloaded"] is True
        assert payload["probability"] == pytest.approx(plan.joint_probability)
        assert sorted(p["route"] for p in payload["allocations"]) == [[0, 1, 3], [0, 2, 3]]


# The longhaul panel's plans at deadline 3000 (sources other than 2 and 47,
# every fifth of the mobile nodes; sizes 60 and 120): (source, size) ->
# (routes, repr of the assigned sizes, repr of the joint probability).
LONGHAUL_PLANS = {
    (0, 60.0): ([], "()", "0.9022167748005154"),
    (6, 60.0): ([], "()", "0.8848030114028639"),
    (11, 60.0): ([], "()", "0.885555179903415"),
    (16, 60.0): ([], "()", "0.8679325379750853"),
    (21, 60.0): ([], "()", "0.8948349477667368"),
    (26, 60.0): ([], "()", "0.9096162349483802"),
    (31, 60.0): ([], "()", "0.882524236499567"),
    (36, 60.0): ([], "()", "0.9044112240212316"),
    (41, 60.0): ([], "()", "0.8652665415081915"),
    (46, 60.0): (
        [(46, 1, 50), (46, 6, 50), (46, 8, 50), (46, 18, 50), (46, 33, 23, 50),
         (46, 34, 10, 50), (46, 50)],
        "(9.836938798780025, 11.13286687090119, 4.68928784313832, 18.816042338734782, "
        "5.121595607334634, 5.448867274545198, 4.954401266565849)",
        "0.5454958157654956",
    ),
    (0, 120.0): ([], "()", "0.8614015955755328"),
    (6, 120.0): ([], "()", "0.8733714908188615"),
    (11, 120.0): (
        [(11, 32, 50), (11, 48, 50), (11, 50)],
        "(16.01961171219108, 34.14745866630226, 69.83292962150668)",
        "0.6646609413513369",
    ),
    (16, 120.0): ([], "()", "0.23678931351910076"),
    (21, 120.0): ([], "()", "0.86812662734927"),
    (26, 120.0): ([], "()", "0.6273301129696618"),
    (31, 120.0): ([], "()", "0.5082411258363397"),
    (36, 120.0): ([], "()", "0.8452838963706191"),
    (41, 120.0): ([], "()", "0.28543988355815386"),
    (46, 120.0): (
        [(46, 1, 50), (46, 6, 50), (46, 8, 50), (46, 18, 50), (46, 2, 0, 50),
         (46, 31, 3, 50), (46, 33, 23, 50), (46, 34, 10, 50), (46, 50)],
        "(23.989259506964046, 23.854394989660605, 4.68928784313832, 26.728869279421932, "
        "10.935616738592252, 5.866849151589754, 13.532453949522045, 5.448867274545198, "
        "4.954401266565849)",
        "0.2900627713932261",
    ),
}


class TestLonghaulPlans:
    """The planner at deadline 3000 on the criterion-7 network, where routes
    run to 22 hops and tuple spaces to 10**6."""

    @pytest.fixture(scope="class")
    def network(self):
        return criterion_7_network()

    def test_panel_plans_are_pinned(self, network):
        mobile = [n for n in range(network.node_count) if n != network.infrastructure_id]
        panel = [n for n in mobile if n not in (2, 47)][::5]
        assert sorted({source for source, _ in LONGHAUL_PLANS}) == panel
        for (source, size), (routes, assigned, joint) in LONGHAUL_PLANS.items():
            plan = ol.plan_offload(network, source, size, 3000.0)
            assert plan.offloaded == bool(routes)
            assert [a.route for a in plan.allocations] == routes
            assert repr(tuple(a.assigned for a in plan.allocations)) == assigned
            assert repr(plan.joint_probability) == joint

    def test_source_47_still_reaches_the_cap(self, network):
        with pytest.raises(ComplexityError, match="enumerating 1048576 contact tuples"):
            ol.plan_offload(network, 47, 120.0, 3000.0)


class TestPricesOncePerPlan:
    @pytest.mark.parametrize("task", ["two-path", "longhaul-11"])
    def test_each_route_and_size_reaches_the_estimator_once(
        self, monkeypatch, two_path_network, task
    ):
        if task == "two-path":
            network, source, size, deadline = (
                two_path_network, 0, TWO_PATH_SIZE, TWO_PATH_DEADLINE
            )
        else:
            network, source, size, deadline = criterion_7_network(), 11, 120.0, 3000.0
        asked = []
        price = delivery.delivery_probs

        def counted(queries, due):
            # a plan builds one path per route; holding each keeps ids apart
            asked.extend(queries)
            return price(queries, due)

        monkeypatch.setattr(delivery, "delivery_probs", counted)
        counts = []
        for _ in range(2):
            plan = ol.plan_offload(network, source, size, deadline)
            assert plan.offloaded
            pairs = [(id(path), assigned) for path, assigned in asked]
            assert {id(a.path) for a in plan.allocations} <= {key for key, _ in pairs}
            assert len(pairs) == len(set(pairs))
            counts.append(len(pairs))
            asked.clear()
        # a second plan of the same task prices every pair again
        assert counts[0] == counts[1] > len(plan.allocations)
