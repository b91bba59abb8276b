import math

import numpy as np
import pytest

import oppload as ol
from oppload.errors import InstanceTooLargeError
from oppload.netgraph import Network, edge_key

from conftest import TWO_PATH_DEADLINE, TWO_PATH_SIZE, random_small_instance


def params(lam=0.1, alpha=3.0, beta=5.0, rate=100.0):
    return ol.PairContactParams(contact_rate=lam, alpha=alpha, beta=beta, rate=rate)


class TestBruteForce:
    def test_two_path_instance_prefers_even_split(self, two_path_network):
        plan = ol.brute_force_optimal(
            two_path_network,
            0,
            TWO_PATH_SIZE,
            TWO_PATH_DEADLINE,
            ol.OracleConfig(size_granularity=TWO_PATH_SIZE / 2, max_paths=3, max_hops=3),
        )
        assert sorted(a.assigned for a in plan.allocations) == [10.0, 10.0]
        assert plan.joint_probability == pytest.approx(0.504, abs=1e-3)

    def test_single_path_network_carries_everything(self):
        net = Network(
            node_count=3,
            infrastructure_id=2,
            edges={edge_key(0, 1): params(), edge_key(1, 2): params()},
        )
        plan = ol.brute_force_optimal(net, 0, 7.0, 80.0)
        assert len(plan.allocations) == 1
        assert plan.allocations[0].assigned == 7.0
        assert plan.allocations[0].route == (0, 1, 2)

    def test_upper_bounds_the_heuristic(self):
        rng = np.random.default_rng(5150)
        config = ol.OracleConfig(size_granularity=1.0, max_paths=3, max_hops=4)
        for _ in range(20):
            net = random_small_instance(rng)
            size = float(rng.integers(2, 9))
            deadline = float(rng.uniform(30.0, 120.0))
            heuristic = ol.plan_offload(net, 0, size, deadline)
            oracle = ol.brute_force_optimal(net, 0, size, deadline, config)
            assert heuristic.joint_probability <= oracle.joint_probability + 1e-9

    def test_value_is_order_invariant_and_grid_refinable(self):
        rng = np.random.default_rng(77)
        net = random_small_instance(rng)
        coarse = ol.brute_force_optimal(
            net, 0, 6.0, 60.0, ol.OracleConfig(size_granularity=2.0, max_paths=3, max_hops=4)
        )
        fine = ol.brute_force_optimal(
            net, 0, 6.0, 60.0, ol.OracleConfig(size_granularity=1.0, max_paths=3, max_hops=4)
        )
        assert fine.joint_probability >= coarse.joint_probability - 1e-12

    def test_enumeration_cap(self):
        net = ol.generate_synthetic(
            ol.SyntheticConfig(n=30, avg_degree=8, max_degree=12, seed=3)
        )
        source = net.mobile_nodes()[0]
        with pytest.raises(InstanceTooLargeError):
            ol.brute_force_optimal(
                net,
                source,
                20.0,
                200.0,
                ol.OracleConfig(size_granularity=0.5, max_paths=4, max_hops=5, enumeration_cap=10**5),
            )


class TestMalformedInputs:
    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    def test_total_and_deadline_must_be_finite_and_positive(self, two_path_network, bad):
        with pytest.raises(ValueError, match="finite and > 0"):
            ol.brute_force_optimal(two_path_network, 0, bad, TWO_PATH_DEADLINE)
        with pytest.raises(ValueError, match="finite and > 0"):
            ol.brute_force_optimal(two_path_network, 0, TWO_PATH_SIZE, bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    def test_size_granularity_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="finite and > 0"):
            ol.OracleConfig(size_granularity=bad)

    @pytest.mark.parametrize("field", ["max_paths", "max_hops", "enumeration_cap"])
    @pytest.mark.parametrize("bad", [math.nan, 2.5, 0, -1])
    def test_caps_must_be_integers_of_at_least_one(self, field, bad):
        # a NaN cap used to pass and, as the enumeration cap, turn the
        # size guard off; a fractional one failed inside the search
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            ol.OracleConfig(**{field: bad})

    @pytest.mark.parametrize("source", [99, -1])
    def test_source_must_be_a_node(self, two_path_network, source):
        with pytest.raises(ValueError, match=f"source {source} is not a node"):
            ol.brute_force_optimal(two_path_network, source, TWO_PATH_SIZE, TWO_PATH_DEADLINE)
