"""Shared fixtures: calibrated instances and random small networks."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import brentq

import oppload as ol
from oppload.contacts import reg_lower_incomplete_gamma as reg_gamma
from oppload.netgraph import Network, edge_key

TWO_PATH_DEADLINE = 100.0
TWO_PATH_SIZE = 20.0
_HOP_BETA = 10.0
_HOP_RATE = 1000.0


def _relay_hop() -> ol.PairContactParams:
    """Hop parameters calibrated so a symmetric two-hop path delivers
    half the item with probability 0.71 and the whole item with 0.23."""
    x0 = brentq(lambda x: reg_gamma(2, x) - 0.71, 0.1, 10.0)
    lam = x0 / (TWO_PATH_DEADLINE - TWO_PATH_SIZE / _HOP_RATE)

    def whole_item_prob(alpha: float) -> float:
        hop = ol.PairContactParams(lam, alpha, _HOP_BETA, _HOP_RATE)
        return ol.delivery_prob_path(
            ol.PathSpec((hop, hop)),
            ol.DeliveryQuery(TWO_PATH_SIZE, TWO_PATH_DEADLINE),
        )

    alpha = brentq(lambda a: whole_item_prob(a) - 0.23, 2.0, 8.0)
    return ol.PairContactParams(lam, alpha, _HOP_BETA, _HOP_RATE)


def _direct_hop() -> ol.PairContactParams:
    """Direct-edge parameters delivering the whole item with probability
    0.23 while staying below the relay paths' availability."""
    lam = 1.0 / TWO_PATH_DEADLINE

    def direct_prob(alpha: float) -> float:
        hop = ol.PairContactParams(lam, alpha, _HOP_BETA, _HOP_RATE)
        return ol.delivery_prob_onehop(
            hop, ol.DeliveryQuery(TWO_PATH_SIZE, TWO_PATH_DEADLINE)
        )

    alpha = brentq(lambda a: direct_prob(a) - 0.23, 2.0, 16.0)
    return ol.PairContactParams(lam, alpha, _HOP_BETA, _HOP_RATE)


def build_two_path_network(with_direct: bool = False) -> Network:
    """Node 0 reaches infrastructure (node 3) via two disjoint two-hop
    paths; optionally also via a calibrated direct edge."""
    hop = _relay_hop()
    edges = {
        edge_key(0, 1): hop,
        edge_key(1, 3): hop,
        edge_key(0, 2): hop,
        edge_key(2, 3): hop,
    }
    if with_direct:
        edges[edge_key(0, 3)] = _direct_hop()
    return Network(node_count=4, infrastructure_id=3, edges=edges)


def criterion_7_network() -> Network:
    """The acceptance criterion-7 network: 50 nodes, 277 edges, seed 42."""
    return ol.generate_synthetic(
        ol.SyntheticConfig(
            n=50,
            avg_degree=10,
            max_degree=15,
            weight_exponent=2.0,
            node_alpha_range=(6.0, 10.0),
            node_beta_range=(2.0, 3.0),
            infra_alpha_range=(3.0, 4.0),
            infra_beta_range=(2.0, 3.0),
            infra_lambda_range=(0.002, 0.02),
            rate=1.0,
            seed=42,
        )
    )


@pytest.fixture(scope="session")
def two_path_network() -> Network:
    return build_two_path_network(with_direct=False)


@pytest.fixture(scope="session")
def two_path_network_with_direct() -> Network:
    return build_two_path_network(with_direct=True)


def random_small_instance(rng: np.random.Generator) -> Network:
    """4 to 6 nodes around source 0 and infrastructure n-1, with betas on a
    1.0 grid so heuristic assignments stay on the oracle's grid."""
    n = int(rng.integers(4, 7))
    infra = n - 1
    edges: dict = {}

    def add(a: int, b: int) -> None:
        key = edge_key(a, b)
        if key not in edges:
            edges[key] = ol.PairContactParams(
                contact_rate=float(rng.uniform(0.02, 0.2)),
                alpha=float(rng.uniform(2.0, 4.0)),
                beta=float(rng.choice([2.0, 3.0, 4.0])),
                rate=10.0,
            )

    relays = [m for m in range(n) if m not in (0, infra)]
    for m in relays[:3]:
        add(0, m)
        add(m, infra)
    for _ in range(int(rng.integers(0, 3))):
        a, b = rng.choice(n, size=2, replace=False)
        add(int(a), int(b))
    if rng.random() < 0.5:
        add(0, infra)
    return Network(node_count=n, infrastructure_id=infra, edges=edges)
