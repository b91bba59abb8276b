"""Exhaustive search for the best offload split on small instances.

Enumerates every set of edge-disjoint simple routes to the infrastructure
node (up to configured path and hop counts) and every composition of the
data item across them on a granularity grid, evaluating the product of
per-path delivery probabilities.  Exact up to the grid, so it serves as
the yardstick the planning heuristic is measured against.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

from .delivery import DeliveryQuery, delivery_prob_path
from .errors import InstanceTooLargeError
from .heuristic import Allocation, OffloadPlan, _check_plan_inputs, route_path
from .netgraph import Network, edge_key

__all__ = ["OracleConfig", "brute_force_optimal"]


@dataclass(frozen=True)
class OracleConfig:
    """Limits for the exhaustive search.

    ``size_granularity`` defaults to half the smallest beta in the network;
    the caps are integers >= 1.
    """

    size_granularity: float | None = None
    max_paths: int = 3
    max_hops: int = 4
    enumeration_cap: int = 10**7

    def __post_init__(self) -> None:
        granularity = self.size_granularity
        if granularity is not None and not 0 < granularity < math.inf:
            raise ValueError(f"size_granularity must be finite and > 0, got {granularity!r}")
        for name in ("max_paths", "max_hops", "enumeration_cap"):
            cap = getattr(self, name)
            if not isinstance(cap, numbers.Integral) or cap < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {cap!r}")


def _enumerate_routes(
    network: Network, u: int, v: int, max_hops: int
) -> list[tuple[int, ...]]:
    """All simple routes from u to v with at most max_hops edges, canonical order."""
    routes: list[tuple[int, ...]] = []

    def extend(route: tuple[int, ...]) -> None:
        node = route[-1]
        if node == v:
            routes.append(route)
            return
        if len(route) - 1 >= max_hops:
            return
        for neighbor in network.neighbors(node):
            if neighbor not in route:
                extend(route + (neighbor,))

    extend((u,))
    return sorted(routes, key=lambda r: (len(r), r))


def _edge_disjoint(routes: tuple[tuple[int, ...], ...]) -> bool:
    seen: set = set()
    for route in routes:
        for a, b in zip(route, route[1:]):
            key = edge_key(a, b)
            if key in seen:
                return False
            seen.add(key)
    return True


def brute_force_optimal(
    network: Network,
    u: int,
    total: float,
    deadline: float,
    config: OracleConfig | None = None,
) -> OffloadPlan:
    """Best offload plan by exhaustive enumeration.

    Segment sizes for all but the last path of a set range over multiples
    of the granularity; the last path takes the exact remainder.  The
    single-path whole-item option (including the direct edge, when present)
    is always part of the enumeration.

    Raises:
        ValueError: ``u`` is not a mobile node, or ``total`` or ``deadline``
            is not finite and > 0.
        InstanceTooLargeError: the candidate count exceeds the enumeration cap.
    """
    config = config or OracleConfig()
    _check_plan_inputs(network, u, total, deadline)
    v = network.infrastructure_id

    granularity = config.size_granularity
    if granularity is None:
        granularity = min(p.beta for p in network.edges.values()) / 2.0

    routes = _enumerate_routes(network, u, v, config.max_hops)
    # one spec per route, so its memo serves every permutation and grid point
    specs_of = {route: route_path(network, route) for route in routes}
    grid = [granularity * k for k in range(1, int(total / granularity) + 1)]
    grid = [g for g in grid if g < total - 1e-12]

    # candidate count: for m paths, (m over routes) orderings x grid^(m-1)
    candidates = 0
    for m in range(1, config.max_paths + 1):
        candidates += math.comb(len(routes), m) * math.factorial(m) * len(grid) ** (m - 1)
        if candidates > config.enumeration_cap:
            raise InstanceTooLargeError(
                f"enumeration would exceed {config.enumeration_cap} candidates"
            )

    best_value = -1.0
    best: tuple[tuple[int, ...], ...] | None = None
    best_sizes: tuple[float, ...] | None = None

    for m in range(1, config.max_paths + 1):
        for subset in itertools.permutations(routes, m):
            if not _edge_disjoint(subset):
                continue
            specs = [specs_of[route] for route in subset]
            for head in itertools.product(grid, repeat=m - 1):
                remainder = total - math.fsum(head)
                if remainder <= 1e-12:
                    continue
                sizes = (*head, remainder)
                value = 1.0
                for spec, size in zip(specs, sizes):
                    value *= delivery_prob_path(
                        spec, DeliveryQuery(data_size=size, deadline=deadline)
                    )
                    if value <= best_value:
                        break
                if value > best_value + 1e-15:
                    best_value = value
                    best = subset
                    best_sizes = sizes

    if best is None or best_sizes is None:
        return OffloadPlan(
            allocations=(),
            total=total,
            deadline=deadline,
            joint_probability=0.0,
            offloaded=False,
        )

    allocations = tuple(
        Allocation(route=route, path=specs_of[route], assigned=size)
        for route, size in zip(best, best_sizes)
    )
    direct_only = len(best) == 1 and best[0] == (u, v)
    return OffloadPlan(
        allocations=allocations,
        total=total,
        deadline=deadline,
        joint_probability=best_value,
        offloaded=not direct_only,
    )
