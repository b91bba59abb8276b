"""Network model: nodes, one infrastructure node, per-edge contact parameters.

Provides a synthetic generator (power-law degrees wired by a configuration
model, power-law edge weights mapped to contact rates) and ingestion of
real contact traces, where the first part of a trace fits the per-pair
parameters and the remainder is kept for replay.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .contacts import PairContactParams, fit_exponential, fit_pareto
from .errors import ConfigError, FittingError, GenerationError, IngestionError

__all__ = [
    "Network",
    "SyntheticConfig",
    "TraceRecord",
    "generate_synthetic",
    "ingest_trace",
    "network_to_json",
    "network_from_json",
    "save_network",
    "load_network",
    "read_trace_csv",
    "write_trace_csv",
]

EdgeKey = tuple[int, int]


def edge_key(a: int, b: int) -> EdgeKey:
    """Canonical unordered key for the edge between two nodes."""
    if a == b:
        raise ValueError(f"self-loop edge at node {a}")
    return (a, b) if a < b else (b, a)


@dataclass
class Network:
    """An opportunistic network with one designated infrastructure node.

    Node identifiers are ``0 .. node_count - 1``; ``infrastructure_id`` is
    one of them.  ``edges`` maps canonical unordered pairs to contact
    parameters.  Instances are treated as immutable once built.
    """

    node_count: int
    infrastructure_id: int
    edges: dict[EdgeKey, PairContactParams]
    _adjacency: dict[int, list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0 <= self.infrastructure_id < self.node_count):
            raise ValueError(
                f"infrastructure id {self.infrastructure_id} outside 0..{self.node_count - 1}"
            )
        adjacency: dict[int, list[int]] = {i: [] for i in range(self.node_count)}
        for (a, b), params in self.edges.items():
            if edge_key(a, b) != (a, b):
                raise ValueError(f"edge key {(a, b)} is not canonical")
            if not (0 <= a < self.node_count and 0 <= b < self.node_count):
                raise ValueError(f"edge {(a, b)} references unknown nodes")
            if not isinstance(params, PairContactParams):
                raise TypeError(f"edge {(a, b)} carries {type(params)!r}")
            adjacency[a].append(b)
            adjacency[b].append(a)
        self._adjacency = {node: sorted(nbrs) for node, nbrs in adjacency.items()}

    def neighbors(self, node: int) -> list[int]:
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        return len(self._adjacency[node])

    def edge_params(self, a: int, b: int) -> PairContactParams | None:
        return self.edges.get(edge_key(a, b))

    def mobile_nodes(self) -> list[int]:
        return [n for n in range(self.node_count) if n != self.infrastructure_id]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic generator.

    ``n`` mobile nodes get a power-law degree sequence with mean close to
    ``avg_degree`` and maximum ``max_degree``, wired at random.  Edge
    weights follow a power law with exponent ``weight_exponent`` and
    minimum ``weight_scale``; the contact rate of an inter-node edge is
    ``1 / weight``.  Every node also gets an edge to the infrastructure
    node with parameters drawn uniformly from the ``infra_*`` ranges.
    """

    n: int
    avg_degree: float
    max_degree: int
    weight_exponent: float = 2.0
    node_alpha_range: tuple[float, float] = (3.0, 4.0)
    node_beta_range: tuple[float, float] = (2.0, 3.0)
    infra_alpha_range: tuple[float, float] = (3.0, 4.0)
    infra_beta_range: tuple[float, float] = (2.0, 3.0)
    infra_lambda_range: tuple[float, float] = (0.001, 0.1)
    rate: float = 1.0
    seed: int = 0
    # Scale of the weight distribution; 1/weight_scale caps the inter-node
    # contact rate.  The default keeps mean inter-contact gaps well under
    # the deadlines used in the synthetic experiments.
    weight_scale: float = 5.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        if not (self.avg_degree <= self.max_degree < self.n):
            raise ValueError(
                f"need avg_degree <= max_degree < n, got "
                f"{self.avg_degree}, {self.max_degree}, {self.n}"
            )
        if self.avg_degree < 1:
            raise ValueError("avg_degree must be >= 1")
        if self.weight_exponent <= 1:
            raise ValueError("weight_exponent must be > 1")
        if self.rate <= 0 or self.weight_scale <= 0:
            raise ValueError("rate and weight_scale must be > 0")
        for name in (
            "node_alpha_range",
            "node_beta_range",
            "infra_alpha_range",
            "infra_beta_range",
            "infra_lambda_range",
        ):
            low, high = getattr(self, name)
            if not (0 < low <= high):
                raise ValueError(f"{name} must satisfy 0 < low <= high, got ({low}, {high})")


@dataclass(frozen=True)
class TraceRecord:
    """One recorded contact between two devices, timestamps in seconds."""

    node_a: int
    node_b: int
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ValueError(f"contact of node {self.node_a} with itself")
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")


def _degree_distribution(avg_degree: float, max_degree: int) -> tuple[int, np.ndarray]:
    """Truncated power-law degree distribution with mean closest to avg_degree.

    Uses a fixed exponent of 2 and tunes the lower cutoff.
    """
    best: tuple[float, int, np.ndarray] | None = None
    for k_min in range(1, max_degree + 1):
        ks = np.arange(k_min, max_degree + 1, dtype=float)
        weights = ks**-2.0
        mean = float((ks * weights).sum() / weights.sum())
        gap = abs(mean - avg_degree)
        if best is None or gap < best[0]:
            best = (gap, k_min, weights / weights.sum())
    assert best is not None
    return best[1], best[2]


_PAIRING_ATTEMPTS = 100


def _pair_stubs(rng: np.random.Generator, degrees: np.ndarray) -> list[EdgeKey]:
    """Configuration-model pairing; self-loops and repeats are rejected.

    An attempt shuffles the stub list and pairs it up, skipping conflicting
    pairs.  Attempts losing more than 10% of the stubs are retried, up to
    ``_PAIRING_ATTEMPTS`` attempts in all.
    """
    stubs = np.repeat(np.arange(len(degrees)), degrees)
    target_pairs = len(stubs) // 2
    for _ in range(_PAIRING_ATTEMPTS):
        order = rng.permutation(stubs)
        seen: set[EdgeKey] = set()
        for a, b in zip(order[0::2], order[1::2]):
            if a == b:
                continue
            key = edge_key(int(a), int(b))
            if key in seen:
                continue
            seen.add(key)
        if len(seen) * 10 >= target_pairs * 9:
            return sorted(seen)
    raise GenerationError(
        f"could not wire degree sequence within {_PAIRING_ATTEMPTS} pairing attempts"
    )


def generate_synthetic(config: SyntheticConfig) -> Network:
    """Generate a synthetic network; deterministic for a fixed seed.

    Mobile nodes are ``0 .. n-1`` and the infrastructure node is ``n``.
    Every mobile node gets an infrastructure edge.
    """
    rng = np.random.default_rng(config.seed)
    k_min, probs = _degree_distribution(config.avg_degree, config.max_degree)
    support = np.arange(k_min, config.max_degree + 1)
    degrees = rng.choice(support, size=config.n, p=probs)
    if degrees.sum() % 2:
        bump = int(np.argmin(degrees))
        if degrees[bump] < config.max_degree:
            degrees[bump] += 1
        else:
            degrees[bump] -= 1

    pairs = _pair_stubs(rng, degrees)

    edges: dict[EdgeKey, PairContactParams] = {}
    for key in pairs:
        weight = (rng.pareto(config.weight_exponent - 1.0) + 1.0) * config.weight_scale
        alpha = rng.uniform(*config.node_alpha_range)
        beta = rng.uniform(*config.node_beta_range)
        edges[key] = PairContactParams(
            contact_rate=1.0 / weight, alpha=alpha, beta=beta, rate=config.rate
        )

    infra = config.n
    for node in range(config.n):
        lam = rng.uniform(*config.infra_lambda_range)
        alpha = rng.uniform(*config.infra_alpha_range)
        beta = rng.uniform(*config.infra_beta_range)
        edges[edge_key(node, infra)] = PairContactParams(
            contact_rate=lam, alpha=alpha, beta=beta, rate=config.rate
        )

    return Network(node_count=config.n + 1, infrastructure_id=infra, edges=edges)


def ingest_trace(
    records: Sequence[TraceRecord],
    warmup_fraction: float,
    rate: float,
    min_contacts: int = 5,
) -> tuple[Network, list[TraceRecord]]:
    """Fit a network from the warmup part of a trace.

    The trace is split at the ``warmup_fraction`` quantile of contact start
    times.  Warmup contacts fit per-pair parameters (exponential rate on
    start-to-start gaps, Pareto on ``duration * rate``); pairs with fewer
    than ``min_contacts`` warmup contacts or degenerate samples are
    dropped.  The node with the maximum fitted degree becomes the
    infrastructure node, and nodes without a one- or two-hop path to it are
    excluded.  Surviving node ids are remapped to ``0 .. m-1`` in sorted
    order of the original ids.

    Returns:
        The fitted network and the evaluation-half records (restricted to
        surviving nodes, ids remapped).

    Raises:
        IngestionError: empty input or no pair survives fitting.
        ValueError: ``warmup_fraction`` outside (0, 1), ``rate`` not
            finite and > 0, or ``min_contacts`` below 1.
    """
    if not records:
        raise IngestionError("empty trace")
    if not (0 < warmup_fraction < 1):
        raise ValueError(f"warmup_fraction must be in (0, 1), got {warmup_fraction!r}")
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and > 0, got {rate!r}")
    if min_contacts < 1:
        raise ValueError(f"min_contacts must be >= 1, got {min_contacts!r}")

    starts = np.array([r.t_start for r in records], dtype=float)
    cut = float(np.quantile(starts, warmup_fraction))
    warmup = [r for r in records if r.t_start <= cut]
    evaluation = [r for r in records if r.t_start > cut]

    by_pair: dict[EdgeKey, list[TraceRecord]] = {}
    for record in warmup:
        by_pair.setdefault(edge_key(record.node_a, record.node_b), []).append(record)

    fitted: dict[EdgeKey, PairContactParams] = {}
    for key in sorted(by_pair):
        contacts = sorted(by_pair[key], key=lambda r: r.t_start)
        if len(contacts) < min_contacts:
            continue
        gaps = [
            b.t_start - a.t_start for a, b in zip(contacts, contacts[1:])
        ]
        data = [(r.t_end - r.t_start) * rate for r in contacts]
        try:
            lam = fit_exponential(gaps)
            alpha, beta = fit_pareto(data)
        except FittingError:
            continue
        fitted[key] = PairContactParams(contact_rate=lam, alpha=alpha, beta=beta, rate=rate)

    if not fitted:
        raise IngestionError("no node pair survives fitting")

    adjacency: dict[int, set[int]] = {}
    for a, b in fitted:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    infra = min(adjacency, key=lambda node: (-len(adjacency[node]), node))

    reachable = {infra} | adjacency[infra]
    for neighbor in adjacency[infra]:
        reachable |= adjacency[neighbor]

    kept = sorted(reachable)
    remap = {orig: idx for idx, orig in enumerate(kept)}
    edges = {
        edge_key(remap[a], remap[b]): params
        for (a, b), params in fitted.items()
        if a in remap and b in remap
    }
    network = Network(node_count=len(kept), infrastructure_id=remap[infra], edges=edges)

    kept_eval = [
        TraceRecord(remap[r.node_a], remap[r.node_b], r.t_start, r.t_end)
        for r in evaluation
        if r.node_a in remap and r.node_b in remap
    ]
    return network, kept_eval


def network_to_json(network: Network) -> dict:
    """JSON-ready form: infrastructure id, node count, sorted edge list."""
    return {
        "infrastructure": network.infrastructure_id,
        "nodes": network.node_count,
        "edges": [
            {
                "a": a,
                "b": b,
                "lambda": params.contact_rate,
                "alpha": params.alpha,
                "beta": params.beta,
                "rate": params.rate,
            }
            for (a, b), params in sorted(network.edges.items())
        ],
    }


def _json_number(value, kind: type, where: str, name: str):
    """``value`` as ``kind`` (``int`` or ``float``) when it is a JSON number
    of that kind: an integer is a real number, a bool is neither.

    Raises:
        ConfigError: naming ``where`` and the field ``name``, for any other
            value.
    """
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a real number"
        raise ConfigError(f"{where} field {name!r} must be {noun}, got {value!r}")
    return kind(value)


def _params_from_json(entry: dict, where: str) -> PairContactParams:
    """Contact parameters from a ``{lambda, alpha, beta, rate}`` entry,
    named ``where`` in errors.

    Raises:
        ConfigError: a field is missing or is not a real number.
    """
    return PairContactParams(
        contact_rate=_json_number(entry.get("lambda"), float, where, "lambda"),
        alpha=_json_number(entry.get("alpha"), float, where, "alpha"),
        beta=_json_number(entry.get("beta"), float, where, "beta"),
        rate=_json_number(entry.get("rate"), float, where, "rate"),
    )


def network_from_json(payload: object) -> Network:
    """Rebuild a network from :func:`network_to_json` output.

    Raises:
        ConfigError: the payload is not an object, ``edges`` is not a list
            or an edge is not an object; an edge is listed twice, in either
            orientation; a node id, ``nodes`` or ``infrastructure`` is not an
            integer; a contact parameter is not a real number.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"network must be a JSON object, got {payload!r}")
    entries = payload.get("edges")
    if not isinstance(entries, list):
        raise ConfigError(f"network field 'edges' must be a list, got {entries!r}")
    edges: dict[EdgeKey, PairContactParams] = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"network field 'edges[{index}]' must be an object, got {entry!r}")
        a = _json_number(entry.get("a"), int, f"edge {index}", "a")
        b = _json_number(entry.get("b"), int, f"edge {index}", "b")
        key = edge_key(a, b)
        if key in edges:
            raise ConfigError(f"edge ({a}, {b}) repeats edge {key}; list each node pair once")
        edges[key] = _params_from_json(entry, f"edge {index} ({a}, {b})")
    return Network(
        node_count=_json_number(payload.get("nodes"), int, "network", "nodes"),
        infrastructure_id=_json_number(
            payload.get("infrastructure"), int, "network", "infrastructure"
        ),
        edges=edges,
    )


def save_network(network: Network, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(network_to_json(network), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_network(path: str | Path) -> Network:
    """The network saved at ``path`` by :func:`save_network`.

    Raises:
        ConfigError: naming ``path``, for any error of
            :func:`network_from_json`.
    """
    try:
        return network_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_trace_csv(path: str | Path) -> list[TraceRecord]:
    """Read a contact trace: header ``node_a,node_b,t_start,t_end``."""
    records: list[TraceRecord] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"node_a", "node_b", "t_start", "t_end"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise IngestionError(
                f"trace file must have header node_a,node_b,t_start,t_end, "
                f"got {reader.fieldnames!r}"
            )
        for row in reader:
            records.append(
                TraceRecord(
                    node_a=int(row["node_a"]),
                    node_b=int(row["node_b"]),
                    t_start=float(row["t_start"]),
                    t_end=float(row["t_end"]),
                )
            )
    return records


def write_trace_csv(records: Iterable[TraceRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node_a", "node_b", "t_start", "t_end"])
        for r in records:
            writer.writerow([r.node_a, r.node_b, repr(float(r.t_start)), repr(float(r.t_end))])
