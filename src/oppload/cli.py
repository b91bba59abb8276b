"""Command-line experiment runner.

Subcommands: ``generate`` (synthetic network file), ``fit`` (trace to
network file), ``estimate`` (direct vs cooperative delivery estimates),
``plan`` (offload plan JSON), ``simulate`` (strategy comparison CSVs) and
``validate`` (estimator vs Monte Carlo CSV).  Every subcommand is
deterministic given its arguments including the seed; errors print a
machine-readable ``error[CODE]`` line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .delivery import DeliveryQuery, PathSpec, delivery_prob_onehop, delivery_prob_path
from .errors import ConfigError, OppLoadError
from .heuristic import OffloadPlan, plan_offload, plan_to_json, route_path
from .netgraph import (
    Network,
    SyntheticConfig,
    _json_number,
    _params_from_json,
    generate_synthetic,
    ingest_trace,
    load_network,
    read_trace_csv,
    save_network,
    write_trace_csv,
)
from .simulator import (
    STRATEGIES,
    TransmissionTask,
    _write_csv,
    run_monte_carlo_delivery,
    simulate_strategy,
    write_results_csv,
    write_summary_csv,
)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _check_seed(seed: int) -> int:
    """``seed``, checked before any draw: NumPy seeds with non-negative
    integers only, and its own error does not name the seed.

    Raises:
        ValueError: naming ``seed``, for a negative value.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _synthetic_config(payload: dict, seed: int | None) -> SyntheticConfig:
    """The synthetic config of a JSON object, its seed replaced by ``seed``
    unless that is None.  Checked values are passed on as given: an integer
    ``rate`` is written to the network file as an integer.

    Raises:
        ConfigError: an unknown key; ``n``, ``max_degree`` or ``seed`` not
            an integer; another scalar not a real number; a ``*_range`` not
            a list of two real numbers.
        ValueError: naming ``seed``, for a negative seed.
    """
    unknown = set(payload) - {f.name for f in dataclasses.fields(SyntheticConfig)}
    if unknown:
        raise ConfigError(f"unknown synthetic config keys: {sorted(unknown)}")
    kwargs = dict(payload)
    for key, value in kwargs.items():
        if not key.endswith("_range"):
            kind = int if key in ("n", "max_degree", "seed") else float
            _json_number(value, kind, "synthetic config", key)
            continue
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(
                f"synthetic config field {key!r} must be a list of two real numbers, "
                f"got {value!r}"
            )
        for i, bound in enumerate(value):
            _json_number(bound, float, "synthetic config", f"{key}[{i}]")
        kwargs[key] = tuple(value)
    if seed is not None:
        kwargs["seed"] = seed
    config = SyntheticConfig(**kwargs)
    _check_seed(config.seed)
    return config


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _synthetic_config(_load_json(args.config), args.seed)
    save_network(generate_synthetic(config), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    records = read_trace_csv(args.trace)
    network, evaluation = ingest_trace(
        records, args.warmup, args.rate, min_contacts=args.min_contacts
    )
    save_network(network, args.out)
    if args.eval_out:
        write_trace_csv(evaluation, args.eval_out)
    print(f"wrote {args.out} ({network.node_count} nodes, {len(network.edges)} edges)")
    return 0


def _resolve_node(network: Network, node: int) -> int:
    if not (0 <= node < network.node_count):
        raise ConfigError(f"unknown node {node}; network has nodes 0..{network.node_count - 1}")
    return node


def _plan_json(args: argparse.Namespace) -> tuple[Network, OffloadPlan, str]:
    """The network of an ``estimate`` or ``plan`` command, the offload plan
    of its ``--source``, ``--size`` and ``--deadline``, and that plan as the
    JSON text both commands write."""
    network = load_network(args.network)
    plan = plan_offload(network, _resolve_node(network, args.source), args.size, args.deadline)
    return network, plan, json.dumps(plan_to_json(plan), indent=2, sort_keys=True) + "\n"


def _cmd_estimate(args: argparse.Namespace) -> int:
    network, plan, text = _plan_json(args)
    direct = network.edge_params(args.source, network.infrastructure_id)
    individual = 0.0
    if direct is not None:
        individual = delivery_prob_onehop(
            direct, DeliveryQuery(data_size=args.size, deadline=args.deadline)
        )
    print(f"individual {individual:.6f}")
    print(f"cooperative {plan.joint_probability:.6f}")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    _, _, text = _plan_json(args)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _load_simulation_network(config: dict) -> Network:
    source = config.get("network")
    if not isinstance(source, dict):
        raise ConfigError("config needs a 'network' object")
    if "file" in source:
        return load_network(_config_path(source, "file", "network"))
    if "synthetic" in source:
        return generate_synthetic(_synthetic_config(source["synthetic"], None))
    if "trace" in source:
        trace = source["trace"]
        if not isinstance(trace, dict):
            raise ConfigError(f"network source 'trace' must be an object, got {trace!r}")
        unknown = set(trace) - {"file", "rate", "warmup", "min_contacts"}
        if unknown:
            raise ConfigError(f"unknown trace keys: {sorted(unknown)}")
        path = _config_path(trace, "file", "trace")
        warmup = _json_number(trace.get("warmup", 0.5), float, "trace", "warmup")
        rate = _json_number(trace.get("rate"), float, "trace", "rate")
        min_contacts = _json_number(trace.get("min_contacts", 5), int, "trace", "min_contacts")
        records = read_trace_csv(path)
        network, _ = ingest_trace(records, warmup, rate, min_contacts=min_contacts)
        return network
    raise ConfigError("network source must be one of: file, synthetic, trace")


def _build_tasks(
    network: Network, sizes: list[float], deadlines: list[float], runs: int, seed: int
) -> list[TransmissionTask]:
    if not sizes or not deadlines:
        raise ConfigError("task grid needs at least one size and one deadline")
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    rng = np.random.default_rng(seed)
    mobile = network.mobile_nodes()
    tasks = []
    task_id = 0
    for _ in range(runs):
        for size in sizes:
            for deadline in deadlines:
                source = int(mobile[rng.integers(len(mobile))])
                release = float(np.round(rng.uniform(0.0, 1000.0), 3))
                tasks.append(
                    TransmissionTask(
                        task_id=task_id,
                        source=source,
                        size=size,
                        deadline=deadline,
                        release=release,
                    )
                )
                task_id += 1
    return tasks


def _config_number(config: dict, name: str, default: int) -> int:
    """An integer field of an experiment config, ``default`` when absent."""
    return _json_number(config.get(name, default), int, "config", name)


def _config_numbers(config: dict, name: str) -> list[float]:
    """A list-of-numbers field of an experiment config, empty when absent.

    Raises:
        ConfigError: the field is not a list of real numbers.
        ValueError: naming ``name[i]``, for a number that is not finite and > 0.
    """
    values = config.get(name, [])
    if not isinstance(values, list):
        raise ConfigError(f"config field {name!r} must be a list of numbers, got {values!r}")
    numbers = [_json_number(v, float, "config", f"{name}[{i}]") for i, v in enumerate(values)]
    for i, number in enumerate(numbers):
        if not (math.isfinite(number) and number > 0):
            raise ValueError(f"config field '{name}[{i}]' must be finite and > 0, got {number!r}")
    return numbers


def _config_path(config: dict, name: str, where: str, default: str | None = None) -> str:
    """A file path field of a config object, ``default`` when absent.

    Raises:
        ConfigError: naming ``where`` and the field, for a value that is not
            a string.
    """
    value = config.get(name, default)
    if not isinstance(value, str):
        raise ConfigError(f"{where} field {name!r} must be a string, got {value!r}")
    return value


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise ConfigError(f"{args.config} must hold a JSON object")
    unknown = set(config) - {
        "network", "sizes", "deadlines", "strategies", "runs", "seed", "results_csv", "summary_csv"
    }
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    seed = _check_seed(args.seed if args.seed is not None else _config_number(config, "seed", 0))
    runs = args.runs if args.runs is not None else _config_number(config, "runs", 1)
    strategies = config.get("strategies", "all")
    if strategies == "all":
        strategies = list(STRATEGIES)
    if not isinstance(strategies, list) or any(s not in STRATEGIES for s in strategies):
        raise ConfigError(
            f"strategies must be 'all' or a list of names from {list(STRATEGIES)}, "
            f"got {strategies!r}"
        )
    if not strategies:
        raise ConfigError("strategies must name at least one strategy, got []")
    for i, strategy in enumerate(strategies):
        if strategy in strategies[:i]:
            raise ConfigError(f"strategies names {strategy!r} more than once")
    results_csv = _config_path(config, "results_csv", "config", "results.csv")
    summary_csv = _config_path(config, "summary_csv", "config", "summary.csv")
    network = _load_simulation_network(config)
    tasks = _build_tasks(
        network,
        _config_numbers(config, "sizes"),
        _config_numbers(config, "deadlines"),
        runs,
        seed,
    )
    results = [simulate_strategy(network, tasks, strategy, seed) for strategy in strategies]
    results_path, summary_path = args.results or results_csv, args.out or summary_csv
    write_results_csv(results, results_path)
    write_summary_csv(results, summary_path)
    print(f"wrote {results_path} and {summary_path}")
    return 0


def _path_spec_from_json(payload: object, path: str) -> PathSpec:
    """The path spec of a ``{"hops": [...]}`` JSON value read from ``path``.

    Raises:
        ConfigError: naming ``path``, for a value that is not an object,
            ``hops`` missing or not a non-empty list, or a hop that is not
            an object; naming the hop and field, for a bad hop parameter.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {payload!r}")
    hops = payload.get("hops")
    if not (isinstance(hops, list) and hops):
        raise ConfigError(f"{path} field 'hops' must be a non-empty list, got {hops!r}")
    for i, hop in enumerate(hops):
        if not isinstance(hop, dict):
            raise ConfigError(f"{path} field 'hops[{i}]' must be an object, got {hop!r}")
    return PathSpec(tuple(_params_from_json(hop, f"hop {i}") for i, hop in enumerate(hops)))


def _option_values(text: str, kind: type, option: str) -> list:
    """The comma-separated values of a command-line option as ``kind``.

    Raises:
        ConfigError: naming ``option`` and the value, for a value that is
            not a ``kind``.
    """
    values = []
    for part in text.split(","):
        try:
            values.append(kind(part))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{option} value {part!r} is not {noun}") from None
    return values


def _cmd_validate(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    if args.runs < 1000:
        raise ConfigError("validation needs at least 1000 Monte Carlo runs")
    if args.path_spec:
        spec = _path_spec_from_json(_load_json(args.path_spec), args.path_spec)
    elif args.network and args.route:
        network = load_network(args.network)
        spec = route_path(network, _option_values(args.route, int, "--route"))
    else:
        raise ConfigError("validate needs --path-spec or both --network and --route")

    sizes = _option_values(args.sizes, float, "--sizes")
    deadlines = _option_values(args.deadlines, float, "--deadlines")
    for size in sizes:
        if not (math.isfinite(size) and size > 0):
            raise ConfigError(f"--sizes must be finite and > 0, got {size!r}")
    for deadline in deadlines:
        if math.isnan(deadline) or deadline == math.inf:
            raise ConfigError(f"--deadlines must not be NaN or +inf, got {deadline!r}")
    rows = []
    for size in sizes:
        simulated_all = run_monte_carlo_delivery(spec, size, deadlines, args.runs, args.seed)
        for deadline, simulated in zip(deadlines, simulated_all):
            estimated = 0.0
            if deadline > 0:
                estimated = delivery_prob_path(spec, DeliveryQuery(size, deadline))
            row = (size, deadline, estimated, simulated, abs(estimated - simulated))
            rows.append([repr(value) for value in row])
    _write_csv(args.out, ["size", "deadline", "estimated", "simulated", "abs_error"], rows)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oppload",
        description="Cooperative data offloading over opportunistic networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic network file")
    p.add_argument("--config", required=True, help="synthetic config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output network JSON path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="fit a network from a contact trace CSV")
    p.add_argument("--trace", required=True, help="trace CSV (node_a,node_b,t_start,t_end)")
    p.add_argument("--rate", type=float, required=True, help="data rate, units per second")
    p.add_argument("--warmup", type=float, default=0.5, help="warmup fraction in (0,1)")
    p.add_argument("--min-contacts", type=int, default=5, help="min warmup contacts per pair")
    p.add_argument("--out", required=True, help="output network JSON path")
    p.add_argument("--eval-out", default=None, help="optional path for the evaluation half")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("estimate", help="print direct and cooperative delivery estimates")
    p.add_argument("--network", required=True)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--size", type=float, required=True)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--out", default=None, help="optional plan JSON path")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("plan", help="write the offload plan as JSON")
    p.add_argument("--network", required=True)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--size", type=float, required=True)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", help="run strategy comparisons, write CSVs")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--results", default=None, help="per-task results CSV path")
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="estimator vs Monte Carlo over a grid")
    p.add_argument("--path-spec", default=None, help="path spec JSON with a 'hops' list")
    p.add_argument("--network", default=None)
    p.add_argument("--route", default=None, help="comma-separated node ids")
    p.add_argument("--sizes", required=True, help="comma-separated data sizes")
    p.add_argument("--deadlines", required=True, help="comma-separated deadlines")
    p.add_argument("--runs", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OppLoadError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error[VALIDATION]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
