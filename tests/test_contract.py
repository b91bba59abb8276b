"""The input contract, swept table by table.

Every public constructor and one-shot entry point refuses each malformed
value it takes with a ``ValueError`` whose message starts with the field's
name, and the CLI with one ``error[VALIDATION]`` or ``error[CONFIG]`` line
naming it.  A bool is never a number, an id or a count; only a seed may be
one.
"""

import json
import math

import numpy as np
import pytest

import oppload as ol
from oppload.cli import main
from oppload.distributed import NodeState
from oppload.netgraph import save_network, write_trace_csv

# malformed values of each kind: a bool, a float where an integer belongs,
# NaN, +-inf, 0 or a negative, a string and None
POSITIVE = [True, math.nan, math.inf, -math.inf, 0.0, -1.0, "5", None]
NONNEGATIVE = [True, math.nan, math.inf, -math.inf, -1.0, "5", None]
INDEX = [True, 0.0, 1.5, math.nan, math.inf, -1, "3", None]
COUNT = [True, 3.0, 10.5, math.nan, math.inf, 0, -1, "3", None]
SEED = [-1, np.int64(-2), 1.5, 2.0, math.nan, "3", None]

HOP = dict(contact_rate=0.1, alpha=3.0, beta=5.0, rate=10.0)
PATH = ol.PathSpec((ol.PairContactParams(**HOP),))
SYNTHETIC = dict(n=12, avg_degree=3, max_degree=5, seed=1)


def network() -> ol.Network:
    """Node 0 reaches infrastructure (node 3) directly and through 1 and 2."""
    edges = {key: ol.PairContactParams(**HOP) for key in [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]}
    return ol.Network(node_count=4, infrastructure_id=3, edges=edges)


NET = network()


def task(**fields) -> ol.TransmissionTask:
    return ol.TransmissionTask(**{**dict(task_id=0, source=0, size=5.0, deadline=100.0), **fields})


def allocation(**fields) -> ol.Allocation:
    return ol.Allocation(**{**dict(route=(0, 3), path=PATH, assigned=5.0), **fields})


def trace() -> list:
    return [ol.TraceRecord(0, 1, float(t), t + 1.0) for t in range(0, 400, 10)]


def source_state() -> NodeState:
    return NodeState(0, 3, 0, {(0, 3): PATH})


# (entry point, field, malformed values, call)
CASES = [
    ("TransmissionTask", "task_id", INDEX, lambda v: task(task_id=v)),
    ("TransmissionTask", "source", INDEX, lambda v: task(source=v)),
    ("TransmissionTask", "size", POSITIVE, lambda v: task(size=v)),
    ("TransmissionTask", "deadline", POSITIVE, lambda v: task(deadline=v)),
    ("TransmissionTask", "release", NONNEGATIVE, lambda v: task(release=v)),
    ("run_monte_carlo_delivery", "data_size", POSITIVE,
     lambda v: ol.run_monte_carlo_delivery(PATH, v, [50.0], 10, 0)),
    ("run_monte_carlo_delivery", "runs", COUNT,
     lambda v: ol.run_monte_carlo_delivery(PATH, 5.0, [50.0], v, 0)),
    ("run_monte_carlo_delivery", "seed", SEED,
     lambda v: ol.run_monte_carlo_delivery(PATH, 5.0, [50.0], 10, v)),
    ("simulate_strategy", "seed", SEED,
     lambda v: ol.simulate_strategy(NET, [task()], "maxrate", v)),
    ("sample_contact_process", "horizon", POSITIVE,
     lambda v: ol.sample_contact_process(PATH.hops[0], v, 0)),
    ("sample_contact_process", "seed", SEED,
     lambda v: ol.sample_contact_process(PATH.hops[0], 50.0, v)),
    *(
        ("PairContactParams", name, POSITIVE,
         lambda v, name=name: ol.PairContactParams(**{**HOP, name: v}))
        for name in HOP
    ),
    ("DeliveryQuery", "data_size", POSITIVE, lambda v: ol.DeliveryQuery(v, 50.0)),
    ("DeliveryQuery", "deadline", POSITIVE, lambda v: ol.DeliveryQuery(5.0, v)),
    ("availability", "deadline", NONNEGATIVE, lambda v: ol.availability(PATH, v)),
    ("mean_max_ratio", "contact_count", COUNT, lambda v: ol.mean_max_ratio(v, 3.0)),
    ("mean_max_ratio", "alpha", POSITIVE, lambda v: ol.mean_max_ratio(3, v)),
    ("transfer_prob", "contact_count", COUNT, lambda v: ol.transfer_prob(PATH.hops[0], v, 5.0)),
    ("transfer_prob", "data_size", POSITIVE, lambda v: ol.transfer_prob(PATH.hops[0], 3, v)),
    ("gamma_approx", "contact_counts[1]", COUNT, lambda v: ol.gamma_approx([1, v], [1.0, 1.0])),
    ("gamma_approx", "lambdas[1]", POSITIVE, lambda v: ol.gamma_approx([1, 1], [1.0, v])),
    ("reg_lower_incomplete_gamma", "shape", POSITIVE,
     lambda v: ol.reg_lower_incomplete_gamma(v, 1.0)),
    ("reg_lower_incomplete_gamma", "x", NONNEGATIVE,
     lambda v: ol.reg_lower_incomplete_gamma(2.0, v)),
    ("log_beta", "a", POSITIVE, lambda v: ol.log_beta(v, 1.0)),
    ("log_beta", "b", POSITIVE, lambda v: ol.log_beta(1.0, v)),
    ("dijkstra_max_q", "u", INDEX + [4], lambda v: ol.dijkstra_max_q(NET, v, 3, 50.0)),
    ("dijkstra_max_q", "v", INDEX + [4], lambda v: ol.dijkstra_max_q(NET, 0, v, 50.0)),
    ("dijkstra_max_q", "deadline", NONNEGATIVE, lambda v: ol.dijkstra_max_q(NET, 0, 3, v)),
    ("plan_offload", "source", INDEX + [3, 4], lambda v: ol.plan_offload(NET, v, 5.0, 50.0)),
    ("plan_offload", "total", POSITIVE, lambda v: ol.plan_offload(NET, 0, v, 50.0)),
    ("plan_offload", "deadline", POSITIVE, lambda v: ol.plan_offload(NET, 0, 5.0, v)),
    ("allocate_paths", "total", POSITIVE, lambda v: ol.allocate_paths(NET, 0, 3, v, 50.0)),
    ("allocate_paths", "deadline", POSITIVE, lambda v: ol.allocate_paths(NET, 0, 3, 5.0, v)),
    ("assign_remaining", "total", POSITIVE, lambda v: ol.assign_remaining([allocation()], v, 50.0)),
    ("assign_remaining", "deadline", POSITIVE,
     lambda v: ol.assign_remaining([allocation()], 5.0, v)),
    ("Allocation", "assigned", NONNEGATIVE, lambda v: allocation(assigned=v)),
    ("criterion_assignment", "total", POSITIVE,
     lambda v: ol.criterion_assignment(source_state(), v, 50.0)),
    ("criterion_assignment", "deadline", POSITIVE,
     lambda v: ol.criterion_assignment(source_state(), 5.0, v)),
    ("brute_force_optimal", "source", INDEX + [3, 4],
     lambda v: ol.brute_force_optimal(NET, v, 5.0, 50.0)),
    ("brute_force_optimal", "total", POSITIVE, lambda v: ol.brute_force_optimal(NET, 0, v, 50.0)),
    ("brute_force_optimal", "deadline", POSITIVE,
     lambda v: ol.brute_force_optimal(NET, 0, 5.0, v)),
    ("OracleConfig", "size_granularity", POSITIVE[:-1],
     lambda v: ol.OracleConfig(size_granularity=v)),
    *(
        ("OracleConfig", name, COUNT, lambda v, name=name: ol.OracleConfig(**{name: v}))
        for name in ("max_paths", "max_hops", "enumeration_cap")
    ),
    *(
        ("SyntheticConfig", name, values,
         lambda v, name=name: ol.generate_synthetic(ol.SyntheticConfig(**{**SYNTHETIC, name: v})))
        for name, values in [
            ("n", COUNT + [1]),
            ("max_degree", INDEX + [12]),
            ("avg_degree", POSITIVE),
            ("weight_exponent", POSITIVE),
            ("rate", POSITIVE),
            ("weight_scale", POSITIVE),
            ("seed", SEED),
        ]
    ),
    ("SyntheticConfig", "infra_lambda_range[1]", POSITIVE,
     lambda v: ol.SyntheticConfig(**SYNTHETIC, infra_lambda_range=(0.01, v))),
    ("Network", "node_count", COUNT, lambda v: ol.Network(v, 0, {})),
    ("Network", "infrastructure_id", INDEX + [4], lambda v: ol.Network(4, v, {})),
    ("Network", "edge", INDEX + [4],
     lambda v: ol.Network(4, 3, {(v, 3): PATH.hops[0]})),
    ("ingest_trace", "rate", POSITIVE, lambda v: ol.ingest_trace(trace(), 0.5, v)),
    ("ingest_trace", "min_contacts", COUNT,
     lambda v: ol.ingest_trace(trace(), 0.5, 1.0, min_contacts=v)),
]


@pytest.mark.parametrize(
    "field, value, call",
    [
        pytest.param(field, value, call, id=f"{entry}-{field}-{value!r}")
        for entry, field, values, call in CASES
        for value in values
    ],
)
def test_malformed_value_is_refused_naming_its_field(field, value, call):
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value).startswith(field), str(raised.value)


@pytest.mark.parametrize("seed", [True, np.int64(7), np.uint64(3), 2**70])
def test_a_seed_may_be_a_bool_or_a_numpy_integer(seed):
    assert ol.simulate_strategy(NET, [task()], "individual", seed).total == 1


def test_two_tasks_with_one_id_are_refused_before_any_runs():
    log: list[dict] = []
    tasks = [task(), task(task_id=1), task(size=7.0)]
    with pytest.raises(ValueError, match="^task_id 0 "):
        ol.simulate_strategy(NET, tasks, "distributed", 1, event_log=log)
    assert log == []


@pytest.fixture()
def files(tmp_path):
    save_network(NET, tmp_path / "net.json")
    write_trace_csv(trace(), tmp_path / "trace.csv")
    (tmp_path / "synth.json").write_text(json.dumps(SYNTHETIC), encoding="utf-8")
    experiment = {"network": {"file": str(tmp_path / "net.json")}, "sizes": [5.0],
                  "deadlines": [50.0], "strategies": ["individual"], "runs": 1}
    (tmp_path / "exp.json").write_text(json.dumps(experiment), encoding="utf-8")
    return tmp_path


def _synthetic(path, **fields) -> str:
    path.write_text(json.dumps({**SYNTHETIC, **fields}), encoding="utf-8")
    return str(path)


CLI_CASES = [
    ("plan", {"--source": "3"}, "VALIDATION", "source"),
    ("plan", {"--source": "99"}, "VALIDATION", "source"),
    ("estimate", {"--source": "99"}, "VALIDATION", "source"),
    ("estimate", {"--source": "-1"}, "VALIDATION", "source"),
    ("plan", {"--size": "nan"}, "VALIDATION", "total"),
    ("plan", {"--size": "0"}, "VALIDATION", "total"),
    ("plan", {"--deadline": "inf"}, "VALIDATION", "deadline"),
    ("plan", {"--deadline": "-5"}, "VALIDATION", "deadline"),
    ("simulate", {"--runs": "0"}, "VALIDATION", "runs"),
    ("simulate", {"--seed": "-1"}, "VALIDATION", "seed"),
    ("validate", {"--sizes": "0"}, "CONFIG", "--sizes"),
    ("validate", {"--sizes": "inf"}, "CONFIG", "--sizes"),
    ("validate", {"--seed": "-1"}, "VALIDATION", "seed"),
    ("fit", {"--rate": "nan"}, "VALIDATION", "rate"),
    ("fit", {"--rate": "-1"}, "VALIDATION", "rate"),
    ("fit", {"--min-contacts": "0"}, "VALIDATION", "min_contacts"),
    ("generate", {"n": 10.5}, "CONFIG", "synthetic config field 'n'"),
    ("generate", {"n": True}, "CONFIG", "synthetic config field 'n'"),
    ("generate", {"n": 1}, "VALIDATION", "n"),
    ("generate", {"rate": 0}, "VALIDATION", "rate"),
    ("generate", {"max_degree": 12}, "VALIDATION", "max_degree"),
    ("generate", {"seed": -3}, "VALIDATION", "seed"),
]


@pytest.mark.parametrize(
    "command, options, code, field",
    CLI_CASES,
    ids=[" ".join([c, *(f"{k}={v}" for k, v in o.items())]) for c, o, _, _ in CLI_CASES],
)
def test_cli_prints_one_error_line_naming_the_field(files, capsys, command, options, code, field):
    base = {
        "plan": {"--network": "net.json", "--source": "0", "--size": "5", "--deadline": "50"},
        "simulate": {"--config": "exp.json", "--results": "r.csv"},
        "validate": {"--network": "net.json", "--route": "0,3", "--sizes": "5",
                     "--deadlines": "50", "--runs": "1000"},
        "fit": {"--trace": "trace.csv", "--rate": "1.0"},
    }
    if command == "generate":
        argv = ["generate", "--config", _synthetic(files / "bad.json", **options)]
    else:
        args = {**base["plan" if command == "estimate" else command], **options}
        paths = {"net.json", "exp.json", "trace.csv", "r.csv"}
        argv = [command]
        for key, value in args.items():
            argv += [key, str(files / value) if value in paths else value]
    out = files / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error[{code}]: {field}"), err
    assert not out.exists()
