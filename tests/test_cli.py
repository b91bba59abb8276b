import hashlib
import json

import pytest

import oppload as ol
from oppload.cli import main
from oppload.netgraph import save_network

from conftest import (
    TWO_PATH_DEADLINE,
    TWO_PATH_SIZE,
    build_two_path_network,
    criterion_7_network,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def synth_config(tmp_path):
    return write_json(
        tmp_path / "synth.json",
        {
            "n": 20,
            "avg_degree": 4,
            "max_degree": 6,
            "node_alpha_range": [6.0, 10.0],
            "node_beta_range": [2.0, 3.0],
            "infra_alpha_range": [3.0, 4.0],
            "infra_beta_range": [2.0, 3.0],
            "infra_lambda_range": [0.005, 0.05],
            "rate": 1.0,
            "seed": 5,
        },
    )


class TestGenerate:
    def test_writes_loadable_network(self, tmp_path, synth_config):
        out = tmp_path / "net.json"
        assert main(["generate", "--config", synth_config, "--out", str(out)]) == 0
        net = ol.load_network(out)
        assert net.node_count == 21
        assert all(
            net.edge_params(n, net.infrastructure_id) is not None for n in net.mobile_nodes()
        )

    def test_table_defaults_give_100_nodes(self, tmp_path):
        config = write_json(
            tmp_path / "t1.json",
            {"n": 100, "avg_degree": 10, "max_degree": 15, "seed": 0},
        )
        out = tmp_path / "net.json"
        assert main(["generate", "--config", config, "--out", str(out)]) == 0
        assert ol.load_network(out).node_count == 101

    def test_repeat_is_byte_identical(self, tmp_path, synth_config):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--config", synth_config, "--out", str(out1)])
        main(["generate", "--config", synth_config, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_degree_bound(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "bad.json", {"n": 10, "avg_degree": 4, "max_degree": 10}
        )
        code = main(["generate", "--config", config, "--out", str(tmp_path / "x.json")])
        assert code != 0
        assert "error[" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate", True),
            ("weight_scale", True),
            ("avg_degree", "4"),
            ("node_beta_range", [True, 3]),
            ("node_alpha_range", [6.0, 8.0, 10.0]),
            ("infra_lambda_range", 0.01),
            ("max_degree", 6.0),
            ("seed", 1.0),
            ("n", None),
        ],
    )
    def test_malformed_values_are_rejected(self, tmp_path, synth_config, capsys, field, value):
        payload = json.loads(open(synth_config).read())
        payload[field] = value
        config = write_json(tmp_path / "bad.json", payload)
        out = tmp_path / "net.json"
        assert main(["generate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error[CONFIG]" in err and f"field '{field}" in err
        assert not out.exists()


class TestEstimateAndPlan:
    def test_two_path_instance_estimates(self, tmp_path, capsys):
        net_path = tmp_path / "fig.json"
        save_network(build_two_path_network(with_direct=True), net_path)
        out = tmp_path / "plan.json"
        code = main(
            [
                "estimate",
                "--network", str(net_path),
                "--source", "0",
                "--size", str(TWO_PATH_SIZE),
                "--deadline", str(TWO_PATH_DEADLINE),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        individual = float(lines[0].split()[1])
        cooperative = float(lines[1].split()[1])
        assert individual == pytest.approx(0.23, abs=1e-3)
        assert cooperative == pytest.approx(0.504, abs=1e-3)
        assert cooperative >= individual
        plan = json.loads(out.read_text())
        assert plan["offloaded"] is True

    def test_unknown_source_fails(self, tmp_path, capsys):
        net_path = tmp_path / "fig.json"
        save_network(build_two_path_network(), net_path)
        code = main(
            ["estimate", "--network", str(net_path), "--source", "9",
             "--size", "10", "--deadline", "50"]
        )
        assert code != 0
        assert "error[" in capsys.readouterr().err

    def test_disconnected_source_fails(self, tmp_path, capsys):
        import oppload as ol
        from oppload.netgraph import Network, edge_key

        # node 0 exists but has no route of any kind to the infrastructure
        net = Network(
            node_count=4,
            infrastructure_id=3,
            edges={edge_key(1, 3): ol.PairContactParams(0.1, 3.0, 5.0, 100.0)},
        )
        net_path = tmp_path / "net.json"
        save_network(net, net_path)
        code = main(
            ["estimate", "--network", str(net_path), "--source", "0",
             "--size", "10", "--deadline", "50"]
        )
        assert code != 0
        assert "error[PLANNING]" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["inf", "nan"])
    def test_non_finite_size_is_a_validation_error(self, tmp_path, capsys, size):
        # the source has no direct edge to the infrastructure
        net_path = tmp_path / "fig.json"
        save_network(build_two_path_network(), net_path)
        code = main(
            ["plan", "--network", str(net_path), "--source", "0",
             "--size", size, "--deadline", str(TWO_PATH_DEADLINE)]
        )
        assert code == 1
        assert "error[VALIDATION]" in capsys.readouterr().err

    def test_degenerate_contact_rate_is_one_error_line(self, tmp_path, capsys):
        payload = ol.network_to_json(build_two_path_network())
        payload["edges"][0]["lambda"] = 1e-200
        net_path = write_json(tmp_path / "net.json", payload)
        code = main(
            ["plan", "--network", net_path, "--source", "0",
             "--size", "10", "--deadline", "1e4"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[VALIDATION]") and "contact_rate" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("offloads", [True, False])
    def test_estimate_writes_the_plan_and_prints_its_probability(
        self, tmp_path, capsys, offloads
    ):
        from oppload.netgraph import Network, edge_key

        net = build_two_path_network(with_direct=True)
        if not offloads:
            # only the direct edge: the plan keeps the item on it
            net = Network(2, 1, {edge_key(0, 1): net.edge_params(0, net.infrastructure_id)})
        net_path = tmp_path / "net.json"
        save_network(net, net_path)
        est, plan = tmp_path / "est.json", tmp_path / "plan.json"
        query = ["--network", str(net_path), "--source", "0",
                 "--size", str(TWO_PATH_SIZE), "--deadline", str(TWO_PATH_DEADLINE)]
        assert main(["estimate", *query, "--out", str(est)]) == 0
        cooperative = capsys.readouterr().out.splitlines()[1]
        assert main(["plan", *query, "--out", str(plan)]) == 0
        assert est.read_bytes() == plan.read_bytes()
        written = json.loads(plan.read_text())
        assert written["offloaded"] is offloads
        assert cooperative == f"cooperative {written['probability']:.6f}"

    def test_plan_writes_json(self, tmp_path, capsys):
        net_path = tmp_path / "fig.json"
        save_network(build_two_path_network(), net_path)
        out = tmp_path / "plan.json"
        code = main(
            ["plan", "--network", str(net_path), "--source", "0",
             "--size", str(TWO_PATH_SIZE), "--deadline", str(TWO_PATH_DEADLINE),
             "--out", str(out)]
        )
        assert code == 0
        plan = json.loads(out.read_text())
        assert sorted(a["route"] for a in plan["allocations"]) == [[0, 1, 3], [0, 2, 3]]


class TestSimulate:
    def _config(self, tmp_path, synth_config, results, summary):
        return write_json(
            tmp_path / "exp.json",
            {
                "network": {"synthetic": json.loads(open(synth_config).read())},
                "sizes": [10.0],
                "deadlines": [200.0, 400.0],
                "strategies": "all",
                "runs": 2,
                "seed": 9,
                "results_csv": results,
                "summary_csv": summary,
            },
        )

    def test_five_summary_rows_and_determinism(self, tmp_path, synth_config):
        r1, s1 = str(tmp_path / "r1.csv"), str(tmp_path / "s1.csv")
        config = self._config(tmp_path, synth_config, r1, s1)
        assert main(["simulate", "--config", config]) == 0
        summary = open(s1).read().strip().splitlines()
        assert len(summary) == 6  # header + five strategies
        r2, s2 = str(tmp_path / "r2.csv"), str(tmp_path / "s2.csv")
        assert main(["simulate", "--config", config, "--results", r2, "--out", s2]) == 0
        assert open(r1).read() == open(r2).read()
        assert open(s1).read() == open(s2).read()

    def test_nan_size_is_a_validation_error(self, tmp_path, synth_config, capsys):
        # json reads the bare NaN literal as a float; without the heuristic,
        # whose estimator raises on it, no strategy would notice the NaN
        config = self._config(
            tmp_path, synth_config, str(tmp_path / "r.csv"), str(tmp_path / "s.csv")
        )
        payload = json.loads(open(config).read())
        payload["sizes"] = [float("nan")]
        payload["strategies"] = ["individual", "distributed", "spread", "maxrate"]
        text = json.dumps(payload)
        assert '"sizes": [NaN]' in text
        open(config, "w").write(text)
        assert main(["simulate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "error[VALIDATION]" in err and "size" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("runs", 2.7),
            ("runs", "2"),
            ("seed", 9.0),
            ("seed", True),
            ("sizes", ["10"]),
            ("sizes", 10.0),
            ("deadlines", [200.0, False]),
            ("seeds", 9),  # unknown keys
            ("strategy", "all"),
            # paths that are not strings; open() takes an integer for a file descriptor
            ("results_csv", ["r.csv"]),
            ("summary_csv", 7.0),
            ("network", {"file": 7}),
        ],
    )
    def test_malformed_config_values_are_rejected(
        self, tmp_path, synth_config, capsys, monkeypatch, field, value
    ):
        config = self._config(
            tmp_path, synth_config, str(tmp_path / "r.csv"), str(tmp_path / "s.csv")
        )
        payload = json.loads(open(config).read())
        payload[field] = value
        open(config, "w").write(json.dumps(payload))
        ran = []
        monkeypatch.setattr("oppload.cli.simulate_strategy", lambda *args: ran.append(args))
        assert main(["simulate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "error[CONFIG]" in err and field in err
        assert ran == []

    @pytest.mark.parametrize(
        "field, values, index",
        [
            ("sizes", [10.0, 0], 1),
            ("sizes", [-5.0], 0),
            ("deadlines", [200.0, float("inf")], 1),
            ("deadlines", [float("nan"), 200.0], 0),
        ],
    )
    def test_sizes_and_deadlines_out_of_range_name_their_entry(
        self, tmp_path, synth_config, capsys, monkeypatch, field, values, index
    ):
        config = self._config(
            tmp_path, synth_config, str(tmp_path / "r.csv"), str(tmp_path / "s.csv")
        )
        payload = json.loads(open(config).read())
        payload[field] = values
        open(config, "w").write(json.dumps(payload))
        ran = []
        monkeypatch.setattr("oppload.cli.simulate_strategy", lambda *args: ran.append(args))
        assert main(["simulate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "error[VALIDATION]" in err and f"'{field}[{index}]'" in err
        assert ran == []

    def test_malformed_synthetic_network_is_rejected(
        self, tmp_path, synth_config, capsys, monkeypatch
    ):
        config = self._config(
            tmp_path, synth_config, str(tmp_path / "r.csv"), str(tmp_path / "s.csv")
        )
        payload = json.loads(open(config).read())
        payload["network"]["synthetic"]["rate"] = True
        open(config, "w").write(json.dumps(payload))
        ran = []
        monkeypatch.setattr("oppload.cli.simulate_strategy", lambda *args: ran.append(args))
        assert main(["simulate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "error[CONFIG]" in err and "field 'rate'" in err
        assert ran == []

    @pytest.mark.parametrize("strategies", ["heuristic", ["individual", "nosuch"], [1]])
    def test_strategies_checked_before_any_run(
        self, tmp_path, synth_config, capsys, monkeypatch, strategies
    ):
        config = self._config(
            tmp_path, synth_config, str(tmp_path / "r.csv"), str(tmp_path / "s.csv")
        )
        payload = json.loads(open(config).read())
        payload["strategies"] = strategies
        open(config, "w").write(json.dumps(payload))
        ran = []
        monkeypatch.setattr("oppload.cli.simulate_strategy", lambda *args: ran.append(args))
        assert main(["simulate", "--config", config]) == 1
        assert "error[CONFIG]" in capsys.readouterr().err
        assert ran == []
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "strategies, message",
        [
            ([], "at least one strategy"),
            (["maxrate", "spread", "maxrate"], "'maxrate' more than once"),
        ],
        ids=["empty", "repeated"],
    )
    def test_strategies_name_each_strategy_once(
        self, tmp_path, synth_config, capsys, strategies, message
    ):
        config = self._config(
            tmp_path, synth_config, str(tmp_path / "r.csv"), str(tmp_path / "s.csv")
        )
        payload = json.loads(open(config).read())
        payload["strategies"] = strategies
        open(config, "w").write(json.dumps(payload))
        assert main(["simulate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG]") and message in err
        assert not (tmp_path / "r.csv").exists()


def write_star_trace(path):
    """A contact trace of three pairs around node 0, sampled with fixed seeds."""
    from oppload.netgraph import edge_key, write_trace_csv

    rng_params = {
        edge_key(0, 1): ol.PairContactParams(0.1, 3.0, 3.0, 50.0),
        edge_key(0, 2): ol.PairContactParams(0.08, 2.5, 2.0, 50.0),
        edge_key(0, 3): ol.PairContactParams(0.12, 3.5, 4.0, 50.0),
    }
    records = []
    for i, (key, p) in enumerate(sorted(rng_params.items())):
        for start, dur in ol.sample_contact_process(p, 4000.0, rng_seed=50 + i):
            records.append(ol.TraceRecord(key[0], key[1], start, start + dur))
    records.sort(key=lambda r: r.t_start)
    write_trace_csv(records, path)
    return str(path)


class TestSimulateFromTrace:
    def _config(self, tmp_path, trace):
        return write_json(
            tmp_path / "exp.json",
            {
                "network": {"trace": trace},
                "sizes": [5.0],
                "deadlines": [200.0],
                "strategies": ["individual", "heuristic"],
                "results_csv": str(tmp_path / "r.csv"),
                "summary_csv": str(tmp_path / "s.csv"),
            },
        )

    def test_trace_source_runs(self, tmp_path):
        trace = {"file": write_star_trace(tmp_path / "t.csv"), "rate": 50, "min_contacts": 5}
        assert main(["simulate", "--config", self._config(tmp_path, trace)]) == 0
        assert len(open(tmp_path / "s.csv").read().strip().splitlines()) == 3

    def test_trace_min_contacts_below_one_is_a_validation_error(
        self, tmp_path, capsys, monkeypatch
    ):
        trace = {"file": write_star_trace(tmp_path / "t.csv"), "rate": 50.0, "min_contacts": 0}
        ran = []
        monkeypatch.setattr("oppload.cli.simulate_strategy", lambda *args: ran.append(args))
        assert main(["simulate", "--config", self._config(tmp_path, trace)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[VALIDATION]") and "min_contacts" in err
        assert ran == []

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate", True),
            ("rate", "30"),
            ("rate", None),
            ("warmup", "0.5"),
            ("min_contacts", 5.5),
            ("file", 7),
            ("seed", 3),
        ],
    )
    def test_malformed_trace_values_are_rejected(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        trace = {"file": write_star_trace(tmp_path / "t.csv"), "rate": 50.0, field: value}
        ran = []
        monkeypatch.setattr("oppload.cli.simulate_strategy", lambda *args: ran.append(args))
        assert main(["simulate", "--config", self._config(tmp_path, trace)]) == 1
        err = capsys.readouterr().err
        assert "error[CONFIG]" in err and f"'{field}'" in err
        assert ran == []
        assert not (tmp_path / "r.csv").exists()


class TestFit:
    def test_trace_to_network(self, tmp_path):
        trace = write_star_trace(tmp_path / "trace.csv")
        out = tmp_path / "net.json"
        eval_out = tmp_path / "eval.csv"
        code = main(
            ["fit", "--trace", trace, "--rate", "50.0",
             "--out", str(out), "--eval-out", str(eval_out)]
        )
        assert code == 0
        net = ol.load_network(out)
        assert net.node_count == 4
        assert net.infrastructure_id == 0
        assert eval_out.exists()

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_rate_is_a_validation_error(self, tmp_path, capsys, rate):
        trace = write_star_trace(tmp_path / "trace.csv")
        out = tmp_path / "net.json"
        assert main(["fit", "--trace", trace, f"--rate={rate}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error[VALIDATION]" in err and "rate must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("min_contacts", ["0", "-1"])
    def test_min_contacts_below_one_is_a_validation_error(self, tmp_path, capsys, min_contacts):
        trace = write_star_trace(tmp_path / "trace.csv")
        out = tmp_path / "net.json"
        code = main(
            ["fit", "--trace", trace, "--rate", "50", f"--min-contacts={min_contacts}",
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[VALIDATION]") and "min_contacts" in err
        assert not out.exists()


class TestValidate:
    def test_grid_rows_and_zero_deadline(self, tmp_path):
        spec = write_json(
            tmp_path / "path.json",
            {"hops": [{"lambda": 0.05, "alpha": 3.0, "beta": 5.0, "rate": 10.0}]},
        )
        out = tmp_path / "val.csv"
        code = main(
            ["validate", "--path-spec", spec, "--sizes", "5,10",
             "--deadlines", "0,100", "--runs", "2000", "--seed", "4",
             "--out", str(out)]
        )
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "size,deadline,estimated,simulated,abs_error"
        assert len(lines) == 5
        zero_rows = [l for l in lines[1:] if l.split(",")[1] == "0.0"]
        for row in zero_rows:
            _, _, est, sim, err = row.split(",")
            assert float(est) == 0.0 and float(sim) == 0.0

    def test_requires_minimum_runs(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "path.json",
            {"hops": [{"lambda": 0.05, "alpha": 3.0, "beta": 5.0, "rate": 10.0}]},
        )
        code = main(
            ["validate", "--path-spec", spec, "--sizes", "5", "--deadlines", "50",
             "--runs", "10", "--out", str(tmp_path / "v.csv")]
        )
        assert code != 0
        assert "error[CONFIG]" in capsys.readouterr().err

    def test_string_hop_parameter_is_rejected(self, tmp_path, capsys):
        hop = {"lambda": 0.05, "alpha": 3.0, "beta": 5.0, "rate": 10.0}
        spec = write_json(tmp_path / "path.json", {"hops": [hop, dict(hop, **{"lambda": "0.02"})]})
        out = tmp_path / "v.csv"
        code = main(
            ["validate", "--path-spec", spec, "--sizes", "5", "--deadlines", "50",
             "--runs", "1000", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error[CONFIG]" in err and "hop 1 field 'lambda'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ([1], "must hold a JSON object"),
            ({}, "field 'hops'"),
            ({"hops": 5}, "field 'hops'"),
            ({"hops": []}, "field 'hops'"),
            ({"hops": [5]}, "field 'hops[0]'"),
        ],
    )
    def test_malformed_path_spec_names_file_and_field(self, tmp_path, capsys, payload, field):
        spec = write_json(tmp_path / "path.json", payload)
        out = tmp_path / "v.csv"
        code = main(
            ["validate", "--path-spec", spec, "--sizes", "5", "--deadlines", "50",
             "--runs", "1000", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG]") and spec in err and field in err
        assert not out.exists()

    def test_simulated_column_rises_with_deadline(self, tmp_path):
        # one draw per size answers every deadline, so at each size the
        # Monte Carlo never reads less at a later deadline
        net_path = tmp_path / "net.json"
        save_network(criterion_7_network(), net_path)
        out = tmp_path / "v.csv"
        code = main(
            ["validate", "--network", str(net_path), "--route", "0,2,50",
             "--sizes", "2,10,25", "--deadlines", "600,50,0,250,1000,100,400",
             "--runs", "1000", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in open(out).read().strip().splitlines()[1:]]
        for size in ("2.0", "10.0", "25.0"):
            column = sorted((float(r[1]), float(r[3])) for r in rows if r[0] == size)
            simulated = [sim for _, sim in column]
            assert simulated == sorted(simulated)
            assert 0.0 < simulated[-1] and simulated[0] == 0.0

    def test_pinned_network_route_csv(self, tmp_path):
        # the digest of this CSV from when each deadline drew its own samples
        net_path = tmp_path / "net.json"
        save_network(criterion_7_network(), net_path)
        out = tmp_path / "v.csv"
        code = main(
            ["validate", "--network", str(net_path), "--route", "0,2,5,50",
             "--sizes", "20,2.5,40", "--deadlines", "1000,0,250,2000,400,250",
             "--runs", "2000", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "9a34dbf6efa7b0c241be3127489a0031502ecd6ae96832f4244fe228074887ee"

    @pytest.mark.parametrize(
        "sizes, deadlines, option",
        [
            ("-5,nan,inf,0", "0,-3", "--sizes"),
            ("5,-5", "0", "--sizes"),
            ("nan", "-3", "--sizes"),
            ("inf", "10", "--sizes"),
            ("0", "0", "--sizes"),
            ("5", "10,nan", "--deadlines"),
            ("5", "0,inf", "--deadlines"),
            ("5,abc", "10", "--sizes"),
            ("5", "10,1e", "--deadlines"),
        ],
    )
    def test_malformed_grid_is_rejected(self, tmp_path, capsys, sizes, deadlines, option):
        spec = write_json(
            tmp_path / "path.json",
            {"hops": [{"lambda": 0.05, "alpha": 3.0, "beta": 5.0, "rate": 10.0}]},
        )
        out = tmp_path / "v.csv"
        code = main(
            ["validate", "--path-spec", spec, f"--sizes={sizes}", f"--deadlines={deadlines}",
             "--runs", "1000", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error[CONFIG]" in err and option in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, bad",
        [("--sizes", "5,abc", "abc"), ("--deadlines", "10,,20", ""), ("--route", "0,x", "x")],
    )
    def test_unparsable_value_names_option_and_value(
        self, tmp_path, capsys, option, value, bad
    ):
        net_path = tmp_path / "net.json"
        save_network(build_two_path_network(), net_path)
        grid = {"--route": "0,1,3", "--sizes": "5", "--deadlines": "10", option: value}
        out = tmp_path / "v.csv"
        code = main(
            ["validate", "--network", str(net_path), *(f"{k}={v}" for k, v in grid.items()),
             "--runs", "1000", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[CONFIG]") and f"{option} value {bad!r}" in err
        assert not out.exists()

    def test_degenerate_contact_rate_is_one_error_line(self, tmp_path, capsys):
        hop = {"lambda": 0.1, "alpha": 3.0, "beta": 5.0, "rate": 10.0}
        spec = write_json(tmp_path / "path.json", {"hops": [dict(hop, **{"lambda": 1e-200}), hop]})
        out = tmp_path / "v.csv"
        code = main(
            ["validate", "--path-spec", spec, "--sizes", "3", "--deadlines", "1e4",
             "--runs", "1000", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[VALIDATION]") and "contact_rate" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_nonpositive_deadlines_give_zero_rows(self, tmp_path):
        spec = write_json(
            tmp_path / "path.json",
            {"hops": [{"lambda": 0.05, "alpha": 3.0, "beta": 5.0, "rate": 10.0}]},
        )
        out = tmp_path / "v.csv"
        code = main(
            ["validate", "--path-spec", spec, "--sizes", "5,7.5", "--deadlines=-inf,-3,0",
             "--runs", "1000", "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in open(out).read().strip().splitlines()[1:]]
        assert len(rows) == 6
        assert all(float(value) == 0.0 for row in rows for value in row[2:])
