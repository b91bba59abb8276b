import json
import math
import re

import numpy as np
import pytest

import oppload as ol
from oppload.cli import main
from oppload.errors import ConfigError, IngestionError
from oppload.netgraph import edge_key


def table_config(seed=0, **overrides):
    kwargs = dict(
        n=100,
        avg_degree=10,
        max_degree=15,
        weight_exponent=2.0,
        node_alpha_range=(6.0, 10.0),
        node_beta_range=(2.0, 3.0),
        infra_alpha_range=(3.0, 4.0),
        infra_beta_range=(2.0, 3.0),
        infra_lambda_range=(0.001, 0.01),
        rate=1.0,
        seed=seed,
    )
    kwargs.update(overrides)
    return ol.SyntheticConfig(**kwargs)


class TestGenerateSynthetic:
    def test_degree_statistics(self):
        net = ol.generate_synthetic(table_config(seed=4))
        degrees = [net.degree(n) - 1 for n in net.mobile_nodes()]  # sans infra edge
        assert 8 <= np.mean(degrees) <= 12
        assert max(degrees) <= 15

    def test_tiny_network_is_a_triangle(self):
        cfg = table_config(n=3, avg_degree=2, max_degree=2, seed=1)
        net = ol.generate_synthetic(cfg)
        infra = net.infrastructure_id
        node_edges = {k for k in net.edges if infra not in k}
        assert node_edges == {(0, 1), (0, 2), (1, 2)}

    def test_deterministic_per_seed(self):
        cfg = table_config(seed=9)
        a = ol.network_to_json(ol.generate_synthetic(cfg))
        b = ol.network_to_json(ol.generate_synthetic(cfg))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_every_node_attached_to_infrastructure(self):
        net = ol.generate_synthetic(table_config(seed=2))
        infra = net.infrastructure_id
        for node in net.mobile_nodes():
            assert net.edge_params(node, infra) is not None

    def test_parameters_inside_ranges(self):
        cfg = table_config(seed=3)
        net = ol.generate_synthetic(cfg)
        infra = net.infrastructure_id
        for (a, b), params in net.edges.items():
            if infra in (a, b):
                assert cfg.infra_alpha_range[0] <= params.alpha <= cfg.infra_alpha_range[1]
                assert cfg.infra_beta_range[0] <= params.beta <= cfg.infra_beta_range[1]
                assert cfg.infra_lambda_range[0] <= params.contact_rate <= cfg.infra_lambda_range[1]
            else:
                assert cfg.node_alpha_range[0] <= params.alpha <= cfg.node_alpha_range[1]
                assert cfg.node_beta_range[0] <= params.beta <= cfg.node_beta_range[1]
                assert params.contact_rate <= 1.0 / cfg.weight_scale

    def test_config_validation(self):
        with pytest.raises(ValueError):
            table_config(max_degree=100)  # max_degree >= n
        with pytest.raises(ValueError):
            table_config(avg_degree=20, max_degree=15)
        with pytest.raises(ValueError):
            table_config(node_beta_range=(3.0, 2.0))


def synthesize_trace(true_params, horizon, seed0=100):
    records = []
    for i, (key, params) in enumerate(sorted(true_params.items())):
        for start, duration in ol.sample_contact_process(params, horizon, rng_seed=seed0 + i):
            records.append(ol.TraceRecord(key[0], key[1], start, start + duration))
    records.sort(key=lambda r: (r.t_start, r.node_a, r.node_b))
    return records


def star_params(rng, edges, rate=100.0):
    return {
        edge_key(a, b): ol.PairContactParams(
            contact_rate=float(rng.uniform(0.05, 0.2)),
            alpha=float(rng.uniform(2.0, 4.0)),
            beta=float(rng.uniform(2.0, 4.0)),
            rate=rate,
        )
        for a, b in edges
    }


class TestIncidentTable:
    @pytest.mark.parametrize("seed", [4, 23])
    def test_every_entry_equals_edge_params(self, seed):
        net = ol.generate_synthetic(table_config(seed=seed))
        entries = 0
        for node in range(net.node_count):
            table = net.incident(node)
            assert [nb for nb, _, _ in table] == net.neighbors(node)
            for neighbor, key, params in table:
                assert key == edge_key(node, neighbor)
                assert params is net.edge_params(node, neighbor)
            entries += len(table)
        assert entries == 2 * len(net.edges)

    @pytest.mark.parametrize(
        "key, message",
        [
            ((2, 1), r"^edge key \(2, 1\) is not canonical"),
            ((1, 1), "^self-loop edge at node 1"),
            ((1, 3), r"^edge \(1, 3\) node must be an integer in 0..2, got 3"),
            ((True, 2), r"^edge \(True, 2\) node must be an integer in 0..2, got True"),
        ],
    )
    def test_a_malformed_edge_key_is_refused(self, key, message):
        params = ol.PairContactParams(contact_rate=0.1, alpha=3.0, beta=2.0, rate=1.0)
        with pytest.raises(ValueError, match=message):
            ol.Network(node_count=3, infrastructure_id=2, edges={key: params})

    def test_numpy_integer_edge_keys_are_accepted(self):
        params = ol.PairContactParams(contact_rate=0.1, alpha=3.0, beta=2.0, rate=1.0)
        net = ol.Network(node_count=3, infrastructure_id=2, edges={(np.int64(1), 2): params})
        assert net.neighbors(2) == [1]

    def test_isolated_node_has_no_entries(self):
        params = ol.PairContactParams(contact_rate=0.1, alpha=3.0, beta=2.0, rate=1.0)
        net = ol.Network(node_count=3, infrastructure_id=2, edges={(1, 2): params})
        assert net.incident(0) == []
        assert net.incident(1) == [(2, (1, 2), params)]
        assert net.incident(2) == [(1, (1, 2), params)]


class TestIngestTrace:
    def test_round_trip_recovers_rates(self):
        rng = np.random.default_rng(8)
        true = star_params(rng, [(0, 1), (0, 2), (0, 3), (0, 4)])
        records = synthesize_trace(true, horizon=6000.0)
        net, evaluation = ol.ingest_trace(records, 0.5, rate=100.0)
        assert net.infrastructure_id == 0  # the hub has maximum degree
        for key, params in true.items():
            fitted = net.edges[key]
            assert abs(fitted.contact_rate - params.contact_rate) / params.contact_rate < 0.2
        assert evaluation  # the other half is returned for replay

    def test_round_trip_accuracy_across_pairs(self):
        rng = np.random.default_rng(9)
        true = star_params(
            rng, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (1, 3)]
        )
        # 8000 time units at rates >= 0.05 gives every pair >= 200 warmup contacts
        records = synthesize_trace(true, horizon=8000.0)
        net, _ = ol.ingest_trace(records, 0.5, rate=100.0)
        good = 0
        for key, params in true.items():
            fitted = net.edges.get(key)
            assert fitted is not None
            errors = (
                abs(fitted.contact_rate - params.contact_rate) / params.contact_rate,
                abs(fitted.alpha - params.alpha) / params.alpha,
                abs(fitted.beta - params.beta) / params.beta,
            )
            good += all(e < 0.15 for e in errors)
        assert good >= 0.9 * len(true)

    def test_single_pair_trace(self):
        rng = np.random.default_rng(10)
        true = star_params(rng, [(5, 9)])
        records = synthesize_trace(true, horizon=4000.0)
        net, _ = ol.ingest_trace(records, 0.5, rate=100.0)
        assert net.node_count == 2
        assert len(net.edges) == 1

    def test_single_pair_below_minimum_contacts(self):
        records = [
            ol.TraceRecord(0, 1, float(t), float(t) + 1.0) for t in range(0, 40, 10)
        ]
        with pytest.raises(IngestionError):
            ol.ingest_trace(records, 0.5, rate=1.0, min_contacts=5)

    @pytest.mark.parametrize("min_contacts", [0, -3])
    def test_min_contacts_below_one_is_rejected(self, min_contacts):
        records = [
            ol.TraceRecord(0, 1, float(t), float(t) + 1.0) for t in range(0, 400, 10)
        ]
        with pytest.raises(ValueError, match="min_contacts"):
            ol.ingest_trace(records, 0.5, rate=1.0, min_contacts=min_contacts)

    def test_empty_trace(self):
        with pytest.raises(IngestionError):
            ol.ingest_trace([], 0.5, rate=1.0)
        with pytest.raises(IngestionError, match="empty trace"):
            ol.ingest_trace(iter([]), 0.5, rate=1.0)

    def test_a_generator_of_records_fits_like_the_list(self):
        rng = np.random.default_rng(8)
        records = synthesize_trace(star_params(rng, [(0, 1), (0, 2), (0, 3)]), horizon=3000.0)
        want = ol.ingest_trace(records, 0.5, rate=100.0)
        assert (want[0].node_count, len(want[0].edges)) == (4, 3)
        assert ol.ingest_trace((r for r in records), 0.5, rate=100.0) == want

    def test_drops_nodes_far_from_infrastructure(self):
        rng = np.random.default_rng(12)
        # hub 0 with three spokes, plus a 3-hop chain 2-5-6: node 6 is
        # three hops from the hub and must be dropped
        true = star_params(rng, [(0, 1), (0, 2), (0, 3), (2, 5), (5, 6)])
        records = synthesize_trace(true, horizon=6000.0)
        net, evaluation = ol.ingest_trace(records, 0.5, rate=100.0)
        assert net.node_count == 5  # 0, 1, 2, 3, 5 survive
        for record in evaluation:
            assert record.node_a < net.node_count
            assert record.node_b < net.node_count


class TestSerialization:
    def test_network_json_round_trip(self, tmp_path):
        net = ol.generate_synthetic(table_config(n=12, avg_degree=3, max_degree=5, seed=6))
        path = tmp_path / "net.json"
        ol.save_network(net, path)
        loaded = ol.load_network(path)
        assert ol.network_to_json(loaded) == ol.network_to_json(net)

    def test_network_json_shape(self):
        net = ol.generate_synthetic(table_config(n=5, avg_degree=2, max_degree=3, seed=7))
        payload = ol.network_to_json(net)
        assert set(payload) == {"infrastructure", "nodes", "edges"}
        assert all(
            set(entry) == {"a", "b", "lambda", "alpha", "beta", "rate"}
            for entry in payload["edges"]
        )

    @pytest.mark.parametrize("reverse", [False, True])
    def test_repeated_edge_is_rejected(self, reverse):
        net = ol.generate_synthetic(table_config(n=5, avg_degree=2, max_degree=3, seed=7))
        payload = ol.network_to_json(net)
        first = payload["edges"][0]
        a, b = (first["b"], first["a"]) if reverse else (first["a"], first["b"])
        # a different alpha: unchecked, this entry would silently replace the first
        payload["edges"].append(dict(first, a=a, b=b, alpha=9.0))
        with pytest.raises(ConfigError, match=rf"\({a}, {b}\)"):
            ol.network_from_json(payload)

    @pytest.mark.parametrize(
        "where, field, value",
        [
            ("edge", "a", 0.7),
            ("edge", "b", True),
            ("edge", "a", "3"),
            ("network", "nodes", 9.5),
            ("network", "infrastructure", False),
            ("edge", "lambda", "0.17"),
            ("edge", "alpha", True),
            ("edge", "beta", None),
            ("edge", "rate", [1.0]),
        ],
    )
    def test_malformed_value_is_rejected(self, where, field, value):
        net = ol.generate_synthetic(table_config(n=5, avg_degree=2, max_degree=3, seed=7))
        payload = ol.network_to_json(net)
        (payload if where == "network" else payload["edges"][1])[field] = value
        name = "network" if where == "network" else "edge 1"
        with pytest.raises(ConfigError, match=rf"{name}.*field '{field}'"):
            ol.network_from_json(payload)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ([1], "network must be a JSON object"),
            ({"nodes": 3, "infrastructure": 2}, "field 'edges'"),
            ({"nodes": 3, "infrastructure": 2, "edges": 5}, "field 'edges'"),
            ({"nodes": 3, "infrastructure": 2, "edges": [5]}, "field 'edges[0]'"),
        ],
    )
    def test_malformed_network_file_is_rejected(self, tmp_path, capsys, payload, field):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: .*{re.escape(field)}"):
            ol.load_network(path)
        argv = ["plan", "--network", str(path), "--source", "0", "--size", "5", "--deadline", "200"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and field in err

    def test_integral_values_are_accepted_as_reals(self):
        net = ol.generate_synthetic(table_config(n=5, avg_degree=2, max_degree=3, seed=7))
        payload = ol.network_to_json(net)
        payload["edges"][0]["rate"] = 2
        assert ol.network_from_json(payload).edges[
            edge_key(payload["edges"][0]["a"], payload["edges"][0]["b"])
        ].rate == 2.0

    def test_trace_csv_round_trip(self, tmp_path):
        records = [
            ol.TraceRecord(0, 1, 1.5, 2.75),
            ol.TraceRecord(1, 2, 3.25, 9.125),
        ]
        path = tmp_path / "trace.csv"
        from oppload.netgraph import read_trace_csv, write_trace_csv

        write_trace_csv(records, path)
        assert read_trace_csv(path) == records

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,x,1.0,2.0", "node_b must be an integer, got 'x'"),
            ("0,1,1.0", "t_end is missing"),
            ("0,1,1.0,inf", "t_end must be a finite real number, got inf"),
            ("1.0,2,1.0,2.0", "node_a must be an integer, got '1.0'"),
            ("0,1,,2.0", "t_start must be a number, got ''"),
            ("0,1,3.0,2.0", "t_end must exceed t_start, got [3.0, 2.0]"),
            ("-1,1,1.0,2.0", "node_a must be a non-negative integer, got -1"),
            ("0,1,1.0,2.0,5", "5 cells, the header has 4"),
        ],
    )
    def test_a_malformed_trace_row_names_the_file_line_and_field(self, tmp_path, row, message):
        from oppload.netgraph import read_trace_csv

        path = tmp_path / "trace.csv"
        path.write_text(f"node_a,node_b,t_start,t_end\n0,1,0.0,1.0\n{row}\n", encoding="utf-8")
        with pytest.raises(IngestionError) as info:
            read_trace_csv(path)
        assert str(info.value) == f"{path} line 3: {message}"

    @pytest.mark.parametrize("text", ["", "node_a,node_b,t_start\n0,1,0.0\n"])
    def test_a_trace_without_its_header_names_the_file(self, tmp_path, text):
        from oppload.netgraph import read_trace_csv

        path = tmp_path / "trace.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IngestionError, match="must have header") as info:
            read_trace_csv(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_trace_cells_convert_as_before(self, tmp_path):
        from oppload.netgraph import read_trace_csv

        path = tmp_path / "trace.csv"
        path.write_text(
            "t_end,note,node_b,node_a,t_start\n2,x, 3 ,0,1e0\n\n4.5,,1,2,0.25\n", encoding="utf-8"
        )
        assert read_trace_csv(path) == [
            ol.TraceRecord(0, 3, 1.0, 2.0),
            ol.TraceRecord(2, 1, 0.25, 4.5),
        ]

    def test_trace_record_validation(self):
        with pytest.raises(ValueError):
            ol.TraceRecord(1, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            ol.TraceRecord(0, 1, 5.0, 5.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((True, 2, 0.0, 1.0), "node_a must be a non-negative integer"),
            ((0.5, 2, 0.0, 1.0), "node_a must be a non-negative integer"),
            ((0, -1, 0.0, 1.0), "node_b must be a non-negative integer"),
            ((0, 2.0, 0.0, 1.0), "node_b must be a non-negative integer"),
            ((0, 2, math.nan, 1.0), "t_start must be a finite real number"),
            ((0, 2, -math.inf, 1.0), "t_start must be a finite real number"),
            ((0, 2, 0.0, math.inf), "t_end must be a finite real number"),
            ((0, 2, 0.0, "1.0"), "t_end must be a finite real number"),
            ((0, 2, False, 1.0), "t_start must be a finite real number"),
        ],
    )
    def test_trace_record_refuses_malformed_ids_and_times(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            ol.TraceRecord(*fields)

    def test_trace_record_takes_numpy_ids_and_integer_times(self):
        record = ol.TraceRecord(np.int64(0), np.int32(2), 0, np.float64(1.5))
        assert (record.node_a, record.node_b, record.t_start, record.t_end) == (0, 2, 0, 1.5)
